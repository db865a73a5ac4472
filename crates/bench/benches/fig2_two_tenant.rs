//! Figure 2 bench: simulate the two-tenant writer/reader mix under each
//! of the 8 two-tenant strategies at representative write proportions.
//!
//! The timing numbers measure simulator throughput per strategy; the
//! latency *results* the paper plots come from `exp --bin fig2`.

use bench::harness::Group;
use bench::{bench_ssd, two_tenant_mix};
use flash_sim::SimArena;
use parallel::PoolConfig;
use ssdkeeper::label::{run_under_strategy, EvalConfig};
use ssdkeeper::Strategy;

fn fig2_strategies() {
    let eval = EvalConfig {
        ssd: bench_ssd(),
        hybrid: false,
        pool: PoolConfig::with_workers(1),
    };
    let mut group = Group::new("fig2");
    group.sample_size(10);
    for &write_pct in &[30u32, 70] {
        let trace = two_tenant_mix(write_pct, 3_000, 70_000.0);
        for strategy in [
            Strategy::Shared,
            Strategy::Isolated,
            Strategy::TwoPart { write_channels: 2 },
            Strategy::TwoPart { write_channels: 6 },
        ] {
            group.bench(&format!("wp{write_pct}/{strategy}"), || {
                run_under_strategy(
                    &trace,
                    strategy,
                    &[0, 1],
                    &[1 << 10, 1 << 10],
                    &eval,
                    &mut SimArena::new(),
                )
                .expect("bench workload fits the device")
            });
        }
    }
    group.finish();
}

fn main() {
    fig2_strategies();
}
