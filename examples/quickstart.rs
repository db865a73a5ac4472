//! Quickstart: simulate a two-tenant SSD and compare channel strategies.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a writer tenant and a reader tenant, replays their mixed trace
//! against the paper's 8-channel SSD under three channel allocations, and
//! prints the latency breakdown.

use ssdkeeper_repro::flash_sim::{SimArena, SsdConfig};
use ssdkeeper_repro::ssdkeeper::label::{run_under_strategy, EvalConfig};
use ssdkeeper_repro::ssdkeeper::Strategy;
use ssdkeeper_repro::workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

fn main() {
    // One write-dominated tenant and one read-dominated tenant sharing the
    // Table I device (scaled block count for a quick run).
    let writer = TenantSpec::synthetic("writer", 0.95, 25_000.0, 1 << 12);
    let reader = TenantSpec::synthetic("reader", 0.05, 45_000.0, 1 << 12);

    let w = generate_tenant_stream(&writer, 0, 8_000, 1);
    let r = generate_tenant_stream(&reader, 1, 14_000, 2);
    let trace = mix_chronological(&[w, r], 20_000);
    println!(
        "mixed trace: {} requests over {:.1} ms of arrivals",
        trace.len(),
        trace.last().unwrap().arrival_ns as f64 / 1e6
    );

    let eval = EvalConfig {
        ssd: SsdConfig::scaled_for_sweeps(),
        hybrid: false,
        pool: ssdkeeper_repro::parallel::PoolConfig::auto(),
    };
    let rw_chars = [0u8, 1]; // writer, reader
    let lpn_spaces = [1 << 12, 1 << 12];

    println!(
        "\n{:<10} {:>12} {:>12} {:>12}",
        "strategy", "read (us)", "write (us)", "total (us)"
    );
    let mut arena = SimArena::new();
    for strategy in [
        Strategy::Shared,
        Strategy::Isolated,
        Strategy::TwoPart { write_channels: 2 },
    ] {
        let report =
            run_under_strategy(&trace, strategy, &rw_chars, &lpn_spaces, &eval, &mut arena)
                .expect("workload fits the device");
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1}",
            strategy.to_string(),
            report.read.mean_us(),
            report.write.mean_us(),
            report.total_latency_metric_us(),
        );
    }
    println!("\nLower total is better; which strategy wins depends on the mix —");
    println!("that is exactly the gap SSDKeeper's learned allocator closes.");
}
