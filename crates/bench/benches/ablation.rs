//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **plane-level parallelism** on/off — SSDSim's multilevel parallelism
//!   vs die-serial execution;
//! * **scheduling policy** — FIFO (paper-faithful) vs read-priority;
//! * **bus bandwidth** — the calibration knob that decides whether the
//!   channel bus or the flash array binds;
//! * **GC threshold** — spare-pool size vs write-path interference.
//!
//! Each bench reports wall time of the simulation; the *simulated* latency
//! effect of each knob is printed by the accompanying example
//! (`examples/ablation_study.rs`).

use bench::harness::Group;
use bench::{bench_ssd, four_tenant_mix, simulate};
use flash_sim::scheduler::SchedPolicy;
use flash_sim::{SsdConfig, TenantLayout};

fn run_once(cfg: SsdConfig, trace: &[flash_sim::IoRequest]) -> flash_sim::SimReport {
    let layout = TenantLayout::shared(4, &cfg).with_lpn_space_all(1 << 10);
    simulate(cfg, layout, trace)
}

fn plane_parallelism() {
    let trace = four_tenant_mix(3_000, 70_000.0);
    let mut group = Group::new("ablation_plane_parallelism");
    group.sample_size(10);
    for enabled in [true, false] {
        group.bench(&format!("{enabled}"), || {
            run_once(
                SsdConfig {
                    plane_parallelism: enabled,
                    ..bench_ssd()
                },
                &trace,
            )
        });
    }
    group.finish();
}

fn sched_policy() {
    let trace = four_tenant_mix(3_000, 70_000.0);
    let mut group = Group::new("ablation_sched_policy");
    group.sample_size(10);
    let policies = [
        ("fifo", SchedPolicy::Fifo),
        ("read_priority", SchedPolicy::ReadPriority { max_bypass: 8 }),
    ];
    for (name, policy) in policies {
        group.bench(name, || {
            run_once(
                SsdConfig {
                    sched_policy: policy,
                    ..bench_ssd()
                },
                &trace,
            )
        });
    }
    group.finish();
}

fn bus_bandwidth() {
    let trace = four_tenant_mix(2_000, 50_000.0);
    let mut group = Group::new("ablation_bus_bandwidth");
    group.sample_size(10);
    for mb_s in [100u64, 200, 800] {
        group.bench(&format!("{mb_s}"), || {
            run_once(
                SsdConfig {
                    bus_mb_per_s: mb_s,
                    ..bench_ssd()
                },
                &trace,
            )
        });
    }
    group.finish();
}

fn gc_threshold() {
    // Overwrite-heavy single-tenant trace that actually triggers GC.
    let trace: Vec<flash_sim::IoRequest> = (0..8_000u64)
        .map(|i| {
            flash_sim::IoRequest::new(i, 0, flash_sim::Op::Write, (i * 7) % 256, 1, i * 11_000)
        })
        .collect();
    let mut group = Group::new("ablation_gc_threshold");
    group.sample_size(10);
    for threshold in [0.05f64, 0.25, 0.45] {
        group.bench(&format!("{threshold}"), || {
            let cfg = SsdConfig {
                channels: 1,
                chips_per_channel: 1,
                blocks_per_plane: 16,
                pages_per_block: 16,
                gc_free_block_threshold: threshold,
                ..bench_ssd()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
            simulate(cfg, layout, &trace)
        });
    }
    group.finish();
}

fn main() {
    plane_parallelism();
    sched_policy();
    bus_bandwidth();
    gc_threshold();
}
