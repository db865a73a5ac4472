//! Ablation study of the simulator's design knobs: how plane-level
//! parallelism, the queueing discipline, and the hybrid page allocator
//! change the *simulated* latencies (the wall-clock cost of each knob is
//! benchmarked in `crates/bench/benches/ablation.rs`).
//!
//! ```text
//! cargo run --release --example ablation_study
//! ```

use ssdkeeper_repro::flash_sim::scheduler::SchedPolicy;
use ssdkeeper_repro::flash_sim::{PageAllocPolicy, SimArena, SimBuilder, SsdConfig, TenantLayout};
use ssdkeeper_repro::workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

fn mixed_trace(requests: usize) -> Vec<ssdkeeper_repro::flash_sim::IoRequest> {
    let specs = [
        TenantSpec::synthetic("w0", 0.95, 30_000.0, 1 << 12),
        TenantSpec::synthetic("r0", 0.05, 50_000.0, 1 << 12),
    ];
    let streams: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(t, s)| generate_tenant_stream(s, t as u16, requests, t as u64 + 9))
        .collect();
    mix_chronological(&streams, requests)
}

fn run(
    cfg: SsdConfig,
    dynamic_writes: bool,
    trace: &[ssdkeeper_repro::flash_sim::IoRequest],
) -> (f64, f64) {
    let mut layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(1 << 12);
    if dynamic_writes {
        layout = layout.with_policy(0, PageAllocPolicy::Dynamic);
    }
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg, layout)
        .build_with_arena(&mut arena)
        .unwrap();
    let report = sim.run_reclaim(trace, &mut arena).unwrap();
    (report.read.mean_us(), report.write.mean_us())
}

fn main() {
    let trace = mixed_trace(20_000);
    let base = SsdConfig::scaled_for_sweeps();
    println!(
        "{:<42} {:>12} {:>12}",
        "configuration", "read (us)", "write (us)"
    );

    let cases: Vec<(&str, SsdConfig, bool)> = vec![
        ("baseline (plane-par, FIFO, static)", base.clone(), false),
        (
            "no plane parallelism (die-serial arrays)",
            SsdConfig {
                plane_parallelism: false,
                ..base.clone()
            },
            false,
        ),
        (
            "read-priority scheduling (bypass 8)",
            SsdConfig {
                sched_policy: SchedPolicy::ReadPriority { max_bypass: 8 },
                ..base.clone()
            },
            false,
        ),
        (
            "fast bus (800 MB/s, array-bound regime)",
            SsdConfig {
                bus_mb_per_s: 800,
                ..base.clone()
            },
            false,
        ),
        ("dynamic allocation for the writer", base.clone(), true),
    ];
    for (name, cfg, dynamic) in cases {
        let (read, write) = run(cfg, dynamic, &trace);
        println!("{name:<42} {read:>12.1} {write:>12.1}");
    }

    println!("\nReadings:");
    println!("  * disabling plane parallelism slashes write throughput (programs serialize);");
    println!("  * read-priority scheduling trims read latency at the cost of writes;");
    println!("  * a fast bus shifts the bottleneck to the flash array, shrinking the");
    println!("    channel-allocation effect the paper studies;");
    println!("  * dynamic write allocation spreads bursts across idle planes.");
}
