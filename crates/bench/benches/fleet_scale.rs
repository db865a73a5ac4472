//! Fleet-scale throughput and core-scaling — the tracked `fleet_1k` gate.
//!
//! Runs the [`fleet::FleetConfig::scenario_1k`] scenario (1000 tenants
//! across 64 device shards under the two-tier keeper) twice: once pinned
//! to a single worker and once across `max(4, available cores)` workers,
//! both measured as median-of-N wall time over the whole `run_fleet`
//! call (stream generation, placement, every shard simulation, the
//! re-placement hook, and the merge). From those two runs it derives
//!
//! * `events_per_sec` — merged discrete events over wall time at the
//!   multi-worker setting (the tracked throughput number),
//! * `speedup_vs_1_worker` — multi-worker over single-worker throughput,
//! * `core_scaling_efficiency` — that speedup divided by the worker
//!   count, honest about the machine: `cores` records what the container
//!   actually had, and on a single hardware thread the speedup is ~1.0
//!   by construction, not a regression.
//!
//! On a single-core container the entry carries
//! `"scaling_meaningful": false`, the speedup rows become informational,
//! and the gated `current` throughput is the single-worker run — a
//! 4-worker pool on one hardware thread measures context switching, and
//! publishing it would read as a regression against a multicore-recorded
//! baseline.
//!
//! Determinism makes the comparison exact: both settings produce
//! byte-identical merged results (the bench asserts digest equality), so
//! the timing difference is pure scheduling, never different work.
//!
//! When `SSDKEEPER_BENCH_JSON` names a report, a `fleet_1k` entry is
//! spliced into its `workloads` object without disturbing the other
//! entries. The `baseline` is the first run ever recorded; because the
//! `sim_throughput` bench rewrites the whole file with only its own
//! workloads, the splice looks for the prior `fleet_1k` baseline in
//! `SSDKEEPER_BENCH_PREV` (the pre-run snapshot `scripts/bench.sh`
//! takes) before falling back to the report itself.
//!
//! Env knobs: `SSDKEEPER_BENCH_ITERS` (default 3 here — a full fleet run
//! is the unit of work), `SSDKEEPER_BENCH_WARMUP` (default 1),
//! `SSDKEEPER_BENCH_JSON`, `SSDKEEPER_BENCH_PREV`.

use bench::report;
use fleet::{run_fleet, FleetConfig, FleetOutcome};
use parallel::PoolConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Sample {
    outcome: FleetOutcome,
    elapsed: Duration,
}

/// Median-of-N wall time for the scenario at a fixed worker count.
fn measure(cfg: &FleetConfig, iters: usize, warmup: usize) -> Sample {
    for _ in 0..warmup {
        black_box(run_fleet(cfg).expect("fleet bench scenario runs"));
    }
    let mut samples: Vec<Sample> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            let outcome = run_fleet(cfg).expect("fleet bench scenario runs");
            Sample {
                elapsed: start.elapsed(),
                outcome,
            }
        })
        .collect();
    samples.sort_by_key(|s| s.elapsed);
    samples.swap_remove((samples.len() - 1) / 2)
}

fn main() {
    let iters = env_usize("SSDKEEPER_BENCH_ITERS", 3).max(1);
    let warmup = env_usize("SSDKEEPER_BENCH_WARMUP", 1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.max(4);
    let cfg = FleetConfig::scenario_1k(42);

    let single = measure(
        &FleetConfig {
            pool: PoolConfig::with_workers(1),
            ..cfg.clone()
        },
        iters,
        warmup,
    );
    let multi = measure(
        &FleetConfig {
            pool: PoolConfig::with_workers(workers),
            ..cfg.clone()
        },
        iters,
        warmup,
    );
    assert_eq!(
        single.outcome.summary.digest(),
        multi.outcome.summary.digest(),
        "worker count must not change the merged result"
    );

    let events = multi.outcome.summary.total_events();
    let eps = |s: &Sample| events as f64 / s.elapsed.as_secs_f64().max(1e-9);
    let eps_1 = eps(&single);
    let eps_n = eps(&multi);
    let speedup = eps_n / eps_1;
    let efficiency = speedup / workers as f64;
    let scaling_meaningful = scaling_is_meaningful(cores);
    println!(
        "fleet_scale/fleet_1k tenants={} devices={} events={events} iters={iters}",
        cfg.tenants, cfg.devices
    );
    println!(
        "fleet_scale/fleet_1k 1 worker: median={:?}  {:.0} events/s",
        single.elapsed, eps_1
    );
    println!(
        "fleet_scale/fleet_1k {workers} workers ({cores} cores): median={:?}  {:.0} events/s  \
         speedup {speedup:.2}x  efficiency {:.0}%{}",
        multi.elapsed,
        eps_n,
        efficiency * 100.0,
        if scaling_meaningful {
            ""
        } else {
            "  (informational: 1 core, scaling not meaningful)"
        }
    );
    println!(
        "fleet_scale/fleet_1k digest 0x{:016x}",
        multi.outcome.summary.digest()
    );

    if let Ok(path) = std::env::var("SSDKEEPER_BENCH_JSON") {
        write_entry(
            &path, &cfg, cores, workers, events, &single, &multi, eps_1, eps_n,
        );
    }
}

/// Whether multi-worker timings on this machine say anything about
/// scaling (false on a single hardware thread, where the pool only adds
/// context-switch overhead).
fn scaling_is_meaningful(cores: usize) -> bool {
    cores > 1
}

/// The stored `fleet_1k` baseline from a report text, if present.
fn stored_baseline(text: &str, workload: &str) -> Option<(u64, u64, f64)> {
    match (
        report::baseline_number(text, workload, "events"),
        report::baseline_number(text, workload, "median_ns"),
        report::baseline_number(text, workload, "events_per_sec"),
    ) {
        (Some(e), Some(m), Some(eps)) => Some((e as u64, m as u64, eps)),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_entry(
    path: &str,
    cfg: &FleetConfig,
    cores: usize,
    workers: usize,
    events: u64,
    single: &Sample,
    multi: &Sample,
    eps_1: f64,
    eps_n: f64,
) {
    // On one core the gated `current` row is the single-worker run: the
    // multi-worker timing only measures oversubscription there, and
    // publishing it would read as a throughput regression against a
    // multicore-recorded baseline. The speedup stays in the row either
    // way, marked informational by `scaling_meaningful`.
    let scaling_meaningful = scaling_is_meaningful(cores);
    let tracked = if scaling_meaningful { multi } else { single };
    let tracked_eps = if scaling_meaningful { eps_n } else { eps_1 };
    let median_ns = tracked.elapsed.as_nanos() as u64;
    let single_ns = single.elapsed.as_nanos() as u64;
    // Baseline: prefer the pre-bench snapshot (sim_throughput rewrites
    // the live report without fleet_1k), then the live report, then the
    // fresh numbers (first run ever).
    let prev = std::env::var("SSDKEEPER_BENCH_PREV")
        .ok()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let (base_events, base_median, base_eps) = stored_baseline(&prev, "fleet_1k")
        .or_else(|| stored_baseline(&existing, "fleet_1k"))
        .unwrap_or((events, median_ns, tracked_eps));
    let speedup_vs_base = tracked_eps / base_eps;
    let speedup = eps_n / eps_1;
    let entry = format!(
        "    \"fleet_1k\": {{\n      \"tenants\": {},\n      \"devices\": {},\n      \
         \"requests_per_tenant\": {},\n      \"cores\": {cores},\n      \"workers\": {workers},\n      \
         \"scaling_meaningful\": {scaling_meaningful},\n      \
         \"baseline\": {{ \"events\": {base_events}, \"median_ns\": {base_median}, \
         \"events_per_sec\": {base_eps:.1} }},\n      \
         \"current\": {{ \"events\": {events}, \"median_ns\": {median_ns}, \
         \"events_per_sec\": {tracked_eps:.1} }},\n      \
         \"single_worker\": {{ \"median_ns\": {single_ns}, \"events_per_sec\": {eps_1:.1} }},\n      \
         \"speedup_vs_1_worker\": {speedup:.3},\n      \
         \"core_scaling_efficiency\": {:.3},\n      \
         \"speedup_vs_baseline\": {speedup_vs_base:.3}\n    }}",
        cfg.tenants,
        cfg.devices,
        cfg.requests_per_tenant,
        speedup / workers as f64,
    );
    std::fs::write(path, report::splice_entry(&existing, "fleet_1k", &entry))
        .expect("write BENCH json");
    println!("fleet_scale: fleet_1k speedup vs baseline: {speedup_vs_base:.3}x");
    println!("fleet_scale: wrote {path}");
}
