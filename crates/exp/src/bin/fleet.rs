//! `fleet` — runs the fleet-scale sharded scenario: M device shards
//! under a two-tier keeper (fleet placement above per-device channel
//! allocation), fanned out over worker threads.
//!
//! The default shape is the `fleet_1k` scenario (1000 tenants /
//! 64 devices). The printed `fleet digest` line is a pure function of
//! the scenario parameters — never of `--workers` — and is what the
//! verify gate compares across worker counts.
//!
//! ```text
//! cargo run --release -p exp --bin fleet -- --tenants 1000 --devices 64
//! cargo run --release -p exp --bin fleet -- --smoke --workers 1
//! ```
//!
//! Flags: `--seed N`, `--tenants N`, `--devices N`, `--requests N`
//! (per tenant), `--workers N` (0 = auto), `--replacements N`,
//! `--threshold X`, `--smoke` (small preset), `--json` (merged summary
//! as ssdtrace JSON), `--timeline` (write the shard-tagged timeline CSV
//! to artifacts/), `--telemetry PATH|stderr` (stream live NDJSON
//! counter snapshots for `ssdtrace live`), `--spans PATH` (write folded
//! host spans for `ssdtrace flame`; both need `--features host-trace`).
//!
//! Under `--json`, stdout carries *only* the JSON document — the digest,
//! timeline, and telemetry status lines move to stderr.

use exp::args::Args;
use exp::artifact_path;
use exp::session::ObsSession;
use fleet::{run_fleet, FleetConfig};
use parallel::PoolConfig;

fn main() {
    let args = Args::from_env();
    let common = args.common(42);
    let seed = common.seed;
    let mut cfg = if args.has("smoke") {
        FleetConfig::smoke(seed)
    } else {
        FleetConfig::scenario_1k(seed)
    };
    cfg.tenants = args.get("tenants", cfg.tenants);
    cfg.devices = args.get("devices", cfg.devices);
    cfg.requests_per_tenant = args.get("requests", cfg.requests_per_tenant);
    cfg.max_replacements = args.get("replacements", cfg.max_replacements);
    cfg.tail_threshold = args.get("threshold", cfg.tail_threshold);
    let workers = args.get("workers", 0usize);
    if workers > 0 {
        cfg.pool = PoolConfig::with_workers(workers);
    }

    let session = ObsSession::start(&args);
    obs::gauge_set!("fleet.shards_total", cfg.devices as i64);
    obs::gauge_set!("fleet.tenants_total", cfg.tenants as i64);

    let started = std::time::Instant::now();
    let outcome = match run_fleet(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(2);
        }
    };
    let wall = started.elapsed();
    session.finish();

    if common.json {
        println!("{}", trace_tools::render_json(&outcome.summary.merged, 0));
    } else {
        let events = outcome.summary.total_events();
        let eps = events as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "fleet: {} tenants on {} devices, {} workers",
            cfg.tenants,
            cfg.devices,
            cfg.pool.worker_count()
        );
        println!(
            "  events {events}  wall {:.2}s  ({:.0} events/s)",
            wall.as_secs_f64(),
            eps
        );
        println!(
            "  makespan {:.1} ms (simulated)",
            outcome.summary.makespan_ns() as f64 / 1e6
        );
        for r in &outcome.replacements {
            println!(
                "  re-placed tenant {} from device {} to {} (round {})",
                r.tenant, r.from, r.to, r.round
            );
        }
        let strategies: Vec<String> = outcome
            .summary
            .shards
            .iter()
            .map(|s| format!("{:?}", s.strategy))
            .collect();
        let mut counts = std::collections::BTreeMap::new();
        for s in &strategies {
            *counts.entry(s.clone()).or_insert(0usize) += 1;
        }
        let tally: Vec<String> = counts.iter().map(|(s, n)| format!("{s}×{n}")).collect();
        println!("  strategies: {}", tally.join(" "));
    }

    if args.has("timeline") {
        let path = artifact_path("fleet_timeline.csv");
        std::fs::write(&path, outcome.summary.tagged_timeline_csv()).expect("write timeline csv");
        // Status line, not a result: keep it off stdout so `--json`
        // output stays machine-parseable.
        eprintln!("  timeline -> {}", path.display());
    }

    // Stable, parseable determinism handle (compared by verify.sh,
    // which greps stdout in the human mode; under --json it moves to
    // stderr so stdout is exactly one JSON document).
    let digest = format!("fleet digest: 0x{:016x}", outcome.summary.digest());
    if common.json {
        eprintln!("{digest}");
    } else {
        println!("{digest}");
    }
}
