//! Shared pieces of the tracked benchmark targets.
//!
//! The `benches/` binaries (`sim_throughput`, `fleet_scale`,
//! `decision_throughput`) are plain `harness = false` programs that time
//! their own loops and splice their rows into `BENCH_sim.json` through
//! [`report`].

#![forbid(unsafe_code)]

pub mod report;
