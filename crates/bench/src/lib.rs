//! The tracked benchmark target.
//!
//! `benches/sim_throughput.rs` is a plain `harness = false` program that
//! times its own loops and writes `BENCH_sim.json`; `scripts/bench.sh`
//! runs it and diffs the result against the committed report.

#![forbid(unsafe_code)]
