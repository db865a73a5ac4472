//! Decision-layer throughput — the tracked `decision_throughput` and
//! `label_farm` gates.
//!
//! **Decisions.** One keeper window's worth of feature vectors (batch
//! 256) pushed through the allocator two ways: row-at-a-time
//! [`ssdkeeper::ChannelAllocator::predict`] (the baseline) and the
//! batched scratch-buffer path (`predict_batch_into`, the current
//! number). Both must agree decision-for-decision (the batch kernel is
//! row-independent), so the timing difference is pure execution
//! strategy, never different answers. `decisions_per_sec` is derived from
//! the median of N timed passes.
//!
//! **Labels.** The parallel label farm
//! ([`ssdkeeper::learner::Learner::generate_dataset_parallel`]) at one
//! worker (baseline) versus the multi-worker pool (current); both
//! produce byte-identical datasets (asserted), so `labels_per_sec`
//! measures the fan-out alone. On a single-core container the entry is
//! annotated `"scaling_meaningful": false`, the speedup is printed as
//! informational, and the gated `current` row is the single-worker run
//! (oversubscribing one hardware thread measures context switching, not
//! the farm).
//!
//! When `SSDKEEPER_BENCH_JSON` names a report, `decision_throughput` and
//! `label_farm` entries are spliced into its `workloads` object
//! ([`bench::report`]) without disturbing the other entries; `ssdtrace
//! diff` then compares the `*_per_sec` rows against the pre-run snapshot
//! under the strict gate. With `SSDKEEPER_BENCH_STRICT=1` this binary
//! additionally enforces the batching acceptance bar in-process: batched
//! decisions at batch ≥ 64 must run ≥ 3× the row-at-a-time baseline.
//!
//! Env knobs: `SSDKEEPER_BENCH_ITERS` (default 5), `SSDKEEPER_BENCH_WARMUP`
//! (default 1), `SSDKEEPER_BENCH_JSON`, `SSDKEEPER_BENCH_STRICT`.

use bench::report;
use parallel::PoolConfig;
use simrng::{Rng, SimRng};
use ssdkeeper::learner::{DatasetSpec, Learner};
use ssdkeeper::{ChannelAllocator, DecisionScratch, FeatureVector};
use std::hint::black_box;
use std::time::Instant;

/// Feature vectors per batched decision call (one fleet window's worth).
const BATCH: usize = 256;
/// Batch passes folded into one timed sample, so a sample is far above
/// timer resolution.
const PASSES: usize = 50;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median wall time of `iters` timed runs of `f`, in nanoseconds.
fn median_ns(iters: usize, warmup: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

/// A deterministic corpus of realistic keeper feature vectors.
fn corpus(n: usize) -> Vec<FeatureVector> {
    let mut rng = SimRng::seed_from_u64(0xD0C5);
    (0..n)
        .map(|_| {
            let mut shares = [0.0f64; 4];
            let mut total = 0.0;
            for s in shares.iter_mut() {
                *s = rng.gen_range(0.05..1.0);
                total += *s;
            }
            for s in shares.iter_mut() {
                *s /= total;
            }
            FeatureVector {
                intensity_level: rng.gen_range(0u32..20),
                rw_char: [
                    rng.gen_range(0u8..2),
                    rng.gen_range(0u8..2),
                    rng.gen_range(0u8..2),
                    rng.gen_range(0u8..2),
                ],
                shares,
            }
        })
        .collect()
}

/// The label-farm workload: small enough that a full farm pass is the
/// unit of work, big enough that the 42-strategy sweeps dominate.
fn farm_spec() -> DatasetSpec {
    DatasetSpec {
        samples: 16,
        requests_per_sample: 400,
        ..DatasetSpec::quick(16)
    }
}

fn main() {
    let iters = env_usize("SSDKEEPER_BENCH_ITERS", 5).max(1);
    let warmup = env_usize("SSDKEEPER_BENCH_WARMUP", 1);
    let strict = std::env::var("SSDKEEPER_BENCH_STRICT").is_ok_and(|v| v == "1");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Decisions ------------------------------------------------------
    // An untrained but correctly shaped allocator: timing does not
    // depend on the weights.
    let allocator = ChannelAllocator::new(
        ann::Network::paper_topology(ann::Activation::Logistic, 3),
        120_000.0,
    );
    let features = corpus(BATCH);

    // Correctness before timing: both paths decide identically.
    let rowwise: Vec<_> = features.iter().map(|f| allocator.predict(f)).collect();
    assert_eq!(allocator.predict_batch(&features), rowwise);

    let decisions = (BATCH * PASSES) as u64;
    let row_ns = median_ns(iters, warmup, || {
        for _ in 0..PASSES {
            for f in &features {
                black_box(allocator.predict(f));
            }
        }
    });
    let mut scratch = DecisionScratch::new();
    let mut out = Vec::new();
    let batch_ns = median_ns(iters, warmup, || {
        for _ in 0..PASSES {
            allocator.predict_batch_into(&features, &mut scratch, &mut out);
            black_box(out.len());
        }
    });

    let dps = |ns: u64| decisions as f64 / (ns as f64 / 1e9).max(1e-12);
    let (dps_row, dps_batch) = (dps(row_ns), dps(batch_ns));
    let speedup = dps_batch / dps_row;
    println!("decision_throughput/batch={BATCH} decisions={decisions} iters={iters}");
    println!("decision_throughput/rowwise   median={row_ns}ns  {dps_row:.0} decisions/s");
    println!(
        "decision_throughput/batched   median={batch_ns}ns  {dps_batch:.0} decisions/s  \
         speedup {speedup:.2}x"
    );
    if strict {
        assert!(
            BATCH >= 64 && speedup >= 3.0,
            "strict gate: batched decisions must run >= 3x the row-at-a-time \
             baseline at batch >= 64 (got {speedup:.2}x)"
        );
    }

    // --- Labels ---------------------------------------------------------
    let learner = Learner::new(farm_spec());
    let samples = farm_spec().samples as u64;
    let workers = cores.max(4);
    let single = PoolConfig::with_workers(1);
    let multi = PoolConfig::with_workers(workers);
    let reference = learner.generate_dataset_parallel(97, &single);
    let fanned = learner.generate_dataset_parallel(97, &multi);
    for (a, b) in reference.samples.iter().zip(&fanned.samples) {
        assert_eq!(a.label, b.label, "farm fan-out changed a label");
        assert_eq!(a.features, b.features, "farm fan-out changed features");
    }
    let single_ns = median_ns(iters, warmup, || {
        black_box(learner.generate_dataset_parallel(97, &single));
    });
    let multi_ns = median_ns(iters, warmup, || {
        black_box(learner.generate_dataset_parallel(97, &multi));
    });
    let lps = |ns: u64| samples as f64 / (ns as f64 / 1e9).max(1e-12);
    let (lps_1, lps_n) = (lps(single_ns), lps(multi_ns));
    let farm_speedup = lps_n / lps_1;
    // On one core the fan-out only measures oversubscription, so the
    // gated `current` row is the single-worker run and the speedup is
    // informational (`"scaling_meaningful": false` in the JSON entry).
    let scaling_meaningful = cores > 1;
    let (tracked_ns, tracked_lps) = if scaling_meaningful {
        (multi_ns, lps_n)
    } else {
        (single_ns, lps_1)
    };
    println!("label_farm/samples={samples} workers={workers} ({cores} cores) iters={iters}");
    println!("label_farm/1 worker  median={single_ns}ns  {lps_1:.2} labels/s");
    println!(
        "label_farm/{workers} workers median={multi_ns}ns  {lps_n:.2} labels/s  \
         speedup {farm_speedup:.2}x{}",
        if scaling_meaningful {
            ""
        } else {
            "  (informational: 1 core, scaling not meaningful)"
        }
    );

    if let Ok(path) = std::env::var("SSDKEEPER_BENCH_JSON") {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let decide_entry = format!(
            "    \"decision_throughput\": {{\n      \"batch\": {BATCH},\n      \
             \"decisions\": {decisions},\n      \
             \"baseline\": {{ \"median_ns\": {row_ns}, \"decisions_per_sec\": {dps_row:.1} }},\n      \
             \"current\": {{ \"median_ns\": {batch_ns}, \"decisions_per_sec\": {dps_batch:.1} }},\n      \
             \"speedup_batched_vs_rowwise\": {speedup:.3}\n    }}"
        );
        let spliced = report::splice_entry(&existing, "decision_throughput", &decide_entry);
        let farm_entry = format!(
            "    \"label_farm\": {{\n      \"samples\": {samples},\n      \
             \"cores\": {cores},\n      \"workers\": {workers},\n      \
             \"scaling_meaningful\": {scaling_meaningful},\n      \
             \"baseline\": {{ \"median_ns\": {single_ns}, \"labels_per_sec\": {lps_1:.3} }},\n      \
             \"current\": {{ \"median_ns\": {tracked_ns}, \"labels_per_sec\": {tracked_lps:.3} }},\n      \
             \"speedup_vs_1_worker\": {farm_speedup:.3}\n    }}"
        );
        std::fs::write(
            &path,
            report::splice_entry(&spliced, "label_farm", &farm_entry),
        )
        .expect("write BENCH json");
        println!("decision_throughput: wrote {path}");
    }
}
