//! `decide` — exercises the decision-throughput layer end to end: a
//! deterministic corpus of keeper feature vectors pushed through the
//! channel allocator row-at-a-time and batched.
//!
//! Both paths must agree decision-for-decision (the batched kernel is
//! row-independent); the binary exits non-zero if they ever diverge,
//! which is what makes it a verify gate and not just a stopwatch. The
//! printed `decide digest` line is a pure function of `--seed` and
//! `--batch` — never of timing or `--passes`.
//!
//! ```text
//! cargo run --release -p exp --bin decide
//! cargo run --release -p exp --bin decide -- --smoke
//! cargo run --release -p exp --bin decide -- --batch 512 --passes 40
//! ```
//!
//! Flags: `--seed N` (network init seed), `--batch N` (feature vectors
//! per batched call), `--passes N` (timed passes over the corpus),
//! `--smoke` (small preset: batch 64, 2 passes).

use exp::args::Args;
use simrng::{Rng, SimRng};
use ssdkeeper::{ChannelAllocator, DecisionScratch, FeatureVector};
use std::time::Instant;

/// A deterministic corpus of realistic keeper feature vectors: mixed
/// intensities, all read/write characters, normalized channel shares.
fn corpus(seed: u64, n: usize) -> Vec<FeatureVector> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xD0C5);
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

/// FNV-1a over the decided strategy indices — the determinism handle.
fn digest(decisions: &[ssdkeeper::Strategy]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for d in decisions {
        h ^= d.index(4) as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let args = Args::from_env();
    let common = args.common(3);
    common.require_sim("decide");
    let seed = common.seed;
    let (batch, passes) = if args.has("smoke") {
        (args.get("batch", 64usize), args.get("passes", 2usize))
    } else {
        (args.get("batch", 256usize), args.get("passes", 20usize))
    };

    let allocator = ChannelAllocator::new(
        ann::Network::paper_topology(ann::Activation::Logistic, seed),
        120_000.0,
    );
    let features = corpus(seed, batch);

    // Agreement gate: both paths must make the same call on every row.
    let rowwise: Vec<_> = features.iter().map(|f| allocator.predict(f)).collect();
    let batched = allocator.predict_batch(&features);
    for (i, (r, b)) in rowwise.iter().zip(&batched).enumerate() {
        if r != b {
            eprintln!("decide: paths diverged on row {i}: rowwise {r:?}, batched {b:?}");
            std::process::exit(2);
        }
    }

    let decisions = (batch * passes) as u64;
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64().max(1e-9)
    };
    let row_s = time(&mut || {
        for _ in 0..passes {
            for f in &features {
                std::hint::black_box(allocator.predict(f));
            }
        }
    });
    let mut scratch = DecisionScratch::new();
    let mut out = Vec::new();
    let batch_s = time(&mut || {
        for _ in 0..passes {
            allocator.predict_batch_into(&features, &mut scratch, &mut out);
        }
    });

    println!("decide: batch {batch}, {passes} passes, {decisions} decisions per path");
    println!("  rowwise   {:>10.0} decisions/s", decisions as f64 / row_s);
    println!(
        "  batched   {:>10.0} decisions/s  ({:.2}x)",
        decisions as f64 / batch_s,
        row_s / batch_s
    );
    println!("  agreement: {} rows, both paths identical", batch);

    // Stable, parseable determinism handle (compared by verify.sh).
    println!("decide digest: 0x{:016x}", digest(&batched));
}
