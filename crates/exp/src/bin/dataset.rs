//! Algorithm 1's data collection: generates labelled (features → best
//! strategy) samples by sweeping all 42 strategies per synthetic mixed
//! workload, and writes them to a text file. Prints on stderr how many
//! isolation-group runs the sweeps took next to the naive 42 full runs
//! per sample.
//!
//! ```text
//! cargo run --release -p exp --bin dataset [--samples 800] [--requests 2000] \
//!     [--out artifacts/dataset_<samples>x<requests>_s<seed>.txt] [--seed 1] [--workers N]
//! ```
//!
//! The default `--out` names the inputs, so it never overwrites the
//! committed `artifacts/dataset.txt` the benchmark reads.

use exp::args::Args;
use exp::{artifact_path, dataset_file_name, table::Table};
use parallel::PoolConfig;
use ssdkeeper::learner::{DatasetSpec, Learner};
use ssdkeeper::Strategy;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let mut spec = DatasetSpec::quick(args.get("samples", 800));
    spec.requests_per_sample = args.get("requests", spec.requests_per_sample);
    if let Some(w) = args.get_opt("workers") {
        spec.eval.pool = PoolConfig::with_workers(w.parse().expect("--workers expects a number"));
    }
    if args.has("quick") {
        spec.samples = spec.samples.min(64);
        spec.requests_per_sample = spec.requests_per_sample.min(1_000);
    }
    let seed = args.get("seed", 1u64);
    let out = match args.get_opt("out") {
        Some(out) => out.to_string(),
        None => {
            let name = dataset_file_name(spec.samples, spec.requests_per_sample, seed);
            artifact_path(&name).to_string_lossy().into_owned()
        }
    };

    eprintln!(
        "dataset: labelling {} mixed workloads x 42 strategies x {} requests...",
        spec.samples, spec.requests_per_sample
    );
    let learner = Learner::new(spec);
    let t = Instant::now();
    let (dataset, sweep) = learner.generate_dataset_sized(seed);
    eprintln!(
        "labelled {} samples in {:?}",
        dataset.samples.len(),
        t.elapsed()
    );
    eprintln!(
        "label sweep: {} isolation-group runs simulating {} requests \
         (naive: {} = 42 x {} full runs, {} requests)",
        sweep.group_runs,
        sweep.group_requests,
        sweep.joint_runs,
        dataset.samples.len(),
        sweep.joint_requests
    );

    std::fs::write(&out, dataset.to_text()).expect("write dataset file");
    // Status, not a result row: stderr like the other progress lines.
    eprintln!("wrote {} samples to {out}", dataset.samples.len());

    // Label distribution summary (top 12 classes).
    let hist = dataset.label_histogram();
    let mut by_count: Vec<(usize, usize)> = hist
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .collect();
    by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut t = Table::new(&["strategy", "label id", "samples"]);
    for (label, n) in by_count.into_iter().take(12) {
        t.row(vec![
            Strategy::from_index(label, 4).unwrap().to_string(),
            label.to_string(),
            n.to_string(),
        ]);
    }
    println!("top labels:\n{}", t.render());
}
