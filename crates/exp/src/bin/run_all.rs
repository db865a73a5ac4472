//! Runs the full reproduction pipeline end-to-end and prints every table
//! and figure: Table II, Figure 2, dataset generation, Figure 4 +
//! Table III, Tables IV/V + Figure 5, and Figure 6.
//!
//! ```text
//! cargo run --release -p exp --bin run_all [--quick] \
//!     [--samples 800] [--epochs 200] [--fig2-requests 20000] [--fig5-requests 100000]
//! ```
//!
//! `--quick` shrinks every knob for a seconds-scale smoke run.

use exp::args::Args;
use exp::{conflict, fig2, fig4, fig5, fig6, traces};
use ssdkeeper::learner::{DatasetSpec, Learner};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let t0 = Instant::now();

    let samples = args.get("samples", if quick { 96 } else { 800 });
    let epochs = args.get("epochs", if quick { 60 } else { 200usize });
    let fig2_requests = args.get("fig2-requests", if quick { 4_000 } else { 20_000 });
    let fig5_requests = args.get("fig5-requests", if quick { 20_000 } else { 100_000 });
    let requests_per_sample = args.get("requests", if quick { 1_200 } else { 2_000 });
    let seed = args.get("seed", 1u64);

    println!("================ Table II ================");
    let rows = traces::run(if quick { 4_000 } else { 20_000 }, 2_000.0, 2);
    println!("{}", traces::render(&rows));

    println!("========== Conflict analysis ============");
    let ccfg = conflict::ConflictConfig {
        requests: if quick { 4_000 } else { 20_000 },
        ..conflict::ConflictConfig::default()
    };
    let crows = conflict::run(&ccfg);
    println!("{}", conflict::render(&crows, &ccfg));

    println!("================ Figure 2 ================");
    let f2cfg = fig2::Fig2Config {
        requests: fig2_requests,
        ..fig2::Fig2Config::default()
    };
    let points = fig2::run(&f2cfg);
    fig2::print_report(&points);

    println!("============ Dataset (Alg. 1) ============");
    let mut spec = DatasetSpec::quick(samples);
    spec.requests_per_sample = requests_per_sample;
    let learner = Learner::new(spec);
    let t = Instant::now();
    let dataset = learner.generate_dataset(seed);
    println!(
        "labelled {} mixed workloads x 42 strategies in {:?}",
        dataset.samples.len(),
        t.elapsed()
    );

    println!("========= Figure 4 + Table III ===========");
    let results = fig4::run(&dataset, epochs, seed);
    println!("{}", fig4::render_curves(&results, (epochs / 10).max(1)));
    println!("{}", fig4::render_table3(&results, &dataset));
    let best = fig4::best(&results, &dataset);
    println!(
        "best: {} at {:.1}% test accuracy (paper: Adam-logistic at 94.5%)\n",
        best.choice.name(),
        best.model.history.final_accuracy() * 100.0
    );

    println!("===== Tables IV/V + Figure 5 (Mix1-4) ====");
    let allocator = best.model.allocator();
    let f5cfg = fig5::Fig5Config {
        requests: fig5_requests,
        ..fig5::Fig5Config::default()
    };
    let mixes = fig5::run(&f5cfg, &allocator);
    println!("{}", fig5::render_tables45(&mixes));
    println!("{}", fig5::render_fig5(&mixes));
    println!("{}", fig5::render_summary(&mixes));

    println!("================ Figure 6 ================");
    let map = fig6::run(&allocator, if quick { 60 } else { 200 }, 6);
    println!("{}", fig6::render(&map));
    println!(
        "distinct strategies on the map: {}\n",
        fig6::distinct_strategies(&map)
    );

    eprintln!("run_all finished in {:?}", t0.elapsed());
}
