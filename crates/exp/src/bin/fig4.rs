//! Regenerates Figure 4 (loss/accuracy curves) and Table III (final
//! loss, accuracy, training time) across the four optimizer
//! configurations, and saves the best model.
//!
//! ```text
//! cargo run --release -p exp --bin fig4 [--dataset artifacts/dataset.txt] \
//!     [--samples 400] [--epochs 200] [--model-out artifacts/model_fig4_<data>_s<seed>.txt]
//! ```
//!
//! Without `--dataset`, a dataset of `--samples` workloads is generated
//! on the fly. The default `--model-out` names the training data (the
//! dataset file's stem, or `<samples>x<requests>` when generated), so it
//! never overwrites the committed `artifacts/model.txt` the benchmark
//! reads.

use exp::args::Args;
use exp::{artifact_path, fig4, model_file_name};
use ssdkeeper::learner::{DatasetSpec, LabelledDataset, Learner};

fn main() {
    let args = Args::from_env();
    let epochs = args.get("epochs", 200usize);
    let seed = args.get("seed", 1u64);

    let (dataset, data_name) = match args.get_opt("dataset") {
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("read dataset file");
            let stem = std::path::Path::new(path).file_stem().unwrap_or_default();
            (
                LabelledDataset::from_text(&text).expect("parse dataset file"),
                stem.to_string_lossy().into_owned(),
            )
        }
        None => {
            let mut spec = DatasetSpec::quick(args.get("samples", 400));
            if args.has("quick") {
                spec.samples = spec.samples.min(64);
                spec.requests_per_sample = 1_000;
            }
            eprintln!(
                "fig4: no --dataset given; labelling {} workloads first...",
                spec.samples
            );
            let name = format!("{}x{}", spec.samples, spec.requests_per_sample);
            (Learner::new(spec).generate_dataset(seed), name)
        }
    };
    eprintln!(
        "fig4: training 4 optimizer configurations for {epochs} iterations on {} samples (7:3 split)...",
        dataset.samples.len()
    );

    let results = fig4::run(&dataset, epochs, seed);
    println!("{}", fig4::render_curves(&results, (epochs / 10).max(1)));
    println!("{}", fig4::render_table3(&results, &dataset));

    let best = fig4::best(&results, &dataset);
    println!(
        "best configuration: {} at {:.1}% test accuracy (paper: Adam-logistic, 94.5%)",
        best.choice.name(),
        best.model.history.final_accuracy() * 100.0
    );

    let model_out = match args.get_opt("model-out") {
        Some(out) => out.to_string(),
        None => artifact_path(&model_file_name(&data_name, seed))
            .to_string_lossy()
            .into_owned(),
    };
    ssdkeeper::model_io::save_model(&best.model, &model_out).expect("save model");
    println!(
        "saved best model to {model_out} (max_total_iops calibration: {})",
        best.model.max_total_iops
    );
}
