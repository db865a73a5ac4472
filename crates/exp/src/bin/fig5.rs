//! Regenerates Tables IV/V and Figure 5: the Mix1–Mix4 evaluation with
//! Shared / Isolated / SSDKeeper (± hybrid page allocation), plus the
//! §V-C improvement summary.
//!
//! ```text
//! cargo run --release -p exp --bin fig5 [--model artifacts/model.txt --max-iops 120000] \
//!     [--samples 400] [--requests 100000] [--epochs 200] [--trace-out events.ssdp]
//! ```
//!
//! Without `--model`, a model is trained first (Adam-logistic, the
//! paper's best configuration). With `--trace-out <path>`, the Mix1
//! adapt-once session is re-run with an [`EventRecorder`] attached and
//! the captured events (command lifecycle, bus occupancy, GC passes,
//! reallocation, the keeper decision) are written to `path` in the SSDP
//! little-endian codec (`flash_sim::probe::decode_events` reads it back).

use exp::args::Args;
use exp::fig5::{
    build_mix, render_fig5, render_percentiles, render_summary, render_tables45, run, Fig5Config,
};
use flash_sim::probe::EventRecorder;
use ssdkeeper::keeper::{Keeper, KeeperConfig, RunSpec};
use ssdkeeper::learner::{DatasetSpec, Learner, OptimizerChoice};
use ssdkeeper::ChannelAllocator;
use workloads::msr::paper_mix_profiles;

fn main() {
    let args = Args::from_env();
    let mut cfg = Fig5Config::default();
    let common = args.common(cfg.seed);
    cfg.requests = args.get("requests", cfg.requests);
    cfg.max_total_iops = args.get("max-iops", cfg.max_total_iops);
    cfg.seed = common.seed;
    if args.has("quick") {
        cfg.requests = cfg.requests.min(10_000);
    }

    let allocator = match args.get_opt("model") {
        Some(path) => match ssdkeeper::model_io::load_allocator(path) {
            Ok(allocator) => allocator,
            Err(_) => {
                // Legacy raw ann file: calibration comes from --max-iops.
                let net = ann::io::load_network(path).expect("load model file");
                ChannelAllocator::new(net, args.get("max-iops", 120_000.0f64))
            }
        },
        None => {
            let mut spec = DatasetSpec::quick(args.get("samples", 400));
            if args.has("quick") {
                spec.samples = spec.samples.min(64);
                spec.requests_per_sample = 1_000;
            }
            let epochs = args.get("epochs", 200usize);
            eprintln!(
                "fig5: no --model given; labelling {} workloads and training Adam-logistic for {} iterations...",
                spec.samples, epochs
            );
            let learner = Learner::new(spec);
            let dataset = learner.generate_dataset(args.get("seed", 1u64));
            let model = learner.train_with(&dataset, OptimizerChoice::AdamLogistic, epochs, 1);
            eprintln!(
                "trained: final test accuracy {:.1}%",
                model.history.final_accuracy() * 100.0
            );
            model.allocator()
        }
    };

    eprintln!("fig5: running Mix1-4 x {{Shared, Isolated, SSDKeeper, SSDKeeper+hybrid}} at {} requests each...", cfg.requests);
    let results = run(&cfg, &allocator);
    println!("{}", render_tables45(&results));
    println!("{}", render_fig5(&results));
    println!("{}", render_percentiles(&results));
    println!("{}", render_summary(&results));

    if let Some(path) = args.get_opt("trace-out") {
        write_trace(path, &cfg, &allocator);
    }
}

/// Re-runs the Mix1 adapt-once session with a bounded recorder attached
/// and persists the captured events at `path` in the SSDP codec.
fn write_trace(path: &str, cfg: &Fig5Config, allocator: &ChannelAllocator) {
    let [profile, ..] = paper_mix_profiles();
    let trace = build_mix(&profile, cfg);
    let keeper = Keeper::new(
        KeeperConfig {
            ssd: cfg.ssd.clone(),
            observe_window_ns: cfg.observe_window_ns,
            hybrid: false,
        },
        allocator.clone(),
    );
    let mut rec = EventRecorder::with_capacity(1 << 16);
    keeper
        .run(RunSpec::adapt_once(&trace, &[cfg.lpn_space; 4]).with_probe(&mut rec))
        .expect("instrumented Mix1 run");
    let bytes = rec.encode();
    std::fs::write(path, &bytes).expect("write --trace-out file");
    eprintln!(
        "fig5: wrote {} events ({} dropped, {} bytes) to {path}",
        rec.len(),
        rec.dropped(),
        bytes.len()
    );
}
