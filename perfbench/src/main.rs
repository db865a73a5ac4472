//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs`) from its seed and prints a
//! human-readable report followed, on the last line, by one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with every span off;
//! with `--trace 1` they are the per-layer ones, from spans the benchmark
//! records around its own calls into each layer.

mod adapter;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is the fastest.
const SETUPS: usize = 5;
/// Timed iterations a run makes even when one takes longer than the
/// time budget.
const MIN_ITERS: usize = 3;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.synth_s", "s"),
    ("flash_sim.build_s", "s"),
    ("flash_sim.build_share", "ratio"),
    ("flash_sim.run_s", "s"),
    ("flash_sim.events", "count"),
    ("flash_sim.events_per_s", "1/s"),
    ("flash_sim.queue_depth_mean", "count"),
    ("flash_sim.wait_unit_mean_us", "us"),
    ("flash_sim.wait_bus_mean_us", "us"),
    ("flash_sim.bus_util_mean", "ratio"),
    ("ftl.gc_passes", "count"),
    ("ftl.gc_pages_moved", "count"),
    ("ftl.blocks_erased", "count"),
    ("ftl.write_amplification", "ratio"),
    ("label.sample_p50_ms", "ms"),
    ("label.sample_tail_ms", "ms"),
    ("label.sim_runs", "count"),
    ("features.s", "s"),
    ("allocator.decisions", "count"),
    ("allocator.decide_s", "s"),
    ("keeper.session_fixed_s", "s"),
    ("keeper.session_adapt_once_s", "s"),
    ("keeper.session_periodic_s", "s"),
    ("keeper.overhead_s", "s"),
    ("keeper.reallocations", "count"),
    ("placement.place_s", "s"),
    ("fleet.replacements", "count"),
    ("parallel.speedup_2w", "ratio"),
    ("ann.epoch_ms", "ms"),
    ("ann.forward_rows_per_s", "1/s"),
    ("keeper_gain_pct", "%"),
    ("effective_accuracy", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics computed from simulated time or model outputs: they
/// repeat exactly for a given seed.
const MODELED: &[&str] = &[
    "flash_sim.queue_depth_mean",
    "flash_sim.wait_unit_mean_us",
    "flash_sim.wait_bus_mean_us",
    "flash_sim.bus_util_mean",
    "ftl.gc_passes",
    "ftl.gc_pages_moved",
    "ftl.blocks_erased",
    "ftl.write_amplification",
    "keeper_gain_pct",
    "effective_accuracy",
];

/// Counts operations and the ones that failed. Nothing that fails is
/// dropped silently: every failure is printed to stderr and counted.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Records one operation and whatever went wrong in it.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED {what}: {p}");
            }
        }
    }

    /// Records one operation from its result.
    pub fn result(&mut self, what: &str, r: Result<(), String>) {
        self.op(what, r.err().into_iter().collect());
    }
}

/// What the traced part of a run hands to a workload's layer breakdown.
pub struct TraceCtx {
    /// Spans recorded while the job loop ran traced.
    pub job_spans: Vec<spans::Span>,
    /// Job iterations in the traced loop.
    pub iters: usize,
}

/// One benchmark workload. The runner times `iterate` only; checks run
/// outside the timed window.
pub trait Workload: Sized {
    /// One iteration's outputs, checked after the clock stops.
    type Out;
    /// What a unit of `work_per_s` counts.
    const WORK_UNIT: &'static str;
    /// Distinct inputs the job cycles through; iteration `i` runs input
    /// `i % ITEMS`.
    const ITEMS: usize = 1;

    /// Builds the inputs from the seed.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Seed, sizes, geometry and worker count of this run.
    fn describe(&self) -> Vec<(&'static str, String)>;
    /// One job iteration; returns the units of work it completed.
    fn iterate(&mut self, i: usize) -> Result<(f64, Self::Out), String>;
    /// Checks one iteration's outputs; returns what was wrong.
    fn check(&mut self, i: usize, out: Self::Out) -> Vec<String>;
    /// Checks made once after the timed loop.
    fn final_checks(&mut self, gate: &mut Gate);
    /// Modeled metrics of the run, for the report.
    fn modeled(&self) -> Vec<(&'static str, f64)>;
    /// Per-layer breakdown: extra traced calls plus the job's spans.
    fn layers(&mut self, ctx: &TraceCtx, gate: &mut Gate) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    if let Some(extra) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(args)
}

/// One finished iteration: which input of the workload's pool it ran,
/// its wall time and the work it completed.
#[derive(Clone, Copy)]
struct Sample {
    item: usize,
    secs: f64,
    work: f64,
}

/// A job loop's iterations, split by whether spans were recorded.
#[derive(Default)]
struct Loop {
    plain: Vec<Sample>,
    traced: Vec<Sample>,
}

/// The fastest iteration of each pool input: their mean wall time, and
/// the work rate over them. Host speed on a shared machine swings by up
/// to 2x within seconds while the job is deterministic, so the fastest
/// repeat is the steadiest estimate of what the program costs.
fn fastest(samples: &[Sample]) -> (f64, f64) {
    let mut best: BTreeMap<usize, Sample> = BTreeMap::new();
    for s in samples {
        let b = best.entry(s.item).or_insert(*s);
        if s.secs < b.secs {
            *b = *s;
        }
    }
    let secs: f64 = best.values().map(|s| s.secs).sum();
    let work: f64 = best.values().map(|s| s.work).sum();
    (secs / best.len() as f64, work / secs)
}

/// Runs `w.iterate` until `budget` has passed (and at least `MIN_ITERS`
/// times). With `alternate`, every other pass over the input pool records
/// spans, so drift during the run weighs on traced and untraced
/// iterations alike.
fn job_loop<W: Workload>(w: &mut W, budget: Duration, alternate: bool, gate: &mut Gate) -> Loop {
    let start = Instant::now();
    let mut out = Loop::default();
    let enough =
        |o: &Loop| o.plain.len() >= MIN_ITERS && (!alternate || o.traced.len() >= MIN_ITERS);
    let mut i = 1;
    // Past the budget, stop once there are enough samples — or, if
    // iterations keep failing, after three budgets.
    while start.elapsed() < budget || !(enough(&out) || start.elapsed() > 3 * budget) {
        let traced = alternate && (i / W::ITEMS) % 2 == 1;
        spans::set_enabled(traced);
        let (secs, r) = {
            let _job = spans::span("job");
            let t = Instant::now();
            let r = w.iterate(i);
            (t.elapsed().as_secs_f64(), r)
        };
        match r {
            Ok((work, o)) => {
                let sample = Sample {
                    item: i % W::ITEMS,
                    secs,
                    work,
                };
                if traced {
                    out.traced.push(sample);
                } else {
                    out.plain.push(sample);
                }
                let problems = w.check(i, o);
                gate.op("iteration", problems);
            }
            Err(e) => gate.op("iteration", vec![e]),
        }
        i += 1;
    }
    spans::set_enabled(false);
    out
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let mut gate = Gate::default();
    gate.result(
        "uninstrumented build",
        if adapter::obs_enabled() {
            Err("obs instrumentation is compiled in; timings would include it".into())
        } else {
            Ok(())
        },
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs_f64(args.seconds);

    spans::set_enabled(args.trace);
    let mut setup_times = Vec::new();
    let mut w = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        let mut fresh = W::setup(args.seed)?;
        // One untimed warm-up job: lazy initialisation and first-touch
        // allocation count as set-up, not as the job.
        let warm = fresh.iterate(0);
        setup_times.push(t.elapsed().as_secs_f64());
        let problems = match warm {
            Ok((_, out)) => fresh.check(0, out),
            Err(e) => vec![e],
        };
        gate.op("warm-up iteration", problems);
        w = Some(fresh);
    }
    let mut w = w.expect("at least one set-up");

    println!("# workload {} (seed {})", args.workload, args.seed);
    for (k, v) in w.describe() {
        println!("#   {k:<14} {v}");
    }
    println!("#   {:<14} {nproc}", "nproc");

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !args.trace {
        let runs = job_loop(&mut w, budget, false, &mut gate);
        // Read before the checks, so the memory is the job's own.
        let rss = stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        w.final_checks(&mut gate);
        let (wall, rate) = fastest(&runs.plain);
        let setup = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        for (&(name, unit), v) in END_TO_END.iter().zip([setup, wall, rate, rss]) {
            metrics.push((name, v, unit));
        }
        let walls: Vec<f64> = runs.plain.iter().map(|s| s.secs).collect();
        println!(
            "# {} timed iterations: wall_s fastest {wall:.6}, p25 {:.6} median {:.6} p75 {:.6}; work_per_s = {rate:.1} {}/s",
            walls.len(),
            stats::quantile(&walls, 0.25),
            stats::median(&walls),
            stats::quantile(&walls, 0.75),
            W::WORK_UNIT,
        );
        println!("# set-up times (s): {setup_times:.4?}");
        println!("# iteration walls (s): {walls:.4?}");
        for (name, v) in w.modeled() {
            println!("# modeled {name} = {v}");
        }
    } else {
        let from = spans::recorded().len();
        let runs = job_loop(&mut w, budget, true, &mut gate);
        let ctx = TraceCtx {
            job_spans: spans::recorded()[from..].to_vec(),
            iters: runs.traced.len(),
        };
        w.final_checks(&mut gate);
        spans::set_enabled(true);
        let mut layer: BTreeMap<&str, f64> = w.layers(&ctx, &mut gate).into_iter().collect();
        for (k, v) in w.modeled() {
            layer.insert(k, v);
        }
        layer.insert(
            "trace.overhead_pct",
            (fastest(&runs.traced).0 / fastest(&runs.plain).0 - 1.0) * 100.0,
        );
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layer.remove(name).unwrap_or(0.0), unit));
        }
        if let Some(k) = layer.keys().next() {
            return Err(format!("workload reported unknown per-layer metric {k}"));
        }
        spans::set_enabled(false);
        write_spans(args);
    }

    println!("#");
    println!("# {:<30} {:>18}  unit", "metric", "value");
    for (name, v, unit) in &metrics {
        let kind = if MODELED.contains(name) {
            "modeled"
        } else {
            "host"
        };
        println!("# {name:<30} {v:>18.6}  {unit} ({kind})");
    }
    if args.trace && nproc < 2 {
        println!("# parallel.speedup_2w is not meaningful: nproc = {nproc}");
    }
    let error_rate = gate.failed as f64 / gate.attempted as f64;
    println!(
        "# error_rate = {error_rate} ({} of {} operations failed)",
        gate.failed, gate.attempted
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
    Ok(())
}

/// A JSON number with every digit of `v` (non-finite values become 0,
/// which JSON cannot otherwise carry).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Writes the traced run's spans to `.bench_out/` in the working
/// directory; failure to write only loses the dump.
fn write_spans(args: &Args) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_tsv(&spans::recorded())));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "label_sweep" => run::<workloads::LabelSweep>(&args),
        "keeper_online" => run::<workloads::KeeperOnline>(&args),
        "fleet_gc" => run::<workloads::FleetGc>(&args),
        "train" => run::<workloads::Train>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
