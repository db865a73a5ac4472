//! The four workloads. Each is a job a user of the reproduction runs, and
//! each stresses different layers:
//!
//! * `label_sweep` — Algorithm 1 labelling: many short simulations, no GC,
//!   no ANN; dominated by device construction and reset.
//! * `keeper_online` — the Figure 5 mixes through `Keeper::run`: few
//!   builds, long saturated event loops, live reallocation and decisions.
//! * `fleet_gc` — a 1000-tenant fleet on shrunken devices: the only
//!   workload where the FTL's garbage collector does real work, and the
//!   only one that runs worker threads and tier-1 placement.
//! * `train` — fitting the 9→64→42 network: ANN work only.

use crate::adapter::{self, FleetConfig, IoRequest, Mode, Modeled, Session, Trained};
use crate::spans;
use crate::stats::{self, Fnv};
use crate::{Gate, TraceCtx, Workload};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["label_sweep", "keeper_online", "fleet_gc", "train"];

/// Mean span time per traced job iteration (0 when nothing was traced).
fn per_iter(ctx: &TraceCtx, name: &str) -> f64 {
    let (_, secs) = spans::total(&ctx.job_spans, name);
    if ctx.iters == 0 {
        0.0
    } else {
        secs / ctx.iters as f64
    }
}

/// Spans recorded since index `from`.
fn spans_since(from: usize) -> Vec<spans::Span> {
    spans::recorded()[from..].to_vec()
}

// ----------------------------------------------------------- label_sweep

/// Pre-drawn traces the sweep cycles through; each is labelled several
/// times in a run so its fastest labelling can be taken.
const LABEL_TRACES: usize = 8;
/// Requests per mixed trace.
const LABEL_REQUESTS: usize = 2_500;
/// Samples the traced run replays one strategy at a time.
const LABEL_REPLAYS: usize = 2;
/// Seed of the canary trace whose label digest is pinned below.
const LABEL_CANARY_SEED: u64 = 20_200_518;
/// Digest of the canary trace's label, metrics and features.
const LABEL_CANARY_DIGEST: u64 = 0xe88f_7106_4885_1342;

/// Algorithm 1 labelling of pre-drawn mixed 4-tenant traces.
pub struct LabelSweep {
    seed: u64,
    learner: ssdkeeper::learner::Learner,
    params: adapter::SweepParams,
    traces: Vec<Vec<IoRequest>>,
    labels: Vec<Option<ssdkeeper::learner::LabelledSample>>,
    digests: Vec<Option<u64>>,
}

impl LabelSweep {
    fn check_sample(
        &self,
        trace: &[IoRequest],
        s: &ssdkeeper::learner::LabelledSample,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let n = adapter::strategy_count();
        if s.metrics_us.len() != n {
            problems.push(format!("{} metrics for {n} strategies", s.metrics_us.len()));
            return problems;
        }
        if !s.metrics_us.iter().all(|m| m.is_finite() && *m > 0.0) {
            problems.push("a strategy metric is not finite and positive".into());
        }
        let min = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
        let tol = self.params.tolerance;
        let expect = s.metrics_us.iter().position(|&m| m <= min * (1.0 + tol));
        if expect != Some(s.label) {
            problems.push(format!("label {} but tolerance argmin {expect:?}", s.label));
        }
        let features = adapter::features(trace, self.params.max_iops);
        if features != s.features {
            problems.push("label features differ from FeatureVector::from_trace".into());
        }
        problems
    }
}

impl Workload for LabelSweep {
    type Out = ssdkeeper::learner::LabelledSample;
    const WORK_UNIT: &'static str = "labels";
    const ITEMS: usize = LABEL_TRACES;

    fn setup(seed: u64) -> Result<Self, String> {
        let learner = adapter::sweep_learner(LABEL_REQUESTS);
        let traces = adapter::draw_mixed_traces(&learner, seed, LABEL_TRACES);
        Ok(Self {
            seed,
            params: adapter::sweep_params(&learner),
            learner,
            labels: vec![None; traces.len()],
            digests: vec![None; traces.len()],
            traces,
        })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let ssd = &self.params.ssd;
        vec![
            ("seed", self.seed.to_string()),
            (
                "inputs",
                format!(
                    "{LABEL_TRACES} mixed 4-tenant traces x {LABEL_REQUESTS} requests, one labelled per iteration"
                ),
            ),
            ("strategies", adapter::strategy_count().to_string()),
            (
                "geometry",
                format!(
                    "scaled_for_sweeps: {} ch x {} chips x {} planes x {} blocks x {} pages",
                    ssd.channels,
                    ssd.chips_per_channel,
                    ssd.planes_per_die,
                    ssd.blocks_per_plane,
                    ssd.pages_per_block
                ),
            ),
            ("workers", "1 (EvalConfig::sequential)".into()),
        ]
    }

    fn iterate(&mut self, i: usize) -> Result<(f64, Self::Out), String> {
        let k = i % self.traces.len();
        Ok((1.0, adapter::label(&self.learner, &self.traces[k])?))
    }

    fn check(&mut self, i: usize, out: Self::Out) -> Vec<String> {
        let k = i % self.traces.len();
        let mut problems = self.check_sample(&self.traces[k], &out);
        let d = adapter::sample_digest(&out);
        match self.digests[k] {
            Some(prev) if prev != d => problems.push(format!("trace {k} relabelled differently")),
            _ => self.digests[k] = Some(d),
        }
        self.labels[k] = Some(out);
        problems
    }

    fn final_checks(&mut self, gate: &mut Gate) {
        let traces = adapter::draw_mixed_traces(&self.learner, LABEL_CANARY_SEED, 1);
        let r = adapter::label(&self.learner, &traces[0]).and_then(|s| {
            let d = adapter::sample_digest(&s);
            if d == LABEL_CANARY_DIGEST {
                Ok(())
            } else {
                Err(format!(
                    "canary label digest {d:#018x}, expected {LABEL_CANARY_DIGEST:#018x}"
                ))
            }
        });
        gate.result("label canary", r);
    }

    fn modeled(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn layers(&mut self, ctx: &TraceCtx, gate: &mut Gate) -> Vec<(&'static str, f64)> {
        let samples: Vec<f64> = spans::durations(&ctx.job_spans, "label.label_workload")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let from = spans::recorded().len();
        // Replay labelled samples one strategy at a time through a
        // separate build and run; each run's metric must equal the label's
        // bit for bit, so the split times the same program.
        let mut modeled = Modeled::default();
        let mut replayed = 0usize;
        let (ssd, lpn) = (&self.params.ssd, self.params.lpn_space);
        for k in 0..self.traces.len() {
            if replayed == LABEL_REPLAYS {
                break;
            }
            let Some(sample) = self.labels[k].clone() else {
                continue;
            };
            replayed += 1;
            let mut arena = adapter::arena();
            let mut problems = Vec::new();
            for (idx, &want) in sample.metrics_us.iter().enumerate() {
                match adapter::replay_strategy(&self.traces[k], idx, lpn, ssd, &mut arena) {
                    Ok(report) => {
                        let got = adapter::latency_metric_us(&report);
                        if got.to_bits() != want.to_bits() {
                            problems.push(format!(
                                "trace {k} {}: replay {got} vs label {want}",
                                adapter::strategy_name(idx)
                            ));
                        }
                        modeled.add_report(&report);
                        adapter::recycle(&mut arena, report);
                    }
                    Err(e) => problems.push(e),
                }
            }
            gate.op("label replay cross-check", problems);
        }
        let replay = spans_since(from);
        let (_, build) = spans::total(&replay, "flash_sim.build");
        let (_, run) = spans::total(&replay, "flash_sim.run");
        let per = replayed.max(1) as f64;
        let mut out = vec![
            (
                "workloads.synth_s",
                spans::total(&spans::recorded(), "workloads.synth").1,
            ),
            ("label.sample_p50_ms", stats::median(&samples)),
            ("label.sample_tail_ms", stats::quantile(&samples, 0.9)),
            (
                "label.sim_runs",
                (ctx.iters * adapter::strategy_count()) as f64,
            ),
            ("features.s", per_iter(ctx, "features.from_trace")),
            ("flash_sim.build_s", build / per),
            ("flash_sim.run_s", run / per),
            ("flash_sim.build_share", build / (build + run)),
            ("flash_sim.events", modeled.events as f64 / per),
            ("flash_sim.events_per_s", modeled.events as f64 / run),
        ];
        out.extend(modeled.metrics());
        out
    }
}

// --------------------------------------------------------- keeper_online

/// Periodic re-observation window (10 ms).
const PERIODIC_WINDOW_NS: u64 = 10_000_000;
/// Seed of the committed Figure 5 results, and the strategies the
/// committed model chooses for Mix1–Mix4 there.
const FIG5_SEED: u64 = 4242;
const FIG5_CHOSEN: [&str; 4] = ["Shared", "3:5", "3:5", "5:3"];
/// The committed model.
const MODEL_PATH: &str = "artifacts/model.txt";

/// The three sessions of one mix.
pub struct MixSessions {
    shared: Session,
    adapt: Session,
    periodic: Session,
}

/// The Figure 5 mixes through the online keeper.
pub struct KeeperOnline {
    seed: u64,
    cfg: exp::fig5::Fig5Config,
    keeper: ssdkeeper::Keeper,
    allocator: ssdkeeper::ChannelAllocator,
    mixes: Vec<Vec<IoRequest>>,
    lpn_spaces: Vec<u64>,
    digest: Option<u64>,
    last: Vec<MixSessions>,
}

impl KeeperOnline {
    fn mix_digest(runs: &[MixSessions]) -> u64 {
        let mut h = Fnv::new();
        for m in runs {
            for s in [&m.shared, &m.adapt, &m.periodic] {
                h.write_u64(adapter::debug_digest(&s.report));
                h.write_u64(s.strategy as u64);
                for &(d, _) in &s.decisions {
                    h.write_u64(d as u64);
                }
            }
        }
        h.finish()
    }
}

impl Workload for KeeperOnline {
    type Out = Vec<MixSessions>;
    const WORK_UNIT: &'static str = "sim events";

    fn setup(seed: u64) -> Result<Self, String> {
        let allocator = adapter::load_allocator(MODEL_PATH)?;
        let cfg = adapter::fig5_config(seed);
        let mixes = adapter::fig5_mixes(&cfg);
        Ok(Self {
            seed,
            keeper: adapter::fig5_keeper(&cfg, allocator.clone()),
            allocator,
            lpn_spaces: vec![cfg.lpn_space; adapter::TENANTS],
            cfg,
            mixes,
            digest: None,
            last: Vec::new(),
        })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let ssd = &self.cfg.ssd;
        vec![
            ("seed", self.seed.to_string()),
            (
                "inputs",
                format!(
                    "Figure 5 Mix1-Mix4, {} requests each, model {MODEL_PATH}",
                    self.cfg.requests
                ),
            ),
            (
                "sessions",
                format!(
                    "per mix: Fixed(Shared), AdaptOnce+metrics (T = {} ms), Periodic {} ms",
                    self.cfg.observe_window_ns / 1_000_000,
                    PERIODIC_WINDOW_NS / 1_000_000
                ),
            ),
            (
                "geometry",
                format!(
                    "scaled_for_sweeps: {} ch x {} chips x {} planes x {} blocks x {} pages",
                    ssd.channels,
                    ssd.chips_per_channel,
                    ssd.planes_per_die,
                    ssd.blocks_per_plane,
                    ssd.pages_per_block
                ),
            ),
            ("workers", "1".into()),
        ]
    }

    fn iterate(&mut self, _i: usize) -> Result<(f64, Self::Out), String> {
        let mut events = 0u64;
        let mut out = Vec::with_capacity(self.mixes.len());
        for trace in &self.mixes {
            let run = |mode| adapter::keeper_session(&self.keeper, trace, &self.lpn_spaces, mode);
            let m = MixSessions {
                shared: run(Mode::Shared)?,
                adapt: run(Mode::AdaptOnce)?,
                periodic: run(Mode::Periodic(PERIODIC_WINDOW_NS))?,
            };
            events += m.shared.report.events_processed
                + m.adapt.report.events_processed
                + m.periodic.report.events_processed;
            out.push(m);
        }
        Ok((events as f64, out))
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Vec<String> {
        let mut problems = Vec::new();
        for (k, (m, trace)) in out.iter().zip(&self.mixes).enumerate() {
            for (mode, s) in [
                ("shared", &m.shared),
                ("adapt", &m.adapt),
                ("periodic", &m.periodic),
            ] {
                if adapter::completed(&s.report) != trace.len() as u64 {
                    problems.push(format!("Mix{} {mode}: not every request completed", k + 1));
                }
            }
            if m.adapt.decisions.len() != 1 || m.adapt.metrics.is_none() {
                problems.push(format!(
                    "Mix{} adapt-once: not one decision with metrics",
                    k + 1
                ));
            }
            // Every recorded decision must be what the allocator predicts
            // for the features it was based on.
            let (want, decided): (Vec<usize>, Vec<_>) = m
                .adapt
                .decisions
                .iter()
                .chain(&m.periodic.decisions)
                .cloned()
                .unzip();
            if adapter::decide(&self.allocator, &decided) != want {
                problems.push(format!(
                    "Mix{}: a decision differs from predict_batch",
                    k + 1
                ));
            }
        }
        let d = Self::mix_digest(&out);
        match self.digest {
            Some(prev) if prev != d => {
                problems.push("modeled reports changed between iterations".into())
            }
            _ => self.digest = Some(d),
        }
        self.last = out;
        problems
    }

    fn final_checks(&mut self, gate: &mut Gate) {
        let cfg = adapter::fig5_config(FIG5_SEED);
        let mixes = adapter::fig5_mixes(&cfg);
        let r = mixes
            .iter()
            .zip(FIG5_CHOSEN)
            .enumerate()
            .try_for_each(|(k, (trace, want))| {
                let s = adapter::keeper_session(
                    &self.keeper,
                    trace,
                    &self.lpn_spaces,
                    Mode::AdaptOnce,
                )?;
                let got = adapter::strategy_name(s.strategy);
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "Mix{} at seed {FIG5_SEED} chose {got}, committed results say {want}",
                        k + 1
                    ))
                }
            });
        gate.result("Figure 5 chosen strategies", r);
    }

    fn modeled(&self) -> Vec<(&'static str, f64)> {
        if self.last.is_empty() {
            return Vec::new();
        }
        let gain: f64 = self
            .last
            .iter()
            .map(|m| {
                1.0 - adapter::latency_metric_us(&m.adapt.report)
                    / adapter::latency_metric_us(&m.shared.report)
            })
            .sum::<f64>()
            / self.last.len() as f64;
        let mut modeled = Modeled::default();
        for m in &self.last {
            for s in [&m.shared, &m.adapt, &m.periodic] {
                modeled.add_report(&s.report);
            }
        }
        let mut out = vec![("keeper_gain_pct", gain * 100.0)];
        out.extend(
            modeled
                .metrics()
                .into_iter()
                .filter(|(k, _)| k.starts_with("ftl.")),
        );
        out
    }

    fn layers(&mut self, ctx: &TraceCtx, gate: &mut Gate) -> Vec<(&'static str, f64)> {
        let from = spans::recorded().len();
        let mut modeled = Modeled::default();
        let mut overhead = 0.0;
        let mut window_features = Vec::new();
        for (k, trace) in self.mixes.iter().enumerate() {
            // The event loop on its own: the Shared session as a separate
            // build and run, which must reproduce the session's report.
            let mut arena = adapter::arena();
            let r = adapter::replay_shared(&self.cfg.ssd, trace, &self.lpn_spaces, &mut arena)
                .and_then(|report| {
                    modeled.add_report(&report);
                    if report == self.last[k].shared.report {
                        Ok(())
                    } else {
                        Err(format!(
                            "Mix{}: SimBuilder replay differs from Fixed(Shared)",
                            k + 1
                        ))
                    }
                });
            gate.result("keeper replay cross-check", r);
            // Decision overhead: the adaptive session against a fixed
            // session of the strategy it chose.
            let chosen = self.last[k].adapt.strategy;
            let t = Instant::now();
            let fixed =
                adapter::keeper_session(&self.keeper, trace, &self.lpn_spaces, Mode::Fixed(chosen));
            let fixed_s = t.elapsed().as_secs_f64();
            gate.result("fixed chosen session", fixed.map(|_| ()));
            let adapt_s = spans::durations(&ctx.job_spans, "keeper.session.adapt_once");
            let n = self.mixes.len();
            let mine: Vec<f64> = adapt_s.iter().skip(k).step_by(n).copied().collect();
            overhead += stats::median(&mine) - fixed_s;
            // The collector over the observation window and every
            // periodic window, as the keeper sees them.
            let max_iops = self.cfg.max_total_iops;
            let observed = trace.partition_point(|r| r.arrival_ns < self.cfg.observe_window_ns);
            window_features.push(adapter::features(&trace[..observed], max_iops));
            for window in trace.chunk_by(|a, b| {
                a.arrival_ns / PERIODIC_WINDOW_NS == b.arrival_ns / PERIODIC_WINDOW_NS
            }) {
                window_features.push(adapter::features(window, max_iops));
            }
        }
        let decisions = adapter::decide(&self.allocator, &window_features);
        let extra = spans_since(from);
        let (_, build) = spans::total(&extra, "flash_sim.build");
        let (_, run) = spans::total(&extra, "flash_sim.run");
        let reallocs: usize = self
            .last
            .iter()
            .map(|m| m.adapt.decisions.len() + m.periodic.decisions.len())
            .sum();
        let mut out = vec![
            (
                "workloads.synth_s",
                spans::total(&spans::recorded(), "workloads.synth").1,
            ),
            (
                "keeper.session_fixed_s",
                per_iter(ctx, "keeper.session.fixed"),
            ),
            (
                "keeper.session_adapt_once_s",
                per_iter(ctx, "keeper.session.adapt_once"),
            ),
            (
                "keeper.session_periodic_s",
                per_iter(ctx, "keeper.session.periodic"),
            ),
            ("keeper.overhead_s", overhead),
            ("keeper.reallocations", reallocs as f64),
            ("features.s", spans::total(&extra, "features.from_trace").1),
            ("allocator.decisions", decisions.len() as f64),
            (
                "allocator.decide_s",
                spans::total(&extra, "allocator.predict_batch").1,
            ),
            ("flash_sim.build_s", build),
            ("flash_sim.run_s", run),
            ("flash_sim.build_share", build / (build + run)),
            ("flash_sim.events", modeled.events as f64),
            ("flash_sim.events_per_s", modeled.events as f64 / run),
        ];
        out.extend(modeled.metrics());
        out
    }
}

// -------------------------------------------------------------- fleet_gc

/// Worker threads of the timed fleet runs. One: on a shared host with
/// few cores, a second worker's wall time measures the scheduler more
/// than the program (two-worker runs spread by ~25% across seeds).
const FLEET_WORKERS: usize = 1;
/// Worker threads of the untimed digest check and `parallel.speedup_2w`.
const CHECK_WORKERS: usize = 2;

/// The GC-bound fleet.
pub struct FleetGc {
    seed: u64,
    cfg: FleetConfig,
    digest: Option<u64>,
    last: Option<adapter::FleetRun>,
    two_worker_s: f64,
    walls: Vec<f64>,
}

impl Workload for FleetGc {
    type Out = adapter::FleetRun;
    const WORK_UNIT: &'static str = "sim events";

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            cfg: adapter::gc_fleet_config(seed, FLEET_WORKERS),
            digest: None,
            last: None,
            two_worker_s: 0.0,
            walls: Vec::new(),
        })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let c = &self.cfg;
        vec![
            ("seed", self.seed.to_string()),
            (
                "inputs",
                format!(
                    "{} tenants on {} devices, {} requests and {} LPNs per tenant",
                    c.tenants, c.devices, c.requests_per_tenant, c.lpn_space_per_tenant
                ),
            ),
            (
                "geometry",
                format!(
                    "{} ch x {} chips x {} planes x {} blocks x {} pages",
                    c.ssd.channels,
                    c.ssd.chips_per_channel,
                    c.ssd.planes_per_die,
                    c.ssd.blocks_per_plane,
                    c.ssd.pages_per_block
                ),
            ),
            (
                "workers",
                format!("{FLEET_WORKERS} (and {CHECK_WORKERS} for the digest check)"),
            ),
        ]
    }

    fn iterate(&mut self, _i: usize) -> Result<(f64, Self::Out), String> {
        let t = Instant::now();
        let run = adapter::run_fleet(&self.cfg)?;
        self.walls.push(t.elapsed().as_secs_f64());
        Ok((run.events as f64, run))
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Vec<String> {
        let mut problems = Vec::new();
        let mut m = Modeled::default();
        m.add_summary(&out.merged, out.events);
        if m.gc_passes() == 0 {
            problems.push("no GC pass ran; the workload is meant to be GC-bound".into());
        }
        match self.digest {
            Some(prev) if prev != out.digest => {
                problems.push("fleet digest changed between iterations".into())
            }
            _ => self.digest = Some(out.digest),
        }
        self.last = Some(out);
        problems
    }

    fn final_checks(&mut self, gate: &mut Gate) {
        let two = adapter::gc_fleet_config(self.seed, CHECK_WORKERS);
        let t = Instant::now();
        let r = adapter::run_fleet(&two);
        self.two_worker_s = t.elapsed().as_secs_f64();
        let r = r.and_then(|run| match self.digest {
            Some(d) if d == run.digest => Ok(()),
            d => Err(format!(
                "digest at {CHECK_WORKERS} workers {:#x}, at {FLEET_WORKERS} {d:?}",
                run.digest
            )),
        });
        gate.result("fleet digest at 1 and 2 workers", r);
    }

    fn modeled(&self) -> Vec<(&'static str, f64)> {
        let Some(run) = &self.last else {
            return Vec::new();
        };
        let mut m = Modeled::default();
        m.add_summary(&run.merged, run.events);
        m.metrics()
            .into_iter()
            .filter(|(k, _)| k.starts_with("ftl."))
            .collect()
    }

    fn layers(&mut self, ctx: &TraceCtx, _gate: &mut Gate) -> Vec<(&'static str, f64)> {
        let Some(run) = self.last.clone() else {
            return Vec::new();
        };
        let from = spans::recorded().len();
        adapter::place(&self.cfg, &adapter::fleet_streams(&self.cfg));
        let extra = spans_since(from);
        let wall = per_iter(ctx, "fleet.run_fleet");
        let mut m = Modeled::default();
        m.add_summary(&run.merged, run.events);
        let mut out = vec![
            (
                "workloads.synth_s",
                spans::total(&extra, "workloads.synth").1,
            ),
            (
                "placement.place_s",
                spans::total(&extra, "placement.place").1,
            ),
            ("fleet.replacements", run.replacements as f64),
            (
                "parallel.speedup_2w",
                stats::median(&self.walls) / self.two_worker_s,
            ),
            ("flash_sim.events", run.events as f64),
            ("flash_sim.events_per_s", run.events as f64 / wall),
        ];
        out.extend(m.metrics());
        out
    }
}

// ----------------------------------------------------------------- train

/// Epochs per fit.
const TRAIN_EPOCHS: usize = 20;
/// The committed Algorithm 1 dataset.
const DATASET_PATH: &str = "artifacts/dataset.txt";
/// Regret band of `effective_accuracy`.
const REGRET_TOL: f64 = 0.05;
/// Passes of `predict_batch` over the dataset in the traced run.
const FORWARD_PASSES: usize = 20;

/// Fitting the paper's network on the committed dataset.
pub struct Train {
    seed: u64,
    dataset: ssdkeeper::learner::LabelledDataset,
    digest: Option<u64>,
    accuracy: f64,
}

impl Workload for Train {
    type Out = Vec<Trained>;
    const WORK_UNIT: &'static str = "train rows";

    fn setup(seed: u64) -> Result<Self, String> {
        let text = std::fs::read_to_string(DATASET_PATH)
            .map_err(|e| format!("reading {DATASET_PATH}: {e}"))?;
        Ok(Self {
            seed,
            dataset: adapter::parse_dataset(&text)?,
            digest: None,
            accuracy: 0.0,
        })
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "seed",
                format!("{} (initialisation and 7:3 split)", self.seed),
            ),
            (
                "inputs",
                format!("{DATASET_PATH}, {} samples", self.dataset.samples.len()),
            ),
            (
                "fits",
                format!(
                    "{} x {TRAIN_EPOCHS} epochs, batch 32",
                    adapter::TRAIN_CHOICES
                        .iter()
                        .map(|&c| adapter::choice_name(c))
                        .collect::<Vec<_>>()
                        .join(" + ")
                ),
            ),
            ("workers", "1".into()),
        ]
    }

    fn iterate(&mut self, _i: usize) -> Result<(f64, Self::Out), String> {
        let mut rows = 0usize;
        let mut out = Vec::new();
        for choice in adapter::TRAIN_CHOICES {
            let t = adapter::train(&self.dataset, choice, TRAIN_EPOCHS, self.seed)?;
            rows += t.train_rows * TRAIN_EPOCHS;
            out.push(t);
        }
        Ok((rows as f64, out))
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Vec<String> {
        let mut problems = Vec::new();
        let mut h = Fnv::new();
        for t in &out {
            h.write_u64(t.weights_digest);
        }
        match self.digest {
            Some(prev) if prev != h.finish() => {
                problems.push("weights changed between iterations".into())
            }
            _ => self.digest = Some(h.finish()),
        }
        // Held-out share of Adam-logistic predictions within the regret
        // band of each sample's best strategy.
        let model = &out[0];
        let test: Vec<_> = model
            .test_indices
            .iter()
            .map(|&i| &self.dataset.samples[i])
            .collect();
        let features: Vec<_> = test.iter().map(|s| s.features.clone()).collect();
        let predicted = adapter::decide(&model.allocator, &features);
        let hits = test
            .iter()
            .zip(&predicted)
            .filter(|(s, &p)| {
                let best = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
                s.metrics_us
                    .get(p)
                    .is_some_and(|&m| m <= best * (1.0 + REGRET_TOL))
            })
            .count();
        self.accuracy = hits as f64 / test.len().max(1) as f64;
        if test.is_empty() || !(0.0..=1.0).contains(&self.accuracy) {
            problems.push("no held-out accuracy".into());
        }
        problems
    }

    fn final_checks(&mut self, _gate: &mut Gate) {}

    fn modeled(&self) -> Vec<(&'static str, f64)> {
        vec![("effective_accuracy", self.accuracy)]
    }

    fn layers(&mut self, ctx: &TraceCtx, gate: &mut Gate) -> Vec<(&'static str, f64)> {
        let from = spans::recorded().len();
        let model = adapter::train(&self.dataset, adapter::TRAIN_CHOICES[0], 1, self.seed);
        let Ok(model) = model else {
            gate.result("train for forward pass", model.map(|_| ()));
            return Vec::new();
        };
        let features: Vec<_> = self
            .dataset
            .samples
            .iter()
            .map(|s| s.features.clone())
            .collect();
        let first = adapter::decide(&model.allocator, &features);
        let mut same = true;
        for _ in 1..FORWARD_PASSES {
            same &= adapter::decide(&model.allocator, &features) == first;
        }
        gate.result(
            "predict_batch repeats",
            if same {
                Ok(())
            } else {
                Err("predictions changed between passes".into())
            },
        );
        let extra = spans_since(from);
        let (calls, decide_s) = spans::total(&extra, "allocator.predict_batch");
        let fits = adapter::TRAIN_CHOICES.len() as f64;
        vec![
            (
                "ann.epoch_ms",
                per_iter(ctx, "ann.train") / (fits * TRAIN_EPOCHS as f64) * 1e3,
            ),
            (
                "ann.forward_rows_per_s",
                (calls * features.len()) as f64 / decide_s,
            ),
            ("allocator.decisions", (calls * features.len()) as f64),
            ("allocator.decide_s", decide_s),
        ]
    }
}
