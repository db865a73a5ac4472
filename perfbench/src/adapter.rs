//! Every call the benchmark makes into the program, in one place.
//!
//! Each function wraps one public entry point in a span named after the
//! layer it enters (`crate.module`), so a traced run attributes host time
//! to layers from the outside. Only entry points meant to outlive the
//! planned simplification of the run surface are used: `Learner`,
//! `Keeper::run`, `run_fleet`, `ChannelAllocator::predict_batch` (f32),
//! `FeatureVector::from_trace`, `load_allocator` and
//! `LabelledDataset::from_text`. `SimBuilder` is called only by the
//! traced-run replays that split a simulation into build and event loop.

use crate::spans::span;
use flash_sim::{MetricsSummary, SimArena, SimBuilder, SimReport, TenantLayout};
use ssdkeeper::label::EvalConfig;
use ssdkeeper::learner::{DatasetSpec, LabelledDataset, LabelledSample, Learner, OptimizerChoice};
use ssdkeeper::{ChannelAllocator, FeatureVector, Keeper, KeeperConfig, RunSpec, Strategy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::ObservedFeatures;

pub use flash_sim::{IoRequest, SsdConfig};
pub use fleet::FleetConfig;

/// Tenants per mixed workload (the paper's four).
pub const TENANTS: usize = 4;

/// Whether the program's own `obs` instrumentation is compiled in.
pub fn obs_enabled() -> bool {
    obs::ENABLED
}

/// Runs `f`, turning a panic inside the program into an error.
fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

// ---------------------------------------------------------------- labels

/// The learner the label sweep runs: `scaled_for_sweeps` device, no
/// hybrid allocation, strategies swept sequentially.
pub fn sweep_learner(requests_per_sample: usize) -> Learner {
    let quick = DatasetSpec::quick(0);
    Learner::new(DatasetSpec {
        requests_per_sample,
        eval: EvalConfig::default().sequential(),
        ..quick
    })
}

/// The settings of a label sweep that its checks and replays need.
pub struct SweepParams {
    /// Device model every strategy run simulates.
    pub ssd: SsdConfig,
    /// Logical pages per tenant.
    pub lpn_space: u64,
    /// IOPS that saturate the intensity scale.
    pub max_iops: f64,
    /// Near-tie tolerance of the label rule.
    pub tolerance: f64,
}

/// The learner's sweep settings.
pub fn sweep_params(learner: &Learner) -> SweepParams {
    let spec = learner.spec();
    SweepParams {
        ssd: spec.eval.ssd.clone(),
        lpn_space: spec.lpn_space,
        max_iops: spec.max_total_iops,
        tolerance: spec.label_tolerance,
    }
}

/// FNV-1a over a label, every strategy's metric and the features, bit
/// for bit.
pub fn sample_digest(s: &LabelledSample) -> u64 {
    let mut h = crate::stats::Fnv::new();
    h.write_u64(s.label as u64);
    for &m in &s.metrics_us {
        h.write_f64(m);
    }
    for x in s.features.to_input() {
        h.write_u64(u64::from(x.to_bits()));
    }
    h.finish()
}

/// A fresh simulator buffer pool.
pub fn arena() -> SimArena {
    SimArena::new()
}

/// Draws `n` mixed 4-tenant traces from one seeded stream.
pub fn draw_mixed_traces(learner: &Learner, seed: u64, n: usize) -> Vec<Vec<IoRequest>> {
    let _s = span("workloads.synth");
    let mut rng = simrng::SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| learner.sample_mixed_workload(&mut rng).0)
        .collect()
}

/// Algorithm 1 on one trace: every strategy simulated, the label kept.
pub fn label(learner: &Learner, trace: &[IoRequest]) -> Result<LabelledSample, String> {
    let _s = span("label.label_workload");
    guarded("Learner::label_workload", || learner.label_workload(trace))
}

/// Collector features of a whole trace.
pub fn features(trace: &[IoRequest], max_iops: f64) -> FeatureVector {
    let _s = span("features.from_trace");
    FeatureVector::from_trace(trace, TENANTS, max_iops)
}

/// Number of strategies in the 4-tenant space.
pub fn strategy_count() -> usize {
    Strategy::all_for_tenants(TENANTS).len()
}

/// Display name of strategy class `index`.
pub fn strategy_name(index: usize) -> String {
    Strategy::from_index(index, TENANTS).map_or_else(|| format!("#{index}"), |s| s.to_string())
}

/// Replays one strategy of the label sweep as a separate `SimBuilder`
/// build and run, the way `label_workload` sets each run up: channels and
/// characteristics from the whole trace, static page allocation.
pub fn replay_strategy(
    trace: &[IoRequest],
    strategy_index: usize,
    lpn_space: u64,
    ssd: &SsdConfig,
    arena: &mut SimArena,
) -> Result<SimReport, String> {
    let strategy = Strategy::from_index(strategy_index, TENANTS)
        .ok_or_else(|| format!("no strategy {strategy_index}"))?;
    let obs = ObservedFeatures::collect(trace, TENANTS, u64::MAX);
    let rw: Vec<u8> = (0..TENANTS).map(|t| obs.rw_characteristic(t)).collect();
    let lists = strategy.assign_channels(&rw, ssd);
    let mut layout = TenantLayout::from_channel_lists(&lists, ssd)
        .ok_or_else(|| format!("strategy {strategy} gave invalid channels {lists:?}"))?;
    for (t, policy) in ssdkeeper::hybrid::policies(&rw, false)
        .into_iter()
        .enumerate()
    {
        layout = layout.with_lpn_space(t, lpn_space).with_policy(t, policy);
    }
    build_and_run(ssd, layout, trace, arena)
}

/// One simulation split into its two timed halves.
fn build_and_run(
    ssd: &SsdConfig,
    layout: TenantLayout,
    trace: &[IoRequest],
    arena: &mut SimArena,
) -> Result<SimReport, String> {
    let sim = {
        let _s = span("flash_sim.build");
        SimBuilder::new(ssd.clone(), layout)
            .build_with_arena(arena)
            .map_err(|e| format!("SimBuilder::build_with_arena: {e}"))?
    };
    let _s = span("flash_sim.run");
    sim.run_reclaim(trace, arena)
        .map_err(|e| format!("Simulator::run_reclaim: {e}"))
}

/// Hands a finished report's buffers back to the arena.
pub fn recycle(arena: &mut SimArena, report: SimReport) {
    arena.recycle_report(report);
}

/// The §III-B metric of a report: mean read plus mean write latency (µs).
pub fn latency_metric_us(report: &SimReport) -> f64 {
    report.total_latency_metric_us()
}

/// Requests a report completed.
pub fn completed(report: &SimReport) -> u64 {
    report.total.count
}

/// FNV-1a over a value's `Debug` form: every counter and histogram
/// bucket of a report takes part.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = crate::stats::Fnv::new();
    h.write_str(&format!("{value:?}"));
    h.finish()
}

/// Modeled device statistics accumulated as exact sums, so their means
/// are exact rather than read off log₂ histograms.
#[derive(Debug, Default, Clone)]
pub struct Modeled {
    /// Discrete events simulated.
    pub events: u64,
    queue_depth_sum: u64,
    queue_depth_samples: u64,
    wait_unit_ns: u64,
    wait_unit_cmds: u64,
    wait_bus_ns: u64,
    wait_bus_cmds: u64,
    util_sum: f64,
    util_channels: u64,
    gc_passes: u64,
    gc_pages_moved: u64,
    blocks_erased: u64,
    host_pages: u64,
}

impl Modeled {
    /// Adds one simulator report.
    pub fn add_report(&mut self, r: &SimReport) {
        self.events += r.events_processed;
        self.queue_depth_sum += r.phases.queue_depth.sum_ns;
        self.queue_depth_samples += r.phases.queue_depth.count;
        self.wait_unit_ns += r.phases.wait_unit.sum_ns;
        self.wait_unit_cmds += r.phases.wait_unit.count;
        self.wait_bus_ns += r.phases.wait_bus.sum_ns;
        self.wait_bus_cmds += r.phases.wait_bus.count;
        for u in r.bus_utilization() {
            self.util_sum += u;
            self.util_channels += 1;
        }
        self.gc_passes += r.ftl.gc_invocations;
        self.gc_pages_moved += r.ftl.gc_pages_moved;
        self.blocks_erased += r.ftl.gc_blocks_erased;
        self.host_pages += r.ftl.host_pages_written;
    }

    /// Adds a merged metrics summary (fleet runs expose no per-phase
    /// report, so the die-queue wait is not available from one).
    pub fn add_summary(&mut self, m: &MetricsSummary, events: u64) {
        self.events += events;
        for w in &m.timeline {
            self.queue_depth_sum += w.queue_depth_sum;
            self.queue_depth_samples += w.queue_depth_samples;
        }
        for c in &m.channels {
            self.wait_bus_ns += c.bus_wait_ns;
            self.wait_bus_cmds += c.issues;
        }
        for u in m.channel_utilization() {
            self.util_sum += u;
            self.util_channels += 1;
        }
        self.gc_passes += m.gc.passes;
        self.gc_pages_moved += m.gc.moved_pages;
        self.blocks_erased += m.gc.erased_blocks;
        self.host_pages += m.host_writes();
    }

    /// GC passes so far.
    pub fn gc_passes(&self) -> u64 {
        self.gc_passes
    }

    /// The `flash_sim.*` and `ftl.*` modeled metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let wa = ratio(self.host_pages + self.gc_pages_moved, self.host_pages);
        vec![
            (
                "flash_sim.queue_depth_mean",
                ratio(self.queue_depth_sum, self.queue_depth_samples),
            ),
            (
                "flash_sim.wait_unit_mean_us",
                ratio(self.wait_unit_ns, self.wait_unit_cmds) / 1e3,
            ),
            (
                "flash_sim.wait_bus_mean_us",
                ratio(self.wait_bus_ns, self.wait_bus_cmds) / 1e3,
            ),
            (
                "flash_sim.bus_util_mean",
                if self.util_channels == 0 {
                    0.0
                } else {
                    self.util_sum / self.util_channels as f64
                },
            ),
            ("ftl.gc_passes", self.gc_passes as f64),
            ("ftl.gc_pages_moved", self.gc_pages_moved as f64),
            ("ftl.blocks_erased", self.blocks_erased as f64),
            ("ftl.write_amplification", wa),
        ]
    }
}

// ---------------------------------------------------------------- keeper

/// The committed allocator model.
pub fn load_allocator(path: &str) -> Result<ChannelAllocator, String> {
    let _s = span("ssdkeeper.load_allocator");
    ssdkeeper::model_io::load_allocator(path).map_err(|e| format!("load_allocator({path}): {e}"))
}

/// The Figure 5 evaluation settings, drawn from `seed`.
pub fn fig5_config(seed: u64) -> exp::fig5::Fig5Config {
    exp::fig5::Fig5Config {
        seed,
        ..Default::default()
    }
}

/// Mix1–Mix4 of Figure 5 (100k requests each by default).
pub fn fig5_mixes(cfg: &exp::fig5::Fig5Config) -> Vec<Vec<IoRequest>> {
    let _s = span("workloads.synth");
    workloads::msr::paper_mix_profiles()
        .iter()
        .map(|p| exp::fig5::build_mix(p, cfg))
        .collect()
}

/// The online keeper Figure 5 runs (no hybrid page allocation).
pub fn fig5_keeper(cfg: &exp::fig5::Fig5Config, allocator: ChannelAllocator) -> Keeper {
    Keeper::new(
        KeeperConfig {
            ssd: cfg.ssd.clone(),
            observe_window_ns: cfg.observe_window_ns,
            hybrid: false,
        },
        allocator,
    )
}

/// Which keeper session to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Fixed(Shared)`, the baseline.
    Shared,
    /// `Fixed` with a given strategy class.
    Fixed(usize),
    /// `AdaptOnce` with the metrics probe attached.
    AdaptOnce,
    /// `Periodic` with the given window.
    Periodic(u64),
}

/// What a keeper session returns that the benchmark checks or reports.
#[derive(Debug, Clone)]
pub struct Session {
    /// The modeled report.
    pub report: SimReport,
    /// Strategy class in effect at the end.
    pub strategy: usize,
    /// Strategy class and features of every live reallocation, in time
    /// order.
    pub decisions: Vec<(usize, FeatureVector)>,
    /// Metrics summary, when the session collected one.
    pub metrics: Option<MetricsSummary>,
}

/// One `Keeper::run` session.
pub fn keeper_session(
    keeper: &Keeper,
    trace: &[IoRequest],
    lpn_spaces: &[u64],
    mode: Mode,
) -> Result<Session, String> {
    let (name, spec) = match mode {
        Mode::Shared => (
            "keeper.session.fixed",
            RunSpec::fixed(trace, lpn_spaces, Strategy::Shared),
        ),
        Mode::Fixed(i) => {
            let s = Strategy::from_index(i, TENANTS).ok_or_else(|| format!("no strategy {i}"))?;
            (
                "keeper.session.chosen",
                RunSpec::fixed(trace, lpn_spaces, s),
            )
        }
        Mode::AdaptOnce => (
            "keeper.session.adapt_once",
            RunSpec::adapt_once(trace, lpn_spaces).with_metrics(),
        ),
        Mode::Periodic(w) => (
            "keeper.session.periodic",
            RunSpec::periodic(trace, lpn_spaces, w),
        ),
    };
    let _s = span(name);
    let out = keeper
        .run(spec)
        .map_err(|e| format!("Keeper::run({mode:?}): {e}"))?;
    Ok(Session {
        strategy: out.strategy.index(TENANTS),
        decisions: out
            .decisions
            .iter()
            .map(|d| (d.strategy.index(TENANTS), d.features.clone()))
            .collect(),
        metrics: out.metrics,
        report: out.report,
    })
}

/// The allocator's decisions for a batch of feature vectors (f32 path).
pub fn decide(allocator: &ChannelAllocator, features: &[FeatureVector]) -> Vec<usize> {
    let _s = span("allocator.predict_batch");
    allocator
        .predict_batch(features)
        .iter()
        .map(|s| s.index(TENANTS))
        .collect()
}

/// Replays the keeper's `Fixed(Shared)` session as a separate `SimBuilder`
/// build and run: all channels shared, static allocation.
pub fn replay_shared(
    ssd: &SsdConfig,
    trace: &[IoRequest],
    lpn_spaces: &[u64],
    arena: &mut SimArena,
) -> Result<SimReport, String> {
    let mut layout = TenantLayout::shared(lpn_spaces.len(), ssd);
    for (t, &space) in lpn_spaces.iter().enumerate() {
        layout = layout.with_lpn_space(t, space);
    }
    build_and_run(ssd, layout, trace, arena)
}

// ----------------------------------------------------------------- fleet

/// The GC-bound fleet: 1000 tenants on 64 devices shrunk to 4 blocks of
/// 16 pages per plane, 32 logical pages per tenant. The footprint keeps
/// every plane in GC steady state yet fits even when a random partition
/// squeezes three 4-tenant slots onto one channel (384 of 512 pages);
/// larger footprints overflow a plane on some seeds.
pub fn gc_fleet_config(seed: u64, workers: usize) -> FleetConfig {
    let base = FleetConfig::scenario_1k(seed);
    FleetConfig {
        lpn_space_per_tenant: 32,
        ssd: SsdConfig {
            blocks_per_plane: 4,
            pages_per_block: 16,
            ..base.ssd.clone()
        },
        pool: parallel::PoolConfig::with_workers(workers),
        ..base
    }
}

/// What a fleet run returns that the benchmark checks or reports.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// `FleetSummary::digest` of the run.
    pub digest: u64,
    /// Discrete events across all shards.
    pub events: u64,
    /// Tenant moves of the re-placement hook.
    pub replacements: usize,
    /// Merged metrics of every shard.
    pub merged: MetricsSummary,
}

/// One `run_fleet` call.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetRun, String> {
    let _s = span("fleet.run_fleet");
    let out = fleet::run_fleet(cfg).map_err(|e| format!("run_fleet: {e}"))?;
    Ok(FleetRun {
        digest: out.summary.digest(),
        events: out.summary.total_events(),
        replacements: out.replacements.len(),
        merged: out.summary.merged,
    })
}

/// Regenerates the fleet's tenant streams from its seed, exactly as the
/// fleet derives them, so tier-1 placement can be timed on its own.
pub fn fleet_streams(cfg: &FleetConfig) -> Vec<Vec<IoRequest>> {
    use simrng::Rng;
    let _s = span("workloads.synth");
    (0..cfg.tenants)
        .map(|t| {
            let mut rng = simrng::SimRng::seed_from_u64(fleet::seed::derive(
                cfg.fleet_seed,
                fleet::seed::DOMAIN_PROFILE,
                t as u64,
            ));
            let write_ratio = rng.gen_range(0.05f64..0.95);
            let iops = rng.gen_range(5_000.0f64..40_000.0);
            let spec = workloads::TenantSpec::synthetic(
                format!("t{t}"),
                write_ratio,
                iops,
                cfg.lpn_space_per_tenant,
            );
            let seed = fleet::seed::derive(cfg.fleet_seed, fleet::seed::DOMAIN_STREAM, t as u64);
            workloads::generate_tenant_stream(&spec, 0, cfg.requests_per_tenant, seed)
        })
        .collect()
}

/// Tier-1 placement of the given streams; returns the device of every
/// tenant.
pub fn place(cfg: &FleetConfig, streams: &[Vec<IoRequest>]) -> Vec<usize> {
    let _s = span("placement.place");
    let loads = ssdkeeper::TenantLoad::observe_all(streams, cfg.observe_window_ns);
    ssdkeeper::FleetPlacer::new(cfg.devices)
        .place(&loads)
        .device_of
}

// ----------------------------------------------------------------- train

/// Parses a labelled dataset from its text form.
pub fn parse_dataset(text: &str) -> Result<LabelledDataset, String> {
    let _s = span("ssdkeeper.dataset_from_text");
    LabelledDataset::from_text(text).ok_or_else(|| "LabelledDataset::from_text failed".to_string())
}

/// The two optimizers the training workload fits.
pub const TRAIN_CHOICES: [OptimizerChoice; 2] =
    [OptimizerChoice::AdamLogistic, OptimizerChoice::SgdMomentum];

/// Name of an optimizer choice.
pub fn choice_name(choice: OptimizerChoice) -> &'static str {
    choice.name()
}

/// A trained model, reduced to what the benchmark checks.
pub struct Trained {
    /// FNV-1a over the bit patterns of every weight and bias.
    pub weights_digest: u64,
    /// The deployable allocator.
    pub allocator: ChannelAllocator,
    /// Held-out sample indices.
    pub test_indices: Vec<usize>,
    /// Rows in the training split.
    pub train_rows: usize,
}

/// `Learner::train_with` for a fixed number of epochs.
pub fn train(
    dataset: &LabelledDataset,
    choice: OptimizerChoice,
    epochs: usize,
    seed: u64,
) -> Result<Trained, String> {
    let learner = Learner::new(DatasetSpec::quick(0));
    let model = {
        let _s = span("ann.train");
        guarded("Learner::train_with", || {
            learner.train_with(dataset, choice, epochs, seed)
        })?
    };
    let mut h = crate::stats::Fnv::new();
    for layer in model.network.layers() {
        for &w in layer.w.as_slice().iter().chain(&layer.b) {
            h.write_u64(u64::from(w.to_bits()));
        }
    }
    Ok(Trained {
        weights_digest: h.finish(),
        train_rows: dataset.samples.len() - model.test_indices.len(),
        test_indices: model.test_indices.clone(),
        allocator: model.allocator(),
    })
}
