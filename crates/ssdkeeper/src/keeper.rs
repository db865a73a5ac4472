//! The online loop (Algorithm 2).
//!
//! For `t < T` the device runs in `Shared` mode while the features
//! collector records read/write characteristics and intensities. At
//! `t == T` the collector's features feed the channel allocator, and the
//! predicted strategy re-partitions the channels for the rest of the run.
//! New writes follow the new channel sets; old data remains readable where
//! it was written. When hybrid page allocation is enabled, each tenant's
//! allocation mode is also switched to match its observed characteristic.

use crate::allocator::ChannelAllocator;
use crate::features::{FeatureVector, TENANTS};
use crate::strategy::Strategy;
use flash_sim::metrics::{MetricsProbe, MetricsSummary};
use flash_sim::probe::{
    KeeperDecision, NullProbe, Probe, Tee, DECISION_CLASSES, DECISION_FEATURES,
};
use flash_sim::sim::Reallocation;
use flash_sim::{IoRequest, SimArena, SimBuilder, SimError, SimReport, SsdConfig, TenantLayout};
use workloads::{IntensityScale, ObservedFeatures};

/// Errors surfaced by [`Keeper::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum KeeperError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The spec named an unsupported tenant count (1..=4 supported).
    TenantCount {
        /// The tenant count the spec carried.
        got: usize,
    },
}

impl std::fmt::Display for KeeperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeeperError::Sim(e) => write!(f, "simulation error: {e}"),
            KeeperError::TenantCount { got } => {
                write!(
                    f,
                    "unsupported tenant count {got} (1..={TENANTS} supported)"
                )
            }
        }
    }
}

impl std::error::Error for KeeperError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KeeperError::Sim(e) => Some(e),
            KeeperError::TenantCount { .. } => None,
        }
    }
}

impl From<SimError> for KeeperError {
    fn from(e: SimError) -> Self {
        KeeperError::Sim(e)
    }
}

/// How [`Keeper::run`] drives the channel allocation over the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One fixed strategy from `t = 0` (the Figure 5 baselines).
    Fixed(Strategy),
    /// Algorithm 2: observe under `Shared` for the configured window,
    /// predict once at `t == T`, keep that strategy for the rest.
    AdaptOnce,
    /// Re-observe every `window_ns` and re-partition whenever the
    /// prediction changes; the first window always runs `Shared`.
    Periodic {
        /// Re-observation window length in nanoseconds.
        window_ns: u64,
    },
}

/// One run session: the trace, the tenants' logical spaces, the mode, an
/// optional probe receiving the keeper's decision events plus every
/// engine hook for the run, and an optional arena to build the engine
/// from.
pub struct RunSpec<'a> {
    /// The request trace to replay.
    pub trace: &'a [IoRequest],
    /// Per-tenant logical-space bounds (length = tenant count, 1..=4).
    pub lpn_spaces: &'a [u64],
    /// Allocation mode.
    pub mode: RunMode,
    /// Observability sink; `None` runs with the zero-cost [`NullProbe`].
    pub probe: Option<&'a mut dyn Probe>,
    /// Whether to aggregate a [`MetricsSummary`] for the session (an
    /// internal [`MetricsProbe`] tees off the same hook stream the
    /// `probe` sees). Off by default: sessions that don't ask pay
    /// nothing.
    pub collect_metrics: bool,
    /// Buffer pool the engine is built from and reclaimed into; `None`
    /// builds from a fresh [`SimArena`] (the cold path). Callers replaying
    /// many sessions (the fleet shard loop) keep one arena per worker so
    /// every session after the first builds its simulator without heap
    /// allocation. Reports are byte-identical either way.
    pub arena: Option<&'a mut SimArena>,
}

impl<'a> RunSpec<'a> {
    /// A fixed-strategy session.
    pub fn fixed(trace: &'a [IoRequest], lpn_spaces: &'a [u64], strategy: Strategy) -> Self {
        Self {
            trace,
            lpn_spaces,
            mode: RunMode::Fixed(strategy),
            probe: None,
            collect_metrics: false,
            arena: None,
        }
    }

    /// An adapt-once (Algorithm 2) session.
    pub fn adapt_once(trace: &'a [IoRequest], lpn_spaces: &'a [u64]) -> Self {
        Self {
            trace,
            lpn_spaces,
            mode: RunMode::AdaptOnce,
            probe: None,
            collect_metrics: false,
            arena: None,
        }
    }

    /// A periodic re-observation session.
    pub fn periodic(trace: &'a [IoRequest], lpn_spaces: &'a [u64], window_ns: u64) -> Self {
        Self {
            trace,
            lpn_spaces,
            mode: RunMode::Periodic { window_ns },
            probe: None,
            collect_metrics: false,
            arena: None,
        }
    }

    /// Attaches a probe to the session.
    pub fn with_probe(mut self, probe: &'a mut dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Builds the session's engine from `arena` and reclaims it there.
    pub fn with_arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Asks the session to aggregate a [`MetricsSummary`] (exposed as
    /// [`RunOutcome::metrics`]); composes with [`RunSpec::with_probe`].
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }
}

/// Result of a [`Keeper::run`] session, uniform across modes.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator report for the full trace.
    pub report: SimReport,
    /// The strategy in effect at the end of the run: the fixed one, the
    /// `t == T` prediction, or the last periodic decision (`Shared` when
    /// a periodic run never decided).
    pub strategy: Strategy,
    /// Features behind the final decision; `None` for fixed runs and for
    /// periodic runs that never saw a non-empty window.
    pub features: Option<FeatureVector>,
    /// Every strategy *change*, time-ordered. One entry for adapt-once,
    /// empty for fixed runs.
    pub decisions: Vec<Decision>,
    /// Streaming metrics summary; `Some` iff the spec asked via
    /// [`RunSpec::with_metrics`]. The timeline window is the keeper's
    /// `observe_window_ns`, so throughput buckets line up with decision
    /// boundaries.
    pub metrics: Option<MetricsSummary>,
}

/// Keeper configuration.
#[derive(Debug, Clone)]
pub struct KeeperConfig {
    /// Device model.
    pub ssd: SsdConfig,
    /// Observation window `T` in nanoseconds.
    pub observe_window_ns: u64,
    /// Whether the hybrid page allocator is active.
    pub hybrid: bool,
}

impl Default for KeeperConfig {
    fn default() -> Self {
        Self {
            ssd: SsdConfig::scaled_for_sweeps(),
            observe_window_ns: 50_000_000, // 50 ms
            hybrid: true,
        }
    }
}

/// One strategy decision of a periodic run.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Simulated time the new strategy took effect.
    pub at_ns: u64,
    /// The window features it was based on.
    pub features: FeatureVector,
    /// The strategy chosen.
    pub strategy: Strategy,
}

/// SSDKeeper's online engine: features collector + channel allocator +
/// hybrid page allocator wired into the simulated FTL.
#[derive(Debug, Clone)]
pub struct Keeper {
    config: KeeperConfig,
    allocator: ChannelAllocator,
}

impl Keeper {
    /// Builds a keeper from a config and a trained allocator.
    pub fn new(config: KeeperConfig, allocator: ChannelAllocator) -> Self {
        Self { config, allocator }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KeeperConfig {
        &self.config
    }

    /// Runs one session per `spec` — the single entry point for every
    /// allocation policy. The mode selects the policy; the optional
    /// probe observes every engine hook plus the keeper's own decision
    /// events (feature vector + predicted class probabilities).
    pub fn run(&self, spec: RunSpec<'_>) -> Result<RunOutcome, KeeperError> {
        obs::span!("keeper_run");
        obs::counter_add!("keeper.runs", 1u64);
        if spec.lpn_spaces.is_empty() || spec.lpn_spaces.len() > TENANTS {
            return Err(KeeperError::TenantCount {
                got: spec.lpn_spaces.len(),
            });
        }
        let RunSpec {
            trace,
            lpn_spaces,
            mode,
            probe,
            collect_metrics,
            arena,
        } = spec;
        let mut null = NullProbe;
        let probe: &mut dyn Probe = match probe {
            Some(p) => p,
            None => &mut null,
        };
        let mut fresh = SimArena::new();
        let arena = arena.unwrap_or(&mut fresh);
        if collect_metrics {
            let mut metrics = MetricsProbe::new(self.config.observe_window_ns);
            let mut tee = Tee::new(probe, &mut metrics);
            let mut out = self.dispatch(trace, lpn_spaces, mode, &mut tee, arena)?;
            out.metrics = Some(metrics.into_summary());
            Ok(out)
        } else {
            self.dispatch(trace, lpn_spaces, mode, probe, arena)
        }
    }

    fn dispatch(
        &self,
        trace: &[IoRequest],
        lpn_spaces: &[u64],
        mode: RunMode,
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<RunOutcome, KeeperError> {
        match mode {
            RunMode::Fixed(strategy) => self.run_fixed(trace, lpn_spaces, strategy, probe, arena),
            RunMode::AdaptOnce => self.run_adapt_once(trace, lpn_spaces, probe, arena),
            RunMode::Periodic { window_ns } => {
                self.run_periodic(trace, lpn_spaces, window_ns, probe, arena)
            }
        }
    }

    /// Executes a prepared session — layout plus time-ordered
    /// reallocations — on the simulator built from `arena`. Every mode
    /// funnels through here; this is the single point where policy hands
    /// off to command execution.
    fn execute(
        &self,
        layout: TenantLayout,
        reallocations: Vec<Reallocation>,
        trace: &[IoRequest],
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<SimReport, KeeperError> {
        obs::span!("keeper_execute");
        obs::counter_add!("keeper.reallocs_planned", reallocations.len() as u64);
        let mut sim = SimBuilder::new(self.config.ssd.clone(), layout)
            .probe(probe)
            .build_with_arena(arena)?;
        for r in reallocations {
            sim.schedule_reallocation(r)?;
        }
        Ok(sim.run_reclaim(trace, arena)?)
    }

    /// The probe-facing form of a decision: network input vector plus the
    /// predicted probability of every strategy class.
    fn decision_event(
        &self,
        at_ns: u64,
        features: &FeatureVector,
        strategy: Strategy,
    ) -> KeeperDecision {
        let mut proba = [0.0f32; DECISION_CLASSES];
        for (dst, src) in proba.iter_mut().zip(self.allocator.predict_proba(features)) {
            *dst = src;
        }
        let input: [f32; DECISION_FEATURES] = features.to_input();
        KeeperDecision {
            at_ns,
            strategy: strategy.index(TENANTS) as u16,
            features: input,
            proba,
        }
    }

    /// Fixed strategy from `t = 0` (the baselines of Figure 5).
    /// Characteristics for two-part grouping and hybrid policies are taken
    /// from the observation window, as the adaptive run would see them.
    fn run_fixed(
        &self,
        trace: &[IoRequest],
        lpn_spaces: &[u64],
        strategy: Strategy,
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<RunOutcome, KeeperError> {
        let tenants = lpn_spaces.len();
        let obs = ObservedFeatures::collect(trace, tenants, self.config.observe_window_ns);
        let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
        let layout =
            strategy.layout(&rw_chars, lpn_spaces, &self.config.ssd, self.config.hybrid)?;
        let report = self.execute(layout, Vec::new(), trace, probe, arena)?;
        Ok(RunOutcome {
            report,
            strategy,
            features: None,
            decisions: Vec::new(),
            metrics: None,
        })
    }

    /// Algorithm 2: observe under `Shared` over `[0, T)`, predict once at
    /// `t == T`, re-partition for the rest of the run.
    fn run_adapt_once(
        &self,
        trace: &[IoRequest],
        lpn_spaces: &[u64],
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<RunOutcome, KeeperError> {
        let tenants = lpn_spaces.len();
        let t_ns = self.config.observe_window_ns;

        // --- Features collector over [0, T). ---
        let obs = ObservedFeatures::collect(trace, tenants, t_ns);
        let scale = IntensityScale::new(self.allocator.max_total_iops() * (t_ns as f64 / 1e9));
        let features = FeatureVector::from_observed(&obs, &scale);

        // --- Strategy prediction at t == T. ---
        let strategy = self.allocator.predict(&features);
        probe.on_keeper_decision(&self.decision_event(t_ns, &features, strategy));
        let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
        let realloc = strategy.reallocation(t_ns, &rw_chars, &self.config.ssd, self.config.hybrid);

        // --- Phase 1 layout: Shared, static allocation. ---
        let layout = shared_layout(lpn_spaces, &self.config.ssd);
        let report = self.execute(layout, vec![realloc], trace, probe, arena)?;
        let decisions = vec![Decision {
            at_ns: t_ns,
            features: features.clone(),
            strategy,
        }];
        Ok(RunOutcome {
            report,
            strategy,
            features: Some(features),
            decisions,
            metrics: None,
        })
    }

    /// Periodic re-observation: after every window of `window_ns`, the
    /// features of *that window* are fed to the allocator and the channels
    /// are re-partitioned whenever the prediction changes.
    ///
    /// This is the natural extension of Algorithm 2 from one decision to a
    /// control loop ("self-adapting" over time): workloads whose mix
    /// drifts mid-run get re-matched instead of keeping the first
    /// decision forever. The first window always runs `Shared`, like the
    /// base algorithm.
    fn run_periodic(
        &self,
        trace: &[IoRequest],
        lpn_spaces: &[u64],
        window_ns: u64,
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<RunOutcome, KeeperError> {
        let tenants = lpn_spaces.len();
        let t_ns = window_ns;
        let horizon = trace.last().map(|r| r.arrival_ns).unwrap_or(0);
        let scale = IntensityScale::new(self.allocator.max_total_iops() * (t_ns as f64 / 1e9));

        let layout = shared_layout(lpn_spaces, &self.config.ssd);

        // Decide every window first (decision events fire here, before any
        // engine event), then hand the probe to the simulator for the run.
        //
        // Two passes: collect every non-empty window's observations, then
        // decide them all in ONE batched allocator call — the network runs
        // each layer's kernel once for the whole run instead of once per
        // window. Each batch row equals the per-window `predict`, so the
        // decisions (and the merged outcome) are identical to the
        // sequential loop this replaced.
        // Explicit guard (not `span!`) so planning closes before the
        // execute handoff opens its own span.
        let plan_span = if obs::ENABLED {
            Some(obs::spans::enter("keeper_plan_windows"))
        } else {
            None
        };
        let mut windows: Vec<(u64, ObservedFeatures)> = Vec::new();
        let mut features: Vec<FeatureVector> = Vec::new();
        let mut boundary = t_ns;
        while boundary <= horizon.saturating_add(t_ns) {
            let obs = ObservedFeatures::collect_range(trace, tenants, boundary - t_ns, boundary);
            if obs.total() != 0 {
                features.push(FeatureVector::from_observed(&obs, &scale));
                windows.push((boundary, obs));
            }
            boundary += t_ns;
        }
        let predicted = self.allocator.predict_batch(&features);

        let mut reallocations: Vec<Reallocation> = Vec::new();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut current: Option<Strategy> = None;
        for ((&(boundary, ref obs), features), &strategy) in
            windows.iter().zip(features.iter()).zip(predicted.iter())
        {
            if current != Some(strategy) {
                let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
                reallocations.push(strategy.reallocation(
                    boundary,
                    &rw_chars,
                    &self.config.ssd,
                    self.config.hybrid,
                ));
                probe.on_keeper_decision(&self.decision_event(boundary, features, strategy));
                decisions.push(Decision {
                    at_ns: boundary,
                    features: features.clone(),
                    strategy,
                });
                current = Some(strategy);
            }
        }

        drop(plan_span);
        let report = self.execute(layout, reallocations, trace, probe, arena)?;
        Ok(RunOutcome {
            report,
            strategy: current.unwrap_or(Strategy::Shared),
            features: decisions.last().map(|d| d.features.clone()),
            decisions,
            metrics: None,
        })
    }
}

/// Every tenant striping over all channels with static allocation (the
/// observation phase of the adaptive modes), each bounded to its
/// logical space.
fn shared_layout(lpn_spaces: &[u64], cfg: &SsdConfig) -> TenantLayout {
    let mut layout = TenantLayout::shared(lpn_spaces.len(), cfg);
    for (t, &space) in lpn_spaces.iter().enumerate() {
        layout = layout.with_lpn_space(t, space);
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Activation, Network};
    use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

    fn test_config() -> KeeperConfig {
        KeeperConfig {
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            observe_window_ns: 10_000_000,
            hybrid: true,
        }
    }

    fn untrained_keeper() -> Keeper {
        let net = Network::paper_topology(Activation::Logistic, 5);
        Keeper::new(test_config(), ChannelAllocator::new(net, 120_000.0))
    }

    fn four_tenant_trace(n: usize) -> Vec<IoRequest> {
        let specs = [
            TenantSpec::synthetic("a", 0.9, 8_000.0, 1 << 10),
            TenantSpec::synthetic("b", 0.1, 12_000.0, 1 << 10),
            TenantSpec::synthetic("c", 0.85, 4_000.0, 1 << 10),
            TenantSpec::synthetic("d", 0.05, 6_000.0, 1 << 10),
        ];
        let streams: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(t, s)| generate_tenant_stream(s, t as u16, n / 4, t as u64 + 1))
            .collect();
        mix_chronological(&streams, n)
    }

    #[test]
    fn adaptive_run_completes_and_reports() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(400);
        let out = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]))
            .unwrap();
        assert_eq!(out.report.total.count as usize, trace.len());
        assert!(out.strategy.index(4) < 42);
        // Characteristics observed in the window match the spec dominances.
        assert_eq!(out.features.as_ref().unwrap().rw_char, [0, 1, 0, 1]);
        assert_eq!(out.decisions.len(), 1);
        assert_eq!(out.decisions[0].at_ns, keeper.config().observe_window_ns);
        assert_eq!(out.decisions[0].strategy, out.strategy);
    }

    #[test]
    fn adaptive_equals_static_when_prediction_is_shared() {
        // Whatever the untrained net predicts, running the same strategy
        // statically from t=0 must complete with the same request count.
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(300);
        let adaptive = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]))
            .unwrap();
        let fixed = keeper
            .run(RunSpec::fixed(&trace, &[1 << 10; 4], adaptive.strategy))
            .unwrap();
        assert_eq!(fixed.report.total.count, adaptive.report.total.count);
        assert!(fixed.features.is_none());
        assert!(fixed.decisions.is_empty());
    }

    #[test]
    fn static_shared_and_isolated_baselines_run() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(300);
        for s in [Strategy::Shared, Strategy::Isolated] {
            let out = keeper
                .run(RunSpec::fixed(&trace, &[1 << 10; 4], s))
                .unwrap();
            assert_eq!(out.report.total.count as usize, trace.len());
            assert_eq!(out.strategy, s);
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let keeper = untrained_keeper();
        let out = keeper.run(RunSpec::adapt_once(&[], &[1 << 10; 4])).unwrap();
        assert_eq!(out.report.total.count, 0);
        assert_eq!(out.features.unwrap().intensity_level, 0);
    }

    #[test]
    fn bad_tenant_counts_are_typed_errors() {
        let keeper = untrained_keeper();
        assert_eq!(
            keeper.run(RunSpec::adapt_once(&[], &[64; 5])).unwrap_err(),
            KeeperError::TenantCount { got: 5 }
        );
        assert_eq!(
            keeper.run(RunSpec::adapt_once(&[], &[])).unwrap_err(),
            KeeperError::TenantCount { got: 0 }
        );
        // Errors render and chain like std errors.
        let err = KeeperError::TenantCount { got: 5 };
        assert!(err.to_string().contains("tenant count 5"));
        let err = KeeperError::Sim(SimError::EmptyRequest { index: 3 });
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn periodic_run_completes_and_records_decisions() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(600);
        let window = keeper.config().observe_window_ns;
        let out = keeper
            .run(RunSpec::periodic(&trace, &[1 << 10; 4], window))
            .unwrap();
        assert_eq!(out.report.total.count as usize, trace.len());
        // At least the first non-empty window produces a decision; repeats
        // of the same prediction are coalesced.
        assert!(!out.decisions.is_empty());
        let mut prev = None;
        for d in &out.decisions {
            assert!(d.strategy.index(4) < 42);
            assert_ne!(prev, Some(d.strategy), "consecutive decisions must differ");
            prev = Some(d.strategy);
        }
        // Decisions are time-ordered at window boundaries.
        for w in out.decisions.windows(2) {
            assert!(w[0].at_ns < w[1].at_ns);
            assert_eq!(w[0].at_ns % window, 0);
        }
        // The outcome's final strategy is the last decision's.
        assert_eq!(out.strategy, out.decisions.last().unwrap().strategy);
    }

    #[test]
    fn periodic_run_on_empty_trace_makes_no_decisions() {
        let keeper = untrained_keeper();
        let out = keeper
            .run(RunSpec::periodic(&[], &[1 << 10; 4], 10_000_000))
            .unwrap();
        assert!(out.decisions.is_empty());
        assert_eq!(out.report.total.count, 0);
        assert_eq!(out.strategy, Strategy::Shared);
        assert!(out.features.is_none());
    }

    #[test]
    fn probe_receives_keeper_decisions() {
        use flash_sim::probe::{EventRecorder, ProbeEvent};
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(400);
        let mut rec = EventRecorder::with_capacity(1 << 14);
        let out = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]).with_probe(&mut rec))
            .unwrap();
        let decisions: Vec<_> = rec
            .to_vec()
            .into_iter()
            .filter_map(|e| match e {
                ProbeEvent::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.at_ns, keeper.config().observe_window_ns);
        assert_eq!(d.strategy as usize, out.strategy.index(4));
        assert_eq!(d.features, out.features.unwrap().to_input());
        // The class probabilities are a distribution with the argmax at
        // the chosen strategy.
        let sum: f32 = d.proba.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "proba sums to {sum}");
        let argmax = d
            .proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, d.strategy as usize);
        // Engine events flowed through the same recorder.
        assert!(rec
            .to_vec()
            .iter()
            .any(|e| matches!(e, ProbeEvent::CmdComplete(_))));
        assert!(rec
            .to_vec()
            .iter()
            .any(|e| matches!(e, ProbeEvent::Realloc(_))));
    }

    #[test]
    fn attached_recorder_does_not_change_the_report() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(400);
        let bare = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]))
            .unwrap();
        let mut rec = flash_sim::EventRecorder::with_capacity(256);
        let probed = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]).with_probe(&mut rec))
            .unwrap();
        assert_eq!(bare.report, probed.report);
        assert!(!rec.is_empty());
    }

    #[test]
    fn metrics_are_off_by_default_and_on_by_request() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(400);
        let bare = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]))
            .unwrap();
        assert!(bare.metrics.is_none());
        let observed = keeper
            .run(RunSpec::adapt_once(&trace, &[1 << 10; 4]).with_metrics())
            .unwrap();
        assert_eq!(bare.report, observed.report, "metrics must not perturb");
        let m = observed.metrics.unwrap();
        // The summary's channel busy time is the same accounting the
        // report keeps — the probe stream carries the whole truth.
        for (c, &busy) in observed.report.bus_busy_ns.iter().enumerate() {
            let probed = m.channels.get(c).map(|cm| cm.busy_ns).unwrap_or(0);
            assert_eq!(probed, busy, "channel {c}");
        }
        assert_eq!(m.tenants.len(), 4);
        assert!(m.host_reads() > 0 && m.host_writes() > 0);
        // Timeline windows use the keeper's observation window.
        assert_eq!(m.window_ns, keeper.config().observe_window_ns);
        assert!(!m.timeline.is_empty());
    }

    #[test]
    fn metrics_compose_with_an_attached_probe() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(300);
        let mut rec = flash_sim::EventRecorder::with_capacity(1 << 14);
        let out = keeper
            .run(
                RunSpec::adapt_once(&trace, &[1 << 10; 4])
                    .with_probe(&mut rec)
                    .with_metrics(),
            )
            .unwrap();
        let m = out.metrics.unwrap();
        assert!(!rec.is_empty(), "user probe still sees the stream");
        // The recorder captured everything, so replaying it into a fresh
        // aggregator reproduces the keeper's own summary (modulo the
        // decision events MetricsProbe ignores anyway).
        assert_eq!(rec.dropped(), 0);
        let mut offline = flash_sim::MetricsProbe::new(keeper.config().observe_window_ns);
        flash_sim::replay(rec.events(), &mut offline);
        assert_eq!(offline.into_summary(), m);
    }

    /// A warm arena — dirtied by a session of a different shape (two
    /// tenants, another geometry) — must be invisible: every mode reports
    /// and decides exactly as a cold session does.
    #[test]
    fn warm_arena_sessions_match_cold_sessions() {
        let keeper = untrained_keeper();
        let trace = four_tenant_trace(600);
        let spaces = [1 << 10; 4];
        let window = keeper.config().observe_window_ns;
        let other = Keeper::new(
            KeeperConfig {
                ssd: SsdConfig::small_test(),
                observe_window_ns: 1_000_000,
                hybrid: false,
            },
            ChannelAllocator::new(Network::paper_topology(Activation::ReLU, 9), 50_000.0),
        );
        assert_ne!(other.config().ssd, keeper.config().ssd);
        let other_trace: Vec<IoRequest> = four_tenant_trace(200)
            .into_iter()
            .filter(|r| r.tenant < 2)
            .collect();
        let mut arena = SimArena::new();
        for mode in [
            RunMode::Fixed(Strategy::Isolated),
            RunMode::AdaptOnce,
            RunMode::Periodic { window_ns: window },
        ] {
            let spec = || RunSpec {
                mode,
                ..RunSpec::adapt_once(&trace, &spaces)
            };
            let cold = keeper.run(spec()).unwrap();
            other
                .run(
                    RunSpec::fixed(&other_trace, &[64, 64], Strategy::Shared)
                        .with_arena(&mut arena),
                )
                .unwrap();
            let warm = keeper.run(spec().with_arena(&mut arena)).unwrap();
            assert_eq!(cold.report.digest(), warm.report.digest(), "{mode:?}");
            assert_eq!(
                format!("{:?}", cold.decisions),
                format!("{:?}", warm.decisions),
                "{mode:?}"
            );
            assert_eq!(cold.strategy, warm.strategy);
        }
    }

    #[test]
    fn config_accessor() {
        let keeper = untrained_keeper();
        assert_eq!(keeper.config().observe_window_ns, 10_000_000);
        assert!(keeper.config().hybrid);
    }
}
