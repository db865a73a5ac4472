//! Label generation (Algorithm 1, lines 3–8).
//!
//! For a mixed workload, run the simulator once per strategy in the space
//! and select the strategy with the lowest total response latency (mean
//! read + mean write, the §III-B metric) as the training label. The
//! per-strategy runs are independent, so they fan out over
//! [`parallel::par_map`].

use crate::strategy::Strategy;
use flash_sim::{IoRequest, SimArena, SimBuilder, SimError, SimReport, SsdConfig};
use parallel::PoolConfig;
use workloads::ObservedFeatures;

/// Domain tag for per-sample RNG seeding in the parallel label farm
/// ([`crate::learner::Learner::generate_dataset_parallel`]). Shares the
/// [`simrng::derive_seed`] triple rule with `fleet::seed`, whose domains
/// 1–3 are stream/profile/model — domain separation means the farm can
/// never collide with fleet-derived seeds.
pub const DOMAIN_LABEL_SAMPLE: u64 = 4;

/// Configuration shared by every labelling run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Device model under test.
    pub ssd: SsdConfig,
    /// Whether the hybrid page allocator is active.
    pub hybrid: bool,
    /// Thread pool for fanning strategies out.
    pub pool: PoolConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            ssd: SsdConfig::scaled_for_sweeps(),
            hybrid: false,
            pool: PoolConfig::auto(),
        }
    }
}

impl EvalConfig {
    /// This config with the strategy sweep pinned to one worker — for
    /// use inside an outer fan-out (the label farm parallelizes across
    /// samples; nesting a second pool per sample would oversubscribe).
    pub fn sequential(&self) -> EvalConfig {
        EvalConfig {
            pool: PoolConfig::with_workers(1),
            ..self.clone()
        }
    }
}

/// Result of evaluating one strategy on one mixed workload.
#[derive(Debug, Clone)]
pub struct StrategyEval {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Mean read latency (µs).
    pub read_us: f64,
    /// Mean write latency (µs).
    pub write_us: f64,
    /// The selection metric: `read_us + write_us`.
    pub metric_us: f64,
}

/// Runs `trace` on a device partitioned by `strategy`, building the
/// simulator from `arena` (a fresh [`SimArena`] is the cold path; a
/// reused one makes every run after the first allocation-free).
///
/// `rw_chars` are the tenants' observed characteristics (for two-part
/// grouping and the hybrid allocator); `lpn_spaces` bound each tenant's
/// logical footprint.
pub fn run_under_strategy(
    trace: &[IoRequest],
    strategy: Strategy,
    rw_chars: &[u8],
    lpn_spaces: &[u64],
    eval: &EvalConfig,
    arena: &mut SimArena,
) -> Result<SimReport, SimError> {
    assert_eq!(
        rw_chars.len(),
        lpn_spaces.len(),
        "one char and space per tenant"
    );
    let layout = strategy.layout(rw_chars, lpn_spaces, &eval.ssd, eval.hybrid)?;
    SimBuilder::new(eval.ssd.clone(), layout)
        .build_with_arena(arena)?
        .run_reclaim(trace, arena)
}

/// Evaluates every strategy in the `tenants`-tenant space on `trace`.
///
/// The tenants' read/write characteristics are taken from the whole
/// trace, exactly as the offline label generator would observe them.
pub fn evaluate_all(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<Vec<StrategyEval>, SimError> {
    let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
    let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
    let strategies = Strategy::all_for_tenants(tenants);

    // One arena per pool worker: each worker recycles a single simulator
    // allocation pool across every strategy it claims, so only its first
    // run pays for buffer construction (with one worker, one arena serves
    // the whole sweep).
    let results = parallel::par_map_init(
        &eval.pool,
        &strategies,
        SimArena::new,
        |arena, _, &strategy| {
            run_under_strategy(trace, strategy, &rw_chars, lpn_spaces, eval, arena).map(|report| {
                let row = StrategyEval {
                    strategy,
                    read_us: report.read.mean_us(),
                    write_us: report.write.mean_us(),
                    metric_us: report.total_latency_metric_us(),
                };
                arena.recycle_report(report);
                row
            })
        },
    );
    results.into_iter().collect()
}

/// The argmin-latency strategy (ties go to the earlier index, i.e. the
/// simpler strategy).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_strategy(evals: &[StrategyEval]) -> &StrategyEval {
    best_strategy_with_tolerance(evals, 0.0)
}

/// The earliest-index strategy whose metric is within `rel_tol` of the
/// true minimum.
///
/// Label generation uses a small tolerance (2 % by default): simulated
/// latencies of near-equivalent strategies differ by sampling noise, so a
/// strict argmin turns ties into label noise the model cannot learn.
/// Collapsing near-ties onto the earliest (simplest) strategy gives clean
/// labels, and predicting any strategy inside the tolerance band costs at
/// most `rel_tol` of latency.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_strategy_with_tolerance(evals: &[StrategyEval], rel_tol: f64) -> &StrategyEval {
    let min = evals
        .iter()
        .map(|e| e.metric_us)
        .fold(f64::INFINITY, f64::min);
    let bound = min * (1.0 + rel_tol.max(0.0));
    evals
        .iter()
        .find(|e| e.metric_us <= bound)
        .expect("at least one strategy evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

    fn small_eval() -> EvalConfig {
        EvalConfig {
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            hybrid: false,
            pool: PoolConfig::with_workers(1),
        }
    }

    fn two_tenant_trace(write_iops: f64, read_iops: f64, n: usize) -> Vec<IoRequest> {
        let w = generate_tenant_stream(
            &TenantSpec::synthetic("w", 1.0, write_iops, 1 << 12),
            0,
            n,
            11,
        );
        let r = generate_tenant_stream(
            &TenantSpec::synthetic("r", 0.0, read_iops, 1 << 12),
            1,
            n,
            22,
        );
        mix_chronological(&[w, r], usize::MAX)
    }

    #[test]
    fn run_under_strategy_produces_report() {
        let trace = two_tenant_trace(5_000.0, 5_000.0, 200);
        let eval = small_eval();
        let report = run_under_strategy(
            &trace,
            Strategy::Shared,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
            &mut SimArena::new(),
        )
        .unwrap();
        assert_eq!(report.total.count as usize, trace.len());
    }

    #[test]
    fn evaluate_all_covers_the_two_tenant_space() {
        let trace = two_tenant_trace(8_000.0, 8_000.0, 150);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        assert_eq!(evals.len(), 8);
        assert!(evals.iter().all(|e| e.metric_us > 0.0));
        // Metric is consistent with its parts.
        for e in &evals {
            assert!((e.metric_us - (e.read_us + e.write_us)).abs() < 1e-9);
        }
    }

    #[test]
    fn best_strategy_is_argmin() {
        let trace = two_tenant_trace(8_000.0, 8_000.0, 150);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        let best = best_strategy(&evals);
        assert!(evals.iter().all(|e| best.metric_us <= e.metric_us));
    }

    #[test]
    fn heavily_read_skewed_mix_prefers_read_channels() {
        // Reads arrive far above one channel's ~49k IOPS service capacity:
        // 7:1 (reader squeezed onto one channel) must lose badly to 1:7.
        let trace = two_tenant_trace(4_000.0, 90_000.0, 600);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        let metric = |s: Strategy| {
            evals
                .iter()
                .find(|e| e.strategy == s)
                .map(|e| e.metric_us)
                .unwrap()
        };
        assert!(
            metric(Strategy::TwoPart { write_channels: 1 })
                < metric(Strategy::TwoPart { write_channels: 7 }),
            "1:7 should beat 7:1 on a read-heavy mix"
        );
    }

    #[test]
    fn hybrid_flag_changes_policies_not_correctness() {
        let trace = two_tenant_trace(6_000.0, 6_000.0, 150);
        let mut eval = small_eval();
        let base = run_under_strategy(
            &trace,
            Strategy::Isolated,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
            &mut SimArena::new(),
        )
        .unwrap();
        eval.hybrid = true;
        let hybrid = run_under_strategy(
            &trace,
            Strategy::Isolated,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
            &mut SimArena::new(),
        )
        .unwrap();
        assert_eq!(base.total.count, hybrid.total.count);
    }

    #[test]
    #[should_panic(expected = "one char and space per tenant")]
    fn mismatched_tenant_vectors_panic() {
        let trace = two_tenant_trace(1_000.0, 1_000.0, 10);
        let _ = run_under_strategy(
            &trace,
            Strategy::Shared,
            &[0, 1],
            &[64],
            &small_eval(),
            &mut SimArena::new(),
        );
    }
}
