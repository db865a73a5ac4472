//! Label generation (Algorithm 1, lines 3–8).
//!
//! For a mixed workload, evaluate every strategy in the space and select
//! the strategy with the lowest total response latency (mean read + mean
//! write, the §III-B metric) as the training label. [`evaluate_all`]
//! gets every strategy's metric by simulating each channel-isolated
//! tenant group once; the group runs are independent, so they fan out
//! over [`parallel::par_map_init`].

use crate::strategy::Strategy;
use flash_sim::{
    IoRequest, LatencyStats, PageAllocPolicy, SimArena, SimBuilder, SimError, SimReport, SsdConfig,
    TenantLayout,
};
use parallel::PoolConfig;
use workloads::ObservedFeatures;

/// Domain tag for per-sample RNG seeding in the parallel label farm
/// ([`crate::learner::Learner::generate_dataset_parallel`]). Shares the
/// [`simrng::derive_seed`] triple rule with `fleet::seed`, whose domains
/// 1–3 are stream/profile/model — domain separation means the farm can
/// never collide with fleet-derived seeds.
pub(crate) const DOMAIN_LABEL_SAMPLE: u64 = 4;

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
/// Every row equals a [`run_under_strategy`] run of that strategy bit for
/// bit; the sweep gets there by simulating each distinct isolation group
/// once (see [`evaluate_all_sized`]). Fails if any strategy's layout is
/// rejected or any of its runs fails.
pub fn evaluate_all(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<Vec<StrategyEval>, SimError> {
    evaluate_all_sized(trace, tenants, lpn_spaces, eval).map(|(rows, _)| rows)
}

/// [`evaluate_all`] plus the size of the sweep it ran.
///
/// Within one strategy, tenants whose channel sets overlap (directly or
/// through another tenant) form an *isolation group*; different groups
/// share no channel, so no unit, bus, plane, queue or mapping table
/// either, and a group's latencies do not depend on the other groups'
/// requests. Shared is one group, a two-part split is its write group and
/// its read group, and `Isolated` and every four-part split are one group
/// per tenant. A group's latencies are a function of its tenants and,
/// per tenant, the page-allocation policy, logical space and channel
/// list relabelled to ranks within the group's channels (channels are
/// identical resources, so translating a group to other channels changes
/// nothing). The sweep simulates each such key once, on the trace
/// filtered to the group's tenants, and assembles every strategy's row by
/// merging its groups' read and write statistics. Latency sums and counts
/// are integers, so the merged means are the joint run's bit for bit.
/// DESIGN.md §6d lists the simulator invariants this rests on.
///
/// The group runs fan out over the config's pool, largest first, one
/// [`SimArena`] and one filtered trace buffer per worker; each run is a
/// pure function of its group, so the rows do not depend on the worker
/// count.
///
/// # Panics
///
/// Panics unless `lpn_spaces` has one entry per tenant.
pub fn evaluate_all_sized(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<(Vec<StrategyEval>, SweepSize), SimError> {
    let strategies = Strategy::all_for_tenants(tenants);
    let (runs, rows) = plan_groups(trace, tenants, lpn_spaces, eval, &strategies)?;
    let size = SweepSize {
        group_runs: runs.len() as u64,
        group_requests: runs.iter().map(|r| r.requests as u64).sum(),
        joint_runs: strategies.len() as u64,
        joint_requests: (strategies.len() * trace.len()) as u64,
    };
    obs::counter_add!("label.group_runs", size.group_runs);
    obs::counter_add!("label.group_requests", size.group_requests);
    obs::counter_add!("label.joint_runs", size.joint_runs);
    obs::counter_add!("label.joint_requests", size.joint_requests);

    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(runs[r].requests));
    let done = parallel::par_map_init(
        &eval.pool,
        &order,
        || (SimArena::new(), Vec::new()),
        |(arena, filtered), _, &r| run_group(trace, eval, &runs[r], arena, filtered),
    );
    let mut stats: Vec<_> = order.into_iter().zip(done).collect();
    stats.sort_unstable_by_key(|&(r, _)| r);

    let mut evals = Vec::with_capacity(strategies.len());
    for (strategy, row) in strategies.into_iter().zip(rows) {
        let mut read = LatencyStats::new();
        let mut write = LatencyStats::new();
        for r in row {
            let (r, w) = stats[r].1.as_ref().map_err(Clone::clone)?;
            read.merge(r);
            write.merge(w);
        }
        evals.push(StrategyEval {
            strategy,
            read_us: read.mean_us(),
            write_us: write.mean_us(),
            // The same sum `SimReport::total_latency_metric_us` forms.
            metric_us: read.mean_us() + write.mean_us(),
        });
    }
    Ok((evals, size))
}

/// How much simulation a label sweep performs, next to the naive sweep
/// that runs the whole trace once per strategy. Sizes of several sweeps
/// add up with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSize {
    /// Distinct isolation-group runs simulated.
    pub group_runs: u64,
    /// Requests those runs simulate in total.
    pub group_requests: u64,
    /// Runs of the naive sweep: one per strategy.
    pub joint_runs: u64,
    /// Requests of the naive sweep: the whole trace per strategy.
    pub joint_requests: u64,
}

impl std::ops::AddAssign for SweepSize {
    fn add_assign(&mut self, o: SweepSize) {
        self.group_runs += o.group_runs;
        self.group_requests += o.group_requests;
        self.joint_runs += o.joint_runs;
        self.joint_requests += o.joint_requests;
    }
}

/// One distinct isolation group: the tenants it holds and the layout it
/// runs under (that of the first strategy that produced it).
#[derive(Debug)]
struct GroupRun {
    /// What the group's latencies are a function of (see [`group_key`]).
    key: Vec<u64>,
    /// `members[t]`: whether tenant `t` belongs to the group.
    members: Vec<bool>,
    layout: TenantLayout,
    /// Requests of the trace the group's tenants issue.
    requests: usize,
}

/// The distinct isolation groups of `strategies` on `trace`, and per
/// strategy the indices of the groups that make up its row. Fails like
/// the first failing strategy's run would when the trace is invalid or a
/// strategy's channel lists are rejected.
fn plan_groups(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
    strategies: &[Strategy],
) -> Result<(Vec<GroupRun>, Vec<Vec<usize>>), SimError> {
    let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
    let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
    assert_eq!(
        rw_chars.len(),
        lpn_spaces.len(),
        "one char and space per tenant"
    );
    flash_sim::validate_trace(trace, tenants)?;
    let mut per_tenant = vec![0usize; tenants];
    for r in trace {
        per_tenant[r.tenant as usize] += 1;
    }
    let mut runs: Vec<GroupRun> = Vec::new();
    let mut rows = Vec::with_capacity(strategies.len());
    for strategy in strategies {
        let layout = strategy.layout(&rw_chars, lpn_spaces, &eval.ssd, eval.hybrid)?;
        let groups = isolation_groups(&layout, eval.ssd.channels);
        let mut row = Vec::new();
        for (g, &lowest) in groups.iter().enumerate() {
            if lowest != g {
                continue; // not the group's lowest tenant
            }
            let members: Vec<bool> = groups.iter().map(|&h| h == g).collect();
            let key = group_key(&layout, &members);
            let run = match runs.iter().position(|r| r.key == key) {
                Some(run) => run,
                None => {
                    let requests = (0..tenants)
                        .filter(|&t| members[t])
                        .map(|t| per_tenant[t])
                        .sum();
                    runs.push(GroupRun {
                        key,
                        members,
                        layout: layout.clone(),
                        requests,
                    });
                    runs.len() - 1
                }
            };
            row.push(run);
        }
        rows.push(row);
    }
    Ok((runs, rows))
}

/// One group's read and write statistics: its layout run on the trace
/// filtered (stably) to its tenants.
fn run_group(
    trace: &[IoRequest],
    eval: &EvalConfig,
    run: &GroupRun,
    arena: &mut SimArena,
    filtered: &mut Vec<IoRequest>,
) -> Result<(LatencyStats, LatencyStats), SimError> {
    filtered.clear();
    filtered.extend(trace.iter().filter(|r| run.members[r.tenant as usize]));
    let report = SimBuilder::new(eval.ssd.clone(), run.layout.clone())
        .build_with_arena(arena)?
        .run_reclaim(filtered, arena)?;
    let stats = (report.read.clone(), report.write.clone());
    arena.recycle_report(report);
    Ok(stats)
}

/// Each tenant's isolation group, named by the group's lowest tenant:
/// the connected components of channel-set overlap.
fn isolation_groups(layout: &TenantLayout, channels: usize) -> Vec<usize> {
    let n = layout.tenant_count();
    let mut group: Vec<usize> = (0..n).collect();
    for ch in 0..channels {
        let owners: Vec<usize> = (0..n)
            .filter(|&t| layout.tenant(t).channels.contains(ch))
            .map(|t| group[t])
            .collect();
        let Some(&to) = owners.iter().min() else {
            continue;
        };
        for g in &mut group {
            if owners.contains(g) {
                *g = to;
            }
        }
    }
    group
}

/// What a group's latencies are a function of, flattened: per member
/// tenant, its index, policy, logical space and channel list relabelled
/// to ranks within the group's channels.
fn group_key(layout: &TenantLayout, members: &[bool]) -> Vec<u64> {
    let mut used: Vec<u16> = Vec::new();
    for (t, state) in layout.iter().enumerate() {
        if members[t] {
            used.extend_from_slice(state.channels.channels());
        }
    }
    used.sort_unstable();
    used.dedup();
    let mut key = Vec::new();
    for (t, state) in layout.iter().enumerate() {
        if !members[t] {
            continue;
        }
        let channels = state.channels.channels();
        key.extend([
            t as u64,
            u64::from(state.policy == PageAllocPolicy::Dynamic),
            state.lpn_space,
            channels.len() as u64,
        ]);
        key.extend(
            channels
                .iter()
                .map(|c| used.binary_search(c).expect("member channel") as u64),
        );
    }
    key
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
