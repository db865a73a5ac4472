//! The isolation-group label sweep against the naive one.
//!
//! `evaluate_all` simulates each channel-isolated tenant group once and
//! merges group statistics into per-strategy rows. These tests hold it to
//! a plain loop that runs the whole trace under every strategy with
//! `run_under_strategy`: every row must match to the bit, across
//! scheduling, host queue depth, plane parallelism, hybrid allocation and
//! a GC-heavy geometry. A simulator change that couples tenants on
//! disjoint channels (device-global state) fails here.

use flash_sim::{IoRequest, SimArena, SimError, SsdConfig};
use parallel::PoolConfig;
use ssdkeeper::label::{
    evaluate_all, evaluate_all_sized, run_under_strategy, EvalConfig, SweepSize,
};
use ssdkeeper::Strategy;
use workloads::{
    generate_tenant_stream, mix_chronological, AddressPattern, ObservedFeatures, SizeDist,
    TenantSpec,
};

/// One row as comparable bits: strategy, read, write, metric.
type Row = (Strategy, u64, u64, u64);

/// The sweep as every strategy's own full-trace run.
fn naive_sweep(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<(Vec<Row>, u64), SimError> {
    let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
    let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
    let mut arena = SimArena::new();
    let mut rows = Vec::new();
    let mut gc_passes = 0;
    for strategy in Strategy::all_for_tenants(tenants) {
        let report = run_under_strategy(trace, strategy, &rw_chars, lpn_spaces, eval, &mut arena)?;
        gc_passes += report.ftl.gc_invocations;
        rows.push((
            strategy,
            report.read.mean_us().to_bits(),
            report.write.mean_us().to_bits(),
            report.total_latency_metric_us().to_bits(),
        ));
        arena.recycle_report(report);
    }
    Ok((rows, gc_passes))
}

fn planned_sweep(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<Vec<Row>, SimError> {
    Ok(evaluate_all(trace, tenants, lpn_spaces, eval)?
        .into_iter()
        .map(|e| {
            (
                e.strategy,
                e.read_us.to_bits(),
                e.write_us.to_bits(),
                e.metric_us.to_bits(),
            )
        })
        .collect())
}

/// Asserts bit-equal rows; returns the naive sweep's GC pass count.
fn assert_sweeps_agree(
    what: &str,
    trace: &[IoRequest],
    tenants: usize,
    lpn_space: u64,
    eval: &EvalConfig,
) -> u64 {
    let spaces = vec![lpn_space; tenants];
    let (naive, gc_passes) = naive_sweep(trace, tenants, &spaces, eval).unwrap();
    let planned = planned_sweep(trace, tenants, &spaces, eval).unwrap();
    assert_eq!(naive.len(), planned.len(), "{what}");
    for (n, p) in naive.iter().zip(&planned) {
        assert_eq!(n, p, "{what}: strategy {} differs", n.0);
    }
    gc_passes
}

fn tenant(read_dominated: bool, iops: f64, lpn_space: u64) -> TenantSpec {
    let mut spec = TenantSpec::synthetic(
        if read_dominated { "r" } else { "w" },
        if read_dominated { 0.15 } else { 0.85 },
        iops,
        lpn_space,
    );
    if read_dominated {
        spec.pattern = AddressPattern::SequentialRuns { run_len: 8 };
        spec.size = SizeDist::Uniform { min: 1, max: 4 };
    } else {
        spec.pattern = AddressPattern::Zipf { theta: 0.8 };
        spec.size = SizeDist::Uniform { min: 1, max: 2 };
    }
    spec
}

/// A mixed trace: one tenant per `(read_dominated, iops)` entry, each
/// issuing `per_tenant` requests.
fn mixed_trace(kinds: &[(bool, f64)], per_tenant: usize, lpn_space: u64) -> Vec<IoRequest> {
    let streams: Vec<Vec<IoRequest>> = kinds
        .iter()
        .enumerate()
        .map(|(t, &(read, iops))| {
            generate_tenant_stream(
                &tenant(read, iops, lpn_space),
                t as u16,
                per_tenant,
                900 + t as u64,
            )
        })
        .collect();
    mix_chronological(&streams, usize::MAX)
}

/// Two write-dominated and two read-dominated tenants, interleaved.
const FOUR_MIXED: [(bool, f64); 4] = [
    (false, 9_000.0),
    (true, 14_000.0),
    (false, 5_000.0),
    (true, 20_000.0),
];

fn sweep_eval(ssd: SsdConfig, hybrid: bool) -> EvalConfig {
    EvalConfig {
        ssd,
        hybrid,
        pool: PoolConfig::with_workers(1),
    }
}

#[test]
fn plan_matches_the_naive_sweep_across_configs() {
    let base = SsdConfig::scaled_for_sweeps();
    let configs: Vec<(&str, SsdConfig, bool)> = vec![
        ("scaled_for_sweeps", base.clone(), false),
        ("scaled_for_sweeps + hybrid", base.clone(), true),
        (
            "host_queue_depth 4",
            SsdConfig {
                host_queue_depth: 4,
                ..base.clone()
            },
            true,
        ),
        (
            "ReadPriority { max_bypass: 4 }",
            SsdConfig {
                sched_policy: flash_sim::scheduler::SchedPolicy::ReadPriority { max_bypass: 4 },
                ..base.clone()
            },
            true,
        ),
        (
            "plane_parallelism off",
            SsdConfig {
                plane_parallelism: false,
                ..base.clone()
            },
            true,
        ),
    ];
    let four = mixed_trace(&FOUR_MIXED, 300, 1 << 12);
    let two = mixed_trace(&[(false, 12_000.0), (true, 25_000.0)], 400, 1 << 12);
    // All write-dominated: a two-part split leaves its read channels
    // idle and puts every tenant in one group.
    let all_writers = mixed_trace(&[(false, 8_000.0); 4], 200, 1 << 12);
    for (name, ssd, hybrid) in configs {
        let eval = sweep_eval(ssd, hybrid);
        assert_sweeps_agree(&format!("{name}, 4 tenants"), &four, 4, 1 << 12, &eval);
        assert_sweeps_agree(&format!("{name}, 2 tenants"), &two, 2, 1 << 12, &eval);
        assert_sweeps_agree(
            &format!("{name}, 4 writers"),
            &all_writers,
            4,
            1 << 12,
            &eval,
        );
    }
}

#[test]
fn plan_matches_the_naive_sweep_under_gc_and_wear_leveling() {
    let ssd = SsdConfig {
        blocks_per_plane: 16,
        pages_per_block: 16,
        wear_leveling_threshold: 2,
        ..SsdConfig::scaled_for_sweeps()
    };
    let lpn_space = 400;
    let trace = mixed_trace(&FOUR_MIXED, 2_000, lpn_space);
    assert_eq!(trace.len(), 8_000);
    for hybrid in [false, true] {
        let gc_passes = assert_sweeps_agree(
            &format!("GC geometry, hybrid {hybrid}"),
            &trace,
            4,
            lpn_space,
            &sweep_eval(ssd.clone(), hybrid),
        );
        assert!(
            gc_passes > 1_000,
            "the GC geometry must collect: {gc_passes} passes"
        );
    }
}

#[test]
fn rows_do_not_depend_on_the_worker_count() {
    let trace = mixed_trace(&FOUR_MIXED, 250, 1 << 12);
    let spaces = [1 << 12; 4];
    let one = planned_sweep(
        &trace,
        4,
        &spaces,
        &sweep_eval(SsdConfig::scaled_for_sweeps(), true),
    )
    .unwrap();
    let two = planned_sweep(
        &trace,
        4,
        &spaces,
        &EvalConfig {
            pool: PoolConfig::with_workers(2),
            ..sweep_eval(SsdConfig::scaled_for_sweeps(), true)
        },
    )
    .unwrap();
    assert_eq!(one, two);
}

#[test]
fn a_rejected_layout_fails_both_sweeps() {
    // One channel holds 4 x 256 blocks x 128 pages; a tenant squeezed
    // onto it with this space overflows its planes.
    let ssd = SsdConfig::scaled_for_sweeps();
    let oversized = 200_000;
    let trace = mixed_trace(&FOUR_MIXED, 20, oversized);
    let spaces = [oversized; 4];
    let eval = sweep_eval(ssd, false);
    assert!(matches!(
        naive_sweep(&trace, 4, &spaces, &eval),
        Err(SimError::CapacityExceeded { .. })
    ));
    assert!(matches!(
        evaluate_all(&trace, 4, &spaces, &eval),
        Err(SimError::CapacityExceeded { .. })
    ));
}

#[test]
fn a_mixed_four_tenant_trace_runs_33_groups() {
    // Shared is one group; each of the six two-part splits is a write
    // group and a read group with distinct channel counts (12); Isolated
    // and the 34 four-part splits give each tenant 1-5 channels (20).
    let per_tenant = 100;
    let trace = mixed_trace(&FOUR_MIXED, per_tenant, 1 << 12);
    let eval = sweep_eval(SsdConfig::scaled_for_sweeps(), false);
    let (_, size) = evaluate_all_sized(&trace, 4, &[1 << 12; 4], &eval).unwrap();
    let n = trace.len() as u64;
    let quarter = per_tenant as u64;
    assert_eq!(
        size,
        SweepSize {
            group_runs: 33,
            group_requests: n + 12 * 2 * quarter + 20 * quarter,
            joint_runs: 42,
            joint_requests: 42 * n,
        }
    );
}
