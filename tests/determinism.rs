//! Reproducibility across the whole stack: identical seeds must produce
//! bit-identical traces, labels, models, and simulation reports.

use ssdkeeper_repro::flash_sim::{
    IoRequest, Op, PageAllocPolicy, Reallocation, SimArena, SimBuilder, SimReport, SsdConfig,
    TenantLayout,
};
use ssdkeeper_repro::parallel::PoolConfig;
use ssdkeeper_repro::ssdkeeper::label::EvalConfig;
use ssdkeeper_repro::ssdkeeper::learner::{DatasetSpec, Learner, OptimizerChoice};
use ssdkeeper_repro::workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// One cold simulation: build from a fresh arena and run `trace`.
fn simulate(cfg: &SsdConfig, layout: TenantLayout, trace: &[IoRequest]) -> SimReport {
    let mut arena = SimArena::new();
    SimBuilder::new(cfg.clone(), layout)
        .build_with_arena(&mut arena)
        .unwrap()
        .run_reclaim(trace, &mut arena)
        .unwrap()
}

fn spec() -> DatasetSpec {
    DatasetSpec {
        samples: 6,
        requests_per_sample: 400,
        max_total_iops: 120_000.0,
        lpn_space: 1 << 10,
        label_tolerance: 0.02,
        eval: EvalConfig {
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            hybrid: false,
            pool: PoolConfig::with_workers(2),
        },
    }
}

#[test]
fn trace_generation_is_seed_deterministic() {
    let t = TenantSpec::synthetic("t", 0.4, 10_000.0, 1 << 12);
    let a = generate_tenant_stream(&t, 0, 5_000, 42);
    let b = generate_tenant_stream(&t, 0, 5_000, 42);
    assert_eq!(a, b);
}

#[test]
fn simulation_reports_are_identical_across_runs() {
    let cfg = SsdConfig {
        blocks_per_plane: 64,
        pages_per_block: 32,
        ..SsdConfig::paper_table1()
    };
    let streams: Vec<_> = (0..2)
        .map(|t| {
            generate_tenant_stream(
                &TenantSpec::synthetic(format!("t{t}"), 0.5, 20_000.0, 1 << 10),
                t as u16,
                3_000,
                t as u64,
            )
        })
        .collect();
    let trace = mix_chronological(&streams, 6_000);
    let run = || {
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(1 << 10);
        simulate(&cfg, layout, &trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn dataset_and_model_are_deterministic_even_with_parallel_labelling() {
    // The thread pool fans strategies out, but results are collected in
    // input order, so labels must not depend on scheduling.
    let learner = Learner::new(spec());
    let d1 = learner.generate_dataset(9);
    let d2 = learner.generate_dataset(9);
    for (a, b) in d1.samples.iter().zip(&d2.samples) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.features, b.features);
        assert_eq!(a.best_metric_us, b.best_metric_us);
    }
    let m1 = learner.train_with(&d1, OptimizerChoice::AdamLogistic, 10, 4);
    let m2 = learner.train_with(&d2, OptimizerChoice::AdamLogistic, 10, 4);
    assert_eq!(m1.network, m2.network);
    assert_eq!(m1.history.loss, m2.history.loss);
}

/// Fixture A: two tenants (one dynamic-policy writer, one reader) on a
/// GC-pressured device with wear leveling, host queueing, and a mid-run
/// channel reallocation — every stateful subsystem participates.
fn gc_wear_realloc_report() -> SimReport {
    let cfg = SsdConfig {
        blocks_per_plane: 16,
        pages_per_block: 16,
        gc_free_block_threshold: 0.3,
        wear_leveling_threshold: 4,
        host_queue_depth: 8,
        ..SsdConfig::paper_table1()
    };
    let streams: Vec<_> = [(0u16, 0.9, 5u64), (1u16, 0.2, 6u64)]
        .iter()
        .map(|&(tenant, write_ratio, seed)| {
            let lpn_space = if tenant == 0 { 6144 } else { 3072 };
            generate_tenant_stream(
                &TenantSpec::synthetic(format!("t{tenant}"), write_ratio, 40_000.0, lpn_space),
                tenant,
                if tenant == 0 { 2_500 } else { 1_500 },
                seed,
            )
        })
        .collect();
    let trace = mix_chronological(&streams, 4_000);
    let layout = TenantLayout::shared(2, &cfg)
        .with_lpn_space(0, 6144)
        .with_lpn_space(1, 3072)
        .with_policy(0, PageAllocPolicy::Dynamic);
    let mut arena = SimArena::new();
    let mut sim = SimBuilder::new(cfg, layout)
        .precondition(&[1.0, 1.0])
        .build_with_arena(&mut arena)
        .unwrap();
    sim.schedule_reallocation(Reallocation::new(
        30_000_000,
        vec![
            (0, vec![0, 1, 2, 3], Some(PageAllocPolicy::Dynamic)),
            (1, vec![4, 5, 6, 7], Some(PageAllocPolicy::Static)),
        ],
    ))
    .unwrap();
    sim.run_reclaim(&trace, &mut arena).unwrap()
}

/// Fixture B: one tenant hammering a hot region on a tiny read-priority
/// device (die-level parallelism only), GC constantly active.
fn read_priority_hot_report() -> SimReport {
    let cfg = SsdConfig {
        gc_free_block_threshold: 0.25,
        plane_parallelism: false,
        host_queue_depth: 2,
        ..SsdConfig::small_test()
    };
    let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(96);
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg, layout)
        .precondition(&[0.75])
        .build_with_arena(&mut arena)
        .unwrap();
    let trace: Vec<IoRequest> = (0..2_000u64)
        .map(|i| {
            let op = if i % 5 == 4 { Op::Read } else { Op::Write };
            IoRequest::new(i, 0, op, (i * 13) % 96, 1, i * 3_000)
        })
        .collect();
    sim.run_reclaim(&trace, &mut arena).unwrap()
}

/// Byte-identity pin against the pre-arena, pre-indexed-GC engine: the
/// event counts and makespans below were captured from the scan-based
/// `pick_victim` and the monotonically growing command arena; the
/// free-list arena and the bucketed victim index must reproduce them
/// exactly. The digests ([`SimReport::digest`], over every value of the
/// report) were captured later than the events and makespans, because
/// the report has since gained fields; the events/makespan pins prove
/// the engine still schedules identically.
#[test]
fn sim_reports_match_pre_arena_goldens() {
    let a = gc_wear_realloc_report();
    let b = read_priority_hot_report();
    if std::env::var("SSDKEEPER_PRINT_GOLDEN").is_ok() {
        println!(
            "fixture A: digest {:#018x} events {} makespan {} gc {} moved {}",
            a.digest(),
            a.events_processed,
            a.makespan_ns,
            a.ftl.gc_invocations,
            a.ftl.gc_pages_moved
        );
        println!(
            "fixture B: digest {:#018x} events {} makespan {} gc {} moved {}",
            b.digest(),
            b.events_processed,
            b.makespan_ns,
            b.ftl.gc_invocations,
            b.ftl.gc_pages_moved
        );
    }
    assert!(a.ftl.gc_invocations > 0, "fixture A must exercise GC");
    assert!(b.ftl.gc_invocations > 0, "fixture B must exercise GC");
    assert_eq!(a.digest(), 0x802f_6247_8c4d_8abf);
    assert_eq!(a.events_processed, 16_038);
    assert_eq!(a.makespan_ns, 97_785_251);
    assert_eq!(b.digest(), 0xbe14_c95d_defe_7c4c);
    assert_eq!(b.events_processed, 8_182);
    assert_eq!(b.makespan_ns, 322_483_000);
}

/// The thread-pool fan-out must be invisible in the results: the same
/// fig2 sweep with one worker and with `auto()` workers has to produce
/// bit-identical latencies for every strategy at every write proportion.
#[test]
fn fig2_sweep_is_identical_across_worker_counts() {
    let base = exp::fig2::Fig2Config {
        requests: 600,
        total_iops: 60_000.0,
        lpn_space: 1 << 10,
        ssd: SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..SsdConfig::paper_table1()
        },
        pool: PoolConfig::with_workers(1),
        seed: 7,
    };
    let serial = exp::fig2::run(&base);
    let parallel = exp::fig2::run(&exp::fig2::Fig2Config {
        pool: PoolConfig::auto(),
        ..base
    });
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.write_pct, p.write_pct);
        assert_eq!(s.evals.len(), p.evals.len());
        for (se, pe) in s.evals.iter().zip(&p.evals) {
            assert_eq!(se.strategy, pe.strategy);
            assert_eq!(se.read_us.to_bits(), pe.read_us.to_bits());
            assert_eq!(se.write_us.to_bits(), pe.write_us.to_bits());
            assert_eq!(se.metric_us.to_bits(), pe.metric_us.to_bits());
        }
    }
}
