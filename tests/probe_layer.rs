//! Probe-layer guarantees, end to end:
//!
//! 1. Observation is free of observable effects — the golden determinism
//!    fixtures produce byte-identical reports with `NullProbe` and with a
//!    bounded `EventRecorder` attached.
//! 2. The recorder's ring buffer drops oldest-first with a monotone drop
//!    counter, and the persisted SSDP codec round-trips what remains.
//! 3. Every `Keeper::run(RunSpec)` mode holds its contract on a seeded
//!    fig2-style workload, and an attached probe sees the decisions
//!    without changing the report.

use ssdkeeper_repro::flash_sim::probe::decode_events;
use ssdkeeper_repro::flash_sim::{
    EventRecorder, IoRequest, PageAllocPolicy, Probe, ProbeEvent, Reallocation, SimArena,
    SimBuilder, SimReport, SsdConfig, TenantLayout,
};
use ssdkeeper_repro::ssdkeeper::keeper::{Keeper, KeeperConfig, RunSpec};
use ssdkeeper_repro::ssdkeeper::{ChannelAllocator, Strategy};
use ssdkeeper_repro::workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// The determinism suite's fixture A (GC + wear leveling + host queueing
/// + mid-run reallocation), parameterized over an optional recorder.
fn gc_wear_realloc_report(probe: Option<&mut EventRecorder>) -> SimReport {
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
    let realloc = Reallocation::new(
        30_000_000,
        vec![
            (0, vec![0, 1, 2, 3], Some(PageAllocPolicy::Dynamic)),
            (1, vec![4, 5, 6, 7], Some(PageAllocPolicy::Static)),
        ],
    );
    let builder = SimBuilder::new(cfg, layout).precondition(&[1.0, 1.0]);
    let mut arena = SimArena::new();
    match probe {
        Some(rec) => {
            let mut sim = builder.probe(rec).build_with_arena(&mut arena).unwrap();
            sim.schedule_reallocation(realloc).unwrap();
            sim.run_reclaim(&trace, &mut arena).unwrap()
        }
        None => {
            let mut sim = builder.build_with_arena(&mut arena).unwrap();
            sim.schedule_reallocation(realloc).unwrap();
            sim.run_reclaim(&trace, &mut arena).unwrap()
        }
    }
}

#[test]
fn golden_digest_is_byte_identical_with_and_without_a_recorder() {
    let bare = gc_wear_realloc_report(None);
    let mut rec = EventRecorder::with_capacity(1 << 20);
    let observed = gc_wear_realloc_report(Some(&mut rec));
    assert_eq!(bare, observed);
    // The recorder actually saw the run it did not perturb.
    assert!(!rec.is_empty(), "recorder captured no events");
    assert_eq!(rec.dropped(), 0, "capacity was sized to capture everything");
    let reallocs = rec
        .events()
        .filter(|e| matches!(e, ProbeEvent::Realloc(_)))
        .count();
    assert_eq!(reallocs, 2, "one ReallocApply per reallocation entry");
}

#[test]
fn recorder_events_round_trip_through_the_codec() {
    let mut rec = EventRecorder::with_capacity(1 << 20);
    let _ = gc_wear_realloc_report(Some(&mut rec));
    let bytes = rec.encode();
    let (events, dropped) = decode_events(&bytes).unwrap();
    assert_eq!(events.len(), rec.len());
    assert_eq!(dropped, rec.dropped());
    assert_eq!(events, rec.to_vec());
}

#[test]
fn ring_buffer_overflow_drops_oldest_with_a_monotone_counter() {
    let capacity = 64;
    let mut rec = EventRecorder::with_capacity(capacity);
    let _ = gc_wear_realloc_report(Some(&mut rec));
    assert_eq!(rec.len(), capacity, "buffer filled to capacity");
    assert!(rec.dropped() > 0, "fixture emits far more than 64 events");
    // What remains is the newest suffix: timestamps still non-decreasing,
    // and the first retained event is no older than anything dropped
    // would have been (compare against a full capture).
    let mut full = EventRecorder::with_capacity(1 << 20);
    let _ = gc_wear_realloc_report(Some(&mut full));
    assert_eq!(rec.dropped(), full.len() as u64 - capacity as u64);
    let tail: Vec<_> = full.to_vec().split_off(full.len() - capacity);
    assert_eq!(rec.to_vec(), tail, "retained events are the newest suffix");
}

/// Per-phase accounting sanity: a single command cannot spend longer in
/// any phase than the whole run took, so every per-command phase mean
/// (and, up to the log₂ bucket edge, every percentile) is bounded by the
/// makespan. This is the regression guard for the old BENCH_sim.json
/// `wait_unit_mean_ns` confusion: the number was real but measured an
/// unbounded open-loop backlog, and a unit-accounting bug (summing over
/// queued commands, dividing by the wrong denominator) would blow past
/// this bound immediately.
#[test]
fn phase_means_are_bounded_by_the_makespan_per_command() {
    let report = gc_wear_realloc_report(None);
    let makespan = report.makespan_ns;
    assert!(makespan > 0);
    let phases = &report.phases;
    for (name, h) in [
        ("wait_unit", &phases.wait_unit),
        ("array", &phases.array),
        ("wait_bus", &phases.wait_bus),
        ("transfer", &phases.transfer),
        ("gc_exec", &phases.gc_exec),
    ] {
        assert!(
            h.mean_ns() <= makespan as f64,
            "{name}: mean {} exceeds makespan {makespan}",
            h.mean_ns()
        );
        // The percentile estimator returns the upper bucket edge, which
        // errs high by at most 2x over the largest true sample.
        assert!(
            h.percentile_ns(1.0) <= makespan.saturating_mul(2),
            "{name}: p100 {} exceeds 2x makespan {makespan}",
            h.percentile_ns(1.0)
        );
    }
    // Host queueing in this fixture is bounded (qd 8), so commands are
    // admitted against backpressure and waits stay well under the
    // makespan — the regime the sim_micro bench now also runs in.
    assert!(phases.wait_unit.count > 0);
}

/// A seeded fig2-style workload: four tenants with distinct read/write
/// dominances at moderate intensity on a small device.
fn fig2_style_trace() -> (Vec<IoRequest>, [u64; 4]) {
    let specs = [
        TenantSpec::synthetic("w-heavy", 0.95, 18_000.0, 1 << 10),
        TenantSpec::synthetic("r-heavy", 0.05, 22_000.0, 1 << 10),
        TenantSpec::synthetic("w-mid", 0.80, 9_000.0, 1 << 10),
        TenantSpec::synthetic("r-mid", 0.20, 11_000.0, 1 << 10),
    ];
    let streams: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(t, s)| generate_tenant_stream(s, t as u16, 2_000, 1_234 + t as u64))
        .collect();
    (mix_chronological(&streams, 6_000), [1 << 10; 4])
}

fn small_keeper(hybrid: bool) -> Keeper {
    let ssd = SsdConfig {
        blocks_per_plane: 64,
        pages_per_block: 32,
        ..SsdConfig::paper_table1()
    };
    let net = ssdkeeper_repro::ann::Network::paper_topology(
        ssdkeeper_repro::ann::Activation::Logistic,
        3,
    );
    Keeper::new(
        KeeperConfig {
            ssd,
            observe_window_ns: 10_000_000,
            hybrid,
        },
        ChannelAllocator::new(net, 120_000.0),
    )
}

#[test]
fn keeper_run_modes_hold_their_contracts_on_a_seeded_workload() {
    let (trace, lpn_spaces) = fig2_style_trace();
    for hybrid in [false, true] {
        let keeper = small_keeper(hybrid);

        let fixed = keeper
            .run(RunSpec::fixed(&trace, &lpn_spaces, Strategy::Isolated))
            .unwrap();
        assert_eq!(fixed.strategy, Strategy::Isolated);
        assert!(fixed.features.is_none());
        assert!(fixed.decisions.is_empty());

        let adaptive = keeper
            .run(RunSpec::adapt_once(&trace, &lpn_spaces))
            .unwrap();
        assert!(adaptive.features.is_some());
        assert!(adaptive.strategy.index(4) < 42);

        let periodic = keeper
            .run(RunSpec::periodic(
                &trace,
                &lpn_spaces,
                keeper.config().observe_window_ns,
            ))
            .unwrap();
        // Periodic decisions carry strictly increasing timestamps and
        // only record strategy *changes* (adjacent decisions differ).
        for pair in periodic.decisions.windows(2) {
            assert!(pair[0].at_ns < pair[1].at_ns);
            assert_ne!(pair[0].strategy, pair[1].strategy);
        }
        // All runs process the identical trace.
        assert_eq!(fixed.report.total.count, adaptive.report.total.count);
        assert_eq!(fixed.report.total.count, periodic.report.total.count);
    }
}

#[test]
fn keeper_session_with_probe_reports_identically_and_sees_decisions() {
    let (trace, lpn_spaces) = fig2_style_trace();
    let keeper = small_keeper(false);
    let bare = keeper
        .run(RunSpec::adapt_once(&trace, &lpn_spaces))
        .unwrap();
    let mut rec = EventRecorder::with_capacity(1 << 20);
    let observed = keeper
        .run(RunSpec::adapt_once(&trace, &lpn_spaces).with_probe(&mut rec))
        .unwrap();
    assert_eq!(bare.report, observed.report);
    assert_eq!(bare.strategy, observed.strategy);
    let decisions: Vec<_> = rec
        .events()
        .filter_map(|e| match e {
            ProbeEvent::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), 1, "adapt-once makes exactly one decision");
    assert_eq!(decisions[0].at_ns, keeper.config().observe_window_ns);
}

#[test]
fn null_probe_is_a_zero_sized_default() {
    // The no-probe simulator must not pay for the hook points: the
    // default probe is a ZST the optimizer erases.
    assert_eq!(
        std::mem::size_of::<ssdkeeper_repro::flash_sim::NullProbe>(),
        0
    );
    let mut p = ssdkeeper_repro::flash_sim::NullProbe;
    // Hooks are callable with default empty bodies.
    p.on_gc_collect(&ssdkeeper_repro::flash_sim::probe::GcCollect {
        at_ns: 0,
        plane: 0,
        victim_block: 0,
        moved_pages: 0,
        erased_blocks: 0,
        duration_ns: 0,
    });
}
