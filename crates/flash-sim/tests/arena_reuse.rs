//! Arena-reuse contract: building a simulator out of a recycled
//! [`SimArena`] must be *observationally invisible*. For every workload
//! shape and seed, a warm rebuild (arena dirtied by a previous run) must
//! produce a byte-identical [`flash_sim::SimReport`] and a byte-identical
//! SSDP probe capture versus a fresh build — and error contracts like
//! command-slot exhaustion must hold on reused arenas too.
//!
//! The FTL's warm reset only clears the blocks the previous run took off
//! a plane's free list (a per-plane watermark) and empties the plane's
//! page table, which the next run regrows over the old entries as its
//! own watermark rises. So the fixtures below dirty arenas with runs of
//! very different footprints — full-device GC, a handful of pages, a run
//! that dies with a full plane — and check the next run cannot tell.

use flash_sim::ftl::FtlError;
use flash_sim::{
    EventRecorder, IoRequest, Op, PageAllocPolicy, SimArena, SimBuilder, SimError, SimReport,
    SsdConfig, TenantLayout,
};
use simrng::{Rng, SimRng};

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::small_test();
    cfg.channels = 4;
    cfg
}

/// Write-dominated traffic hammering a tight logical space on a nearly
/// full device: remaps dominate, so GC runs throughout.
fn gc_heavy_trace(seed: u64) -> (TenantLayout, Vec<f64>, Vec<IoRequest>) {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(48);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    for i in 0..600u64 {
        let tenant = (i % 2) as u16;
        let op = if rng.gen_bool(0.9) {
            Op::Write
        } else {
            Op::Read
        };
        let lpn = rng.gen_range(0u64..48);
        trace.push(IoRequest::new(i, tenant, op, lpn, 1, i * 2_000));
    }
    (layout, vec![0.9, 0.9], trace)
}

/// Read-dominated traffic over a wider space with light preconditioning.
fn read_mostly_trace(seed: u64) -> (TenantLayout, Vec<f64>, Vec<IoRequest>) {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    for i in 0..600u64 {
        let tenant = (i % 2) as u16;
        let op = if rng.gen_bool(0.85) {
            Op::Read
        } else {
            Op::Write
        };
        let lpn = rng.gen_range(0u64..128);
        let pages = 1 + rng.gen_range(0u32..3);
        trace.push(IoRequest::new(i, tenant, op, lpn, pages, i * 3_000));
    }
    (layout, vec![0.3, 0.3], trace)
}

/// Runs a workload with a recorder attached, either fresh or out of the
/// given arena, returning the report and the SSDP capture bytes.
fn run_captured(
    layout: &TenantLayout,
    fills: &[f64],
    trace: &[IoRequest],
    arena: &mut SimArena,
) -> (SimReport, Vec<u8>) {
    let (report, ssdp) = try_run_captured(&small_cfg(), layout, fills, trace, arena);
    (report.expect("run succeeds"), ssdp)
}

/// [`run_captured`] on an explicit device, returning the run's result
/// (the arena is reclaimed on error exits too) and the SSDP capture.
fn try_run_captured(
    cfg: &SsdConfig,
    layout: &TenantLayout,
    fills: &[f64],
    trace: &[IoRequest],
    arena: &mut SimArena,
) -> (Result<SimReport, SimError>, Vec<u8>) {
    let mut rec = EventRecorder::with_capacity(1 << 16);
    let sim = SimBuilder::new(cfg.clone(), layout.clone())
        .precondition(fills)
        .probe(&mut rec)
        .build_with_arena(arena)
        .expect("valid device");
    let report = sim.run_reclaim(trace, arena);
    (report, rec.encode())
}

#[test]
fn warm_arena_runs_are_byte_identical_to_fresh_runs() {
    type Fixture = fn(u64) -> (TenantLayout, Vec<f64>, Vec<IoRequest>);
    let fixtures: [(&str, Fixture); 2] = [
        ("gc_heavy", gc_heavy_trace),
        ("read_mostly", read_mostly_trace),
    ];
    for (name, make) in fixtures {
        for seed in [1u64, 42, 9001] {
            let (layout, fills, trace) = make(seed);
            let (fresh_report, fresh_ssdp) =
                run_captured(&layout, &fills, &trace, &mut SimArena::new());

            // Dirty one arena with *both* workload shapes (different
            // geometry footprints and GC pressure), then run warm.
            let mut arena = SimArena::new();
            for dirty_seed in [7u64, 8] {
                let (l2, f2, t2) = if dirty_seed % 2 == 0 {
                    gc_heavy_trace(dirty_seed)
                } else {
                    read_mostly_trace(dirty_seed)
                };
                let (report, _) = run_captured(&l2, &f2, &t2, &mut arena);
                arena.recycle_report(report);
            }
            let (warm_report, warm_ssdp) = run_captured(&layout, &fills, &trace, &mut arena);

            assert_eq!(
                fresh_report, warm_report,
                "{name}/seed {seed}: warm report diverged"
            );
            assert_eq!(
                fresh_ssdp, warm_ssdp,
                "{name}/seed {seed}: warm SSDP capture diverged"
            );
            assert!(
                !fresh_ssdp.is_empty(),
                "{name}/seed {seed}: capture must not be trivially empty"
            );
        }
    }
}

#[test]
fn gc_heavy_fixture_actually_garbage_collects() {
    let (layout, fills, trace) = gc_heavy_trace(1);
    let (report, _) = run_captured(&layout, &fills, &trace, &mut SimArena::new());
    assert!(
        report.ftl.gc_invocations > 0,
        "fixture must exercise the GC path"
    );
    let (_, layout, fills, trace) = wide_full_footprint(3);
    let (result, _) = try_run_captured(&wide_cfg(), &layout, &fills, &trace, &mut SimArena::new());
    let erased = result.expect("run succeeds").ftl.gc_blocks_erased;
    // Well past one erase per plane (8 planes), so GC ran device-wide.
    assert!(
        erased >= 8 * 8,
        "full-footprint fixture erased only {erased} blocks"
    );
}

#[test]
fn cmd_slot_exhaustion_fires_on_a_reused_arena() {
    let (layout, fills, trace) = read_mostly_trace(3);
    let mut arena = SimArena::new();
    // A successful run leaves the arena warm...
    let (report, _) = run_captured(&layout, &fills, &trace, &mut arena);
    arena.recycle_report(report);
    // ...and a slot-limited rebuild from that same arena must still hit
    // the exhaustion error, not inherit the previous run's open limit.
    let sim = SimBuilder::new(small_cfg(), layout.clone())
        .precondition(&fills)
        .cmd_slot_limit(1)
        .build_with_arena(&mut arena)
        .expect("valid device");
    let err = sim.run_reclaim(&trace, &mut arena).unwrap_err();
    assert!(
        matches!(err, SimError::CmdIdsExhausted { limit: 1 }),
        "expected CmdIdsExhausted, got {err:?}"
    );
    // The arena survives the failed run and still produces correct
    // results afterwards.
    let (again, _) = run_captured(&layout, &fills, &trace, &mut arena);
    let (fresh, _) = run_captured(&layout, &fills, &trace, &mut SimArena::new());
    assert_eq!(again, fresh, "arena must recover after an errored run");
}

/// Many blocks per plane (64 × 8 pages), so a run's footprint and the
/// device size differ widely and the reset watermark has room to matter.
fn wide_cfg() -> SsdConfig {
    let mut cfg = small_cfg();
    cfg.blocks_per_plane = 64;
    cfg.pages_per_block = 8;
    cfg
}

/// A named wide-device workload: layout, fills, trace.
type WideFixture = (&'static str, TenantLayout, Vec<f64>, Vec<IoRequest>);

/// Preconditioned, write-heavy traffic over most of the device: every
/// plane takes writes past its GC trigger, so most blocks are written
/// and many erased.
fn wide_full_footprint(seed: u64) -> WideFixture {
    let cfg = wide_cfg();
    let lpns = 1_200u64;
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(lpns);
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = (0..3_000u64)
        .map(|i| {
            let op = if rng.gen_bool(0.9) {
                Op::Write
            } else {
                Op::Read
            };
            let lpn = rng.gen_range(0..lpns);
            IoRequest::new(i, (i % 2) as u16, op, lpn, 1, i * 2_000)
        })
        .collect();
    ("full_footprint", layout, vec![0.9, 0.9], trace)
}

/// A few hundred requests over 32 LPNs per tenant: one or two blocks per
/// plane ever leave the free list.
fn wide_small_footprint(seed: u64) -> WideFixture {
    let cfg = wide_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(32);
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = (0..300u64)
        .map(|i| {
            let op = if rng.gen_bool(0.5) {
                Op::Write
            } else {
                Op::Read
            };
            let lpn = rng.gen_range(0u64..32);
            IoRequest::new(i, (i % 2) as u16, op, lpn, 1, i * 5_000)
        })
        .collect();
    ("small_footprint", layout, Vec::new(), trace)
}

/// Fresh-LPN writes from a dynamic-placement tenant while a second
/// tenant keeps the dies of channels 1-3 busy with reads: every write
/// lands on the idle channel-0 die, whose planes fill with live data
/// until the run dies with [`FtlError::PlaneFull`].
fn wide_plane_full(_seed: u64) -> WideFixture {
    let cfg = wide_cfg();
    let layout = TenantLayout::from_channel_lists(&[vec![0, 1, 2, 3], vec![1, 2, 3]], &cfg)
        .expect("valid channel lists")
        .with_lpn_space(0, 3_000)
        .with_lpn_space(1, 600)
        .with_policy(0, PageAllocPolicy::Dynamic);
    let mut trace = Vec::new();
    for i in 0..1_200u64 {
        let at = i * 1_000_000;
        let id = trace.len() as u64;
        trace.push(IoRequest::new(id, 1, Op::Read, (i * 6) % 600, 6, at));
        trace.push(IoRequest::new(id + 1, 0, Op::Write, i, 1, at));
    }
    ("plane_full", layout, Vec::new(), trace)
}

#[test]
fn plane_full_fixture_fails_with_a_full_plane() {
    let (_, layout, fills, trace) = wide_plane_full(0);
    let (result, _) = try_run_captured(&wide_cfg(), &layout, &fills, &trace, &mut SimArena::new());
    assert!(
        matches!(result, Err(SimError::Ftl(FtlError::PlaneFull { .. }))),
        "fixture must fill a plane, got {:?}",
        result.map(|r| r.ftl)
    );
}

#[test]
fn warm_reset_is_invisible_across_run_footprints() {
    let cfg = wide_cfg();
    type Make = fn(u64) -> WideFixture;
    let footprints: [Make; 3] = [wide_full_footprint, wide_small_footprint, wide_plane_full];
    // Every ordered pair, the dirtying run first: big then small, small
    // then big, and a failed full-plane run before either.
    for (di, dirty) in footprints.iter().enumerate() {
        for (wi, warm) in footprints.iter().enumerate() {
            for seed in [3u64, 11] {
                let (dname, dlayout, dfills, dtrace) = dirty(seed + 100);
                let (wname, layout, fills, trace) = warm(seed);
                let (fresh, fresh_ssdp) =
                    try_run_captured(&cfg, &layout, &fills, &trace, &mut SimArena::new());

                let mut arena = SimArena::new();
                let (dirty_result, _) =
                    try_run_captured(&cfg, &dlayout, &dfills, &dtrace, &mut arena);
                if let Ok(report) = dirty_result {
                    arena.recycle_report(report);
                }
                let (warm_result, warm_ssdp) =
                    try_run_captured(&cfg, &layout, &fills, &trace, &mut arena);

                let case = format!("{dname}[{di}] -> {wname}[{wi}], seed {seed}");
                assert_eq!(fresh, warm_result, "{case}: warm result diverged");
                assert_eq!(fresh_ssdp, warm_ssdp, "{case}: warm SSDP capture diverged");
                assert!(!fresh_ssdp.is_empty(), "{case}: empty capture");
            }
        }
    }
}
