//! Heap-allocation discipline for the hot event loop.
//!
//! The whole point of the per-unit command state + [`SimArena`] design is that
//! (a) the steady-state event loop allocates nothing once warm, and (b) a
//! rebuild out of a recycled arena allocates nothing at all. Both are
//! asserted here with a counting `#[global_allocator]`, as is (c): a cold
//! build allocates per plane, not per block or page. Tracking is
//! thread-local, so the harness's parallel test threads never pollute a
//! tracked window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flash_sim::probe::{decode_events, encode_events, CmdComplete, Probe, ProbeCodecError};
use flash_sim::{IoRequest, Op, SimArena, SimBuilder, SsdConfig, TenantLayout};

struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static MAX_REQUEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL_BYTES: Cell<u64> = const { Cell::new(0) };
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc(size: usize) {
    // `try_with` so allocation during TLS teardown can't panic the
    // allocator; an untracked thread just skips the count. IN_HOOK
    // guards against recursion from the debug backtrace itself.
    let _ = TRACK.try_with(|t| {
        if t.get() && !IN_HOOK.with(|g| g.get()) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = MAX_REQUEST.try_with(|m| m.set(m.get().max(size)));
            let _ = TOTAL_BYTES.try_with(|b| b.set(b.get() + size as u64));
            IN_HOOK.with(|g| g.set(true));
            if std::env::var_os("ALLOC_DEBUG").is_some() {
                eprintln!("{}", std::backtrace::Backtrace::force_capture());
            }
            IN_HOOK.with(|g| g.set(false));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation tracking on, returning its result and the
/// number of heap allocations (alloc/alloc_zeroed/realloc) it performed.
fn tracked<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, allocs, _) = tracked_with_max(f);
    (r, allocs)
}

/// [`tracked`], plus the largest single request in bytes.
fn tracked_with_max<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    let (r, allocs, max, _) = tracked_with_bytes(f);
    (r, allocs, max)
}

/// [`tracked_with_max`], plus the bytes requested in total (a realloc
/// counts its new size).
fn tracked_with_bytes<R>(f: impl FnOnce() -> R) -> (R, u64, usize, u64) {
    ALLOCS.with(|c| c.set(0));
    MAX_REQUEST.with(|m| m.set(0));
    TOTAL_BYTES.with(|b| b.set(0));
    TRACK.with(|t| t.set(true));
    let r = f();
    TRACK.with(|t| t.set(false));
    (
        r,
        ALLOCS.with(|c| c.get()),
        MAX_REQUEST.with(|m| m.get()),
        TOTAL_BYTES.with(|b| b.get()),
    )
}

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::small_test();
    cfg.channels = 4;
    cfg
}

/// A uniform fixed-rate mixed workload: constant arrival spacing and
/// sizes so the in-flight high-water mark is reached early and the back
/// half of the run is a true steady state.
fn steady_trace(reads_per_write: u64, n: u64) -> Vec<IoRequest> {
    let mut trace = Vec::new();
    for i in 0..n {
        let tenant = (i % 2) as u16;
        let op = if i % (reads_per_write + 1) == 0 {
            Op::Write
        } else {
            Op::Read
        };
        trace.push(IoRequest::new(i, tenant, op, (i * 7) % 128, 1, i * 2_500));
    }
    trace
}

#[test]
fn warm_arena_rerun_performs_zero_heap_allocations() {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
    let trace = steady_trace(3, 800);

    // Cold run grows every buffer to its high-water mark...
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg.clone(), layout.clone())
        .build_with_arena(&mut arena)
        .expect("valid device");
    let cold = sim.run_reclaim(&trace, &mut arena).expect("cold run");
    arena.recycle_report(cold.clone());

    // ...so the warm build + full rerun must not touch the heap at all.
    // The cfg/layout clones happen outside the tracked window: they are
    // the caller's inputs, not part of the engine's run path.
    let (cfg2, layout2) = (cfg.clone(), layout.clone());
    let (warm, allocs) = tracked(|| {
        let sim = SimBuilder::new(cfg2, layout2)
            .build_with_arena(&mut arena)
            .expect("valid device");
        sim.run_reclaim(&trace, &mut arena).expect("warm run")
    });
    assert_eq!(
        allocs, 0,
        "warm arena rebuild + rerun must be allocation-free"
    );
    assert_eq!(warm, cold, "warm rerun must also be byte-identical");
}

/// The same contract with hundreds of commands queued per unit: an
/// oversaturated trace keeps every waiting command's record in its unit
/// queue, and a warm rebuild + rerun must still find all of that room
/// already reserved.
#[test]
fn warm_rerun_of_an_oversaturated_trace_performs_zero_heap_allocations() {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
    // 3,000 requests of 1-4 pages, 50 ns apart: arrivals outrun the four
    // dies by two orders of magnitude.
    let trace: Vec<IoRequest> = (0..3_000u64)
        .map(|i| {
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            let pages = 1 + (i % 4) as u32;
            IoRequest::new(i, (i % 2) as u16, op, (i * 7) % 128, pages, i * 50)
        })
        .collect();

    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg.clone(), layout.clone())
        .build_with_arena(&mut arena)
        .expect("valid device");
    let cold = sim.run_reclaim(&trace, &mut arena).expect("cold run");
    let depth = cold.phases.queue_depth.mean_ns();
    assert!(
        depth >= 300.0,
        "fixture not oversaturated: mean unit backlog {depth:.0}"
    );
    arena.recycle_report(cold.clone());

    let (cfg2, layout2) = (cfg.clone(), layout.clone());
    let (warm, allocs) = tracked(|| {
        let sim = SimBuilder::new(cfg2, layout2)
            .build_with_arena(&mut arena)
            .expect("valid device");
        sim.run_reclaim(&trace, &mut arena).expect("warm run")
    });
    assert_eq!(
        allocs, 0,
        "warm rebuild + rerun of a deep-queue trace must be allocation-free"
    );
    assert_eq!(warm, cold, "warm rerun must also be byte-identical");
}

/// Probe that turns allocation tracking on mid-run (after warmup) and
/// off again near the end, bracketing the steady-state event loop.
struct SteadyStateWindow {
    completions: u64,
    start_at: u64,
    stop_at: u64,
    tracked_allocs: Option<u64>,
}

impl Probe for SteadyStateWindow {
    fn on_cmd_complete(&mut self, _ev: &CmdComplete) {
        self.completions += 1;
        if self.completions == self.start_at {
            ALLOCS.with(|c| c.set(0));
            TRACK.with(|t| t.set(true));
        }
        if self.completions == self.stop_at {
            TRACK.with(|t| t.set(false));
            self.tracked_allocs = Some(ALLOCS.with(|c| c.get()));
        }
    }
}

#[test]
fn steady_state_event_loop_performs_zero_heap_allocations() {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
    let trace = steady_trace(3, 2_000);

    // First pass counts completions so the window brackets [50%, 90%].
    let total = {
        let sim = SimBuilder::new(cfg.clone(), layout.clone())
            .build_with_arena(&mut SimArena::new())
            .expect("valid device");
        sim.run_reclaim(&trace, &mut SimArena::new())
            .expect("run")
            .total
            .count
    };
    assert!(total >= 100, "fixture too small to have a steady state");

    let mut window = SteadyStateWindow {
        completions: 0,
        start_at: total / 2,
        stop_at: total * 9 / 10,
        tracked_allocs: None,
    };
    let sim = SimBuilder::new(cfg, layout)
        .probe(&mut window)
        .build_with_arena(&mut SimArena::new())
        .expect("valid device");
    sim.run_reclaim(&trace, &mut SimArena::new())
        .expect("probed run");
    assert_eq!(
        window.tracked_allocs,
        Some(0),
        "steady-state event loop (50%..90% of completions) must not allocate"
    );
}

/// A bare SSDP header whose event count claims 2^40 records must fail
/// with `Truncated` without first reserving room for those records: the
/// up-front reservation is bounded by the bytes actually present.
#[test]
fn corrupt_event_count_does_not_drive_the_reservation() {
    let mut bytes = encode_events([], 0);
    bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (result, _, max_request) = tracked_with_max(|| decode_events(&bytes));
    assert!(
        matches!(result, Err(ProbeCodecError::Truncated { .. })),
        "got {result:?}"
    );
    assert!(
        max_request <= 4096,
        "decoding a 24-byte header requested {max_request} bytes at once"
    );
}

/// A cold build of the sweep device (64 planes x 256 blocks x 128 pages,
/// 2 Mi pages) must cost O(blocks), not O(pages): page state is only
/// allocated for blocks a run takes off a plane's free list, so a build
/// that writes nothing allocates a few buffers per plane plus the
/// tenants' mapping tables.
#[test]
fn cold_build_allocates_per_plane_not_per_page() {
    let cfg = SsdConfig::scaled_for_sweeps();
    let layout = TenantLayout::shared(4, &cfg).with_lpn_space_all(4_096);
    let (sim, allocs, _, bytes) = tracked_with_bytes(|| {
        SimBuilder::new(cfg, layout)
            .build_with_arena(&mut SimArena::new())
            .expect("valid device")
    });
    drop(sim);
    assert!(allocs < 1_000, "cold build made {allocs} heap allocations");
    assert!(
        bytes < 2 << 20,
        "cold build requested {bytes} bytes in total"
    );
}
