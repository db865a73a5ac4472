//! Command-lifecycle contract, checked on the probe stream.
//!
//! A command takes its `CmdId` when it spawns and gives it back after it
//! retires; in between it waits in its unit's queue, then holds the unit
//! (and, for transfers, the channel bus) until it completes. Seeded
//! small-geometry traces under both scheduling policies, static and
//! dynamic allocation, GC pressure, a bounded host queue and a mid-run
//! reallocation are recorded with an [`EventRecorder`], and the stream
//! must show:
//!
//! * every `CmdIssue` id gets exactly one `CmdComplete`, carrying the
//!   tenant, class, GC flag, unit and channel it was issued with;
//! * no id is reissued while it is in flight;
//! * every `BusAcquire`/`BusRelease` names an in-flight id, and each bus
//!   is released by the command that acquired it.

use std::collections::HashMap;

use flash_sim::probe::CmdIssue;
use flash_sim::scheduler::SchedPolicy;
use flash_sim::{
    EventRecorder, IoRequest, Op, PageAllocPolicy, ProbeEvent, Reallocation, SimArena, SimBuilder,
    SsdConfig, TenantLayout,
};
use simrng::{Rng, SimRng};

const TENANTS: usize = 2;

/// One recorded scenario.
struct Case {
    policy: SchedPolicy,
    alloc: PageAllocPolicy,
    /// Small logical space on a 90%-filled device, write-heavy traffic.
    gc_pressure: bool,
    host_queue_depth: u32,
    realloc: bool,
    plane_parallelism: bool,
}

/// Bursty mixed traffic: arrivals far faster than the device serves
/// them, so unit and bus queues run deep.
fn trace(seed: u64, lpn_space: u64, write_share: f64) -> Vec<IoRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..400u64)
        .map(|i| {
            let op = if rng.gen_bool(write_share) {
                Op::Write
            } else {
                Op::Read
            };
            let lpn = rng.gen_range(0..lpn_space);
            let pages = 1 + rng.gen_range(0u32..4);
            IoRequest::new(i, (i as usize % TENANTS) as u16, op, lpn, pages, i * 700)
        })
        .collect()
}

/// Runs `case` with a recorder attached and returns the event stream.
fn record(case: &Case, seed: u64) -> Vec<ProbeEvent> {
    let cfg = SsdConfig {
        channels: 4,
        sched_policy: case.policy,
        host_queue_depth: case.host_queue_depth,
        plane_parallelism: case.plane_parallelism,
        ..SsdConfig::small_test()
    };
    let (lpn_space, fill, write_share) = if case.gc_pressure {
        (48, 0.9, 0.9)
    } else {
        (128, 0.3, 0.4)
    };
    let mut layout = TenantLayout::shared(TENANTS, &cfg).with_lpn_space_all(lpn_space);
    for t in 0..TENANTS {
        layout = layout.with_policy(t, case.alloc);
    }
    let trace = trace(seed, lpn_space, write_share);
    let mut rec = EventRecorder::with_capacity(1 << 16);
    let mut arena = SimArena::new();
    let mut sim = SimBuilder::new(cfg, layout)
        .precondition(&[fill; TENANTS])
        .probe(&mut rec)
        .build_with_arena(&mut arena)
        .expect("valid device");
    if case.realloc {
        let at = trace[trace.len() / 2].arrival_ns;
        sim.schedule_reallocation(Reallocation::new(
            at,
            vec![
                (0, vec![0, 1], Some(PageAllocPolicy::Dynamic)),
                (1, vec![2, 3], None),
            ],
        ))
        .expect("valid reallocation");
    }
    let report = sim.run_reclaim(&trace, &mut arena).expect("run succeeds");
    assert_eq!(report.total.count, trace.len() as u64);
    assert_eq!(rec.dropped(), 0, "recorder too small for the fixture");
    rec.to_vec()
}

/// Checks the lifecycle contract over one stream; returns
/// `(commands issued, GC commands issued, deepest unit backlog)`.
fn check_lifecycle(events: &[ProbeEvent], what: &str) -> (usize, usize, u32) {
    let mut in_flight: HashMap<u32, CmdIssue> = HashMap::new();
    let mut bus_holder: HashMap<u16, u32> = HashMap::new();
    let (mut issued, mut gc, mut deepest) = (0, 0, 0);
    for ev in events {
        match ev {
            ProbeEvent::CmdIssue(i) => {
                assert!(
                    in_flight.insert(i.cmd, *i).is_none(),
                    "{what}: id {} reissued while in flight",
                    i.cmd
                );
                issued += 1;
                gc += usize::from(i.gc);
                deepest = deepest.max(i.queue_depth);
            }
            ProbeEvent::CmdComplete(c) => {
                let i = in_flight.remove(&c.cmd).unwrap_or_else(|| {
                    panic!("{what}: id {} completed while not in flight", c.cmd)
                });
                assert_eq!(
                    (c.tenant, c.class, c.gc, c.unit, c.channel),
                    (i.tenant, i.class, i.gc, i.unit, i.channel),
                    "{what}: id {} completed with different fields than it was issued",
                    c.cmd
                );
                assert_eq!(c.latency_ns, c.at_ns - i.at_ns, "{what}: id {}", c.cmd);
            }
            ProbeEvent::BusAcquire(a) => {
                let i = in_flight.get(&a.cmd).unwrap_or_else(|| {
                    panic!("{what}: bus acquired by id {} not in flight", a.cmd)
                });
                assert!(!i.gc, "{what}: GC command {} used the bus", a.cmd);
                assert_eq!(a.channel, i.channel, "{what}: id {}", a.cmd);
                assert_eq!(
                    bus_holder.insert(a.channel, a.cmd),
                    None,
                    "{what}: channel {} acquired while held",
                    a.channel
                );
            }
            ProbeEvent::BusRelease(r) => {
                assert!(
                    in_flight.contains_key(&r.cmd),
                    "{what}: bus released by id {} not in flight",
                    r.cmd
                );
                assert_eq!(
                    bus_holder.remove(&r.channel),
                    Some(r.cmd),
                    "{what}: channel {} released by a non-holder",
                    r.channel
                );
            }
            _ => {}
        }
    }
    assert!(
        in_flight.is_empty(),
        "{what}: {} issued ids never completed",
        in_flight.len()
    );
    assert!(bus_holder.is_empty(), "{what}: a bus was never released");
    (issued, gc, deepest)
}

#[test]
fn every_issued_command_completes_exactly_once_with_its_own_id() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::ReadPriority { max_bypass: 4 },
    ];
    let allocs = [PageAllocPolicy::Static, PageAllocPolicy::Dynamic];
    let mut saw_gc = false;
    let mut saw_deep = false;
    for policy in policies {
        for alloc in allocs {
            // (gc_pressure, host_queue_depth, realloc, plane_parallelism)
            let shapes = [
                (false, 0, false, false),
                (true, 0, false, false),
                (false, 4, false, true),
                (false, 0, true, false),
                (true, 2, true, true),
            ];
            for (gc_pressure, host_queue_depth, realloc, plane_parallelism) in shapes {
                let case = Case {
                    policy,
                    alloc,
                    gc_pressure,
                    host_queue_depth,
                    realloc,
                    plane_parallelism,
                };
                for seed in 0..3u64 {
                    let what = format!(
                        "{policy:?}/{alloc:?} gc={gc_pressure} qd={host_queue_depth} \
                         realloc={realloc} planes={plane_parallelism} seed={seed}"
                    );
                    let events = record(&case, seed);
                    let (issued, gc, deepest) = check_lifecycle(&events, &what);
                    assert!(issued >= 400, "{what}: only {issued} commands");
                    if gc_pressure {
                        assert!(gc > 0, "{what}: GC-pressure fixture ran no GC");
                    }
                    saw_gc |= gc > 0;
                    saw_deep |= deepest >= 32;
                }
            }
        }
    }
    assert!(saw_gc, "no fixture exercised GC commands");
    assert!(saw_deep, "no fixture built a deep unit queue");
}
