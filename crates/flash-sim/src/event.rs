//! The discrete-event core: a time-ordered event queue.
//!
//! Ties on time are broken by a monotonically increasing sequence number so
//! that simulation order — and therefore every latency the simulator
//! reports — is fully deterministic.
//!
//! Almost every event the simulator schedules fires a *fixed* delay after
//! the current time: a read sense, a program, a page transfer, or an
//! immediate host admit. The queue therefore keeps one FIFO lane per such
//! delay (set with [`EventQueue::reset_lanes`]) and a `BinaryHeap` for
//! everything else (GC composite durations, or every push on a queue with
//! no lanes). A lane is sorted by `(time, seq)` by construction: its events
//! fire at `now + delay`, `now` never decreases, and `seq` always
//! increases. So the earliest pending event is the minimum over the lane
//! fronts and the heap top, and the service order is exactly that of one
//! heap over every event. The pending set is small: the simulator never
//! queues trace arrivals (see below), so it holds only in-flight work.
//!
//! # Contract
//!
//! Time is monotone: events must not be scheduled before the time of the
//! last popped event (`push` clamps and debug-asserts). `pop_before(limit)`
//! serves only events with `time < limit` — the simulator uses it to merge
//! the queue against the sorted trace-arrival cursor, with arrivals winning
//! ties exactly as up-front sequence numbers 0..n-1 would make them. After
//! `pop_before(t)` returns `None`, `advance_to(t)` moves the clamp floor
//! forward to the arrival just served.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a page-granular flash command, unique while the command
/// is in flight and recycled after it retires.
pub type CmdId = u32;
/// Identifier of a host request in the engine's arena.
pub type ReqId = u32;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A host request arrives and is fanned out into flash commands.
    Arrive(ReqId),
    /// A host-queued request is admitted after a queue slot freed
    /// (host-queue-depth back-pressure).
    Admit(ReqId),
    /// An execution unit (plane or die) finishes the array operation
    /// (read/program/GC) of the command it holds. Carries the unit index:
    /// a command holds its unit from start to retirement, so the unit
    /// names the command.
    DieOpDone(u32),
    /// A channel bus finishes the transfer of the command holding the
    /// given unit. Carries the unit index, as [`EventKind::DieOpDone`].
    BusDone(u32),
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Firing time in nanoseconds.
    pub time: u64,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-queue of events in exact `(time, seq)` order.
///
/// `Default` does not allocate and has no lanes, so every push goes to the
/// heap. [`EventQueue::reset_lanes`] installs up to four fixed-delay lanes
/// and reserves their bound; it and [`EventQueue::reset`] keep every
/// buffer, so a recycled queue (see [`crate::SimArena`]) starts its next
/// run without touching the allocator.
#[derive(Debug)]
pub struct EventQueue {
    /// Key (see [`key`]) of each lane's front event, then of the heap's
    /// top (at [`HEAP`]); [`NONE`] where that source is empty, unused
    /// lanes included. The earliest pending event is the minimum of this
    /// array, and its low bits name the source holding it.
    fronts: [u128; MAX_LANES + 1],
    /// Delay of each lane in use (the first `lane_count`).
    delays: [u64; MAX_LANES],
    lane_count: usize,
    /// One FIFO per distinct fixed delay, each sorted by `(time, seq)`.
    lanes: [VecDeque<Event>; MAX_LANES],
    /// Events whose delay matches no lane.
    heap: BinaryHeap<Reverse<Event>>,
    /// Time of the last served event (or the last `advance_to`); pushes
    /// are clamped to it.
    now: u64,
    next_seq: u64,
}

/// Most fixed-delay lanes a queue keeps; further delays go to the heap.
const MAX_LANES: usize = 4;
/// Index of the heap's top in `EventQueue::fronts`.
const HEAP: usize = MAX_LANES;
/// Key of an empty source: above every real key.
const NONE: u128 = u128::MAX;
/// Low key bits that hold the source index.
const SRC_BITS: u32 = 3;

/// `(time, seq)` as one integer, ordered the same way, with the source
/// index `src` in the low [`SRC_BITS`] bits: `seq` is unique, so the
/// source never decides an order. Exact while `seq < 2^61`.
#[inline]
fn key(e: &Event, src: usize) -> u128 {
    (e.time as u128) << 64 | (e.seq as u128) << SRC_BITS | src as u128
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            fronts: [NONE; MAX_LANES + 1],
            delays: [0; MAX_LANES],
            lane_count: 0,
            lanes: Default::default(),
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue with no lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the freshly-constructed state, keeping the lanes and every
    /// buffer.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.heap.clear();
        self.fronts = [NONE; MAX_LANES + 1];
        self.now = 0;
        self.next_seq = 0;
    }

    /// [`EventQueue::reset`], then one lane per distinct delay in `delays`
    /// (the first four of them, in order), each lane and the heap
    /// reserving room for `bound` events. Buffers are reused, so with an
    /// unchanged `bound` a second call allocates nothing.
    pub fn reset_lanes(&mut self, delays: &[u64], bound: usize) {
        self.reset();
        self.lane_count = 0;
        for (i, &delay) in delays.iter().enumerate() {
            if self.lane_count == MAX_LANES || delays[..i].contains(&delay) {
                continue;
            }
            self.delays[self.lane_count] = delay;
            self.lanes[self.lane_count].reserve(bound);
            self.lane_count += 1;
        }
        self.heap.reserve(bound);
    }

    /// Schedules `kind` to fire at `time`.
    ///
    /// `time` must be at or after the time of the last popped event (the
    /// discrete-event contract); past times are clamped to it.
    #[inline]
    pub fn push(&mut self, time: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let time = time.max(self.now);
        let ev = Event {
            time,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        let delay = time - self.now;
        let src = match self.delays[..self.lane_count]
            .iter()
            .position(|&d| d == delay)
        {
            Some(lane) => {
                self.lanes[lane].push_back(ev);
                lane
            }
            None => {
                self.heap.push(Reverse(ev));
                HEAP
            }
        };
        // The new event has the largest seq so far, so it becomes its
        // source's front only if it is strictly earlier.
        self.fronts[src] = self.fronts[src].min(key(&ev, src));
    }

    /// The source holding the earliest pending event (a lane index or
    /// [`HEAP`]) and that event's time.
    #[inline]
    fn earliest(&self) -> Option<(usize, u64)> {
        let k = self.fronts.iter().copied().fold(NONE, u128::min);
        let src = (k & ((1 << SRC_BITS) - 1)) as usize;
        (k != NONE).then_some((src, (k >> 64) as u64))
    }

    /// Removes the front of `src` (as returned by `earliest`).
    #[inline]
    fn take(&mut self, src: usize) -> Event {
        // The clamp floor comes from the cached key, not the event just
        // copied out, so it does not wait on that copy.
        self.now = (self.fronts[src] >> 64) as u64;
        if src == HEAP {
            let Reverse(ev) = self.heap.pop().expect("heap front is pending");
            self.fronts[HEAP] = self.heap.peek().map_or(NONE, |Reverse(e)| key(e, HEAP));
            ev
        } else {
            let lane = &mut self.lanes[src];
            let ev = lane.pop_front().expect("lane front is pending");
            self.fronts[src] = lane.front().map_or(NONE, |e| key(e, src));
            ev
        }
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let (src, _) = self.earliest()?;
        Some(self.take(src))
    }

    /// Removes and returns the earliest event **strictly before** `limit`,
    /// if any, so the caller may still schedule events at `limit`
    /// afterwards.
    #[inline]
    pub fn pop_before(&mut self, limit: u64) -> Option<Event> {
        match self.earliest()? {
            (src, t) if t < limit => Some(self.take(src)),
            _ => None,
        }
    }

    /// Moves the clamp floor forward to `t`. Only valid when no pending
    /// event is earlier than `t` (i.e. after `pop_before(t)` returned
    /// `None`).
    pub fn advance_to(&mut self, t: u64) {
        debug_assert!(
            self.peek_time().is_none_or(|pt| pt >= t),
            "advance_to past a pending event"
        );
        self.now = self.now.max(t);
    }

    /// Earliest scheduled time without removing the event.
    pub fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|(_, t)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.fronts == [NONE; MAX_LANES + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, EventKind::Arrive(0));
        q.push(10, EventKind::Arrive(1));
        q.push(20, EventKind::Arrive(2));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Arrive(0));
        q.push(5, EventKind::DieOpDone(1));
        q.push(5, EventKind::BusDone(2));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrive(0));
        assert_eq!(q.pop().unwrap().kind, EventKind::DieOpDone(1));
        assert_eq!(q.pop().unwrap().kind, EventKind::BusDone(2));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(42, EventKind::Arrive(0));
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Popping always yields a non-decreasing time sequence and returns
    /// exactly the number of pushed events, over seeded random pushes.
    #[test]
    fn drain_is_sorted_and_complete() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let len = rng.gen_range(0usize..200);
            let times: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1_000_000)).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, EventKind::Arrive(i as ReqId));
            }
            let mut drained = Vec::new();
            while let Some(e) = q.pop() {
                drained.push(e.time);
            }
            assert_eq!(drained.len(), times.len(), "seed {seed}");
            assert!(drained.windows(2).all(|w| w[0] <= w[1]), "seed {seed}");
        }
    }

    /// Events far in the future, up to `u64::MAX`, still pop in exact
    /// `(time, seq)` order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        let far = 1u64 << 50;
        q.push(far + 7, EventKind::Arrive(0));
        q.push(3, EventKind::Arrive(1));
        q.push(far + 7, EventKind::Arrive(2));
        q.push(u64::MAX, EventKind::Arrive(3));
        let order: Vec<(u64, EventKind)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.kind))
            .collect();
        assert_eq!(
            order,
            vec![
                (3, EventKind::Arrive(1)),
                (far + 7, EventKind::Arrive(0)),
                (far + 7, EventKind::Arrive(2)),
                (u64::MAX, EventKind::Arrive(3)),
            ]
        );
    }

    /// `pop_before` is exclusive, so the caller can still schedule at the
    /// limit afterwards.
    #[test]
    fn pop_before_is_exclusive_and_advance_is_safe() {
        let mut q = EventQueue::new();
        q.push(10, EventKind::Arrive(0));
        q.push(20, EventKind::Arrive(1));
        assert_eq!(q.pop_before(10), None);
        assert_eq!(q.pop_before(11).unwrap().time, 10);
        assert_eq!(q.pop_before(20), None);
        q.advance_to(20);
        // An event scheduled at the limit after advance still wins FIFO
        // order against the pending one via seq.
        q.push(20, EventKind::Arrive(2));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrive(1));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrive(2));
        assert!(q.pop().is_none());
    }

    /// Interleaved push/pop with monotone time keeps exact (time, seq)
    /// order across widely spread times.
    #[test]
    fn interleaved_pops_respect_seq_across_levels() {
        let mut q = EventQueue::new();
        q.push(100_000, EventKind::Arrive(0));
        q.push(63, EventKind::Arrive(1));
        q.push(64, EventKind::Arrive(2));
        q.push(100_000, EventKind::Arrive(3));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrive(1));
        // Pushes after a pop still order by (time, seq).
        q.push(100_000, EventKind::Arrive(4));
        q.push(64, EventKind::Arrive(5));
        let rest: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            rest,
            vec![
                EventKind::Arrive(2),
                EventKind::Arrive(5),
                EventKind::Arrive(0),
                EventKind::Arrive(3),
                EventKind::Arrive(4),
            ]
        );
    }
}
