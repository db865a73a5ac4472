//! Command scheduling for dies and channel buses.
//!
//! Two policies are provided:
//!
//! * [`SchedPolicy::Fifo`] — strict arrival order across classes. This is
//!   SSDSim's behaviour and the paper-faithful default: reads "have
//!   priority to respond" only in the sense that their service time is
//!   short, so in a shared SSD they still queue behind 200 µs programs —
//!   the access conflicts the paper's motivation measures.
//! * [`SchedPolicy::ReadPriority`] — reads overtake queued writes with a
//!   bounded bypass count so writes cannot starve. Provided as the
//!   scheduling ablation: it blunts read/write conflicts and visibly
//!   shrinks the benefit of channel isolation.
//!
//! Garbage-collection operations ride the write class — they are internal
//! writes and must not preempt host reads.
//!
//! [`PriorityQueue`] takes the policy at `push` as well as at `pop`: under
//! FIFO every entry goes into one deque in push order, so arrival order
//! needs no per-entry sequence number and `pop` is one `pop_front`. Read
//! priority keeps one deque per class; it compares only the bypass count,
//! never arrival order across classes.

use std::collections::VecDeque;

/// Scheduling class of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdClass {
    /// Host read.
    Read,
    /// Host write or GC.
    Write,
}

/// Queueing discipline applied at every die and bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict arrival order (SSDSim-faithful default).
    #[default]
    Fifo,
    /// Reads first, with at most `max_bypass` consecutive reads
    /// overtaking a waiting write.
    ReadPriority {
        /// Bypass bound (anti-starvation).
        max_bypass: u32,
    },
}

/// A two-class queue supporting both disciplines, generic over what it
/// holds: unit queues carry whole waiting-command records, bus queues
/// carry unit indices.
///
/// Under [`SchedPolicy::Fifo`] every entry waits in one deque in push
/// order; under [`SchedPolicy::ReadPriority`] each class has its own
/// deque. A queue must be used with one policy from its last reset on.
#[derive(Debug, Clone)]
pub struct PriorityQueue<T> {
    /// Every entry under FIFO; the reads under read priority.
    head: VecDeque<T>,
    /// The writes under read priority; empty under FIFO.
    writes: VecDeque<T>,
    bypass: u32,
}

impl<T> Default for PriorityQueue<T> {
    fn default() -> Self {
        Self {
            head: VecDeque::new(),
            writes: VecDeque::new(),
            bypass: 0,
        }
    }
}

impl<T> PriorityQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an entry of `class` under `policy`.
    #[inline]
    pub fn push(&mut self, item: T, class: CmdClass, policy: SchedPolicy) {
        match (policy, class) {
            (SchedPolicy::ReadPriority { .. }, CmdClass::Write) => self.writes.push_back(item),
            _ => self.head.push_back(item),
        }
    }

    /// Dequeues the next entry under `policy`.
    #[inline]
    pub fn pop(&mut self, policy: SchedPolicy) -> Option<T> {
        match policy {
            SchedPolicy::Fifo => self.head.pop_front(),
            SchedPolicy::ReadPriority { max_bypass } => {
                let write_waiting = !self.writes.is_empty();
                if !self.head.is_empty() && (!write_waiting || self.bypass < max_bypass) {
                    if write_waiting {
                        self.bypass += 1;
                    }
                    self.head.pop_front()
                } else if let Some(w) = self.writes.pop_front() {
                    self.bypass = 0;
                    Some(w)
                } else {
                    self.head.pop_front()
                }
            }
        }
    }

    /// Combined `push` + `pop` on an **empty** queue — the uncontended
    /// fast path taken when a command lands on an idle unit. Semantically
    /// exact: a write popped under [`SchedPolicy::ReadPriority`] still
    /// resets the bypass budget (a read finding no waiting write leaves it
    /// untouched, as `pop` does). Returns the entry for symmetry with
    /// `pop`.
    #[inline]
    pub fn push_pop_empty(&mut self, item: T, class: CmdClass, policy: SchedPolicy) -> T {
        debug_assert!(self.is_empty(), "push_pop_empty on a non-empty queue");
        if matches!(policy, SchedPolicy::ReadPriority { .. }) && class == CmdClass::Write {
            self.bypass = 0;
        }
        item
    }

    /// Empties the queue and rewinds the bypass counter to the
    /// freshly-constructed state, keeping both deque allocations.
    pub fn reset(&mut self) {
        self.head.clear();
        self.writes.clear();
        self.bypass = 0;
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.head.len() + self.writes.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.writes.is_empty()
    }
}

/// Scheduling state of one execution unit (plane or die), generic over
/// the command record it queues and runs.
///
/// A command holds its unit from start to retirement, waiting-for-bus
/// phases included, so at most one is ever in service: it lives in
/// `cur`, and the unit is busy exactly while `cur` is `Some`.
#[derive(Debug, Clone)]
pub struct DieSched<T> {
    /// The command in service, if any.
    pub cur: Option<T>,
    /// Start of `cur`'s current phase.
    pub t_mark: u64,
    /// Channel bus the unit transfers on.
    pub channel: u16,
    /// Commands waiting for the unit.
    pub queue: PriorityQueue<T>,
    /// Queued plus in-flight commands — the load signal consumed by
    /// dynamic page allocation.
    pub backlog: u32,
}

impl<T> Default for DieSched<T> {
    fn default() -> Self {
        Self {
            cur: None,
            t_mark: 0,
            channel: 0,
            queue: PriorityQueue::new(),
            backlog: 0,
        }
    }
}

impl<T> DieSched<T> {
    /// Whether a command holds the unit.
    pub fn busy(&self) -> bool {
        self.cur.is_some()
    }

    /// Restores the idle freshly-constructed state on `channel`, keeping
    /// the queue allocations.
    pub fn reset(&mut self, channel: u16) {
        self.cur = None;
        self.t_mark = 0;
        self.channel = channel;
        self.queue.reset();
        self.backlog = 0;
    }
}

/// Scheduling state of one channel bus.
#[derive(Debug, Clone, Default)]
pub struct BusSched {
    /// Whether a transfer is in progress.
    pub busy: bool,
    /// Units (each holding a command) waiting for the bus.
    pub queue: PriorityQueue<u32>,
}

impl BusSched {
    /// Restores the idle freshly-constructed state, keeping the queue
    /// allocations.
    pub fn reset(&mut self) {
        self.busy = false;
        self.queue.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CmdId;
    use simrng::{Rng, SimRng};

    const FIFO: SchedPolicy = SchedPolicy::Fifo;
    const RP4: SchedPolicy = SchedPolicy::ReadPriority { max_bypass: 4 };
    const RP8: SchedPolicy = SchedPolicy::ReadPriority { max_bypass: 8 };

    #[test]
    fn empty_queue_pops_none() {
        let mut q = PriorityQueue::<CmdId>::new();
        assert!(q.pop(RP4).is_none());
        assert!(q.pop(FIFO).is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fifo_preserves_arrival_order_across_classes() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write, FIFO);
        q.push(2, CmdClass::Read, FIFO);
        q.push(3, CmdClass::Write, FIFO);
        q.push(4, CmdClass::Read, FIFO);
        assert_eq!(q.len(), 4);
        let order: Vec<CmdId> = (0..4).map(|_| q.pop(FIFO).unwrap()).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn read_priority_reads_win_over_writes() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write, RP4);
        q.push(2, CmdClass::Read, RP4);
        assert_eq!(q.pop(RP4), Some(2));
        assert_eq!(q.pop(RP4), Some(1));
    }

    #[test]
    fn fifo_within_class_under_read_priority() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Read, RP8);
        q.push(2, CmdClass::Read, RP8);
        q.push(3, CmdClass::Write, RP8);
        q.push(4, CmdClass::Write, RP8);
        assert_eq!(q.pop(RP8), Some(1));
        assert_eq!(q.pop(RP8), Some(2));
        assert_eq!(q.pop(RP8), Some(3));
        assert_eq!(q.pop(RP8), Some(4));
    }

    #[test]
    fn bypass_bound_prevents_write_starvation() {
        let rp3 = SchedPolicy::ReadPriority { max_bypass: 3 };
        let mut q = PriorityQueue::new();
        q.push(100, CmdClass::Write, rp3);
        for i in 0..10 {
            q.push(i, CmdClass::Read, rp3);
        }
        let order: Vec<CmdId> = (0..4).map(|_| q.pop(rp3).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 100]);
    }

    #[test]
    fn bypass_counter_resets_after_write() {
        let rp2 = SchedPolicy::ReadPriority { max_bypass: 2 };
        let mut q = PriorityQueue::new();
        q.push(100, CmdClass::Write, rp2);
        q.push(101, CmdClass::Write, rp2);
        for i in 0..10 {
            q.push(i, CmdClass::Read, rp2);
        }
        let order: Vec<CmdId> = (0..8).map(|_| q.pop(rp2).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 100, 2, 3, 101, 4, 5]);
    }

    #[test]
    fn zero_bypass_serves_waiting_writes_first() {
        let rp0 = SchedPolicy::ReadPriority { max_bypass: 0 };
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write, rp0);
        q.push(2, CmdClass::Read, rp0);
        assert_eq!(q.pop(rp0), Some(1));
    }

    #[test]
    fn reads_do_not_consume_bypass_without_waiting_writes() {
        let rp2 = SchedPolicy::ReadPriority { max_bypass: 2 };
        let mut q = PriorityQueue::new();
        for i in 0..5 {
            q.push(i, CmdClass::Read, rp2);
        }
        for _ in 0..3 {
            q.pop(rp2);
        }
        q.push(100, CmdClass::Write, rp2);
        q.push(10, CmdClass::Read, rp2);
        q.push(11, CmdClass::Read, rp2);
        assert_eq!(q.pop(rp2), Some(3));
        assert_eq!(q.pop(rp2), Some(4));
        assert_eq!(
            q.pop(rp2),
            Some(100),
            "budget of 2 exhausted by reads 3 and 4"
        );
    }

    #[test]
    fn default_policy_is_fifo() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    /// A multi-field payload, so the property tests below check that
    /// whole records come back intact, not just ids.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rec {
        id: CmdId,
        stamp: u64,
        class: CmdClass,
    }

    /// Pushes one record per seeded class draw; `stamp` is derived from
    /// the id so a popped record can be checked field by field.
    fn fill(q: &mut PriorityQueue<Rec>, classes: &[bool], policy: SchedPolicy) {
        for (i, &is_read) in classes.iter().enumerate() {
            let class = if is_read {
                CmdClass::Read
            } else {
                CmdClass::Write
            };
            let id = i as CmdId;
            let stamp = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            q.push(Rec { id, stamp, class }, class, policy);
        }
    }

    fn assert_intact(r: &Rec, classes: &[bool], seed: u64) {
        let i = r.id as usize;
        assert_eq!(r.stamp, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(r.class == CmdClass::Read, classes[i], "seed {seed}");
    }

    /// Every pushed record is popped exactly once, intact, under either
    /// policy, over seeded random class mixes.
    #[test]
    fn conservation() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let classes: Vec<bool> = (0..rng.gen_range(0usize..100)).map(|_| rng.gen()).collect();
            let policy = if rng.gen() {
                FIFO
            } else {
                SchedPolicy::ReadPriority {
                    max_bypass: rng.gen_range(0u32..8),
                }
            };
            let mut q = PriorityQueue::new();
            fill(&mut q, &classes, policy);
            let mut seen = std::collections::HashSet::new();
            while let Some(r) = q.pop(policy) {
                assert_intact(&r, &classes, seed);
                assert!(
                    seen.insert(r.id),
                    "record {} popped twice (seed {seed})",
                    r.id
                );
            }
            assert_eq!(seen.len(), classes.len(), "seed {seed}");
        }
    }

    /// FIFO pops are globally ordered by arrival and return intact records.
    #[test]
    fn fifo_is_sorted() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(1000 + seed);
            let classes: Vec<bool> = (0..rng.gen_range(0usize..100)).map(|_| rng.gen()).collect();
            let mut q = PriorityQueue::new();
            fill(&mut q, &classes, FIFO);
            let mut prev = None;
            while let Some(r) = q.pop(FIFO) {
                assert_intact(&r, &classes, seed);
                if let Some(p) = prev {
                    assert!(r.id > p, "{} after {p} (seed {seed})", r.id);
                }
                prev = Some(r.id);
            }
        }
    }

    /// A waiting write is served after at most `bound` subsequent pops
    /// under read priority.
    #[test]
    fn bounded_wait() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(2000 + seed);
            let bound = rng.gen_range(1u32..6);
            let reads_before = rng.gen_range(0usize..4);
            let policy = SchedPolicy::ReadPriority { max_bypass: bound };
            let mut q = PriorityQueue::new();
            for i in 0..reads_before {
                q.push(i as CmdId, CmdClass::Read, policy);
            }
            q.push(999, CmdClass::Write, policy);
            for i in 0..20 {
                q.push(100 + i, CmdClass::Read, policy);
            }
            let mut pops = 0;
            loop {
                let c = q.pop(policy).expect("write must eventually surface");
                pops += 1;
                if c == 999 {
                    break;
                }
                assert!(pops <= bound as usize + reads_before + 1, "seed {seed}");
            }
        }
    }

    /// The plainest scheduler that could be right: one `Vec` of
    /// `(class, id)` in push order, searched linearly on every pop.
    #[derive(Default)]
    struct NaiveSched {
        entries: Vec<(CmdClass, CmdId)>,
        bypass: u32,
    }

    impl NaiveSched {
        fn pop(&mut self, policy: SchedPolicy) -> Option<(CmdClass, CmdId)> {
            let first = |c| self.entries.iter().position(|&(class, _)| class == c);
            let i = match policy {
                SchedPolicy::Fifo => (!self.entries.is_empty()).then_some(0)?,
                SchedPolicy::ReadPriority { max_bypass } => {
                    match (first(CmdClass::Read), first(CmdClass::Write)) {
                        (Some(r), Some(_)) if self.bypass < max_bypass => {
                            self.bypass += 1;
                            r
                        }
                        (Some(r), None) => r,
                        (_, Some(w)) => {
                            self.bypass = 0;
                            w
                        }
                        (None, None) => return None,
                    }
                }
            };
            Some(self.entries.remove(i))
        }

        fn write_waiting(&self) -> bool {
            self.entries.iter().any(|&(c, _)| c == CmdClass::Write)
        }
    }

    /// Seeded random interleavings of pushes (through `push_pop_empty`
    /// when the queue is empty, half the time) and pops, against
    /// [`NaiveSched`] doing a plain push + pop. Returns the popped stream,
    /// each id tagged with whether a write was waiting when it was popped.
    fn drive_against_model(seed: u64, policy: SchedPolicy) -> Vec<(CmdId, CmdClass, bool)> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut q = PriorityQueue::new();
        let mut model = NaiveSched::default();
        let mut out = Vec::new();
        for id in 0..400 {
            if rng.gen_range(0u32..10) < 5 {
                let class = if rng.gen() {
                    CmdClass::Read
                } else {
                    CmdClass::Write
                };
                model.entries.push((class, id));
                if q.is_empty() && rng.gen() {
                    let got = q.push_pop_empty(id, class, policy);
                    assert_eq!(Some((class, got)), model.pop(policy), "seed {seed}");
                    out.push((got, class, false));
                } else {
                    q.push(id, class, policy);
                }
            } else {
                let waiting = model.write_waiting();
                let want = model.pop(policy);
                assert_eq!(
                    q.pop(policy),
                    want.map(|(_, id)| id),
                    "pop diverged (seed {seed}, step {id})"
                );
                if let Some((class, got)) = want {
                    out.push((got, class, waiting));
                }
            }
            assert_eq!(q.len(), model.entries.len(), "seed {seed}");
        }
        out
    }

    /// FIFO pops in global push order, matching the naive model, across
    /// random push/pop interleavings.
    #[test]
    fn fifo_matches_naive_model() {
        for seed in 0..32u64 {
            let popped = drive_against_model(3000 + seed, FIFO);
            assert!(
                popped.windows(2).all(|w| w[0].0 < w[1].0),
                "FIFO out of push order (seed {seed})"
            );
        }
    }

    /// Read priority matches the naive model pop for pop, and no more
    /// than `max_bypass` reads ever pass a waiting write.
    #[test]
    fn read_priority_matches_naive_model_and_bounds_bypass() {
        for seed in 0..32u64 {
            let max_bypass = (seed % 5) as u32;
            let policy = SchedPolicy::ReadPriority { max_bypass };
            let mut run = 0u32;
            for (_, class, write_waiting) in drive_against_model(4000 + seed, policy) {
                if class == CmdClass::Write {
                    run = 0;
                } else if write_waiting {
                    run += 1;
                    assert!(run <= max_bypass, "seed {seed}: {run} reads passed a write");
                }
            }
        }
    }

    /// `push_pop_empty` leaves the queue exactly as `push` + `pop` would:
    /// two queues, one taking the fast path on every push onto an empty
    /// queue, pop identically through seeded random interleavings.
    #[test]
    fn push_pop_empty_equals_push_then_pop() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from_u64(5000 + seed);
            let policy = match seed % 3 {
                0 => FIFO,
                _ => SchedPolicy::ReadPriority {
                    max_bypass: rng.gen_range(0u32..4),
                },
            };
            let (mut fast, mut slow) = (PriorityQueue::new(), PriorityQueue::new());
            for id in 0..300 {
                let class = if rng.gen() {
                    CmdClass::Read
                } else {
                    CmdClass::Write
                };
                if fast.is_empty() {
                    let a = fast.push_pop_empty(id, class, policy);
                    slow.push(id, class, policy);
                    assert_eq!(Some(a), slow.pop(policy), "seed {seed}");
                } else if rng.gen_range(0u32..3) == 0 {
                    assert_eq!(fast.pop(policy), slow.pop(policy), "seed {seed}");
                } else {
                    fast.push(id, class, policy);
                    slow.push(id, class, policy);
                }
                assert_eq!(fast.bypass, slow.bypass, "seed {seed}");
                assert_eq!(fast.len(), slow.len(), "seed {seed}");
            }
            while let Some(a) = fast.pop(policy) {
                assert_eq!(Some(a), slow.pop(policy), "seed {seed}");
            }
            assert!(slow.is_empty(), "seed {seed}");
        }
    }
}
