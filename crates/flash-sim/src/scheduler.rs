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
/// Entries carry a queue-local `u32` sequence number so FIFO order across
/// classes is recoverable in O(1). Sequence numbers wrap; FIFO only ever
/// compares the two class fronts, whose distance is bounded by the queue
/// length, so a wrapping compare stays exact.
#[derive(Debug, Clone)]
pub struct PriorityQueue<T> {
    reads: VecDeque<(u32, T)>,
    writes: VecDeque<(u32, T)>,
    next_seq: u32,
    bypass: u32,
}

impl<T> Default for PriorityQueue<T> {
    fn default() -> Self {
        Self {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            next_seq: 0,
            bypass: 0,
        }
    }
}

impl<T> PriorityQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an entry in its class.
    pub fn push(&mut self, item: T, class: CmdClass) {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        match class {
            CmdClass::Read => self.reads.push_back((seq, item)),
            CmdClass::Write => self.writes.push_back((seq, item)),
        }
    }

    /// Dequeues the next entry under `policy`.
    pub fn pop(&mut self, policy: SchedPolicy) -> Option<T> {
        let item = match policy {
            SchedPolicy::Fifo => match (self.reads.front(), self.writes.front()) {
                // `rs` is older than `ws` iff it is behind it mod 2^32.
                (Some(&(rs, _)), Some(&(ws, _))) if (rs.wrapping_sub(ws) as i32) < 0 => {
                    self.reads.pop_front()
                }
                (Some(_), None) => self.reads.pop_front(),
                _ => self.writes.pop_front(),
            },
            SchedPolicy::ReadPriority { max_bypass } => {
                let write_waiting = !self.writes.is_empty();
                if !self.reads.is_empty() && (!write_waiting || self.bypass < max_bypass) {
                    if write_waiting {
                        self.bypass += 1;
                    }
                    self.reads.pop_front()
                } else if let Some(w) = self.writes.pop_front() {
                    self.bypass = 0;
                    Some(w)
                } else {
                    self.reads.pop_front()
                }
            }
        };
        item.map(|(_, it)| it)
    }

    /// Combined `push` + `pop` on an **empty** queue — the uncontended
    /// fast path taken when a command lands on an idle unit. Semantically
    /// exact: the sequence counter still advances, and a write popped
    /// under [`SchedPolicy::ReadPriority`] still resets the bypass budget
    /// (a read finding no waiting write leaves it untouched, as `pop`
    /// does). Returns the entry for symmetry with `pop`.
    #[inline]
    pub fn push_pop_empty(&mut self, item: T, class: CmdClass, policy: SchedPolicy) -> T {
        debug_assert!(self.is_empty(), "push_pop_empty on a non-empty queue");
        self.next_seq = self.next_seq.wrapping_add(1);
        if matches!(policy, SchedPolicy::ReadPriority { .. }) && class == CmdClass::Write {
            self.bypass = 0;
        }
        item
    }

    /// Empties the queue and rewinds the sequence and bypass counters to
    /// the freshly-constructed state, keeping both deque allocations.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.next_seq = 0;
        self.bypass = 0;
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
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

    const RP4: SchedPolicy = SchedPolicy::ReadPriority { max_bypass: 4 };
    const RP8: SchedPolicy = SchedPolicy::ReadPriority { max_bypass: 8 };

    #[test]
    fn empty_queue_pops_none() {
        let mut q = PriorityQueue::<CmdId>::new();
        assert!(q.pop(RP4).is_none());
        assert!(q.pop(SchedPolicy::Fifo).is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fifo_preserves_arrival_order_across_classes() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write);
        q.push(2, CmdClass::Read);
        q.push(3, CmdClass::Write);
        q.push(4, CmdClass::Read);
        let order: Vec<CmdId> = (0..4).map(|_| q.pop(SchedPolicy::Fifo).unwrap()).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn read_priority_reads_win_over_writes() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write);
        q.push(2, CmdClass::Read);
        assert_eq!(q.pop(RP4), Some(2));
        assert_eq!(q.pop(RP4), Some(1));
    }

    #[test]
    fn fifo_within_class_under_read_priority() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Read);
        q.push(2, CmdClass::Read);
        q.push(3, CmdClass::Write);
        q.push(4, CmdClass::Write);
        assert_eq!(q.pop(RP8), Some(1));
        assert_eq!(q.pop(RP8), Some(2));
        assert_eq!(q.pop(RP8), Some(3));
        assert_eq!(q.pop(RP8), Some(4));
    }

    #[test]
    fn bypass_bound_prevents_write_starvation() {
        let mut q = PriorityQueue::new();
        q.push(100, CmdClass::Write);
        for i in 0..10 {
            q.push(i, CmdClass::Read);
        }
        let rp3 = SchedPolicy::ReadPriority { max_bypass: 3 };
        let order: Vec<CmdId> = (0..4).map(|_| q.pop(rp3).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 100]);
    }

    #[test]
    fn bypass_counter_resets_after_write() {
        let mut q = PriorityQueue::new();
        q.push(100, CmdClass::Write);
        q.push(101, CmdClass::Write);
        for i in 0..10 {
            q.push(i, CmdClass::Read);
        }
        let rp2 = SchedPolicy::ReadPriority { max_bypass: 2 };
        let order: Vec<CmdId> = (0..8).map(|_| q.pop(rp2).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 100, 2, 3, 101, 4, 5]);
    }

    #[test]
    fn zero_bypass_serves_waiting_writes_first() {
        let mut q = PriorityQueue::new();
        q.push(1, CmdClass::Write);
        q.push(2, CmdClass::Read);
        assert_eq!(q.pop(SchedPolicy::ReadPriority { max_bypass: 0 }), Some(1));
    }

    #[test]
    fn reads_do_not_consume_bypass_without_waiting_writes() {
        let mut q = PriorityQueue::new();
        for i in 0..5 {
            q.push(i, CmdClass::Read);
        }
        let rp2 = SchedPolicy::ReadPriority { max_bypass: 2 };
        for _ in 0..3 {
            q.pop(rp2);
        }
        q.push(100, CmdClass::Write);
        q.push(10, CmdClass::Read);
        q.push(11, CmdClass::Read);
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
    fn fill(q: &mut PriorityQueue<Rec>, classes: &[bool]) {
        for (i, &is_read) in classes.iter().enumerate() {
            let class = if is_read {
                CmdClass::Read
            } else {
                CmdClass::Write
            };
            let id = i as CmdId;
            let stamp = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            q.push(Rec { id, stamp, class }, class);
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
                SchedPolicy::Fifo
            } else {
                SchedPolicy::ReadPriority {
                    max_bypass: rng.gen_range(0u32..8),
                }
            };
            let mut q = PriorityQueue::new();
            fill(&mut q, &classes);
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
            fill(&mut q, &classes);
            let mut prev = None;
            while let Some(r) = q.pop(SchedPolicy::Fifo) {
                assert_intact(&r, &classes, seed);
                if let Some(p) = prev {
                    assert!(r.id > p, "{} after {p} (seed {seed})", r.id);
                }
                prev = Some(r.id);
            }
        }
    }

    /// FIFO order holds across the `u32` sequence wrap.
    #[test]
    fn fifo_order_survives_sequence_wrap() {
        let mut q = PriorityQueue::new();
        q.next_seq = u32::MAX - 1;
        q.push(1, CmdClass::Write);
        q.push(2, CmdClass::Read);
        q.push(3, CmdClass::Read);
        q.push(4, CmdClass::Write);
        let order: Vec<CmdId> = (0..4).map(|_| q.pop(SchedPolicy::Fifo).unwrap()).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
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
                q.push(i as CmdId, CmdClass::Read);
            }
            q.push(999, CmdClass::Write);
            for i in 0..20 {
                q.push(100 + i, CmdClass::Read);
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
}
