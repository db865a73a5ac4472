//! Oracles for the event queue and the engine's arrival-cursor merge.
//!
//! The [`EventQueue`] files fixed-delay events in FIFO lanes and the rest
//! in a heap; a seeded property test pins it, under random interleavings
//! of every operation, to one plain heap over all events. The simulator
//! never heaps trace arrivals: it serves them from a cursor over the
//! sorted trace, merged against the queue with `pop_before` +
//! `advance_to`. A second test pins that merge against a reference that
//! heaps every arrival up front — the golden captures pin
//! whole-simulation behaviour, and these pin the rules themselves.

use flash_sim::event::{Event, EventKind, EventQueue};
use simrng::{Rng, SimRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A plain min-heap over `(time, seq)` with push-side sequence numbering.
#[derive(Default)]
struct OracleHeap {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl OracleHeap {
    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A lane-configured queue serves exactly the `(time, seq, kind)` stream
/// of one plain heap over every event, under seeded random interleavings
/// of lane-delay pushes (ties and delay 0 included), arbitrary-delay
/// pushes, `pop`, `pop_before` and `advance_to`.
#[test]
fn lane_queue_matches_a_single_heap() {
    // The paper's Table I delays (read sense, program, page transfer,
    // admit); a set with coinciding delays; and more distinct delays than
    // a queue keeps lanes, so some fixed delays fall back to the heap.
    const DELAY_SETS: [&[u64]; 3] = [
        &[20_000, 200_000, 81_920, 0],
        &[5, 5, 0, 7],
        &[3, 1, 4, 1, 5, 9, 2, 6],
    ];
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x1A9E + seed);
        let delays = DELAY_SETS[seed as usize % DELAY_SETS.len()];
        // A small reservation, so lanes and heap also grow mid-run.
        let mut queue = EventQueue::new();
        queue.reset_lanes(delays, rng.gen_range(0usize..8));
        let mut oracle = OracleHeap::default();
        // Mirror of the queue's clamp floor: the time of the last served
        // event or advance.
        let mut now = 0u64;
        let mut served = 0usize;
        for step in 0..rng.gen_range(100u32..1_500) {
            let kind = EventKind::DieOpDone(step);
            match rng.gen_range(0u32..10) {
                // Lane-delay pushes; repeats make same-time ties.
                0..=3 => {
                    let t = now + delays[rng.gen_range(0..delays.len())];
                    queue.push(t, kind);
                    oracle.push(t, kind);
                }
                // Arbitrary delays, some equal to a lane's by chance.
                4 | 5 => {
                    let t = now + rng.gen_range(0u64..300_000);
                    queue.push(t, kind);
                    oracle.push(t, kind);
                }
                6 | 7 => {
                    let got = queue.pop();
                    assert_eq!(got, oracle.pop(), "pop at step {step} (seed {seed})");
                    if let Some(ev) = got {
                        now = ev.time;
                        served += 1;
                    }
                }
                8 => {
                    let limit = now + rng.gen_range(0u64..250_000);
                    let want = oracle
                        .peek_time()
                        .filter(|&t| t < limit)
                        .and_then(|_| oracle.pop());
                    let got = queue.pop_before(limit);
                    assert_eq!(got, want, "pop_before at step {step} (seed {seed})");
                    if let Some(ev) = got {
                        now = ev.time;
                        served += 1;
                    }
                }
                // Advance the clamp floor as far as the contract allows:
                // up to the earliest pending event.
                _ => {
                    let t = now + rng.gen_range(0u64..250_000);
                    let t = oracle.peek_time().map_or(t, |pt| t.min(pt));
                    queue.advance_to(t);
                    now = now.max(t);
                }
            }
            assert_eq!(queue.peek_time(), oracle.peek_time(), "seed {seed}");
            assert_eq!(queue.len(), oracle.len(), "seed {seed}");
            assert_eq!(queue.is_empty(), oracle.len() == 0, "seed {seed}");
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(queue.pop(), Some(want), "drain (seed {seed})");
            served += 1;
        }
        assert_eq!(queue.pop(), None, "seed {seed}");
        assert!(served > 0, "seed {seed} served nothing");
    }
}

/// The engine's arrival-cursor merge: a sorted trace is consumed through
/// `pop_before(arrival)` + `advance_to(arrival)` instead of being heaped
/// up front. Served `(time, kind)` sequences must match a reference
/// engine that pushes every arrival into the heap first (sequence
/// numbers `0..n-1`, the old engine's shape) — including time ties,
/// where arrivals must win and order among themselves by trace index.
#[test]
fn arrival_cursor_merge_matches_heaped_arrivals() {
    // Deterministic follow-up work keyed off the served event, so both
    // engines issue identical pushes: arrivals fan out a die op (and
    // sometimes a bus transfer), die ops sometimes re-admit. Zero deltas
    // create service events tied with later arrivals.
    fn followups(time: u64, kind: EventKind) -> Vec<(u64, EventKind)> {
        match kind {
            EventKind::Arrive(r) => {
                let d = (r as u64).wrapping_mul(2_654_435_761) % 97;
                let mut out = vec![(time + d, EventKind::DieOpDone(r))];
                if r % 3 == 0 {
                    out.push((time + d / 2, EventKind::BusDone(r)));
                }
                out
            }
            EventKind::DieOpDone(c) if c % 4 == 0 => {
                vec![(time + (c as u64 % 13), EventKind::Admit(c))]
            }
            _ => Vec::new(),
        }
    }

    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(0xAC + seed);
        // Non-decreasing arrival times with frequent same-tick bursts.
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..rng.gen_range(50usize..300) {
            if rng.gen_range(0u32..3) != 0 {
                t += rng.gen_range(0u64..50);
            }
            arrivals.push(t);
        }

        // Reference: every arrival heaped up front with seqs 0..n-1.
        let mut heap = OracleHeap::default();
        for (i, &at) in arrivals.iter().enumerate() {
            heap.push(at, EventKind::Arrive(i as u32));
        }
        let mut want = Vec::new();
        while let Some(ev) = heap.pop() {
            want.push((ev.time, ev.kind));
            for (ft, fk) in followups(ev.time, ev.kind) {
                heap.push(ft, fk);
            }
        }

        // Engine shape: arrivals merged at pop time via the cursor.
        let mut queue = EventQueue::new();
        let mut cursor = 0usize;
        let mut got = Vec::new();
        loop {
            let (time, kind) = if cursor < arrivals.len() {
                let at = arrivals[cursor];
                match queue.pop_before(at) {
                    Some(ev) => (ev.time, ev.kind),
                    None => {
                        queue.advance_to(at);
                        let r = cursor as u32;
                        cursor += 1;
                        (at, EventKind::Arrive(r))
                    }
                }
            } else {
                match queue.pop() {
                    Some(ev) => (ev.time, ev.kind),
                    None => break,
                }
            };
            got.push((time, kind));
            for (ft, fk) in followups(time, kind) {
                queue.push(ft, fk);
            }
        }

        assert_eq!(got.len(), want.len(), "seed {seed}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "event {i} diverged (seed {seed})");
        }
    }
}
