//! Oracle for the engine's arrival-cursor merge.
//!
//! The simulator never heaps trace arrivals: it serves them from a cursor
//! over the sorted trace, merged against the [`EventQueue`] with
//! `pop_before` + `advance_to`. These tests pin that merge against a
//! reference that heaps every arrival up front — the golden captures pin
//! whole-simulation behaviour, and this pins the merge rule itself.

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
