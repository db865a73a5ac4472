//! Hierarchical scoped spans with thread-local aggregation.
//!
//! [`enter`] (via the [`span!`](crate::span) macro) pushes onto a
//! thread-local span stack and returns an RAII [`SpanGuard`]; dropping
//! the guard accumulates the elapsed wall-clock nanoseconds into the
//! current thread's call tree. Enter/exit touch only thread-local
//! memory — no locks, no allocation after a path is first seen — so
//! instrumented hot paths never contend. When a thread exits, its tree
//! is folded into a global finished-set under a mutex (one lock per
//! thread lifetime, not per span); [`drain`] merges the finished set
//! with the calling thread's live tree into path-keyed totals.
//!
//! The aggregation is equivalent to recording every span into a
//! per-thread append buffer and merging post-run — but bounded by the
//! number of distinct call *paths* instead of the number of span
//! *instances*, so a million GC passes cost one tree node.
//!
//! Span names become folded-stack frames (`a;b;c 1234`), so they must
//! not contain `;`, whitespace, or newlines.

use crate::clock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Aggregated totals for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTotal {
    /// Total wall-clock nanoseconds spent with this exact path open.
    pub ns: u64,
    /// Number of times the span at the end of this path closed.
    pub count: u64,
}

/// Merged span statistics keyed by `;`-joined path (root first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Path → totals, sorted by path (BTreeMap order).
    pub paths: BTreeMap<String, PathTotal>,
}

impl SpanStats {
    /// Renders flamegraph.pl-compatible folded-stack lines: one
    /// `path ns` line per path, sorted, newline-terminated. The value
    /// column is nanoseconds (flamegraph.pl treats it as an opaque
    /// sample weight).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, t) in &self.paths {
            out.push_str(path);
            out.push(' ');
            out.push_str(&t.ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Sum of nanoseconds over root-level paths (no `;`) — each
    /// thread's outermost spans, i.e. the instrumented wall-clock.
    pub fn root_ns(&self) -> u64 {
        self.paths
            .iter()
            .filter(|(p, _)| !p.contains(';'))
            .map(|(_, t)| t.ns)
            .sum()
    }
}

struct Node {
    parent: u32,
    name: &'static str,
    total_ns: u64,
    count: u64,
    children: Vec<u32>,
}

struct ThreadTree {
    nodes: Vec<Node>,
    cur: u32,
}

impl ThreadTree {
    fn new() -> Self {
        ThreadTree {
            nodes: vec![Node {
                parent: 0,
                name: "",
                total_ns: 0,
                count: 0,
                children: Vec::new(),
            }],
            cur: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let cur = self.cur;
        let existing = self.nodes[cur as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c as usize].name == name);
        let node = existing.unwrap_or_else(|| {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                parent: cur,
                name,
                total_ns: 0,
                count: 0,
                children: Vec::new(),
            });
            self.nodes[cur as usize].children.push(id);
            id
        });
        self.cur = node;
        node
    }

    /// Returns true when this exit closed the thread's outermost span
    /// (the stack is back at the synthetic root).
    fn exit(&mut self, node: u32, elapsed_ns: u64) -> bool {
        let n = &mut self.nodes[node as usize];
        n.total_ns += elapsed_ns;
        n.count += 1;
        self.cur = n.parent;
        self.cur == 0
    }

    /// Folds closed totals into `out` and zeroes them (structure and
    /// any still-open stack are kept so later exits keep accumulating).
    fn fold_into(&mut self, out: &mut BTreeMap<String, PathTotal>) {
        for i in 1..self.nodes.len() {
            if self.nodes[i].count == 0 && self.nodes[i].total_ns == 0 {
                continue;
            }
            let mut parts = Vec::new();
            let mut j = i as u32;
            while j != 0 {
                parts.push(self.nodes[j as usize].name);
                j = self.nodes[j as usize].parent;
            }
            parts.reverse();
            let path = parts.join(";");
            let entry = out.entry(path).or_default();
            entry.ns += self.nodes[i].total_ns;
            entry.count += self.nodes[i].count;
            self.nodes[i].total_ns = 0;
            self.nodes[i].count = 0;
        }
    }
}

/// Wrapper whose Drop flushes whatever is still in the thread's tree
/// into the global finished-set when the thread exits. This is only a
/// backstop for spans that never closed back to the root: the primary
/// flush happens in [`SpanGuard::drop`] when the outermost span closes,
/// because thread-exit TLS destructors are NOT ordered before
/// `std::thread::scope` (or `JoinHandle::join`) returns — the scope
/// unblocks when the closure finishes, while TLS teardown can still be
/// running, so a drain racing a dtor-only flush would lose spans.
struct TlsTree(RefCell<ThreadTree>);

impl Drop for TlsTree {
    fn drop(&mut self) {
        let mut map = BTreeMap::new();
        self.0.borrow_mut().fold_into(&mut map);
        if !map.is_empty() {
            merge_into_finished(map);
        }
    }
}

thread_local! {
    static TREE: TlsTree = TlsTree(RefCell::new(ThreadTree::new()));
}

static FINISHED: Mutex<BTreeMap<String, PathTotal>> = Mutex::new(BTreeMap::new());

fn merge_into_finished(map: BTreeMap<String, PathTotal>) {
    let mut fin = FINISHED.lock().unwrap();
    for (path, t) in map {
        let entry = fin.entry(path).or_default();
        entry.ns += t.ns;
        entry.count += t.count;
    }
}

/// RAII guard returned by [`enter`]; closes the span on drop.
///
/// Not `Send`: a span must close on the thread that opened it. Guards
/// are expected to drop in LIFO order (scope order); an out-of-order
/// drop mis-parents subsequent spans on this thread but never panics.
pub struct SpanGuard {
    node: u32,
    start_ns: u64,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` under the thread's current span. Prefer
/// the [`span!`](crate::span) macro, which compiles away when tracing
/// is off.
pub fn enter(name: &'static str) -> SpanGuard {
    let node = TREE.with(|t| t.0.borrow_mut().enter(name));
    SpanGuard {
        node,
        start_ns: clock::now_ns(),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = clock::now_ns().saturating_sub(self.start_ns);
        // TLS may already be torn down during thread exit; spans still
        // open that late are silently discarded.
        let _ = TREE.try_with(|t| {
            let root_closed = t.0.borrow_mut().exit(self.node, elapsed);
            // Closing the outermost span publishes the thread's closed
            // totals. This runs inside the span's scope — i.e. before a
            // scoped worker signals completion — which is what makes
            // "join workers, then drain()" see every worker's spans
            // (TLS destructors alone give no such ordering).
            if root_closed {
                let mut map = BTreeMap::new();
                t.0.borrow_mut().fold_into(&mut map);
                if !map.is_empty() {
                    merge_into_finished(map);
                }
            }
        });
    }
}

/// Merges and clears all recorded span totals: the finished-set (every
/// thread's outermost-span flushes plus thread-exit backstops) and the
/// calling thread's closed spans. A live thread's spans become visible
/// as soon as its outermost span closes; spans still open on other
/// threads are not included — call after joining workers.
pub fn drain() -> SpanStats {
    let mut paths = std::mem::take(&mut *FINISHED.lock().unwrap());
    let _ = TREE.try_with(|t| t.0.borrow_mut().fold_into(&mut paths));
    SpanStats { paths }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span state is process-global and `drain` takes the whole
    // finished-set, so tests that drain must not run concurrently (one
    // would steal spans another test's worker threads just flushed).
    // Unique names handle leftovers; this lock handles the races.
    static DRAIN_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nesting_builds_paths_and_counts() {
        let _serial = serial();
        {
            let _a = enter("t_nest_outer");
            for _ in 0..3 {
                let _b = enter("t_nest_inner");
            }
        }
        let stats = drain();
        let inner = stats.paths.get("t_nest_outer;t_nest_inner").unwrap();
        assert_eq!(inner.count, 3);
        let outer = stats.paths.get("t_nest_outer").unwrap();
        assert_eq!(outer.count, 1);
        assert!(outer.ns >= inner.ns);
    }

    #[test]
    fn drain_clears_and_later_spans_reaccumulate() {
        let _serial = serial();
        {
            let _a = enter("t_clear_root");
        }
        let first = drain();
        assert_eq!(first.paths.get("t_clear_root").unwrap().count, 1);
        let second = drain();
        assert!(!second.paths.contains_key("t_clear_root"));
        {
            let _a = enter("t_clear_root");
        }
        let third = drain();
        assert_eq!(third.paths.get("t_clear_root").unwrap().count, 1);
    }

    #[test]
    fn worker_thread_spans_merge_after_join() {
        let _serial = serial();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = enter("t_worker_root");
                    let _h = enter("t_worker_leaf");
                });
            }
        });
        let stats = drain();
        assert_eq!(stats.paths.get("t_worker_root").unwrap().count, 2);
        assert_eq!(
            stats
                .paths
                .get("t_worker_root;t_worker_leaf")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn folded_lines_are_sorted_and_parse() {
        let _serial = serial();
        {
            let _a = enter("t_fold_b");
        }
        {
            let _a = enter("t_fold_a");
            let _b = enter("t_fold_c");
        }
        let stats = drain();
        let folded = stats.folded();
        let mut prev = String::new();
        for line in folded.lines().filter(|l| l.starts_with("t_fold_")) {
            let (path, ns) = line.rsplit_once(' ').unwrap();
            ns.parse::<u64>().unwrap();
            assert!(path > prev.as_str());
            prev = path.to_string();
        }
        assert!(stats.root_ns() > 0);
    }

    #[test]
    fn open_span_survives_drain_and_closes_later() {
        let _serial = serial();
        let g = enter("t_open_root");
        {
            let _inner = enter("t_open_inner");
        }
        let mid = drain();
        assert_eq!(mid.paths.get("t_open_root;t_open_inner").unwrap().count, 1);
        assert!(!mid.paths.contains_key("t_open_root"));
        drop(g);
        let after = drain();
        assert_eq!(after.paths.get("t_open_root").unwrap().count, 1);
    }
}
