//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer, never
//! inside the program: the program's `obs` instrumentation stays compiled
//! out, so the timed build is the build users run. Recording is switched
//! on only for the traced part of a `--trace 1` run; while it is off a
//! span costs one thread-local flag read.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span: a call into a layer, or a benchmark phase around such
/// calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `flash_sim.build`.
    pub name: &'static str,
    /// Start, in seconds since the recorder's epoch.
    pub start_s: f64,
    /// End, in seconds since the recorder's epoch.
    pub end_s: f64,
    /// Index of the enclosing span in the record, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for spans opened afterwards.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// An open span; it closes when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` (a no-op guard while recording is off).
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let start_s = r.epoch.elapsed().as_secs_f64();
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_secs_f64();
                r.spans[idx].end_s = end;
                r.open.retain(|&i| i != idx);
            });
        }
    }
}

/// Every span recorded so far.
pub fn recorded() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Number of spans named `name` and their summed wall time (seconds).
pub fn total(spans: &[Span], name: &str) -> (usize, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0), |(n, t), s| (n + 1, t + s.secs()))
}

/// Wall time of each span named `name`, in record order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time of every span: its wall time minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Tab-separated dump: one line per span with its parent, start, wall and
/// self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("id\tparent\tname\tstart_s\twall_s\tself_s\n");
    for (i, (s, self_s)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{parent}\t{}\t{:.9}\t{:.9}\t{:.9}\n",
            s.name,
            s.start_s,
            s.secs(),
            self_s
        ));
    }
    out
}
