//! Live run monitor: a periodic sampler thread streaming NDJSON.
//!
//! [`Sampler::start`] spawns a background thread that snapshots the
//! [counter registry](crate::counters) every `interval` and writes one
//! JSON object per line to a file or stderr. Each line is built in
//! memory and written with a single `write_all` + flush, so a consumer
//! tailing the file only ever sees whole lines; stopping (explicit
//! [`Sampler::stop`] or the panic-safe `Drop`) always writes one last
//! snapshot with `"final":true` before the thread exits, so the stream
//! is never left without the run's closing state.
//!
//! Line schema (all keys always present, `counters`/`gauges`/`rates`
//! objects are name-sorted):
//!
//! ```json
//! {"ssdkeeper_telemetry":1,"seq":3,"elapsed_ms":612.504,"final":false,
//!  "counters":{"sim.events":1048576},"gauges":{"fleet.shards_total":64},
//!  "rates":{"sim.events":1713412.9}}
//! ```
//!
//! `rates` is the per-second delta of each counter since the previous
//! line (0 on the first line). `ssdtrace live` consumes this stream.

use crate::counters::{self, Snapshot};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Magic key/version stamped on every telemetry line.
pub(crate) const SCHEMA_VERSION: u64 = 1;
/// Environment variable naming the telemetry target when no CLI flag
/// is given (`stderr` or `-` selects stderr, anything else is a path).
pub const TELEMETRY_ENV: &str = "SSDKEEPER_TELEMETRY";
/// Environment variable overriding the sample interval in milliseconds.
pub(crate) const INTERVAL_ENV: &str = "SSDKEEPER_TELEMETRY_MS";
/// Default sample interval.
pub(crate) const DEFAULT_INTERVAL: Duration = Duration::from_millis(200);

/// Where the NDJSON stream goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// One line per snapshot on stderr.
    Stderr,
    /// Truncate/create this file and stream lines into it.
    File(PathBuf),
}

impl Target {
    /// Parses a CLI/env spec: `stderr` or `-` → [`Target::Stderr`],
    /// anything else is a file path.
    pub(crate) fn from_spec(spec: &str) -> Target {
        match spec {
            "stderr" | "-" => Target::Stderr,
            path => Target::File(PathBuf::from(path)),
        }
    }
}

enum Sink {
    Stderr,
    File(File),
}

impl Sink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        match self {
            Sink::Stderr => {
                let err = io::stderr();
                let mut h = err.lock();
                h.write_all(line.as_bytes())?;
                h.flush()
            }
            Sink::File(f) => {
                f.write_all(line.as_bytes())?;
                f.flush()
            }
        }
    }
}

/// Handle to a running sampler thread. Stop it with [`Sampler::stop`]
/// for the flush result; dropping it (including during a panic unwind)
/// stops and flushes best-effort.
pub struct Sampler {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl Sampler {
    /// Opens the target and starts the sampler thread. The first line
    /// is written immediately, then one every `interval` until stopped.
    pub fn start(target: Target, interval: Duration) -> io::Result<Sampler> {
        let mut sink = match &target {
            Target::Stderr => Sink::Stderr,
            Target::File(path) => Sink::File(File::create(path)?),
        };
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || -> io::Result<()> {
                let start = Instant::now();
                let mut seq: u64 = 0;
                let mut prev: Option<(Duration, Snapshot)> = None;
                let (stop_flag, cv) = &*thread_shared;
                let mut stopped = *stop_flag.lock().unwrap();
                loop {
                    let elapsed = start.elapsed();
                    let snap = counters::snapshot();
                    let line = render_line(seq, elapsed, stopped, &snap, prev.as_ref());
                    sink.write_line(&line)?;
                    if stopped {
                        return Ok(());
                    }
                    prev = Some((elapsed, snap));
                    seq += 1;
                    let guard = stop_flag.lock().unwrap();
                    let (guard, _) = cv.wait_timeout_while(guard, interval, |s| !*s).unwrap();
                    stopped = *guard;
                }
            })?;
        Ok(Sampler {
            shared,
            handle: Some(handle),
        })
    }

    /// Starts a sampler resolved from a CLI spec falling back to the
    /// [`TELEMETRY_ENV`] environment variable; returns `Ok(None)` when
    /// neither is set. The interval comes from `SSDKEEPER_TELEMETRY_MS`
    /// (milliseconds), 200 ms by default.
    pub fn from_spec_or_env(cli_spec: Option<&str>) -> io::Result<Option<Sampler>> {
        let env_spec = std::env::var(TELEMETRY_ENV).ok();
        let spec = match cli_spec.or(env_spec.as_deref()) {
            Some(s) if !s.is_empty() => s.to_string(),
            _ => return Ok(None),
        };
        let interval = std::env::var(INTERVAL_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_INTERVAL);
        Sampler::start(Target::from_spec(&spec), interval).map(Some)
    }

    fn signal_stop(&self) {
        let (stop_flag, cv) = &*self.shared;
        *stop_flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    /// Stops the thread, waits for the final `"final":true` line to be
    /// written and flushed, and returns the I/O result of the stream.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.signal_stop();
        match handle.join() {
            Ok(res) => res,
            Err(_) => Err(io::Error::other("sampler thread panicked")),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // Panic-safe: runs during unwinds too, so an aborted run still
        // gets its final flushed snapshot.
        let _ = self.shutdown();
    }
}

fn render_line(
    seq: u64,
    elapsed: Duration,
    is_final: bool,
    snap: &Snapshot,
    prev: Option<&(Duration, Snapshot)>,
) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"ssdkeeper_telemetry\":{SCHEMA_VERSION},\"seq\":{seq},\"elapsed_ms\":{:.3},\"final\":{is_final},\"counters\":{{",
        elapsed.as_secs_f64() * 1e3,
    );
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{}\":{v}", escape(name));
    }
    line.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{}\":{v}", escape(name));
    }
    line.push_str("},\"rates\":{");
    let dt = prev
        .map(|(t, _)| elapsed.saturating_sub(*t).as_secs_f64())
        .unwrap_or(0.0);
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let rate = if dt > 0.0 {
            let before = prev.and_then(|(_, s)| s.counter(name)).unwrap_or(0);
            v.saturating_sub(before) as f64 / dt
        } else {
            0.0
        };
        let _ = write!(line, "\"{}\":{rate:.1}", escape(name));
    }
    line.push_str("}}\n");
    line
}

/// Escapes a name for use inside a JSON string (registry names are
/// plain identifiers, but the stream must stay valid regardless).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("obs_monitor_{}_{tag}.ndjson", std::process::id()))
    }

    fn read_lines(path: &PathBuf) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.is_empty() || text.ends_with('\n'),
            "stream must end on a line boundary"
        );
        text.lines().map(|l| l.to_string()).collect()
    }

    #[test]
    fn clean_shutdown_writes_initial_periodic_and_final_lines() {
        let path = temp_path("clean");
        let sampler =
            Sampler::start(Target::File(path.clone()), Duration::from_millis(10)).unwrap();
        counters::counter("test.monitor.ticks").add(7);
        std::thread::sleep(Duration::from_millis(60));
        sampler.stop().unwrap();
        let lines = read_lines(&path);
        assert!(
            lines.len() >= 3,
            "expected initial + periodic + final, got {lines:?}"
        );
        assert!(lines[0].contains("\"seq\":0"));
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "ragged line: {line}"
            );
            assert!(line.contains("\"ssdkeeper_telemetry\":1"));
        }
        let finals: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"final\":true"))
            .collect();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[0], lines.last().unwrap());
        assert!(lines.last().unwrap().contains("\"test.monitor.ticks\":"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panic_in_run_still_flushes_final_snapshot() {
        let path = temp_path("panic");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _sampler =
                Sampler::start(Target::File(path.clone()), Duration::from_millis(10)).unwrap();
            panic!("simulated run exploded");
        }));
        assert!(result.is_err());
        let lines = read_lines(&path);
        assert!(!lines.is_empty());
        assert!(
            lines.last().unwrap().contains("\"final\":true"),
            "final snapshot missing after panic: {lines:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn immediate_stop_still_yields_final_line() {
        let path = temp_path("immediate");
        let sampler =
            Sampler::start(Target::File(path.clone()), Duration::from_secs(3600)).unwrap();
        sampler.stop().unwrap();
        let lines = read_lines(&path);
        assert!(lines.iter().any(|l| l.contains("\"final\":true")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stderr_target_and_spec_parsing() {
        assert_eq!(Target::from_spec("stderr"), Target::Stderr);
        assert_eq!(Target::from_spec("-"), Target::Stderr);
        assert_eq!(
            Target::from_spec("/tmp/t.ndjson"),
            Target::File(PathBuf::from("/tmp/t.ndjson"))
        );
        let sampler = Sampler::start(Target::Stderr, Duration::from_millis(50)).unwrap();
        sampler.stop().unwrap();
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
