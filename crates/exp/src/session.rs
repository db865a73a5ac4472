//! Per-binary observability session: telemetry sampler + span export.
//!
//! Long-running `exp` binaries bracket their work in an [`ObsSession`]:
//! [`ObsSession::start`] resolves `--telemetry PATH` (or the
//! `SSDKEEPER_TELEMETRY` env var; `stderr`/`-` streams to stderr) into
//! a running NDJSON sampler and remembers `--spans PATH` (or
//! `SSDKEEPER_SPANS`); [`ObsSession::finish`] stops the sampler —
//! flushing the `"final":true` snapshot — and writes the merged span
//! tree as folded-stack lines for `ssdtrace flame`.
//!
//! The session is inert when neither source names a target, and prints
//! a warning when one does but the binary was built without
//! `--features host-trace` (the stream would carry no counters).
//! All session status goes to stderr, never stdout.

use obs::monitor::Sampler;

/// A started observability session. Dropping it without calling
/// [`ObsSession::finish`] still stops the sampler (panic-safe final
/// snapshot) but skips the span export.
pub struct ObsSession {
    sampler: Option<Sampler>,
    spans_path: Option<String>,
}

/// Environment variable naming the folded-span output path when no
/// `--spans` flag is given.
pub(crate) const SPANS_ENV: &str = "SSDKEEPER_SPANS";

impl ObsSession {
    /// Starts the sampler/span session from the parsed CLI flags.
    /// Exits with code 2 when a requested telemetry target cannot be
    /// opened (bad path is operator error, not a soft warning).
    pub fn start(args: &crate::args::Args) -> ObsSession {
        let telemetry = args.get_opt("telemetry");
        let spans_path = args
            .get_opt("spans")
            .map(String::from)
            .or_else(|| std::env::var(SPANS_ENV).ok().filter(|s| !s.is_empty()));
        let requested = telemetry.is_some()
            || std::env::var(obs::monitor::TELEMETRY_ENV).is_ok()
            || spans_path.is_some();
        if requested && !obs::ENABLED {
            eprintln!(
                "warning: telemetry/spans requested but this binary was built without \
                 host tracing; rebuild with `--features exp/host-trace` for real counters"
            );
        }
        let sampler = match Sampler::from_spec_or_env(telemetry) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("telemetry: cannot open target: {e}");
                std::process::exit(2);
            }
        };
        ObsSession {
            sampler,
            spans_path,
        }
    }

    /// Stops the sampler (final snapshot flushed) and writes the folded
    /// span file when one was requested. Failures are reported on
    /// stderr; span-export failure exits 2 so gates can trust the file.
    pub fn finish(mut self) {
        if let Some(sampler) = self.sampler.take() {
            if let Err(e) = sampler.stop() {
                eprintln!("telemetry: stream error: {e}");
            }
        }
        if let Some(path) = self.spans_path.take() {
            let stats = obs::spans::drain();
            if let Err(e) = std::fs::write(&path, stats.folded()) {
                eprintln!("spans: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("spans -> {path}");
        }
    }
}
