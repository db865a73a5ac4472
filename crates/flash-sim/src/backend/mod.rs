//! Execution backends: the command-execution layer behind one interface.
//!
//! The layer split is event core / *command execution* / policy. A
//! [`Backend`] owns command execution and timing for a run; everything
//! above it — the keeper's policy decisions, the [`Probe`] hook stream,
//! SSDP captures, `ssdtrace` analysis — is backend-agnostic:
//!
//! * [`SimBackend`] wraps the discrete-event [`crate::Simulator`]. It
//!   owns *modeled* time and is fully deterministic: same config, layout,
//!   trace, and reallocations → byte-identical reports and captures.
//! * [`crate::backend::FileBackend`] replays the same commands as real
//!   I/O against a file or raw device and owns *measured* wall-clock
//!   time: the I/O sequence is deterministic, the stamped latencies are
//!   whatever the hardware did.
//!
//! Construct either via [`crate::SimBuilder::build_backend`] with a
//! [`BackendKind`], schedule reallocations, then [`Backend::run`] with a
//! probe and a [`SimArena`]. The trait object erases the difference, which
//! is what lets the keeper act as a policy engine over interchangeable
//! execution layers.

mod file;
pub(crate) mod uring;

pub use file::FileBackend;
pub use uring::available as io_uring_available;

use std::path::PathBuf;

use crate::probe::Probe;
use crate::request::IoRequest;
use crate::sim::{validate_device, validate_reallocation, Reallocation, SimArena, SimError};
use crate::stats::SimReport;
use crate::SimBuilder;

/// One run's command-execution engine. Implementations are one-shot:
/// [`Backend::run`] consumes the backend, mirroring
/// [`crate::Simulator::run_reclaim`], so every report corresponds to a
/// fresh device state.
pub trait Backend {
    /// Stable backend identifier (`"sim"` or `"file"`).
    fn name(&self) -> &'static str;

    /// The timing engine in effect (`"sim"`, `"io_uring"`, `"pread"`).
    fn engine(&self) -> &'static str;

    /// Schedules a channel/policy re-allocation, validated eagerly with
    /// the same rules as [`crate::Simulator::schedule_reallocation`]
    /// (non-decreasing times, tenants in range, valid channel lists).
    fn schedule_reallocation(&mut self, realloc: Reallocation) -> Result<(), SimError>;

    /// Replays the trace to completion, emitting every hook to `probe`,
    /// and returns the end-of-run report. [`SimBackend`] builds its engine
    /// out of (and reclaims it back into) `arena`, so repeated runs are
    /// warm-allocation-free; backends whose run state is not arena-shaped
    /// (real-I/O replay) ignore it.
    fn run(
        self: Box<Self>,
        trace: &[IoRequest],
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<SimReport, SimError>;
}

/// Which backend a run should execute on. Parses from the CLI surface
/// `sim` / `file:<path>` shared by the `exp` binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Simulated timing (the default).
    #[default]
    Sim,
    /// Real I/O against a file or raw device at `path`.
    File {
        /// Target file or device the replay reads/writes.
        path: PathBuf,
    },
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Sim => write!(f, "sim"),
            BackendKind::File { path } => write!(f, "file:{}", path.display()),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "sim" {
            return Ok(BackendKind::Sim);
        }
        if let Some(path) = s.strip_prefix("file:") {
            if path.is_empty() {
                return Err("file backend needs a path: file:<path>".into());
            }
            return Ok(BackendKind::File {
                path: PathBuf::from(path),
            });
        }
        Err(format!(
            "unknown backend `{s}` (expected sim or file:<path>)"
        ))
    }
}

/// The simulated-timing backend: [`crate::Simulator`] behind the
/// [`Backend`] interface. Holds the [`SimBuilder`] and defers the build to
/// [`Backend::run`] (the probe and arena arrive there), but validates
/// config and capacity eagerly so errors surface at build time, exactly as
/// [`SimBuilder::build_with_arena`] would.
pub struct SimBackend {
    builder: SimBuilder,
    reallocs: Vec<Reallocation>,
}

impl SimBackend {
    pub(crate) fn new(builder: SimBuilder) -> Result<Self, SimError> {
        validate_device(&builder.cfg, &builder.layout)?;
        Ok(Self {
            builder,
            reallocs: Vec::new(),
        })
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn engine(&self) -> &'static str {
        "sim"
    }

    fn schedule_reallocation(&mut self, realloc: Reallocation) -> Result<(), SimError> {
        validate_reallocation(
            &realloc,
            self.reallocs.last().map(|r| r.at_ns),
            self.builder.layout.tenant_count(),
            self.builder.cfg.channels,
        )?;
        self.reallocs.push(realloc);
        Ok(())
    }

    fn run(
        self: Box<Self>,
        trace: &[IoRequest],
        probe: &mut dyn Probe,
        arena: &mut SimArena,
    ) -> Result<SimReport, SimError> {
        // `&mut dyn Probe` is itself a Probe (forwarding impl), so this
        // monomorphizes to exactly the engine the keeper always ran —
        // golden digests and SSDP captures stay byte-identical.
        obs::span!("backend_sim");
        let mut sim = self.builder.probe(probe).build_with_arena(arena)?;
        for r in self.reallocs {
            sim.schedule_reallocation(r)?;
        }
        sim.run_reclaim(trace, arena)
    }
}

impl SimBuilder {
    /// Finishes the builder as a boxed [`Backend`] of the given kind
    /// instead of a concrete [`crate::Simulator`]. The probe attaches at
    /// [`Backend::run`] time; this is only available on a builder that
    /// has not taken a probe, so one can't be silently dropped.
    ///
    /// Preconditioning fills and command-slot limits apply to the sim
    /// backend only; the file backend performs real I/O and ignores
    /// them.
    pub fn build_backend(self, kind: &BackendKind) -> Result<Box<dyn Backend>, SimError> {
        match kind {
            BackendKind::Sim => Ok(Box::new(SimBackend::new(self)?)),
            BackendKind::File { path } => Ok(Box::new(FileBackend::new(
                self.cfg,
                self.layout,
                path.clone(),
            )?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_displays() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        let f: BackendKind = "file:/tmp/replay.img".parse().unwrap();
        assert_eq!(
            f,
            BackendKind::File {
                path: PathBuf::from("/tmp/replay.img")
            }
        );
        assert_eq!(f.to_string(), "file:/tmp/replay.img");
        assert_eq!(BackendKind::Sim.to_string(), "sim");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn backend_kind_rejects_garbage() {
        assert!("flash".parse::<BackendKind>().is_err());
        assert!("file:".parse::<BackendKind>().is_err());
        let err = "banana".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("banana"), "{err}");
    }
}
