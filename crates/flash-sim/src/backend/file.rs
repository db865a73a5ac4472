//! Real-I/O replay: executes the trace against a file or raw device.
//!
//! Where [`super::SimBackend`] owns *modeled* time, this backend owns
//! *measured* time: every read/write page command is issued as actual
//! I/O (io_uring where the kernel provides it, `pread`/`pwrite`
//! otherwise) and completions are stamped with wall-clock nanoseconds
//! from a run-local [`Instant`]. The probe hook stream has the same
//! shape as the simulator's — `CmdIssue` → `BusAcquire` → `BusRelease`
//! → `CmdComplete` per page — so `MetricsProbe`, SSDP captures, and
//! `ssdtrace summarize/diff` consume measured runs unchanged.
//!
//! Address mapping: each tenant owns a contiguous byte span of the
//! target sized `lpn_space × page_size`; LPNs wrap into the span the
//! same way the simulator masks them. Channel/unit attribution uses
//! static striping over the tenant's *current* channel set (scheduled
//! reallocations re-shape attribution mid-run, mirroring the keeper's
//! layout changes), so per-channel rollups remain meaningful even
//! though a real device hides its internal parallelism.
//!
//! Replay is closed-loop and as-fast-as-possible: trace arrival times
//! order requests and trigger reallocations but do not pace the I/O.
//! Latencies are therefore pure service times, which is what a
//! simulated-vs-measured distribution diff wants to compare.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::time::Instant;

use super::uring::{self, Uring};
use super::Backend;
use crate::config::SsdConfig;
use crate::event::CmdId;
use crate::ftl::alloc::{static_plane, PageAllocPolicy};
use crate::geometry::Geometry;
use crate::probe::{BusAcquire, BusRelease, CmdComplete, CmdIssue, Probe, ReallocApply};
use crate::request::{IoRequest, Op};
use crate::scheduler::CmdClass;
use crate::sim::{validate_reallocation, validate_trace, Reallocation, SimArena, SimError};
use crate::stats::{LatencyBreakdown, LatencyStats, SimReport, TenantReport};
use crate::tenant::{ChannelSet, TenantLayout};

/// Pages issued per io_uring batch (and ring size). One request's pages
/// are batched together up to this depth, mirroring the simulator's
/// page-parallel fan-out of a request.
const BATCH: u32 = 64;

/// Buffer alignment: covers `O_DIRECT`'s logical-block requirement on
/// every common device (and is harmless for buffered I/O).
const ALIGN: usize = 4096;

/// Which syscall engine executes the page commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    /// io_uring when available, `pread`/`pwrite` otherwise.
    Auto,
    /// io_uring or fail.
    Uring,
    /// `pread`/`pwrite` always.
    Pread,
}

/// A page-aligned, heap-allocated I/O buffer (`O_DIRECT`-compatible).
struct AlignedBuf {
    ptr: *mut u8,
    layout: std::alloc::Layout,
}

impl AlignedBuf {
    fn new(len: usize) -> Self {
        let layout = std::alloc::Layout::from_size_align(len.max(ALIGN), ALIGN)
            .expect("page size fits an aligned layout");
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "aligned I/O buffer allocation failed");
        Self { ptr, layout }
    }

    fn as_mut_ptr(&mut self) -> *mut u8 {
        self.ptr
    }

    fn as_mut_slice(&mut self, len: usize) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, len.min(self.layout.size())) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ptr, self.layout) };
    }
}

/// The real-I/O backend. Construct via
/// [`crate::SimBuilder::build_backend`] with
/// [`super::BackendKind::File`].
pub struct FileBackend {
    cfg: SsdConfig,
    geo: Geometry,
    layout: TenantLayout,
    path: PathBuf,
    reallocs: Vec<Reallocation>,
    engine: EngineChoice,
}

impl FileBackend {
    /// Validates the config and resolves the syscall engine.
    ///
    /// `SSDKEEPER_REPLAY_ENGINE=uring|pread` forces an engine; the
    /// default probes io_uring once and falls back to `pread`/`pwrite`.
    /// Preconditioning fills and command-slot limits from the builder do
    /// not apply to real I/O and are ignored.
    pub(crate) fn new(
        cfg: SsdConfig,
        layout: TenantLayout,
        path: PathBuf,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let engine = match std::env::var("SSDKEEPER_REPLAY_ENGINE").as_deref() {
            Ok("uring") => EngineChoice::Uring,
            Ok("pread") => EngineChoice::Pread,
            Ok(other) => {
                return Err(SimError::Io {
                    op: "engine selection",
                    reason: format!("unknown SSDKEEPER_REPLAY_ENGINE value `{other}`"),
                })
            }
            Err(_) => EngineChoice::Auto,
        };
        let geo = Geometry::new(&cfg);
        Ok(Self {
            cfg,
            geo,
            layout,
            path,
            reallocs: Vec::new(),
            engine,
        })
    }

    /// Byte offset of `lpn` (already reduced into the tenant's space)
    /// within tenant `t`'s span, given per-tenant base offsets.
    fn offset_of(&self, bases: &[u64], t: usize, lpn: u64) -> u64 {
        bases[t] + lpn * self.cfg.page_size as u64
    }
}

/// Per-page issue bookkeeping for one in-flight batch.
#[derive(Clone, Copy)]
struct PageIssue {
    issue_ns: u64,
    unit: u32,
    channel: u16,
    cmd: CmdId,
    class: CmdClass,
    tenant: u16,
}

impl Backend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn engine(&self) -> &'static str {
        match self.engine {
            EngineChoice::Auto => {
                if uring::available() {
                    "io_uring"
                } else {
                    "pread"
                }
            }
            EngineChoice::Uring => "io_uring",
            EngineChoice::Pread => "pread",
        }
    }

    fn schedule_reallocation(&mut self, realloc: Reallocation) -> Result<(), SimError> {
        validate_reallocation(
            &realloc,
            self.reallocs.last().map(|r| r.at_ns),
            self.layout.tenant_count(),
            self.cfg.channels,
        )?;
        self.reallocs.push(realloc);
        Ok(())
    }

    fn run(
        mut self: Box<Self>,
        trace: &[IoRequest],
        probe: &mut dyn Probe,
        _arena: &mut SimArena,
    ) -> Result<SimReport, SimError> {
        obs::span!("backend_file");
        validate_trace(trace, self.layout.tenant_count())?;
        let page = self.cfg.page_size;

        // Per-tenant contiguous spans; the target must hold all of them.
        let mut bases = Vec::with_capacity(self.layout.tenant_count());
        let mut total: u64 = 0;
        for t in 0..self.layout.tenant_count() {
            bases.push(total);
            total += self.layout.tenant(t).lpn_space * page as u64;
        }
        let io_err = |op: &'static str, e: std::io::Error| SimError::Io {
            op,
            reason: e.to_string(),
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
            .map_err(|e| io_err("open", e))?;
        let meta = file.metadata().map_err(|e| io_err("stat", e))?;
        if meta.file_type().is_file() && meta.len() < total {
            file.set_len(total).map_err(|e| io_err("set_len", e))?;
        }

        let mut ring = match self.engine {
            EngineChoice::Pread => None,
            EngineChoice::Uring => Some(Uring::new(BATCH).map_err(|reason| SimError::Io {
                op: "io_uring setup",
                reason,
            })?),
            EngineChoice::Auto => Uring::new(BATCH).ok(),
        };
        let batch_cap = ring.as_ref().map_or(1, |r| r.entries() as usize);
        let mut bufs: Vec<AlignedBuf> = (0..batch_cap).map(|_| AlignedBuf::new(page)).collect();

        let clock = Instant::now();
        let now_ns = |c: &Instant| c.elapsed().as_nanos() as u64;

        let mut tenants = vec![TenantReport::default(); self.layout.tenant_count()];
        let mut read = LatencyStats::new();
        let mut write = LatencyStats::new();
        let mut total_stats = LatencyStats::new();
        let mut read_breakdown = LatencyBreakdown::default();
        let mut write_breakdown = LatencyBreakdown::default();
        let mut bus_busy_ns = vec![0u64; self.geo.channels()];
        let mut phases = crate::stats::PhaseReport::default();
        let mut commands: u64 = 0;
        let mut next_cmd: u64 = 0;
        let mut next_realloc = 0usize;
        let mut batch: Vec<PageIssue> = Vec::with_capacity(batch_cap);

        for req in trace {
            // Reallocations keyed to trace time re-shape attribution the
            // moment the first request at/after their deadline replays.
            while next_realloc < self.reallocs.len()
                && self.reallocs[next_realloc].at_ns <= req.arrival_ns
            {
                let realloc = &self.reallocs[next_realloc];
                let at_ns = now_ns(&clock);
                for (tenant, channels, policy) in realloc.entries() {
                    let state = self.layout.tenant_mut(tenant);
                    state.channels = ChannelSet::new(channels, self.cfg.channels)
                        .expect("validated in schedule_reallocation");
                    if let Some(p) = policy {
                        state.policy = p;
                    }
                    let mut channel_mask = 0u64;
                    for &ch in state.channels.channels() {
                        channel_mask |= 1u64 << ch;
                    }
                    probe.on_realloc(&ReallocApply {
                        at_ns,
                        tenant: tenant as u16,
                        policy: match policy {
                            None => 0,
                            Some(PageAllocPolicy::Static) => 1,
                            Some(PageAllocPolicy::Dynamic) => 2,
                        },
                        channel_mask,
                    });
                }
                next_realloc += 1;
            }

            let t = req.tenant as usize;
            let state = self.layout.tenant(t);
            let space = state.lpn_space;
            let class = match req.op {
                Op::Read => CmdClass::Read,
                Op::Write => CmdClass::Write,
            };
            let req_start = now_ns(&clock);
            let mut req_done = req_start;

            let mut pages = req.pages().peekable();
            while pages.peek().is_some() {
                batch.clear();
                // Issue one batch of page commands.
                for (slot, lpn) in pages.by_ref().take(batch_cap).enumerate() {
                    let lpn = lpn % space;
                    let offset = self.offset_of(&bases, t, lpn);
                    let plane = static_plane(&self.geo, state, lpn);
                    let unit = if self.cfg.plane_parallelism {
                        plane as u32
                    } else {
                        self.geo.die_of_plane(plane) as u32
                    };
                    let channel = self.geo.channel_of_plane(plane) as u16;
                    let cmd = next_cmd as CmdId;
                    next_cmd = next_cmd.wrapping_add(1);
                    let issue_ns = now_ns(&clock);
                    probe.on_cmd_issue(&CmdIssue {
                        at_ns: issue_ns,
                        cmd,
                        tenant: req.tenant,
                        class,
                        gc: false,
                        unit,
                        channel,
                        queue_depth: (slot + 1) as u32,
                    });
                    probe.on_bus_acquire(&BusAcquire {
                        at_ns: issue_ns,
                        cmd,
                        channel,
                        waited_ns: 0,
                    });
                    batch.push(PageIssue {
                        issue_ns,
                        unit,
                        channel,
                        cmd,
                        class,
                        tenant: req.tenant,
                    });

                    let buf = &mut bufs[slot];
                    if req.op == Op::Write {
                        // Deterministic page image so replays are
                        // reproducible and reads have known content.
                        let tag = (lpn as u8) ^ (req.tenant as u8).wrapping_mul(31);
                        buf.as_mut_slice(page).fill(tag);
                    }
                    match (&mut ring, req.op) {
                        (Some(r), op) => {
                            let opcode = if op == Op::Read {
                                uring::OP_READ
                            } else {
                                uring::OP_WRITE
                            };
                            let pushed = r.push(
                                opcode,
                                file.as_raw_fd(),
                                buf.as_mut_ptr(),
                                page as u32,
                                offset,
                                slot as u64,
                            );
                            debug_assert!(pushed, "batch never exceeds ring entries");
                        }
                        (None, Op::Read) => {
                            file.read_exact_at(buf.as_mut_slice(page), offset)
                                .map_err(|e| io_err("read", e))?;
                        }
                        (None, Op::Write) => {
                            file.write_all_at(buf.as_mut_slice(page), offset)
                                .map_err(|e| io_err("write", e))?;
                        }
                    }
                }

                // Reap the batch. pread/pwrite completed inline above.
                if let Some(r) = &mut ring {
                    let mut pending = batch.len() as u32;
                    r.submit_and_wait(pending).map_err(|reason| SimError::Io {
                        op: "io_uring submit",
                        reason,
                    })?;
                    while pending > 0 {
                        match r.pop() {
                            Some((_slot, res)) if res == page as i32 => pending -= 1,
                            Some((slot, res)) => {
                                return Err(SimError::Io {
                                    op: "io_uring completion",
                                    reason: format!("page {slot} returned {res} (expected {page})"),
                                });
                            }
                            None => {
                                r.submit_and_wait(pending).map_err(|reason| SimError::Io {
                                    op: "io_uring wait",
                                    reason,
                                })?;
                            }
                        }
                    }
                }
                let done_ns = now_ns(&clock);
                req_done = req_done.max(done_ns);
                for p in &batch {
                    let latency = done_ns.saturating_sub(p.issue_ns);
                    probe.on_bus_release(&BusRelease {
                        at_ns: done_ns,
                        cmd: p.cmd,
                        channel: p.channel,
                        held_ns: latency,
                    });
                    probe.on_cmd_complete(&CmdComplete {
                        at_ns: done_ns,
                        cmd: p.cmd,
                        tenant: p.tenant,
                        class: p.class,
                        gc: false,
                        unit: p.unit,
                        channel: p.channel,
                        latency_ns: latency,
                    });
                    bus_busy_ns[p.channel as usize] += latency;
                    phases.transfer.record(latency);
                    phases.queue_depth.record(batch.len() as u64);
                    let breakdown = match p.class {
                        CmdClass::Read => &mut read_breakdown,
                        CmdClass::Write => &mut write_breakdown,
                    };
                    breakdown.transfer_ns += latency;
                    breakdown.cmds += 1;
                    commands += 1;
                }
            }

            let req_latency = req_done.saturating_sub(req_start);
            match req.op {
                Op::Read => {
                    tenants[t].read.record(req_latency);
                    read.record(req_latency);
                }
                Op::Write => {
                    tenants[t].write.record(req_latency);
                    write.record(req_latency);
                }
            }
            total_stats.record(req_latency);
        }

        Ok(SimReport {
            tenants,
            read,
            write,
            total: total_stats,
            ftl: Default::default(),
            wear: Default::default(),
            makespan_ns: now_ns(&clock),
            events_processed: commands,
            bus_busy_ns,
            read_breakdown,
            write_breakdown,
            gc_busy_ns: 0,
            phases,
        })
    }
}
