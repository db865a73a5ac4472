//! The discrete-event simulation engine.
//!
//! # Command lifecycle
//!
//! Every host request fans out into page-granular commands at arrival. A
//! command serializes through phases, holding its **die** end-to-end and
//! the **channel bus** only during transfer phases:
//!
//! ```text
//! read:  [wait die] → array read (die) → [wait bus] → transfer out (bus+die) → done
//! write: [wait die] → [wait bus] → transfer in (bus+die) → program (die) → done
//! gc:    [wait die] → composite move+erase (die) → done
//! ```
//!
//! Two chips on one channel can overlap array operations but not
//! transfers — the multilevel parallelism SSDSim models and the SSDKeeper
//! paper exploits. Reads outrank writes at both resources with a bounded
//! bypass (see [`crate::scheduler`]).
//!
//! # Mid-run channel re-allocation
//!
//! [`Simulator::schedule_reallocation`] registers a layout change that takes
//! effect at a given simulated time, which is how SSDKeeper's Algorithm 2
//! (observe under `Shared`, predict at `t == T`, then switch) is executed.
//! Only *new writes* follow the new channel sets; reads keep following the
//! mapping table, like on a real device.

use crate::config::{ConfigError, SsdConfig};
use crate::event::{CmdId, EventKind, EventQueue, ReqId};
use crate::ftl::alloc::{self, PageAllocPolicy};
use crate::ftl::wear::wear_summary;
use crate::ftl::{Ftl, FtlError};
use crate::geometry::Geometry;
use crate::probe::{
    BusAcquire, BusRelease, CmdComplete, CmdIssue, GcCollect, NullProbe, Probe, ReallocApply,
};
use crate::request::{IoRequest, Op};
use crate::scheduler::{BusSched, CmdClass, DieSched};
use crate::stats::{LatencyBreakdown, LatencyStats, PhaseReport, SimReport, TenantReport};
use crate::tenant::{ChannelSet, TenantLayout};

/// Sentinel request id for internal (GC) commands.
const NO_REQ: ReqId = ReqId::MAX;

/// Phase of an in-flight command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Read: die is executing the array read.
    ArrayRead,
    /// Read: array done, waiting for the bus.
    WaitBusRead,
    /// Read: transferring data out on the bus.
    XferRead,
    /// Write: holding the die, waiting for the bus.
    WaitBusWrite,
    /// Write: transferring data in on the bus.
    XferWrite,
    /// Write: die is programming the page.
    Program,
    /// GC: die executing the composite move+erase charge.
    GcExec,
}

impl Phase {
    /// Scheduling class: reads stay in the read class through their
    /// transfer; writes and GC are the write class.
    #[inline]
    fn class(self) -> CmdClass {
        match self {
            Phase::ArrayRead | Phase::WaitBusRead | Phase::XferRead => CmdClass::Read,
            _ => CmdClass::Write,
        }
    }
}

/// A command from spawn to retirement: it waits in its unit's queue,
/// then sits in [`DieSched::cur`] until it retires. The unit and its
/// channel are the scheduler slot's own, and the class follows from the
/// phase.
///
/// Packed to 28 bytes at 4-byte alignment; a queue entry is the record
/// alone.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct UnitCmd {
    /// When the command entered its unit queue.
    t_spawn: u64,
    /// Composite duration for GC commands, 0 otherwise.
    gc_ns: u64,
    id: CmdId,
    req: ReqId,
    /// Tenant served; GC commands carry the triggering write's tenant.
    tenant: u16,
    phase: Phase,
}

const _: () = assert!(std::mem::size_of::<UnitCmd>() == 28);

/// Free list of [`CmdId`]s. An id is taken when a command spawns and
/// returned after its last `release_die`, so ids in flight stay unique
/// and the id space plateaus at the peak in-flight depth.
#[derive(Debug)]
struct CmdIds {
    /// Ids handed out so far; the next fresh id.
    next: CmdId,
    /// Retired ids, reused LIFO by [`CmdIds::alloc`]. Recycling ids is
    /// safe because every scheduler queue orders by push order,
    /// never by `CmdId` value.
    free: Vec<CmdId>,
    /// Upper bound on ids (defaults to the full id space; tests shrink it
    /// to force exhaustion).
    limit: CmdId,
}

impl Default for CmdIds {
    fn default() -> Self {
        Self {
            next: 0,
            free: Vec::new(),
            limit: CmdId::MAX,
        }
    }
}

impl CmdIds {
    /// Takes a recycled (or fresh) id; a depth beyond `limit` is a
    /// checked error.
    #[inline]
    fn alloc(&mut self) -> Result<CmdId, SimError> {
        if let Some(id) = self.free.pop() {
            return Ok(id);
        }
        if self.next >= self.limit {
            return Err(SimError::CmdIdsExhausted { limit: self.limit });
        }
        let id = self.next;
        self.next += 1;
        // The free list holds at most one entry per id; growing it in
        // step keeps `free` allocation-free, so retiring commands in the
        // steady-state loop never touches the heap.
        if self.free.capacity() < self.next as usize {
            self.free.reserve(self.next as usize - self.free.len());
        }
        Ok(id)
    }

    /// Returns a retired command's id. Must only be called once per
    /// command, after its last use of the id.
    #[inline]
    fn free(&mut self, id: CmdId) {
        self.free.push(id);
    }

    /// Forgets every id (keeping the free list's capacity) and lifts any
    /// test-imposed limit.
    fn reset(&mut self) {
        self.next = 0;
        self.free.clear();
        self.limit = CmdId::MAX;
    }
}

#[derive(Debug, Clone, Copy)]
struct ReqState {
    arrival_ns: u64,
    remaining: u32,
    tenant: u16,
    op: Op,
}

/// One per-tenant row of a [`Reallocation`]: the channel list lives as a
/// `(start, len)` span into the reallocation's flat channel table, so a
/// schedule of N entries is two allocations, not N+1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReallocEntry {
    tenant: u32,
    /// Start of this entry's channel span in `Reallocation::channels`.
    start: u32,
    /// Length of the channel span.
    len: u32,
    policy: Option<PageAllocPolicy>,
}

/// One pending layout change.
///
/// Construct with [`Reallocation::new`]; entries are stored as spans over
/// one flat channel table and read back through
/// [`Reallocation::entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reallocation {
    /// Simulated time at which the change applies.
    pub at_ns: u64,
    entries: Vec<ReallocEntry>,
    /// Concatenated channel lists of all entries, addressed by the spans.
    channels: Vec<usize>,
}

impl Reallocation {
    /// Builds a reallocation applying at `at_ns` from `(tenant index,
    /// channels, policy)` rows, flattening the per-row channel lists into
    /// one table.
    pub fn new<C>(
        at_ns: u64,
        rows: impl IntoIterator<Item = (usize, C, Option<PageAllocPolicy>)>,
    ) -> Self
    where
        C: AsRef<[usize]>,
    {
        let mut entries = Vec::new();
        let mut channels = Vec::new();
        for (tenant, list, policy) in rows {
            let list = list.as_ref();
            let start = channels.len() as u32;
            channels.extend_from_slice(list);
            entries.push(ReallocEntry {
                tenant: tenant as u32,
                start,
                len: list.len() as u32,
                policy,
            });
        }
        Self {
            at_ns,
            entries,
            channels,
        }
    }

    /// Iterates the `(tenant index, channels, policy)` rows in the order
    /// they were given to [`Reallocation::new`].
    pub fn entries(&self) -> impl Iterator<Item = (usize, &[usize], Option<PageAllocPolicy>)> + '_ {
        self.entries.iter().map(move |e| {
            (
                e.tenant as usize,
                &self.channels[e.start as usize..(e.start + e.len) as usize],
                e.policy,
            )
        })
    }
}

/// Errors surfaced by [`Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid hardware configuration.
    Config(ConfigError),
    /// FTL failure during the run (e.g. a plane filled up).
    Ftl(FtlError),
    /// The trace is not sorted by arrival time.
    TraceNotSorted {
        /// Index of the first out-of-order request.
        index: usize,
    },
    /// A request names a tenant outside the layout.
    UnknownTenant {
        /// Index of the offending request.
        index: usize,
        /// The tenant id it carried.
        tenant: u16,
    },
    /// A request has zero pages.
    EmptyRequest {
        /// Index of the offending request.
        index: usize,
    },
    /// The tenants' logical spaces cannot fit the planes they stripe over.
    CapacityExceeded {
        /// Flat plane index that would overflow.
        plane: usize,
        /// Logical pages that map onto the plane.
        required: u64,
        /// Usable physical pages on the plane.
        available: u64,
    },
    /// A scheduled reallocation is invalid (bad tenant or channel list).
    BadReallocation {
        /// Explanation.
        reason: String,
    },
    /// A tenant layout could not be constructed (e.g. a strategy's channel
    /// lists reference channels outside the device).
    BadLayout {
        /// Explanation.
        reason: String,
    },
    /// The engine ran out of `CmdId`s: more commands were in flight at
    /// once than the id space can name. With id recycling this only
    /// happens at a forced (test) limit or a truly absurd in-flight
    /// depth — it is a checked error, never a silent wrap.
    CmdIdsExhausted {
        /// The id limit when it overflowed.
        limit: u32,
    },
    /// The trace holds more requests than the `ReqId` space can name
    /// (the top id is reserved as the internal GC sentinel).
    ReqIdsExhausted {
        /// Largest admissible request count.
        max_requests: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Ftl(e) => write!(f, "FTL error: {e}"),
            SimError::TraceNotSorted { index } => {
                write!(f, "trace not sorted by arrival at index {index}")
            }
            SimError::UnknownTenant { index, tenant } => {
                write!(f, "request {index} names unknown tenant {tenant}")
            }
            SimError::EmptyRequest { index } => write!(f, "request {index} has zero pages"),
            SimError::CapacityExceeded {
                plane,
                required,
                available,
            } => write!(
                f,
                "plane {plane} would hold {required} logical pages but only {available} fit"
            ),
            SimError::BadReallocation { reason } => write!(f, "bad reallocation: {reason}"),
            SimError::BadLayout { reason } => write!(f, "bad layout: {reason}"),
            SimError::CmdIdsExhausted { limit } => {
                write!(f, "command arena exhausted: {limit} slots all in flight")
            }
            SimError::ReqIdsExhausted { max_requests } => {
                write!(f, "trace too long: at most {max_requests} requests per run")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<FtlError> for SimError {
    fn from(e: FtlError) -> Self {
        SimError::Ftl(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Validates a trace against the engine's admission rules — sorted by
/// arrival, tenants within `tenant_count`, at least one page per
/// request. [`Simulator::run_reclaim`] runs it before simulating
/// anything.
pub fn validate_trace(trace: &[IoRequest], tenant_count: usize) -> Result<(), SimError> {
    let mut prev = 0u64;
    for (i, r) in trace.iter().enumerate() {
        if r.arrival_ns < prev {
            return Err(SimError::TraceNotSorted { index: i });
        }
        prev = r.arrival_ns;
        if r.tenant as usize >= tenant_count {
            return Err(SimError::UnknownTenant {
                index: i,
                tenant: r.tenant,
            });
        }
        if r.size_pages == 0 {
            return Err(SimError::EmptyRequest { index: i });
        }
    }
    Ok(())
}

/// The trace-driven SSD simulator.
///
/// Build one per run with [`SimBuilder::build_with_arena`]:
/// [`Simulator::run_reclaim`] consumes the instance so that every report
/// corresponds to a device that started empty (plus lazy read seeding and
/// any preconditioning fill).
///
/// The engine is generic over a [`Probe`] sink; the default [`NullProbe`]
/// monomorphizes every hook into nothing, so un-probed runs carry no
/// observability cost. Attach a probe (e.g. `&mut EventRecorder`) via
/// [`SimBuilder::probe`].
#[derive(Debug)]
pub struct Simulator<P: Probe = NullProbe> {
    cfg: SsdConfig,
    geo: Geometry,
    layout: TenantLayout,
    ftl: Ftl,
    units: Vec<DieSched<UnitCmd>>,
    buses: Vec<BusSched>,
    events: EventQueue,
    cmd_ids: CmdIds,
    reqs: Vec<ReqState>,
    realloc: Vec<Reallocation>,
    next_realloc: usize,
    /// Application time of `realloc[next_realloc]` (`u64::MAX` when none
    /// remain), so the hot loop pays one compare instead of a scan.
    next_realloc_at: u64,
    transfer_ns: u64,
    // Accumulators.
    tenants: Vec<TenantReport>,
    read: LatencyStats,
    write: LatencyStats,
    total: LatencyStats,
    makespan_ns: u64,
    events_processed: u64,
    backlog_scratch: Vec<u32>,
    bus_busy_ns: Vec<u64>,
    /// Per-tenant requests currently dispatched to the device.
    in_flight: Vec<u32>,
    /// Intrusive singly-linked successor table backing the per-tenant
    /// host-side FIFOs: one slot per trace request, `NO_REQ` terminated.
    /// Replaces a `VecDeque` per tenant with one flat buffer.
    host_next: Vec<ReqId>,
    /// Head of each tenant's host-side FIFO (`NO_REQ` when empty).
    hq_head: Vec<ReqId>,
    /// Tail of each tenant's host-side FIFO (`NO_REQ` when empty).
    hq_tail: Vec<ReqId>,
    read_breakdown: LatencyBreakdown,
    write_breakdown: LatencyBreakdown,
    gc_busy_ns: u64,
    // Boxed: ~1.6 KiB of histogram buckets would otherwise sit inline in
    // the hot Simulator struct and measurably slow the event loop.
    phases: Box<PhaseReport>,
    probe: P,
}

/// The one way to construct a [`Simulator`]: config + layout, then
/// optional preconditioning fill, command-slot limit, and probe, then
/// [`SimBuilder::build_with_arena`]. A fresh [`SimArena`] is the cold
/// path; [`Simulator::run_reclaim`] runs the trace.
///
/// ```
/// # use flash_sim::{SimArena, SimBuilder, SsdConfig, TenantLayout};
/// let cfg = SsdConfig::small_test();
/// let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
/// let mut arena = SimArena::new();
/// let sim = SimBuilder::new(cfg, layout)
///     .precondition(&[0.5])
///     .build_with_arena(&mut arena)
///     .unwrap();
/// let report = sim.run_reclaim(&[], &mut arena).unwrap();
/// # let _ = report;
/// ```
#[derive(Debug)]
pub struct SimBuilder<P: Probe = NullProbe> {
    pub(crate) cfg: SsdConfig,
    pub(crate) layout: TenantLayout,
    fill_fractions: Vec<f64>,
    cmd_slot_limit: Option<u32>,
    probe: P,
}

impl SimBuilder {
    /// Starts a builder with no preconditioning, the full command-id
    /// space, and the zero-cost [`NullProbe`].
    pub fn new(cfg: SsdConfig, layout: TenantLayout) -> Self {
        Self {
            cfg,
            layout,
            fill_fractions: Vec::new(),
            cmd_slot_limit: None,
            probe: NullProbe,
        }
    }
}

impl<P: Probe> SimBuilder<P> {
    /// Preconditions the device at build time: marks the first
    /// `fill_fraction` of each tenant's logical space as already written
    /// (statically striped, zero simulated time), so the measured run
    /// starts from a filled device instead of a factory-fresh one —
    /// standard SSD evaluation methodology. Preconditioned pages appear
    /// in [`crate::ftl::FtlStats::seeded_pages`]. Fractions are clamped
    /// to `[0, 1]`.
    pub fn precondition(mut self, fill_fractions: &[f64]) -> Self {
        self.fill_fractions = fill_fractions.to_vec();
        self
    }

    /// Caps the commands in flight at once at `limit` ids (exercises
    /// [`SimError::CmdIdsExhausted`] without 2^32 live commands).
    pub fn cmd_slot_limit(mut self, limit: u32) -> Self {
        self.cmd_slot_limit = Some(limit);
        self
    }

    /// Attaches a probe. Pass `&mut recorder` to keep the recorder after
    /// [`Simulator::run_reclaim`] consumes the simulator.
    pub fn probe<Q: Probe>(self, probe: Q) -> SimBuilder<Q> {
        SimBuilder {
            cfg: self.cfg,
            layout: self.layout,
            fill_fractions: self.fill_fractions,
            cmd_slot_limit: self.cmd_slot_limit,
            probe,
        }
    }

    /// Validates the configuration and constructs the simulator, drawing
    /// every run-path buffer from `arena`: buffers recycled from a previous
    /// run (see [`Simulator::run_reclaim`]) are reset in place instead of
    /// reallocated, so warm rebuilds allocate nothing; buffers whose shape
    /// no longer matches are rebuilt. A fresh [`SimArena`] is the cold
    /// build.
    ///
    /// Fails when the configuration is invalid or when the tenants'
    /// logical spaces would statically overflow the planes they stripe
    /// over (see [`SimError::CapacityExceeded`]).
    pub fn build_with_arena(self, arena: &mut SimArena) -> Result<Simulator<P>, SimError> {
        let SimBuilder {
            cfg,
            layout,
            fill_fractions,
            cmd_slot_limit,
            probe,
        } = self;
        cfg.validate()?;
        // Reuse the previous run's geometry when the dimensions match, so
        // the warm path skips rebuilding its coordinate tables.
        let geo = match arena.parts.geo.take() {
            Some(g) if g.matches(&cfg) => g,
            _ => Geometry::new(&cfg),
        };
        {
            // Validation runs before any buffer leaves the arena, so an
            // error here cannot strand its contents. The demand scratch
            // stays inside the arena: it is build-time-only state.
            let scratch = &mut arena.parts.capacity_scratch;
            check_capacity(&cfg, &geo, &layout, scratch)?;
        }
        let p = &mut arena.parts;
        let ftl = match p.ftl.take() {
            Some(mut f) => {
                if f.reset(&cfg, &layout) {
                    f
                } else {
                    Ftl::new(&cfg, &layout)
                }
            }
            None => Ftl::new(&cfg, &layout),
        };
        let tenant_count = layout.tenant_count();
        let unit_count = if cfg.plane_parallelism {
            geo.total_planes()
        } else {
            geo.total_dies()
        };
        let mut units = std::mem::take(&mut p.units);
        units.resize_with(unit_count, DieSched::default);
        for (unit, d) in units.iter_mut().enumerate() {
            let channel = if cfg.plane_parallelism {
                geo.channel_of_plane(unit)
            } else {
                geo.channel_of_die(unit)
            };
            d.reset(channel as u16);
        }
        let mut buses = std::mem::take(&mut p.buses);
        for b in &mut buses {
            b.reset();
        }
        buses.resize_with(geo.channels(), BusSched::default);
        let transfer_ns = cfg.page_transfer_ns();
        // One lane per fixed delay the engine schedules: read sense,
        // program, page transfer, and the immediate host admit; GC ops go
        // to the heap. A unit holds at most one pending die or bus event,
        // so each lane and the heap reserve units + channels up front and
        // the run loop never grows them.
        let mut events = std::mem::take(&mut p.events);
        events.reset_lanes(
            &[cfg.read_latency_ns, cfg.write_latency_ns, transfer_ns, 0],
            unit_count + geo.channels(),
        );
        let mut cmd_ids = std::mem::take(&mut p.cmd_ids);
        cmd_ids.reset();
        let mut reqs = std::mem::take(&mut p.reqs);
        reqs.clear();
        let mut realloc = std::mem::take(&mut p.realloc);
        realloc.clear();
        let mut backlog_scratch = std::mem::take(&mut p.backlog_scratch);
        backlog_scratch.clear();
        backlog_scratch.resize(geo.total_planes(), 0);
        let mut in_flight = std::mem::take(&mut p.in_flight);
        in_flight.clear();
        in_flight.resize(tenant_count, 0);
        let mut host_next = std::mem::take(&mut p.host_next);
        host_next.clear();
        let mut hq_head = std::mem::take(&mut p.hq_head);
        hq_head.clear();
        hq_head.resize(tenant_count, NO_REQ);
        let mut hq_tail = std::mem::take(&mut p.hq_tail);
        hq_tail.clear();
        hq_tail.resize(tenant_count, NO_REQ);
        let mut phases = p.phases.take().unwrap_or_default();
        *phases = PhaseReport::default();
        let mut tenants = std::mem::take(&mut arena.spare_tenants);
        tenants.clear();
        tenants.resize(tenant_count, TenantReport::default());
        let mut bus_busy_ns = std::mem::take(&mut arena.spare_bus_busy);
        bus_busy_ns.clear();
        bus_busy_ns.resize(geo.channels(), 0);
        let mut sim = Simulator {
            units,
            buses,
            events,
            cmd_ids,
            reqs,
            realloc,
            next_realloc: 0,
            next_realloc_at: u64::MAX,
            transfer_ns,
            tenants,
            read: LatencyStats::new(),
            write: LatencyStats::new(),
            total: LatencyStats::new(),
            makespan_ns: 0,
            events_processed: 0,
            backlog_scratch,
            bus_busy_ns,
            in_flight,
            host_next,
            hq_head,
            hq_tail,
            read_breakdown: LatencyBreakdown::default(),
            write_breakdown: LatencyBreakdown::default(),
            gc_busy_ns: 0,
            phases,
            probe,
            cfg,
            geo,
            layout,
            ftl,
        };
        if let Some(limit) = cmd_slot_limit {
            sim.cmd_ids.limit = limit;
        }
        if !fill_fractions.is_empty() {
            sim.precondition(&fill_fractions)?;
        }
        Ok(sim)
    }
}

/// Recyclable allocation pool for repeated [`Simulator`] runs.
///
/// A build from a fresh arena allocates the FTL mapping tables, the
/// command-id free list, the event queue, and every queue from scratch; a build
/// from a used one resets the buffers [`Simulator::run_reclaim`] handed
/// back in place, so a warm
/// build + run performs zero heap allocations when the device shape is
/// unchanged (a changed shape transparently rebuilds what no longer
/// fits). Reports can be recycled too via [`SimArena::recycle_report`].
///
/// Reuse never changes results: a simulator built from a used arena is
/// observationally identical to a fresh one — same report, same probe
/// stream, byte for byte.
///
/// ```
/// # use flash_sim::{SimArena, SimBuilder, SsdConfig, TenantLayout};
/// let cfg = SsdConfig::small_test();
/// let mk_layout = || TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
/// let mut arena = SimArena::new();
/// for _ in 0..3 {
///     let sim = SimBuilder::new(cfg.clone(), mk_layout())
///         .build_with_arena(&mut arena)
///         .unwrap();
///     let report = sim.run_reclaim(&[], &mut arena).unwrap();
///     arena.recycle_report(report);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimArena {
    parts: ArenaParts,
    /// Per-tenant report buffer salvaged by [`SimArena::recycle_report`].
    spare_tenants: Vec<TenantReport>,
    /// Per-channel busy-time buffer salvaged by
    /// [`SimArena::recycle_report`].
    spare_bus_busy: Vec<u64>,
}

/// The simulator's run-path buffers between runs. Every field mirrors a
/// [`Simulator`] field (or build-time scratch) and is reset — never
/// reallocated — when the next build draws from it.
#[derive(Debug, Default)]
struct ArenaParts {
    geo: Option<Geometry>,
    ftl: Option<Ftl>,
    units: Vec<DieSched<UnitCmd>>,
    buses: Vec<BusSched>,
    events: EventQueue,
    cmd_ids: CmdIds,
    reqs: Vec<ReqState>,
    realloc: Vec<Reallocation>,
    backlog_scratch: Vec<u32>,
    in_flight: Vec<u32>,
    host_next: Vec<ReqId>,
    hq_head: Vec<ReqId>,
    hq_tail: Vec<ReqId>,
    phases: Option<Box<PhaseReport>>,
    /// Build-time scratch for [`check_capacity`]'s per-plane demand.
    capacity_scratch: Vec<u64>,
}

impl SimArena {
    /// Creates an empty arena; the first build from it is a cold build.
    pub fn new() -> Self {
        Self::default()
    }

    /// Salvages a finished report's heap buffers for the next run, so
    /// repeated build/run/report cycles reach a steady state with no
    /// allocation at all. Keeps whichever buffers have the most capacity.
    pub fn recycle_report(&mut self, report: SimReport) {
        let SimReport {
            mut tenants,
            mut bus_busy_ns,
            ..
        } = report;
        tenants.clear();
        if tenants.capacity() > self.spare_tenants.capacity() {
            self.spare_tenants = tenants;
        }
        bus_busy_ns.clear();
        if bus_busy_ns.capacity() > self.spare_bus_busy.capacity() {
            self.spare_bus_busy = bus_busy_ns;
        }
    }

    /// Takes a finished simulator's buffers back into the arena.
    fn reclaim<P: Probe>(&mut self, sim: Simulator<P>) {
        let Simulator {
            geo,
            ftl,
            units,
            buses,
            events,
            cmd_ids,
            reqs,
            realloc,
            mut tenants,
            backlog_scratch,
            mut bus_busy_ns,
            in_flight,
            host_next,
            hq_head,
            hq_tail,
            phases,
            ..
        } = sim;
        self.parts.geo = Some(geo);
        self.parts.ftl = Some(ftl);
        self.parts.units = units;
        self.parts.buses = buses;
        self.parts.events = events;
        self.parts.cmd_ids = cmd_ids;
        self.parts.reqs = reqs;
        self.parts.realloc = realloc;
        self.parts.backlog_scratch = backlog_scratch;
        self.parts.in_flight = in_flight;
        self.parts.host_next = host_next;
        self.parts.hq_head = hq_head;
        self.parts.hq_tail = hq_tail;
        self.parts.phases = Some(phases);
        // The report build stole these via mem::take when the run
        // completed; after an error they still hold capacity worth keeping.
        tenants.clear();
        if tenants.capacity() > self.spare_tenants.capacity() {
            self.spare_tenants = tenants;
        }
        bus_busy_ns.clear();
        if bus_busy_ns.capacity() > self.spare_bus_busy.capacity() {
            self.spare_bus_busy = bus_busy_ns;
        }
    }
}

impl<P: Probe> Simulator<P> {
    /// Schedules a channel/policy re-allocation to apply at `at_ns`.
    ///
    /// Multiple reallocations may be scheduled; they must be registered in
    /// non-decreasing time order.
    pub fn schedule_reallocation(&mut self, realloc: Reallocation) -> Result<(), SimError> {
        if let Some(last) = self.realloc.last().map(|r| r.at_ns) {
            if realloc.at_ns < last {
                return Err(SimError::BadReallocation {
                    reason: format!(
                        "reallocation at {} scheduled after one at {}",
                        realloc.at_ns, last
                    ),
                });
            }
        }
        for (tenant, list, _) in realloc.entries() {
            if tenant >= self.layout.tenant_count() {
                return Err(SimError::BadReallocation {
                    reason: format!("tenant {tenant} out of range"),
                });
            }
            if ChannelSet::new(list, self.cfg.channels).is_none() {
                return Err(SimError::BadReallocation {
                    reason: format!("invalid channel list {list:?} for tenant {tenant}"),
                });
            }
        }
        self.realloc.push(realloc);
        Ok(())
    }

    /// Applies [`SimBuilder::precondition`]'s fill.
    fn precondition(&mut self, fill_fractions: &[f64]) -> Result<(), SimError> {
        for (tenant, &frac) in fill_fractions.iter().enumerate() {
            if tenant >= self.layout.tenant_count() {
                break;
            }
            let space = self.layout.tenant(tenant).lpn_space;
            let fill = ((space as f64) * frac.clamp(0.0, 1.0)) as u64;
            for lpn in 0..fill {
                self.ftl.translate_read(tenant as u16, lpn, &self.layout)?;
            }
        }
        Ok(())
    }

    /// Runs the trace to completion and returns the report, then returns
    /// the simulator's buffers to `arena` for the next
    /// [`SimBuilder::build_with_arena`]. Reclaims on error exits too, so a
    /// failed run still recycles its allocations.
    ///
    /// Requirements on the trace: sorted by `arrival_ns`, tenant ids within
    /// the layout, and `size_pages >= 1` everywhere.
    pub fn run_reclaim(
        mut self,
        trace: &[IoRequest],
        arena: &mut SimArena,
    ) -> Result<SimReport, SimError> {
        let result = self.run_inner(trace);
        arena.reclaim(self);
        result
    }

    fn run_inner(&mut self, trace: &[IoRequest]) -> Result<SimReport, SimError> {
        // The top ReqId is the internal GC sentinel; request ids must stay
        // strictly below it.
        if trace.len() > NO_REQ as usize {
            return Err(SimError::ReqIdsExhausted {
                max_requests: NO_REQ as u64,
            });
        }
        self.validate_trace(trace)?;
        self.reqs.clear();
        self.reqs.extend(trace.iter().map(|r| ReqState {
            arrival_ns: r.arrival_ns,
            remaining: r.size_pages,
            tenant: r.tenant,
            op: r.op,
        }));
        // One FIFO-successor slot per request (see `host_next`).
        self.host_next.clear();
        self.host_next.resize(trace.len(), NO_REQ);
        self.next_realloc_at = self.realloc.first().map_or(u64::MAX, |r| r.at_ns);

        // Arrivals are never heaped: the validated-sorted trace is its own
        // queue, and a cursor over it merges against the event queue at pop
        // time, keeping the pending set at O(in-flight) instead of O(trace).
        // Arrivals win time ties (`pop_before` is exclusive) and order among
        // themselves by trace index — exactly the order up-front sequence
        // numbers 0..n-1 would give them if every arrival were heaped
        // before any dynamic event (whose seq would then be >= n).
        let mut next_arrival: usize = 0;
        // Host-side telemetry tallies, kept in locals and flushed to the
        // obs registry after the loop (plus a periodic flush so a live
        // monitor sees progress). Every touch is gated on the
        // compile-time `obs::ENABLED` const, so the disabled build is
        // bit-for-bit the uninstrumented loop.
        obs::span!("sim_run");
        let mut tel_arrivals: u64 = 0;
        loop {
            let (time, kind) = if next_arrival < trace.len() {
                let at = trace[next_arrival].arrival_ns;
                match self.events.pop_before(at) {
                    Some(ev) => (ev.time, ev.kind),
                    None => {
                        self.events.advance_to(at);
                        let r = next_arrival as ReqId;
                        next_arrival += 1;
                        if obs::ENABLED {
                            tel_arrivals += 1;
                        }
                        (at, EventKind::Arrive(r))
                    }
                }
            } else {
                match self.events.pop() {
                    Some(ev) => (ev.time, ev.kind),
                    None => break,
                }
            };
            self.events_processed += 1;
            if obs::ENABLED && self.events_processed & 0xFFFF == 0 {
                obs::counter_add!("sim.events", 0x1_0000u64);
            }
            if time >= self.next_realloc_at {
                self.apply_reallocations(time);
            }
            match kind {
                EventKind::Arrive(r) => {
                    let tenant = trace[r as usize].tenant as usize;
                    let qd = self.cfg.host_queue_depth;
                    if qd > 0 && self.in_flight[tenant] >= qd {
                        self.host_enqueue(tenant, r);
                    } else {
                        self.in_flight[tenant] += 1;
                        self.on_arrive(r, trace, time)?;
                    }
                }
                EventKind::Admit(r) => self.on_arrive(r, trace, time)?,
                EventKind::DieOpDone(unit) => self.on_die_done(unit as usize, time),
                EventKind::BusDone(unit) => self.on_bus_done(unit as usize, time),
            }
        }

        debug_assert!(self.units.iter().all(|d| !d.busy() && d.queue.is_empty()));
        debug_assert!(self.buses.iter().all(|b| !b.busy && b.queue.is_empty()));

        if obs::ENABLED {
            obs::counter_add!("sim.events", self.events_processed & 0xFFFF);
            obs::counter_add!("sim.arrivals", tel_arrivals);
            obs::counter_add!("sim.runs", 1u64);
        }

        Ok(SimReport {
            tenants: std::mem::take(&mut self.tenants),
            read: std::mem::take(&mut self.read),
            write: std::mem::take(&mut self.write),
            total: std::mem::take(&mut self.total),
            ftl: self.ftl.stats(),
            wear: wear_summary(&self.ftl),
            makespan_ns: self.makespan_ns,
            events_processed: self.events_processed,
            bus_busy_ns: std::mem::take(&mut self.bus_busy_ns),
            read_breakdown: self.read_breakdown,
            write_breakdown: self.write_breakdown,
            gc_busy_ns: self.gc_busy_ns,
            phases: std::mem::take(&mut *self.phases),
        })
    }

    fn validate_trace(&self, trace: &[IoRequest]) -> Result<(), SimError> {
        validate_trace(trace, self.layout.tenant_count())
    }

    fn apply_reallocations(&mut self, now: u64) {
        while self.next_realloc < self.realloc.len() && self.realloc[self.next_realloc].at_ns <= now
        {
            // The flat span table is read in place — applying an entry
            // only copies channel indices into the tenant's ChannelSet,
            // never clones a per-entry list.
            let realloc = &self.realloc[self.next_realloc];
            let at_ns = realloc.at_ns;
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
                self.probe.on_realloc(&ReallocApply {
                    at_ns,
                    tenant: tenant as u16,
                    policy: match policy {
                        None => 0,
                        Some(PageAllocPolicy::Static) => 1,
                        Some(PageAllocPolicy::Dynamic) => 2,
                    },
                    channel_mask,
                });
                obs::counter_add!("sim.reallocs_applied", 1u64);
            }
            self.next_realloc += 1;
        }
        self.next_realloc_at = self
            .realloc
            .get(self.next_realloc)
            .map_or(u64::MAX, |r| r.at_ns);
    }

    /// Execution unit of a flat plane index.
    fn unit_of_plane(&self, plane: usize) -> usize {
        if self.cfg.plane_parallelism {
            plane
        } else {
            self.geo.die_of_plane(plane)
        }
    }

    /// Fills `backlog_scratch` with a per-plane view of unit backlogs for
    /// the dynamic allocator.
    fn fill_plane_backlogs(&mut self) {
        if self.cfg.plane_parallelism {
            for (i, u) in self.units.iter().enumerate() {
                self.backlog_scratch[i] = u.backlog;
            }
        } else {
            for plane in 0..self.backlog_scratch.len() {
                self.backlog_scratch[plane] = self.units[self.geo.die_of_plane(plane)].backlog;
            }
        }
    }

    fn on_arrive(&mut self, req: ReqId, trace: &[IoRequest], now: u64) -> Result<(), SimError> {
        let io = trace[req as usize];
        match io.op {
            Op::Read => {
                for lpn in io.pages() {
                    let addr = self.ftl.translate_read(io.tenant, lpn, &self.layout)?;
                    let unit = self.unit_of_plane(self.geo.plane_index(&addr));
                    debug_assert_eq!(self.units[unit].channel, addr.channel);
                    self.spawn_cmd(req, io.tenant, unit, Phase::ArrayRead, 0, now)?;
                }
            }
            Op::Write => {
                for lpn in io.pages() {
                    let tenant_state = self.layout.tenant(io.tenant as usize);
                    // Reduce into the tenant's logical space once; plane
                    // selection and the FTL write below share the result.
                    let lpn = lpn % tenant_state.lpn_space;
                    let plane = match tenant_state.policy {
                        PageAllocPolicy::Static => {
                            alloc::static_plane(&self.geo, tenant_state, lpn)
                        }
                        PageAllocPolicy::Dynamic => {
                            self.fill_plane_backlogs();
                            let tenant_state = self.layout.tenant(io.tenant as usize);
                            let ftl = &self.ftl;
                            alloc::dynamic_plane(
                                &self.geo,
                                tenant_state,
                                &self.backlog_scratch,
                                |p| ftl.plane_free_pages(p),
                            )
                        }
                    };
                    let outcome = self.ftl.write_in_space(io.tenant, lpn, plane)?;
                    let unit = self.unit_of_plane(self.geo.plane_index(&outcome.addr));
                    debug_assert_eq!(self.units[unit].channel, outcome.addr.channel);
                    self.spawn_cmd(req, io.tenant, unit, Phase::WaitBusWrite, 0, now)?;
                    if let Some(gc) = outcome.gc {
                        let gc_unit = self.unit_of_plane(gc.plane);
                        self.probe.on_gc_collect(&GcCollect {
                            at_ns: now,
                            plane: gc.plane as u32,
                            victim_block: gc.victim_block,
                            moved_pages: gc.moved_pages,
                            erased_blocks: gc.erased_blocks,
                            duration_ns: gc.duration_ns,
                        });
                        obs::counter_add!("sim.gc_passes", 1u64);
                        obs::counter_add!("sim.gc_moved_pages", gc.moved_pages as u64);
                        self.spawn_cmd(
                            NO_REQ,
                            io.tenant,
                            gc_unit,
                            Phase::GcExec,
                            gc.duration_ns,
                            now,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Creates a command and enqueues it on its execution unit.
    ///
    /// The id comes off the recycled free list first; a depth beyond
    /// `cmd_slot_limit` is a checked error.
    fn spawn_cmd(
        &mut self,
        req: ReqId,
        tenant: u16,
        unit: usize,
        phase: Phase,
        gc_ns: u64,
        now: u64,
    ) -> Result<(), SimError> {
        obs::counter_add!("sim.cmds_issued", 1u64);
        let id = self.cmd_ids.alloc()?;
        let cmd = UnitCmd {
            t_spawn: now,
            gc_ns,
            id,
            req,
            tenant,
            phase,
        };
        let class = phase.class();
        let d = &mut self.units[unit];
        d.backlog += 1;
        // Uncontended fast path: an idle unit with an empty queue starts
        // the command without the queue round trip. `push_pop_empty` keeps
        // the scheduler's bypass state exactly as push + pop would, and
        // the probe/record order below is unchanged.
        let fast_start = !d.busy() && d.queue.is_empty();
        if fast_start {
            d.queue.push_pop_empty(cmd, class, self.cfg.sched_policy);
        } else {
            d.queue.push(cmd, class, self.cfg.sched_policy);
        }
        let queue_depth = d.backlog;
        let channel = d.channel;
        self.phases.queue_depth.record(queue_depth as u64);
        self.probe.on_cmd_issue(&CmdIssue {
            at_ns: now,
            cmd: id,
            tenant,
            class,
            gc: req == NO_REQ,
            unit: unit as u32,
            channel,
            queue_depth,
        });
        if fast_start {
            self.start_die_cmd(unit, cmd, now);
        } else {
            self.try_start_die(unit, now);
        }
        Ok(())
    }

    /// If the unit is idle, pops its next command and starts its first
    /// unit-holding phase.
    #[inline]
    fn try_start_die(&mut self, unit: usize, now: u64) {
        let d = &mut self.units[unit];
        if d.busy() {
            return;
        }
        let Some(cmd) = d.queue.pop(self.cfg.sched_policy) else {
            return;
        };
        self.start_die_cmd(unit, cmd, now);
    }

    /// Installs `cmd` as the unit's running command and starts its first
    /// unit-holding phase. The command must already be dequeued (or
    /// fast-path bypassed).
    #[inline]
    fn start_die_cmd(&mut self, unit: usize, cmd: UnitCmd, now: u64) {
        let d = &mut self.units[unit];
        debug_assert!(!d.busy(), "unit {unit} started a command while busy");
        d.cur = Some(cmd);
        d.t_mark = now;
        // Close the unit-queue phase and open the next one. GC commands
        // are identified by phase alone — they spawn in `GcExec` and never
        // leave it.
        let waited = now - cmd.t_spawn;
        match cmd.phase {
            Phase::ArrayRead => {
                self.read_breakdown.wait_unit_ns += waited;
                self.phases.wait_unit.record(waited);
                self.events.push(
                    now + self.cfg.read_latency_ns,
                    EventKind::DieOpDone(unit as u32),
                );
            }
            Phase::WaitBusWrite => {
                self.write_breakdown.wait_unit_ns += waited;
                self.phases.wait_unit.record(waited);
                self.request_bus(unit, CmdClass::Write, now);
            }
            Phase::GcExec => {
                self.events
                    .push(now + cmd.gc_ns, EventKind::DieOpDone(unit as u32));
            }
            other => unreachable!("command started on unit in phase {other:?}"),
        }
    }

    /// The command holding `unit`.
    #[inline]
    fn running(&mut self, unit: usize) -> &mut UnitCmd {
        self.units[unit]
            .cur
            .as_mut()
            .expect("event names an idle unit")
    }

    #[inline]
    fn breakdown_mut(&mut self, class: CmdClass) -> &mut LatencyBreakdown {
        match class {
            CmdClass::Read => &mut self.read_breakdown,
            CmdClass::Write => &mut self.write_breakdown,
        }
    }

    /// Requests the channel bus for the command holding `unit`; starts
    /// the transfer immediately when the bus is idle, otherwise queues
    /// the unit.
    fn request_bus(&mut self, unit: usize, class: CmdClass, now: u64) {
        let bus = &mut self.buses[self.units[unit].channel as usize];
        if bus.busy {
            bus.queue.push(unit as u32, class, self.cfg.sched_policy);
        } else {
            bus.busy = true;
            self.start_transfer(unit, now);
        }
    }

    #[inline]
    fn start_transfer(&mut self, unit: usize, now: u64) {
        let d = &mut self.units[unit];
        let channel = d.channel;
        let waited_for_bus = now - d.t_mark;
        d.t_mark = now;
        let cmd = d.cur.as_mut().expect("bus granted to an idle unit");
        cmd.phase = match cmd.phase {
            Phase::WaitBusRead => Phase::XferRead,
            Phase::WaitBusWrite => Phase::XferWrite,
            other => unreachable!("transfer started in phase {other:?}"),
        };
        let (id, class) = (cmd.id, cmd.phase.class());
        self.bus_busy_ns[channel as usize] += self.transfer_ns;
        {
            let transfer_ns = self.transfer_ns;
            let b = self.breakdown_mut(class);
            b.wait_bus_ns += waited_for_bus;
            b.transfer_ns += transfer_ns;
        }
        self.phases.wait_bus.record(waited_for_bus);
        self.phases.transfer.record(self.transfer_ns);
        self.probe.on_bus_acquire(&BusAcquire {
            at_ns: now,
            cmd: id,
            channel,
            waited_ns: waited_for_bus,
        });
        obs::counter_add!("sim.bus_transfers", 1u64);
        self.events
            .push(now + self.transfer_ns, EventKind::BusDone(unit as u32));
    }

    #[inline]
    fn on_die_done(&mut self, unit: usize, now: u64) {
        obs::counter_add!("sim.die_ops", 1u64);
        let elapsed = now - self.units[unit].t_mark;
        let cmd = self.running(unit);
        match cmd.phase {
            Phase::ArrayRead => {
                cmd.phase = Phase::WaitBusRead;
                self.units[unit].t_mark = now;
                self.read_breakdown.array_ns += elapsed;
                self.read_breakdown.cmds += 1;
                self.phases.array.record(elapsed);
                self.request_bus(unit, CmdClass::Read, now);
            }
            Phase::Program => {
                self.write_breakdown.array_ns += elapsed;
                self.write_breakdown.cmds += 1;
                self.phases.array.record(elapsed);
                self.retire(unit, now);
            }
            Phase::GcExec => {
                let gc_ns = cmd.gc_ns;
                self.gc_busy_ns += gc_ns;
                self.phases.gc_exec.record(gc_ns);
                self.retire(unit, now);
            }
            other => unreachable!("DieOpDone in phase {other:?}"),
        }
    }

    #[inline]
    fn on_bus_done(&mut self, unit: usize, now: u64) {
        // Free the bus and hand it to the next waiter first, so bus
        // utilization is back-to-back.
        let channel = self.units[unit].channel;
        let cmd_id = self.running(unit).id;
        self.probe.on_bus_release(&BusRelease {
            at_ns: now,
            cmd: cmd_id,
            channel,
            held_ns: self.transfer_ns,
        });
        let bus = &mut self.buses[channel as usize];
        bus.busy = false;
        if let Some(next) = bus.queue.pop(self.cfg.sched_policy) {
            bus.busy = true;
            self.start_transfer(next as usize, now);
        }

        let cmd = self.running(unit);
        match cmd.phase {
            Phase::XferRead => self.retire(unit, now),
            Phase::XferWrite => {
                cmd.phase = Phase::Program;
                self.units[unit].t_mark = now;
                self.events.push(
                    now + self.cfg.write_latency_ns,
                    EventKind::DieOpDone(unit as u32),
                );
            }
            other => unreachable!("BusDone in phase {other:?}"),
        }
    }

    /// Retires the command holding `unit`: records its completion, hands
    /// the unit to the next waiter, then recycles the id.
    #[inline]
    fn retire(&mut self, unit: usize, now: u64) {
        let cmd = *self.running(unit);
        self.complete_cmd(unit, &cmd, now);
        self.release_die(unit, now);
        self.cmd_ids.free(cmd.id);
    }

    fn release_die(&mut self, unit: usize, now: u64) {
        let d = &mut self.units[unit];
        debug_assert!(d.busy());
        d.cur = None;
        debug_assert!(d.backlog > 0);
        d.backlog -= 1;
        self.try_start_die(unit, now);
    }

    #[inline]
    fn complete_cmd(&mut self, unit: usize, cmd: &UnitCmd, now: u64) {
        obs::counter_add!("sim.cmds_completed", 1u64);
        self.makespan_ns = self.makespan_ns.max(now);
        let req = cmd.req;
        self.probe.on_cmd_complete(&CmdComplete {
            at_ns: now,
            cmd: cmd.id,
            tenant: cmd.tenant,
            class: cmd.phase.class(),
            gc: req == NO_REQ,
            unit: unit as u32,
            channel: self.units[unit].channel,
            latency_ns: now - cmd.t_spawn,
        });
        if req == NO_REQ {
            return; // internal GC op
        }
        let state = &mut self.reqs[req as usize];
        debug_assert!(state.remaining > 0);
        state.remaining -= 1;
        if state.remaining == 0 {
            let latency = now - state.arrival_ns;
            let tenant = state.tenant as usize;
            let op = state.op;
            match op {
                Op::Read => {
                    self.tenants[tenant].read.record(latency);
                    self.read.record(latency);
                }
                Op::Write => {
                    self.tenants[tenant].write.record(latency);
                    self.write.record(latency);
                }
            }
            self.total.record(latency);
            // Free the tenant's queue slot; admit the next host-queued
            // request at the current time (its measured latency still
            // starts at its original arrival).
            if self.cfg.host_queue_depth > 0 {
                debug_assert!(self.in_flight[tenant] > 0);
                self.in_flight[tenant] -= 1;
                if let Some(next) = self.host_dequeue(tenant) {
                    self.in_flight[tenant] += 1;
                    self.events.push(now, EventKind::Admit(next));
                }
            }
        }
    }

    /// Appends `r` to `tenant`'s host-side FIFO. The FIFOs are intrusive
    /// singly-linked lists threaded through `host_next` (one slot per
    /// trace request), so every tenant queues in the same flat buffer.
    #[inline]
    fn host_enqueue(&mut self, tenant: usize, r: ReqId) {
        self.host_next[r as usize] = NO_REQ;
        let tail = self.hq_tail[tenant];
        if tail == NO_REQ {
            self.hq_head[tenant] = r;
        } else {
            self.host_next[tail as usize] = r;
        }
        self.hq_tail[tenant] = r;
    }

    /// Pops the front of `tenant`'s host-side FIFO, if any.
    #[inline]
    fn host_dequeue(&mut self, tenant: usize) -> Option<ReqId> {
        let head = self.hq_head[tenant];
        if head == NO_REQ {
            return None;
        }
        let next = self.host_next[head as usize];
        self.hq_head[tenant] = next;
        if next == NO_REQ {
            self.hq_tail[tenant] = NO_REQ;
        }
        Some(head)
    }
}

/// Rejects layouts whose static logical footprint overflows any plane.
///
/// For each tenant, its `lpn_space` spreads evenly over the planes its
/// channel set covers; each plane must keep at least two spare blocks so GC
/// can make progress.
fn check_capacity(
    cfg: &SsdConfig,
    geo: &Geometry,
    layout: &TenantLayout,
    demand: &mut Vec<u64>,
) -> Result<(), SimError> {
    let pages_per_plane = geo.pages_per_plane() as u64;
    let spare = 2 * cfg.pages_per_block as u64;
    let available = pages_per_plane.saturating_sub(spare);
    // `demand` is caller-provided scratch (see `ArenaParts`) so warm
    // rebuilds validate without allocating.
    demand.clear();
    demand.resize(geo.total_planes(), 0);
    for t in layout.iter() {
        let planes_covered =
            (t.channels.len() * geo.dies_per_channel() * geo.planes_per_die()) as u64;
        let per_plane = t.lpn_space.div_ceil(planes_covered);
        for &ch in t.channels.channels() {
            for die in geo.dies_of_channel(ch as usize) {
                for plane in geo.planes_of_die(die) {
                    demand[plane] += per_plane;
                }
            }
        }
    }
    for (plane, &required) in demand.iter().enumerate() {
        if required > available {
            return Err(SimError::CapacityExceeded {
                plane,
                required,
                available,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::US;

    /// Builds from a fresh arena (the cold path).
    fn new_sim(cfg: SsdConfig, layout: TenantLayout) -> Result<Simulator, SimError> {
        SimBuilder::new(cfg, layout).build_with_arena(&mut SimArena::new())
    }

    /// Runs to completion, reclaiming into a throwaway arena.
    fn run<P: Probe>(sim: Simulator<P>, trace: &[IoRequest]) -> Result<SimReport, SimError> {
        sim.run_reclaim(trace, &mut SimArena::new())
    }

    fn small_cfg() -> SsdConfig {
        SsdConfig {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 2,
            blocks_per_plane: 64,
            pages_per_block: 16,
            ..SsdConfig::small_test()
        }
    }

    fn one_tenant_sim() -> Simulator {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        new_sim(cfg, layout).unwrap()
    }

    #[test]
    fn single_write_latency_is_transfer_plus_program() {
        let sim = one_tenant_sim();
        let trace = vec![IoRequest::new(0, 0, Op::Write, 0, 1, 0)];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.write.count, 1);
        // 16 KB over 800 MB/s = 20480 ns, + 200 µs program.
        assert_eq!(report.write.min_ns, 20_480 + 200 * US);
    }

    #[test]
    fn single_read_latency_is_array_plus_transfer() {
        let sim = one_tenant_sim();
        let trace = vec![IoRequest::new(0, 0, Op::Read, 0, 1, 0)];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.read.count, 1);
        assert_eq!(report.read.min_ns, 20 * US + 20_480);
        assert_eq!(report.ftl.seeded_pages, 1, "read of unwritten LPN seeds");
    }

    #[test]
    fn sequential_multi_page_read_uses_channel_parallelism() {
        // Two pages striped to two different channels: latency should be
        // one array read + one transfer (both channels work concurrently),
        // not two serialized commands.
        let sim = one_tenant_sim();
        let trace = vec![IoRequest::new(0, 0, Op::Read, 0, 2, 0)];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.read.max_ns, 20 * US + 20_480);
    }

    #[test]
    fn same_die_reads_serialize_on_the_array() {
        // Pages 0 and 2 map to channel 0 (stripe 0 and 2 with 2 channels),
        // same die: the second read waits for the first array op.
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Read, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 2, 1, 0),
        ];
        let report = run(sim, &trace).unwrap();
        // First: 20 µs + transfer. Second: waits die until first releases it
        // after transfer (die held through transfer), then its own 20 µs +
        // transfer.
        let t_xfer = 20_480u64;
        let first = 20 * US + t_xfer;
        assert_eq!(report.read.min_ns, first);
        assert_eq!(report.read.max_ns, first + 20 * US + t_xfer);
    }

    #[test]
    fn different_die_reads_overlap() {
        let sim = one_tenant_sim();
        // Pages 0 and 1 stripe to channels 0 and 1 — different dies & buses.
        let trace = vec![
            IoRequest::new(0, 0, Op::Read, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 1, 1, 0),
        ];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.read.min_ns, report.read.max_ns, "fully parallel");
    }

    #[test]
    fn write_blocks_subsequent_read_on_same_die() {
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 0, 1, 1),
        ];
        let report = run(sim, &trace).unwrap();
        let t_xfer = 20_480u64;
        // Write occupies the die for transfer + program; the read then runs.
        let write_done = t_xfer + 200 * US;
        assert_eq!(report.read.max_ns, (write_done - 1) + 20 * US + t_xfer);
    }

    #[test]
    fn read_bypasses_queued_write() {
        // Both target die 0. Write arrives first but read (arriving while
        // die is still busy with an earlier op) is queued ahead of it.
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0), // occupies die
            IoRequest::new(1, 0, Op::Write, 2, 1, 1), // queued write, same die
            IoRequest::new(2, 0, Op::Read, 2, 1, 2),  // queued read, same die
        ];
        let report = run(sim, &trace).unwrap();
        // The read must finish before the second write.
        assert!(report.read.max_ns + 2 < report.write.max_ns + 1);
    }

    #[test]
    fn trace_must_be_sorted() {
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Read, 0, 1, 100),
            IoRequest::new(1, 0, Op::Read, 0, 1, 50),
        ];
        assert_eq!(
            run(sim, &trace).unwrap_err(),
            SimError::TraceNotSorted { index: 1 }
        );
    }

    #[test]
    fn unknown_tenant_rejected() {
        let sim = one_tenant_sim();
        let trace = vec![IoRequest::new(0, 9, Op::Read, 0, 1, 0)];
        assert_eq!(
            run(sim, &trace).unwrap_err(),
            SimError::UnknownTenant {
                index: 0,
                tenant: 9
            }
        );
    }

    #[test]
    fn empty_request_rejected() {
        let sim = one_tenant_sim();
        let trace = vec![IoRequest::new(0, 0, Op::Read, 0, 0, 0)];
        assert_eq!(
            run(sim, &trace).unwrap_err(),
            SimError::EmptyRequest { index: 0 }
        );
    }

    #[test]
    fn empty_trace_gives_empty_report() {
        let sim = one_tenant_sim();
        let report = run(sim, &[]).unwrap();
        assert_eq!(report.total.count, 0);
        assert_eq!(report.makespan_ns, 0);
    }

    #[test]
    fn capacity_check_rejects_oversized_tenants() {
        let cfg = small_cfg(); // 64 blocks * 16 pages = 1024 pages/plane
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(1 << 20);
        match new_sim(cfg, layout) {
            Err(SimError::CapacityExceeded { .. }) => {}
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn determinism_same_trace_same_report() {
        let cfg = small_cfg();
        let mk = || {
            let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(256);
            new_sim(cfg.clone(), layout).unwrap()
        };
        let trace: Vec<IoRequest> = (0..200)
            .map(|i| {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                IoRequest::new(
                    i,
                    (i % 2) as u16,
                    op,
                    (i * 7) % 256,
                    1 + (i % 3) as u32,
                    i * 5_000,
                )
            })
            .collect();
        let a = run(mk(), &trace).unwrap();
        let b = run(mk(), &trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_tenants_do_not_interfere() {
        let cfg = small_cfg();
        let layout = TenantLayout::isolated(2, &cfg).with_lpn_space_all(128);
        let sim = new_sim(cfg.clone(), layout).unwrap();
        // Tenant 0 writes heavily on its channel; tenant 1 reads on its own.
        let mut trace = Vec::new();
        let mut id = 0;
        for i in 0..50u64 {
            trace.push(IoRequest::new(id, 0, Op::Write, i % 64, 1, i * 100_000));
            id += 1;
            trace.push(IoRequest::new(id, 1, Op::Read, i % 64, 1, i * 100_000));
            id += 1;
        }
        trace.sort_by_key(|r| r.arrival_ns);
        let report = run(sim, &trace).unwrap();
        // Tenant 1's reads are never delayed by tenant 0's writes: at this
        // arrival spacing (100 µs apart vs 40 µs service) every read takes
        // the unloaded latency.
        assert_eq!(report.tenants[1].read.max_ns, 20 * US + 20_480);
    }

    #[test]
    fn shared_tenants_do_interfere() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
        let sim = new_sim(cfg.clone(), layout).unwrap();
        let mut trace = Vec::new();
        let mut id = 0;
        for i in 0..50u64 {
            // Bursty arrivals (all at nearly the same time) on shared dies.
            trace.push(IoRequest::new(id, 0, Op::Write, i % 64, 1, i));
            id += 1;
            trace.push(IoRequest::new(id, 1, Op::Read, i % 64, 1, i));
            id += 1;
        }
        trace.sort_by_key(|r| r.arrival_ns);
        let report = run(sim, &trace).unwrap();
        assert!(
            report.tenants[1].read.max_ns > 20 * US + 20_480,
            "shared layout must show read/write conflicts"
        );
    }

    #[test]
    fn reallocation_switches_write_channels() {
        let cfg = small_cfg();
        let layout = TenantLayout::from_channel_lists(&[vec![0]], &cfg)
            .unwrap()
            .with_lpn_space_all(256);
        let mut sim = new_sim(cfg.clone(), layout).unwrap();
        sim.schedule_reallocation(Reallocation::new(1_000_000, vec![(0, vec![1], None)]))
            .unwrap();
        // Writes before the switch land on channel 0, after on channel 1.
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0),
            IoRequest::new(1, 0, Op::Write, 1, 1, 2_000_000),
        ];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.write.count, 2);
        // Both writes see an idle device, so identical latency — the switch
        // itself must not add cost.
        assert_eq!(report.write.min_ns, report.write.max_ns);
    }

    #[test]
    fn reallocation_must_be_time_ordered_and_valid() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
        let mut sim = new_sim(cfg.clone(), layout).unwrap();
        sim.schedule_reallocation(Reallocation::new(100, vec![(0, vec![0], None)]))
            .unwrap();
        assert!(sim
            .schedule_reallocation(Reallocation::new(50, vec![(0, vec![0], None)]))
            .is_err());
        assert!(sim
            .schedule_reallocation(Reallocation::new(200, vec![(5, vec![0], None)]))
            .is_err());
        assert!(sim
            .schedule_reallocation(Reallocation::new(200, vec![(0, vec![99], None)]))
            .is_err());
    }

    #[test]
    fn reallocation_rows_round_trip_through_the_flat_table() {
        // The flat span table must read back exactly the rows it was
        // built from, including empty lists between non-empty ones.
        let rows: Vec<(usize, Vec<usize>, Option<PageAllocPolicy>)> = vec![
            (0, vec![0, 1], Some(PageAllocPolicy::Static)),
            (3, vec![], None),
            (1, vec![2], Some(PageAllocPolicy::Dynamic)),
        ];
        let realloc = Reallocation::new(42, rows.clone());
        assert_eq!(realloc.at_ns, 42);
        let back: Vec<(usize, Vec<usize>, Option<PageAllocPolicy>)> = realloc
            .entries()
            .map(|(t, ch, p)| (t, ch.to_vec(), p))
            .collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn dynamic_policy_spreads_bursty_writes() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg)
            .with_lpn_space_all(256)
            .with_policy(0, PageAllocPolicy::Dynamic);
        let sim = new_sim(cfg.clone(), layout).unwrap();
        // A burst of writes to the SAME lpn region arriving at once: static
        // would serialize some on one die; dynamic spreads over both dies.
        let trace: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest::new(i, 0, Op::Write, i * 2, 1, 0))
            .collect();
        let report = run(sim, &trace).unwrap();
        // 2 dies, 4 writes: worst case two writes per die. The bus is only
        // busy 20 µs per write so programs pipeline; max latency must be
        // below 3 serialized writes on one die.
        let t_xfer = 20_480u64;
        assert!(report.write.max_ns < 3 * (t_xfer + 200 * US));
    }

    #[test]
    fn gc_charge_blocks_the_die() {
        let cfg = SsdConfig {
            channels: 1,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            gc_free_block_threshold: 0.3,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(16);
        let sim = new_sim(cfg.clone(), layout).unwrap();
        // Saturating overwrites force GC; total makespan must exceed the
        // pure write service time because GC holds the die.
        let trace: Vec<IoRequest> = (0..256)
            .map(|i| IoRequest::new(i, 0, Op::Write, i % 16, 1, 0))
            .collect();
        let report = run(sim, &trace).unwrap();
        assert!(report.ftl.gc_invocations > 0);
        let pure_write = 256 * (20_480 + 200 * US);
        assert!(report.makespan_ns > pure_write);
    }

    #[test]
    fn plane_parallelism_overlaps_same_die_arrays() {
        // Same die, different planes: with plane_parallelism the two array
        // reads overlap and only the bus serializes; without it the die
        // serializes them end to end.
        let run = |plane_parallelism: bool| {
            let cfg = SsdConfig {
                plane_parallelism,
                ..small_cfg()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
            let sim = new_sim(cfg, layout).unwrap();
            // lpns 0 and 2 -> channel 0, same die, planes 0 and 1.
            let trace = vec![
                IoRequest::new(0, 0, Op::Read, 0, 1, 0),
                IoRequest::new(1, 0, Op::Read, 2, 1, 0),
            ];
            run(sim, &trace).unwrap().read.max_ns
        };
        let t_xfer = 20_480u64;
        let serialized = run(false);
        let overlapped = run(true);
        assert_eq!(serialized, (20 * US + t_xfer) + 20 * US + t_xfer);
        // Overlapped: both arrays run 0..20us; second transfer queues
        // behind the first: 20us + 2 * t_xfer.
        assert_eq!(overlapped, 20 * US + 2 * t_xfer);
        assert!(overlapped < serialized);
    }

    #[test]
    fn plane_parallelism_raises_write_throughput() {
        // A burst of 8 writes to one channel's planes: plane-level
        // programs pipeline, die-level ones serialize.
        let run = |plane_parallelism: bool| {
            let cfg = SsdConfig {
                channels: 1,
                chips_per_channel: 1,
                dies_per_chip: 1,
                planes_per_die: 4,
                blocks_per_plane: 64,
                pages_per_block: 16,
                plane_parallelism,
                ..SsdConfig::small_test()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
            let sim = new_sim(cfg, layout).unwrap();
            let trace: Vec<IoRequest> = (0..8)
                .map(|i| IoRequest::new(i, 0, Op::Write, i, 1, 0))
                .collect();
            run(sim, &trace).unwrap().makespan_ns
        };
        let serialized = run(false);
        let pipelined = run(true);
        assert!(
            pipelined * 2 < serialized,
            "plane pipelining should at least halve the makespan: {pipelined} vs {serialized}"
        );
    }

    #[test]
    fn breakdown_accounts_unloaded_commands_exactly() {
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 0, 1, 10_000_000),
        ];
        let report = run(sim, &trace).unwrap();
        let w = report.write_breakdown;
        assert_eq!(w.cmds, 1);
        assert_eq!(w.wait_unit_ns, 0);
        assert_eq!(w.wait_bus_ns, 0);
        assert_eq!(w.transfer_ns, 20_480);
        assert_eq!(w.array_ns, 200 * US);
        assert_eq!(w.total_ns(), 20_480 + 200 * US);
        let r = report.read_breakdown;
        assert_eq!(r.cmds, 1);
        assert_eq!(r.array_ns, 20 * US);
        assert_eq!(r.transfer_ns, 20_480);
        assert_eq!(r.conflict_fraction(), 0.0);
        assert_eq!(report.gc_busy_ns, 0);
    }

    #[test]
    fn breakdown_captures_queueing_under_contention() {
        // Two reads racing for the same die (die-level parallelism in
        // small_cfg): the second one's wait_unit must be positive.
        let sim = one_tenant_sim();
        let trace = vec![
            IoRequest::new(0, 0, Op::Read, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 2, 1, 0),
        ];
        let report = run(sim, &trace).unwrap();
        let r = report.read_breakdown;
        assert_eq!(r.cmds, 2);
        assert!(r.wait_unit_ns > 0, "second read queues for the die");
        assert!(r.conflict_fraction() > 0.0);
        assert!(r.mean_wait_us() > 0.0);
    }

    #[test]
    fn breakdown_sums_are_consistent_with_latencies() {
        // Breakdown totals for single-page requests bound the recorded
        // latencies (latency = sum of phases for each command).
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..100)
            .map(|i| {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                IoRequest::new(i, 0, op, (i * 3) % 256, 1, i * 5_000)
            })
            .collect();
        let report = run(sim, &trace).unwrap();
        assert_eq!(
            report.read_breakdown.cmds + report.write_breakdown.cmds,
            100
        );
        assert_eq!(
            report.read_breakdown.total_ns(),
            report.read.sum_ns,
            "per-phase time must sum to read latency"
        );
        assert_eq!(report.write_breakdown.total_ns(), report.write.sum_ns);
    }

    #[test]
    fn bus_utilization_reflects_channel_confinement() {
        let cfg = small_cfg();
        // Tenant confined to channel 0: all transfers must land there.
        let layout = TenantLayout::from_channel_lists(&[vec![0]], &cfg)
            .unwrap()
            .with_lpn_space_all(128);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..50)
            .map(|i| IoRequest::new(i, 0, Op::Write, i % 128, 1, i * 50_000))
            .collect();
        let report = run(sim, &trace).unwrap();
        let util = report.bus_utilization();
        assert_eq!(util.len(), 2);
        assert!(util[0] > 0.0, "channel 0 must carry traffic");
        assert_eq!(util[1], 0.0, "channel 1 must be silent");
        assert!(report.bus_imbalance().is_infinite());
        // Busy time = transfers * transfer_ns exactly.
        assert_eq!(report.bus_busy_ns[0], 50 * 20_480);
    }

    #[test]
    fn shared_striping_balances_buses() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(128);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..100)
            .map(|i| IoRequest::new(i, 0, Op::Write, i % 128, 1, i * 50_000))
            .collect();
        let report = run(sim, &trace).unwrap();
        assert!(
            report.bus_imbalance() < 1.1,
            "striped writes must balance buses: {:?}",
            report.bus_utilization()
        );
    }

    #[test]
    fn preconditioning_fills_without_costing_time() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let sim = SimBuilder::new(cfg, layout)
            .precondition(&[0.5])
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        // Reads of the preconditioned range need no lazy seeding and cost
        // the same as reads of host-written data.
        let trace = vec![IoRequest::new(0, 0, Op::Read, 10, 1, 0)];
        let report = run(sim, &trace).unwrap();
        assert_eq!(
            report.ftl.seeded_pages, 128,
            "50% of 256 LPNs preconditioned"
        );
        assert_eq!(report.read.max_ns, 20 * US + 20_480);
        assert_eq!(report.ftl.host_pages_written, 0);
    }

    #[test]
    fn preconditioning_brings_gc_forward() {
        // A filled device hits GC with far fewer host writes than a fresh
        // one: compare GC invocations for the same short overwrite burst.
        let gc_passes = |fill: f64| {
            let cfg = SsdConfig {
                channels: 1,
                chips_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 16,
                pages_per_block: 8,
                gc_free_block_threshold: 0.2,
                ..small_cfg()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(96);
            let sim = SimBuilder::new(cfg, layout)
                .precondition(&[fill])
                .build_with_arena(&mut SimArena::new())
                .unwrap();
            let trace: Vec<IoRequest> = (0..32)
                .map(|i| IoRequest::new(i, 0, Op::Write, i % 96, 1, i * 500_000))
                .collect();
            run(sim, &trace).unwrap().ftl.gc_invocations
        };
        assert!(
            gc_passes(1.0) > gc_passes(0.0),
            "full device must GC sooner"
        );
    }

    #[test]
    fn host_queue_depth_serializes_per_tenant() {
        // QD=1: the device never sees two of the tenant's requests at
        // once, so same-die writes complete back-to-back even when all
        // arrivals land at t=0.
        let cfg = SsdConfig {
            host_queue_depth: 1,
            ..small_cfg()
        };
        let layout = TenantLayout::from_channel_lists(&[vec![0]], &cfg)
            .unwrap()
            .with_lpn_space_all(64);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest::new(i, 0, Op::Write, i * 2, 1, 0))
            .collect();
        let report = run(sim, &trace).unwrap();
        let service = 20_480 + 200 * US;
        // k-th completion at k*service; latency measured from t=0.
        assert_eq!(report.write.min_ns, service);
        assert_eq!(report.write.max_ns, 4 * service);
        assert_eq!(report.write.count, 4);
    }

    #[test]
    fn host_queue_depth_zero_exploits_channel_parallelism() {
        // QD=1 keeps one request in flight, so the tenant's two channels
        // alternate and the makespan serializes; unbounded QD engages
        // both channels at once and roughly halves it.
        let run = |qd: u32| {
            let cfg = SsdConfig {
                host_queue_depth: qd,
                ..small_cfg()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
            let sim = new_sim(cfg, layout).unwrap();
            let trace: Vec<IoRequest> = (0..4)
                .map(|i| IoRequest::new(i, 0, Op::Write, i, 1, 0))
                .collect();
            run(sim, &trace).unwrap().makespan_ns
        };
        let service = 20_480 + 200 * US;
        assert_eq!(run(1), 4 * service, "QD=1 fully serializes");
        assert!(
            run(0) <= 2 * service,
            "unbounded QD must run both channels concurrently"
        );
    }

    #[test]
    fn host_queue_depth_isolates_tenants_slots() {
        // Tenant 0 saturated at QD=1 must not block tenant 1's admission.
        let cfg = SsdConfig {
            host_queue_depth: 1,
            ..small_cfg()
        };
        let layout = TenantLayout::isolated(2, &cfg).with_lpn_space_all(64);
        let sim = new_sim(cfg, layout).unwrap();
        let mut trace: Vec<IoRequest> = (0..6)
            .map(|i| IoRequest::new(i, 0, Op::Write, i * 2, 1, 0))
            .collect();
        trace.push(IoRequest::new(6, 1, Op::Read, 0, 1, 0));
        let report = run(sim, &trace).unwrap();
        // Tenant 1's single read is admitted immediately on its own slot.
        assert_eq!(report.tenants[1].read.max_ns, 20 * US + 20_480);
    }

    #[test]
    fn cmd_arena_exhaustion_is_a_typed_error() {
        // One slot, one 2-page read: the fan-out needs two concurrent
        // commands, so the second spawn must fail loudly rather than wrap.
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let sim = SimBuilder::new(cfg, layout)
            .cmd_slot_limit(1)
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        let trace = vec![IoRequest::new(0, 0, Op::Read, 0, 2, 0)];
        assert_eq!(
            run(sim, &trace).unwrap_err(),
            SimError::CmdIdsExhausted { limit: 1 }
        );
    }

    #[test]
    fn recycled_slots_keep_arena_at_peak_depth() {
        // 50 writes spaced far beyond the service time: at most one
        // command is ever in flight, so recycling keeps the whole run
        // inside 2 ids (one would also work, but GC on another
        // config could overlap — 2 shows the plateau, not the trace len).
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let sim = SimBuilder::new(cfg, layout)
            .cmd_slot_limit(2)
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        let trace: Vec<IoRequest> = (0..50)
            .map(|i| IoRequest::new(i, 0, Op::Write, i % 64, 1, i * 1_000_000))
            .collect();
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.write.count, 50);
    }

    #[test]
    fn phases_cover_every_breakdown_nanosecond() {
        // The per-phase histogram sums must equal the breakdown sums the
        // engine already keeps — they record at the same points.
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..100)
            .map(|i| {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                IoRequest::new(i, 0, op, (i * 3) % 256, 1, i * 5_000)
            })
            .collect();
        let report = run(sim, &trace).unwrap();
        let p = &report.phases;
        let b_read = &report.read_breakdown;
        let b_write = &report.write_breakdown;
        assert_eq!(
            p.wait_unit.sum_ns,
            b_read.wait_unit_ns + b_write.wait_unit_ns
        );
        assert_eq!(p.array.sum_ns, b_read.array_ns + b_write.array_ns);
        assert_eq!(p.wait_bus.sum_ns, b_read.wait_bus_ns + b_write.wait_bus_ns);
        assert_eq!(p.transfer.sum_ns, b_read.transfer_ns + b_write.transfer_ns);
        assert_eq!(p.gc_exec.sum_ns, report.gc_busy_ns);
        // Every issued command sampled the queue depth once, at depth >= 1.
        assert_eq!(p.queue_depth.count, p.transfer.count + p.gc_exec.count);
        assert!(p.queue_depth.sum_ns >= p.queue_depth.count);
    }

    #[test]
    fn probe_sees_the_full_command_lifecycle() {
        use crate::probe::{EventRecorder, ProbeEvent};
        let cfg = small_cfg();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(256);
        let mut rec = EventRecorder::with_capacity(1 << 12);
        let sim = SimBuilder::new(cfg, layout)
            .probe(&mut rec)
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0),
            IoRequest::new(1, 0, Op::Read, 0, 1, 10_000_000),
        ];
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.total.count, 2);
        let evs = rec.to_vec();
        let issues = evs
            .iter()
            .filter(|e| matches!(e, ProbeEvent::CmdIssue(_)))
            .count();
        let completes: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                ProbeEvent::CmdComplete(c) => Some(*c),
                _ => None,
            })
            .collect();
        let acquires = evs
            .iter()
            .filter(|e| matches!(e, ProbeEvent::BusAcquire(_)))
            .count();
        let releases = evs
            .iter()
            .filter(|e| matches!(e, ProbeEvent::BusRelease(_)))
            .count();
        assert_eq!(issues, 2);
        assert_eq!(completes.len(), 2);
        assert_eq!(acquires, 2);
        assert_eq!(releases, 2);
        // Unloaded single-page commands: latency = service time exactly.
        assert_eq!(completes[0].latency_ns, 20_480 + 200 * US);
        assert_eq!(completes[1].latency_ns, 20 * US + 20_480);
        // Event times are non-decreasing in emission order.
        for w in evs.windows(2) {
            assert!(w[0].at_ns() <= w[1].at_ns());
        }
    }

    #[test]
    fn probe_observes_reallocation_entries() {
        use crate::probe::{EventRecorder, ProbeEvent};
        let cfg = small_cfg();
        let layout = TenantLayout::from_channel_lists(&[vec![0]], &cfg)
            .unwrap()
            .with_lpn_space_all(256);
        let mut rec = EventRecorder::with_capacity(64);
        let mut sim = SimBuilder::new(cfg, layout)
            .probe(&mut rec)
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        sim.schedule_reallocation(Reallocation::new(
            1_000_000,
            vec![(0, vec![1], Some(PageAllocPolicy::Dynamic))],
        ))
        .unwrap();
        let trace = vec![
            IoRequest::new(0, 0, Op::Write, 0, 1, 0),
            IoRequest::new(1, 0, Op::Write, 1, 1, 2_000_000),
        ];
        run(sim, &trace).unwrap();
        let reallocs: Vec<_> = rec
            .to_vec()
            .into_iter()
            .filter_map(|e| match e {
                ProbeEvent::Realloc(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reallocs.len(), 1);
        assert_eq!(reallocs[0].at_ns, 1_000_000);
        assert_eq!(reallocs[0].tenant, 0);
        assert_eq!(reallocs[0].channel_mask, 0b10);
        assert_eq!(reallocs[0].policy, 2);
    }

    #[test]
    fn probe_observes_gc_passes() {
        use crate::probe::{EventRecorder, ProbeEvent};
        let cfg = SsdConfig {
            channels: 1,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            gc_free_block_threshold: 0.3,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(16);
        let mut rec = EventRecorder::with_capacity(1 << 14);
        let sim = SimBuilder::new(cfg.clone(), layout)
            .probe(&mut rec)
            .build_with_arena(&mut SimArena::new())
            .unwrap();
        let trace: Vec<IoRequest> = (0..256)
            .map(|i| IoRequest::new(i, 0, Op::Write, i % 16, 1, 0))
            .collect();
        let report = run(sim, &trace).unwrap();
        assert!(report.ftl.gc_invocations > 0);
        let gcs: Vec<_> = rec
            .to_vec()
            .into_iter()
            .filter_map(|e| match e {
                ProbeEvent::GcCollect(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(gcs.len() as u64, report.ftl.gc_invocations);
        for g in &gcs {
            assert_eq!(g.plane, 0, "single-plane device");
            assert!((g.victim_block as usize) < cfg.blocks_per_plane);
            assert!(g.duration_ns > 0);
            assert!(g.erased_blocks >= 1);
        }
        let moved: u64 = gcs.iter().map(|g| g.moved_pages as u64).sum();
        assert_eq!(moved, report.ftl.gc_pages_moved);
    }

    #[test]
    fn report_totals_are_consistent() {
        let cfg = small_cfg();
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
        let sim = new_sim(cfg, layout).unwrap();
        let trace: Vec<IoRequest> = (0..100)
            .map(|i| {
                let op = if i % 4 == 0 { Op::Write } else { Op::Read };
                IoRequest::new(i, (i % 2) as u16, op, i % 128, 1, i * 10_000)
            })
            .collect();
        let report = run(sim, &trace).unwrap();
        assert_eq!(report.total.count, 100);
        assert_eq!(report.read.count + report.write.count, 100);
        let per_tenant: u64 = report
            .tenants
            .iter()
            .map(|t| t.read.count + t.write.count)
            .sum();
        assert_eq!(per_tenant, 100);
        assert!(report.makespan_ns > 0);
        assert!(report.events_processed >= 300);
        assert!(report.total_latency_metric_us() > 0.0);
    }
}
