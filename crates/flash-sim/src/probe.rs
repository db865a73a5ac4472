//! Zero-cost observability probes for the simulation engine.
//!
//! The engine is generic over a [`Probe`] — a set of typed hook points it
//! calls at the interesting moments of a run: command issue/completion,
//! channel-bus acquire/release, GC victim collection, mid-run channel
//! re-allocation, and (fired by the `ssdkeeper` layer) each keeper
//! strategy decision with its feature vector and class probabilities.
//!
//! # Overhead discipline
//!
//! The default probe is [`NullProbe`], whose hooks are empty `#[inline]`
//! bodies: after monomorphization the optimizer erases both the calls and
//! the construction of their argument records, so the un-probed hot path
//! stays allocation-free and bit-identical to an engine without hooks.
//! Concretely:
//!
//! * hooks take `&self`-style *record structs* of plain `Copy` fields —
//!   never anything that needs allocation or formatting to build;
//! * hooks are called at points where every field is already computed for
//!   the engine's own accounting (latency breakdowns, bus busy time), so
//!   an active probe adds stores, not new computation;
//! * probes must not influence the simulation: the engine hands out data
//!   and ignores the probe's state entirely, which keeps golden-digest
//!   determinism independent of the probe attached.
//!
//! The `sim_throughput` bench enforces the ≤2 % no-probe overhead budget
//! and (via `SSDKEEPER_BENCH_PROBE=1`) reports the cost of an attached
//! [`EventRecorder`].
//!
//! # Recording and persistence
//!
//! [`EventRecorder`] is a bounded ring buffer of [`ProbeEvent`]s: when
//! full, the oldest event is dropped and a monotone drop counter advances,
//! so a recorder can stay attached to an arbitrarily long run with bounded
//! memory. [`encode_events`]/[`decode_events`] persist a recording in a
//! pinned little-endian codec (SSDP, golden-bytes tested), which is what
//! the `exp` binaries' `--trace-out` flag writes.

use crate::event::CmdId;
use crate::scheduler::CmdClass;
use std::collections::VecDeque;

/// Width of the keeper's feature vector (mirrors `ssdkeeper::features`).
pub const DECISION_FEATURES: usize = 9;
/// Number of strategy classes the keeper decides over.
pub const DECISION_CLASSES: usize = 42;

/// A page command entered its execution-unit queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmdIssue {
    /// Simulated time of the issue.
    pub at_ns: u64,
    /// Id of the command (recycled after it retires).
    pub cmd: CmdId,
    /// Tenant the command serves; GC commands carry the tenant whose
    /// write triggered the pass, so internal work is attributable.
    pub tenant: u16,
    /// Scheduling class.
    pub class: CmdClass,
    /// Whether this is an internal GC command.
    pub gc: bool,
    /// Execution unit (plane or die) the command queued on.
    pub unit: u32,
    /// Channel the command will transfer on.
    pub channel: u16,
    /// Unit backlog (queued + in flight) including this command.
    pub queue_depth: u32,
}

/// A page command finished its last phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmdComplete {
    /// Simulated time of completion.
    pub at_ns: u64,
    /// Id of the command.
    pub cmd: CmdId,
    /// Tenant the command served; GC commands carry the tenant whose
    /// write triggered the pass.
    pub tenant: u16,
    /// Scheduling class.
    pub class: CmdClass,
    /// Whether this was an internal GC command.
    pub gc: bool,
    /// Execution unit it ran on.
    pub unit: u32,
    /// Channel it transferred on.
    pub channel: u16,
    /// Queueing plus service time, issue to completion.
    pub latency_ns: u64,
}

/// A command acquired its channel bus and started transferring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusAcquire {
    /// Simulated time the transfer started.
    pub at_ns: u64,
    /// Id of the command.
    pub cmd: CmdId,
    /// Channel whose bus was acquired.
    pub channel: u16,
    /// Time spent holding the unit while waiting for the bus.
    pub waited_ns: u64,
}

/// A command released its channel bus after transferring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusRelease {
    /// Simulated time the transfer ended.
    pub at_ns: u64,
    /// Id of the command.
    pub cmd: CmdId,
    /// Channel whose bus was released.
    pub channel: u16,
    /// Transfer duration the bus was held for.
    pub held_ns: u64,
}

/// One GC pass: victim picked, live pages moved, block erased.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcCollect {
    /// Simulated time the pass was charged (the triggering write).
    pub at_ns: u64,
    /// Flat plane index that collected.
    pub plane: u32,
    /// Block index of the chosen victim within the plane.
    pub victim_block: u32,
    /// Live pages migrated out of the victim.
    pub moved_pages: u32,
    /// Blocks erased by the pass.
    pub erased_blocks: u32,
    /// Die-blocking composite duration of the pass.
    pub duration_ns: u64,
}

/// One tenant's entry of an applied channel re-allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReallocApply {
    /// Simulated time the new layout took effect.
    pub at_ns: u64,
    /// Tenant whose channel set changed.
    pub tenant: u16,
    /// New page-allocation policy: 0 = unchanged, 1 = static, 2 = dynamic.
    pub policy: u8,
    /// Bitmask of the tenant's new channels (bit `c` = channel `c`).
    pub channel_mask: u64,
}

/// A keeper strategy decision (fired by the `ssdkeeper` layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeeperDecision {
    /// Simulated time the decision takes effect.
    pub at_ns: u64,
    /// Index of the chosen strategy in the 4-tenant space.
    pub strategy: u16,
    /// The feature vector the decision was made on (network input order).
    pub features: [f32; DECISION_FEATURES],
    /// Predicted class probabilities over the strategy space.
    pub proba: [f32; DECISION_CLASSES],
}

/// Typed hook points called by the engine (and the keeper) during a run.
///
/// Every hook has an empty default body, so a probe implements only the
/// events it cares about. Hooks receive records by reference and must not
/// assume any global ordering beyond emission order; in particular the
/// keeper emits its decision events before the simulated run replays the
/// trace. See the module docs for the overhead contract.
pub trait Probe {
    /// A command entered its unit queue.
    #[inline]
    fn on_cmd_issue(&mut self, _ev: &CmdIssue) {}
    /// A command completed.
    #[inline]
    fn on_cmd_complete(&mut self, _ev: &CmdComplete) {}
    /// A command acquired its channel bus.
    #[inline]
    fn on_bus_acquire(&mut self, _ev: &BusAcquire) {}
    /// A command released its channel bus.
    #[inline]
    fn on_bus_release(&mut self, _ev: &BusRelease) {}
    /// A GC pass picked a victim and moved its live pages.
    #[inline]
    fn on_gc_collect(&mut self, _ev: &GcCollect) {}
    /// A scheduled re-allocation entry was applied.
    #[inline]
    fn on_realloc(&mut self, _ev: &ReallocApply) {}
    /// The keeper committed a strategy decision.
    #[inline]
    fn on_keeper_decision(&mut self, _ev: &KeeperDecision) {}
}

/// The default probe: every hook is a no-op the optimizer erases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Forwarding impl so callers can attach `&mut recorder` and keep the
/// recorder after [`crate::Simulator::run_reclaim`] consumes the
/// simulator; also makes `&mut dyn Probe` itself a probe.
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn on_cmd_issue(&mut self, ev: &CmdIssue) {
        (**self).on_cmd_issue(ev);
    }
    #[inline]
    fn on_cmd_complete(&mut self, ev: &CmdComplete) {
        (**self).on_cmd_complete(ev);
    }
    #[inline]
    fn on_bus_acquire(&mut self, ev: &BusAcquire) {
        (**self).on_bus_acquire(ev);
    }
    #[inline]
    fn on_bus_release(&mut self, ev: &BusRelease) {
        (**self).on_bus_release(ev);
    }
    #[inline]
    fn on_gc_collect(&mut self, ev: &GcCollect) {
        (**self).on_gc_collect(ev);
    }
    #[inline]
    fn on_realloc(&mut self, ev: &ReallocApply) {
        (**self).on_realloc(ev);
    }
    #[inline]
    fn on_keeper_decision(&mut self, ev: &KeeperDecision) {
        (**self).on_keeper_decision(ev);
    }
}

/// Fans every hook out to two probes, `a` first. Lets a caller attach an
/// ad-hoc sink (say an [`EventRecorder`]) *and* a streaming aggregator
/// (say [`crate::metrics::MetricsProbe`]) to the same run; with both
/// sides [`NullProbe`] the whole thing still optimizes to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tee<A, B> {
    /// First receiver of every hook.
    pub a: A,
    /// Second receiver of every hook.
    pub b: B,
}

impl<A: Probe, B: Probe> Tee<A, B> {
    /// Combines two probes into one.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }
}

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    #[inline]
    fn on_cmd_issue(&mut self, ev: &CmdIssue) {
        self.a.on_cmd_issue(ev);
        self.b.on_cmd_issue(ev);
    }
    #[inline]
    fn on_cmd_complete(&mut self, ev: &CmdComplete) {
        self.a.on_cmd_complete(ev);
        self.b.on_cmd_complete(ev);
    }
    #[inline]
    fn on_bus_acquire(&mut self, ev: &BusAcquire) {
        self.a.on_bus_acquire(ev);
        self.b.on_bus_acquire(ev);
    }
    #[inline]
    fn on_bus_release(&mut self, ev: &BusRelease) {
        self.a.on_bus_release(ev);
        self.b.on_bus_release(ev);
    }
    #[inline]
    fn on_gc_collect(&mut self, ev: &GcCollect) {
        self.a.on_gc_collect(ev);
        self.b.on_gc_collect(ev);
    }
    #[inline]
    fn on_realloc(&mut self, ev: &ReallocApply) {
        self.a.on_realloc(ev);
        self.b.on_realloc(ev);
    }
    #[inline]
    fn on_keeper_decision(&mut self, ev: &KeeperDecision) {
        self.a.on_keeper_decision(ev);
        self.b.on_keeper_decision(ev);
    }
}

/// Replays recorded events into a probe, in order. This is how offline
/// consumers (`ssdtrace`) drive the same streaming aggregators a live
/// run would: capture → [`decode_events`] → `replay` into a
/// [`crate::metrics::MetricsProbe`].
pub fn replay<'a, I, P>(events: I, probe: &mut P)
where
    I: IntoIterator<Item = &'a ProbeEvent>,
    P: Probe + ?Sized,
{
    for ev in events {
        match ev {
            ProbeEvent::CmdIssue(e) => probe.on_cmd_issue(e),
            ProbeEvent::CmdComplete(e) => probe.on_cmd_complete(e),
            ProbeEvent::BusAcquire(e) => probe.on_bus_acquire(e),
            ProbeEvent::BusRelease(e) => probe.on_bus_release(e),
            ProbeEvent::GcCollect(e) => probe.on_gc_collect(e),
            ProbeEvent::Realloc(e) => probe.on_realloc(e),
            ProbeEvent::Decision(e) => probe.on_keeper_decision(e),
        }
    }
}

/// One recorded hook invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeEvent {
    /// Command issue.
    CmdIssue(CmdIssue),
    /// Command completion.
    CmdComplete(CmdComplete),
    /// Bus acquisition.
    BusAcquire(BusAcquire),
    /// Bus release.
    BusRelease(BusRelease),
    /// GC pass.
    GcCollect(GcCollect),
    /// Re-allocation entry applied.
    Realloc(ReallocApply),
    /// Keeper decision.
    Decision(KeeperDecision),
}

impl ProbeEvent {
    /// Simulated time the event carries.
    pub fn at_ns(&self) -> u64 {
        match self {
            ProbeEvent::CmdIssue(e) => e.at_ns,
            ProbeEvent::CmdComplete(e) => e.at_ns,
            ProbeEvent::BusAcquire(e) => e.at_ns,
            ProbeEvent::BusRelease(e) => e.at_ns,
            ProbeEvent::GcCollect(e) => e.at_ns,
            ProbeEvent::Realloc(e) => e.at_ns,
            ProbeEvent::Decision(e) => e.at_ns,
        }
    }
}

/// Bounded ring-buffer sink: keeps the newest `capacity` events, drops the
/// oldest on overflow, and counts every drop in a monotone counter.
#[derive(Debug, Clone)]
pub struct EventRecorder {
    buf: VecDeque<ProbeEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventRecorder {
    /// A recorder keeping at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: ProbeEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
            obs::counter_add!("probe.recorder_drops", 1u64);
        }
        self.buf.push_back(ev);
    }

    /// Retained events, **oldest first** — this holds across any number
    /// of overflow/wraparound cycles: after the ring evicts, iteration
    /// still starts at the oldest *surviving* event and walks forward in
    /// emission order. [`EventRecorder::dropped`] tells how many events
    /// preceded the first one yielded here.
    pub fn events(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.buf.iter()
    }

    /// Retained events as an owned, oldest-first vector.
    pub fn to_vec(&self) -> Vec<ProbeEvent> {
        self.buf.iter().copied().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events evicted since construction. Monotone: it never
    /// resets or decreases, across any number of overflow cycles, so two
    /// snapshots of the same recorder can be diffed for loss.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the recording as SSDP, taking the retained events and
    /// the drop counter from the *same* snapshot, so the header's
    /// `dropped` field can never disagree with the body. Prefer this over
    /// calling [`encode_events`] with a hand-carried counter: a decode of
    /// the result always yields exactly [`EventRecorder::to_vec`] and
    /// [`EventRecorder::dropped`], and replaying those decoded events is
    /// byte-equivalent to replaying the live ring.
    pub fn encode(&self) -> Vec<u8> {
        encode_events(self.events(), self.dropped)
    }
}

impl Probe for EventRecorder {
    fn on_cmd_issue(&mut self, ev: &CmdIssue) {
        self.push(ProbeEvent::CmdIssue(*ev));
    }
    fn on_cmd_complete(&mut self, ev: &CmdComplete) {
        self.push(ProbeEvent::CmdComplete(*ev));
    }
    fn on_bus_acquire(&mut self, ev: &BusAcquire) {
        self.push(ProbeEvent::BusAcquire(*ev));
    }
    fn on_bus_release(&mut self, ev: &BusRelease) {
        self.push(ProbeEvent::BusRelease(*ev));
    }
    fn on_gc_collect(&mut self, ev: &GcCollect) {
        self.push(ProbeEvent::GcCollect(*ev));
    }
    fn on_realloc(&mut self, ev: &ReallocApply) {
        self.push(ProbeEvent::Realloc(*ev));
    }
    fn on_keeper_decision(&mut self, ev: &KeeperDecision) {
        self.push(ProbeEvent::Decision(*ev));
    }
}

// ---------------------------------------------------------------------------
// SSDP v2: the persisted form of a recording.
//
// Format (little-endian, hand-rolled, layout frozen):
//
//   magic   u32 = 0x53534450 ("SSDP")
//   version u32 = 2
//   count   u64   retained events
//   dropped u64   recorder drop counter at write time
//   count × { kind u8, payload (fixed size per kind) }
//
// v2 added a `tenant` u16 to CmdIssue and CmdComplete (after `cmd`) so
// offline analysis can attribute latency and GC work per tenant; v1
// streams are rejected with `BadVersion` — re-capture, the producer and
// consumer ship in the same workspace.
//
// Payloads (field order = struct order above; CmdClass as u8 0=read
// 1=write; bool as u8 0/1):
//   kind 0 CmdIssue    at u64, cmd u32, tenant u16, class u8, gc u8,
//                      unit u32, channel u16, queue_depth u32 (26 bytes)
//   kind 1 CmdComplete at u64, cmd u32, tenant u16, class u8, gc u8,
//                      unit u32, channel u16, latency u64    (30 bytes)
//   kind 2 BusAcquire  at u64, cmd u32, channel u16, waited u64 (22)
//   kind 3 BusRelease  at u64, cmd u32, channel u16, held u64   (22)
//   kind 4 GcCollect   at u64, plane u32, victim u32, moved u32,
//                      erased u32, duration u64              (32 bytes)
//   kind 5 Realloc     at u64, tenant u16, policy u8, pad u8 (= 0),
//                      mask u64                              (20 bytes)
//   kind 6 Decision    at u64, strategy u16, 9 × f32, 42 × f32 (214)
//
// The decoder accepts the encoder's output and nothing else: a bool or
// pad byte outside its values, or bytes after the last event, is an
// error, so every stream that decodes re-encodes to the same bytes.
// ---------------------------------------------------------------------------

const MAGIC: u32 = 0x5353_4450;
const VERSION: u32 = 2;
const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// Errors from [`decode_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeCodecError {
    /// The buffer does not start with the SSDP magic.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ends before the header's event count is satisfied.
    Truncated {
        /// Events expected from the header.
        expected: u64,
        /// Events fully decoded before the buffer ran out.
        got: u64,
    },
    /// An event kind byte outside the defined range.
    BadKind(u8),
    /// A class, policy, bool or pad byte outside its range.
    BadField {
        /// Name of the offending field.
        field: &'static str,
        /// The byte it carried.
        value: u8,
    },
    /// Bytes left over after the header's event count was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProbeCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeCodecError::BadMagic(m) => write!(f, "bad probe-event magic {m:#x}"),
            ProbeCodecError::BadVersion(v) => write!(f, "unsupported probe-event version {v}"),
            ProbeCodecError::Truncated { expected, got } => {
                write!(
                    f,
                    "event stream truncated: header says {expected}, found {got}"
                )
            }
            ProbeCodecError::BadKind(k) => write!(f, "invalid event kind {k}"),
            ProbeCodecError::BadField { field, value } => {
                write!(f, "invalid {field} byte {value}")
            }
            ProbeCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the last event")
            }
        }
    }
}

impl std::error::Error for ProbeCodecError {}

fn class_byte(c: CmdClass) -> u8 {
    match c {
        CmdClass::Read => 0,
        CmdClass::Write => 1,
    }
}

fn class_of(b: u8) -> Result<CmdClass, ProbeCodecError> {
    match b {
        0 => Ok(CmdClass::Read),
        1 => Ok(CmdClass::Write),
        value => Err(ProbeCodecError::BadField {
            field: "class",
            value,
        }),
    }
}

fn flag_of(b: u8) -> Result<bool, ProbeCodecError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        value => Err(ProbeCodecError::BadField { field: "gc", value }),
    }
}

/// Serializes a recording (retained events + drop counter) as SSDP v2.
pub fn encode_events<'a, I>(events: I, dropped: u64) -> Vec<u8>
where
    I: IntoIterator<Item = &'a ProbeEvent>,
{
    let mut body = Vec::new();
    let mut count = 0u64;
    for ev in events {
        count += 1;
        match ev {
            ProbeEvent::CmdIssue(e) => {
                body.push(0);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.cmd.to_le_bytes());
                body.extend_from_slice(&e.tenant.to_le_bytes());
                body.push(class_byte(e.class));
                body.push(e.gc as u8);
                body.extend_from_slice(&e.unit.to_le_bytes());
                body.extend_from_slice(&e.channel.to_le_bytes());
                body.extend_from_slice(&e.queue_depth.to_le_bytes());
            }
            ProbeEvent::CmdComplete(e) => {
                body.push(1);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.cmd.to_le_bytes());
                body.extend_from_slice(&e.tenant.to_le_bytes());
                body.push(class_byte(e.class));
                body.push(e.gc as u8);
                body.extend_from_slice(&e.unit.to_le_bytes());
                body.extend_from_slice(&e.channel.to_le_bytes());
                body.extend_from_slice(&e.latency_ns.to_le_bytes());
            }
            ProbeEvent::BusAcquire(e) => {
                body.push(2);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.cmd.to_le_bytes());
                body.extend_from_slice(&e.channel.to_le_bytes());
                body.extend_from_slice(&e.waited_ns.to_le_bytes());
            }
            ProbeEvent::BusRelease(e) => {
                body.push(3);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.cmd.to_le_bytes());
                body.extend_from_slice(&e.channel.to_le_bytes());
                body.extend_from_slice(&e.held_ns.to_le_bytes());
            }
            ProbeEvent::GcCollect(e) => {
                body.push(4);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.plane.to_le_bytes());
                body.extend_from_slice(&e.victim_block.to_le_bytes());
                body.extend_from_slice(&e.moved_pages.to_le_bytes());
                body.extend_from_slice(&e.erased_blocks.to_le_bytes());
                body.extend_from_slice(&e.duration_ns.to_le_bytes());
            }
            ProbeEvent::Realloc(e) => {
                body.push(5);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.tenant.to_le_bytes());
                body.push(e.policy);
                body.push(0); // _pad
                body.extend_from_slice(&e.channel_mask.to_le_bytes());
            }
            ProbeEvent::Decision(e) => {
                body.push(6);
                body.extend_from_slice(&e.at_ns.to_le_bytes());
                body.extend_from_slice(&e.strategy.to_le_bytes());
                for v in e.features {
                    body.extend_from_slice(&v.to_le_bytes());
                }
                for v in e.proba {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    let mut buf = Vec::with_capacity(HEADER_BYTES + body.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&dropped.to_le_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// Little-endian cursor (same shape as the trace codec's).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let bytes: [u8; N] = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("slice length equals N");
        self.pos += N;
        bytes
    }

    fn u8(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take::<2>())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    fn f32(&mut self) -> f32 {
        f32::from_le_bytes(self.take::<4>())
    }
}

/// Payload size in bytes for each event kind.
fn payload_bytes(kind: u8) -> Result<usize, ProbeCodecError> {
    Ok(match kind {
        0 => 26,
        1 => 30,
        2 | 3 => 22,
        4 => 32,
        5 => 20,
        6 => 10 + 4 * (DECISION_FEATURES + DECISION_CLASSES),
        k => return Err(ProbeCodecError::BadKind(k)),
    })
}

/// Smallest encoded record: one kind byte plus the shortest payload
/// (kind 5, 20 bytes).
const MIN_RECORD_BYTES: usize = 1 + 20;

/// Deserializes an SSDP v1 stream back into `(events, dropped)`.
pub fn decode_events(buf: &[u8]) -> Result<(Vec<ProbeEvent>, u64), ProbeCodecError> {
    let mut r = Reader::new(buf);
    if r.remaining() < HEADER_BYTES {
        return Err(ProbeCodecError::Truncated {
            expected: 0,
            got: 0,
        });
    }
    let magic = r.u32();
    if magic != MAGIC {
        return Err(ProbeCodecError::BadMagic(magic));
    }
    let version = r.u32();
    if version != VERSION {
        return Err(ProbeCodecError::BadVersion(version));
    }
    let count = r.u64();
    let dropped = r.u64();
    // Reserve no more records than the bytes present could hold, so a
    // corrupt count cannot drive a huge allocation before `Truncated`.
    let fit = (r.remaining() / MIN_RECORD_BYTES) as u64;
    let mut out = Vec::with_capacity(count.min(fit).min(1 << 20) as usize);
    for i in 0..count {
        let truncated = ProbeCodecError::Truncated {
            expected: count,
            got: i,
        };
        if r.remaining() < 1 {
            return Err(truncated);
        }
        let kind = r.u8();
        if r.remaining() < payload_bytes(kind)? {
            return Err(truncated);
        }
        out.push(match kind {
            0 => ProbeEvent::CmdIssue(CmdIssue {
                at_ns: r.u64(),
                cmd: r.u32(),
                tenant: r.u16(),
                class: class_of(r.u8())?,
                gc: flag_of(r.u8())?,
                unit: r.u32(),
                channel: r.u16(),
                queue_depth: r.u32(),
            }),
            1 => ProbeEvent::CmdComplete(CmdComplete {
                at_ns: r.u64(),
                cmd: r.u32(),
                tenant: r.u16(),
                class: class_of(r.u8())?,
                gc: flag_of(r.u8())?,
                unit: r.u32(),
                channel: r.u16(),
                latency_ns: r.u64(),
            }),
            2 => ProbeEvent::BusAcquire(BusAcquire {
                at_ns: r.u64(),
                cmd: r.u32(),
                channel: r.u16(),
                waited_ns: r.u64(),
            }),
            3 => ProbeEvent::BusRelease(BusRelease {
                at_ns: r.u64(),
                cmd: r.u32(),
                channel: r.u16(),
                held_ns: r.u64(),
            }),
            4 => ProbeEvent::GcCollect(GcCollect {
                at_ns: r.u64(),
                plane: r.u32(),
                victim_block: r.u32(),
                moved_pages: r.u32(),
                erased_blocks: r.u32(),
                duration_ns: r.u64(),
            }),
            5 => {
                let at_ns = r.u64();
                let tenant = r.u16();
                let policy = r.u8();
                if policy > 2 {
                    return Err(ProbeCodecError::BadField {
                        field: "policy",
                        value: policy,
                    });
                }
                let pad = r.u8();
                if pad != 0 {
                    return Err(ProbeCodecError::BadField {
                        field: "pad",
                        value: pad,
                    });
                }
                ProbeEvent::Realloc(ReallocApply {
                    at_ns,
                    tenant,
                    policy,
                    channel_mask: r.u64(),
                })
            }
            6 => {
                let at_ns = r.u64();
                let strategy = r.u16();
                let mut features = [0.0f32; DECISION_FEATURES];
                for v in features.iter_mut() {
                    *v = r.f32();
                }
                let mut proba = [0.0f32; DECISION_CLASSES];
                for v in proba.iter_mut() {
                    *v = r.f32();
                }
                ProbeEvent::Decision(KeeperDecision {
                    at_ns,
                    strategy,
                    features,
                    proba,
                })
            }
            k => return Err(ProbeCodecError::BadKind(k)),
        });
    }
    if r.remaining() > 0 {
        return Err(ProbeCodecError::TrailingBytes(r.remaining()));
    }
    Ok((out, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ProbeEvent> {
        let mut features = [0.0f32; DECISION_FEATURES];
        features[0] = 0.5;
        let mut proba = [0.0f32; DECISION_CLASSES];
        proba[41] = 1.0;
        vec![
            ProbeEvent::CmdIssue(CmdIssue {
                at_ns: 10,
                cmd: 1,
                tenant: 2,
                class: CmdClass::Read,
                gc: false,
                unit: 3,
                channel: 2,
                queue_depth: 5,
            }),
            ProbeEvent::BusAcquire(BusAcquire {
                at_ns: 20,
                cmd: 1,
                channel: 2,
                waited_ns: 7,
            }),
            ProbeEvent::BusRelease(BusRelease {
                at_ns: 30,
                cmd: 1,
                channel: 2,
                held_ns: 10,
            }),
            ProbeEvent::CmdComplete(CmdComplete {
                at_ns: 30,
                cmd: 1,
                tenant: 2,
                class: CmdClass::Read,
                gc: false,
                unit: 3,
                channel: 2,
                latency_ns: 20,
            }),
            ProbeEvent::GcCollect(GcCollect {
                at_ns: 40,
                plane: 1,
                victim_block: 9,
                moved_pages: 4,
                erased_blocks: 1,
                duration_ns: 2_380_000,
            }),
            ProbeEvent::Realloc(ReallocApply {
                at_ns: 50,
                tenant: 3,
                policy: 2,
                channel_mask: 0b1111_0000,
            }),
            ProbeEvent::Decision(KeeperDecision {
                at_ns: 60,
                strategy: 41,
                features,
                proba,
            }),
        ]
    }

    #[test]
    fn recorder_retains_everything_under_capacity() {
        let mut rec = EventRecorder::with_capacity(16);
        for ev in sample_events() {
            rec.push(ev);
        }
        assert_eq!(rec.len(), 7);
        assert_eq!(rec.dropped(), 0);
        assert!(!rec.is_empty());
        assert_eq!(rec.to_vec(), sample_events());
    }

    #[test]
    fn recorder_overflow_drops_oldest_and_counts_monotonically() {
        let mut rec = EventRecorder::with_capacity(3);
        let evs = sample_events();
        let mut last_dropped = 0;
        for (i, ev) in evs.iter().enumerate() {
            rec.push(*ev);
            assert!(
                rec.dropped() >= last_dropped,
                "drop counter must be monotone"
            );
            last_dropped = rec.dropped();
            assert_eq!(rec.len(), (i + 1).min(3));
        }
        assert_eq!(rec.dropped(), 4);
        // The three newest survive, oldest first.
        assert_eq!(rec.to_vec(), evs[4..].to_vec());
    }

    /// Satellite contract: after any number of full overflow cycles the
    /// ring still iterates oldest-first and the drop counter is the exact
    /// monotone count of evictions.
    #[test]
    fn wraparound_keeps_oldest_first_order_across_many_cycles() {
        let capacity = 5;
        let mut rec = EventRecorder::with_capacity(capacity);
        let total = 4 * capacity + 3; // several complete wrap cycles
        let mut last_dropped = 0;
        for i in 0..total as u64 {
            rec.push(ProbeEvent::BusAcquire(BusAcquire {
                at_ns: i,
                cmd: i as u32,
                channel: 0,
                waited_ns: 0,
            }));
            assert!(rec.dropped() >= last_dropped, "dropped must be monotone");
            assert!(
                rec.dropped() - last_dropped <= 1,
                "each push evicts at most one event"
            );
            last_dropped = rec.dropped();
            // Invariant after every push: events() is oldest-first and
            // contiguous — at_ns values are consecutive and end at i.
            let ats: Vec<u64> = rec.events().map(|e| e.at_ns()).collect();
            for (k, &at) in ats.iter().enumerate() {
                assert_eq!(at, i + 1 - ats.len() as u64 + k as u64);
            }
        }
        assert_eq!(rec.dropped(), (total - capacity) as u64);
        assert_eq!(rec.len(), capacity);
    }

    /// Satellite contract: a capture taken *after* the ring overflowed
    /// must stay self-consistent end to end — the SSDP header's `dropped`
    /// equals the recorder's counter, the decoded body equals the
    /// retained ring, and replaying the decoded events produces the same
    /// metrics as replaying the live ring.
    #[test]
    fn overflowed_recorder_capture_replays_consistently() {
        let mut rec = EventRecorder::with_capacity(4);
        // Three passes of the 7-event sample stream: 21 pushes through a
        // 4-slot ring leave 17 dropped.
        for _ in 0..3 {
            replay(&sample_events(), &mut rec);
        }
        assert!(rec.dropped() > 0, "fixture must actually overflow");
        assert_eq!(rec.dropped(), 17);

        let bytes = rec.encode();
        let (decoded, dropped) = decode_events(&bytes).unwrap();
        assert_eq!(dropped, rec.dropped(), "header drop count must match ring");
        assert_eq!(decoded, rec.to_vec(), "body must be the retained events");

        // Replay parity: live ring vs decoded capture feed a MetricsProbe
        // to identical summaries.
        let mut live = crate::metrics::MetricsProbe::new(1_000_000);
        replay(rec.events(), &mut live);
        let mut offline = crate::metrics::MetricsProbe::new(1_000_000);
        replay(&decoded, &mut offline);
        assert_eq!(live.summary(), offline.summary());
    }

    #[test]
    fn tee_forwards_every_hook_to_both_probes() {
        let mut tee = Tee::new(
            EventRecorder::with_capacity(16),
            EventRecorder::with_capacity(16),
        );
        replay(&sample_events(), &mut tee);
        assert_eq!(tee.a.to_vec(), sample_events());
        assert_eq!(tee.b.to_vec(), sample_events());
    }

    #[test]
    fn replay_reconstructs_a_recording() {
        // decode → replay into a fresh recorder == the original recording.
        let evs = sample_events();
        let bytes = encode_events(&evs, 0);
        let (decoded, _) = decode_events(&bytes).unwrap();
        let mut rec = EventRecorder::with_capacity(decoded.len());
        replay(&decoded, &mut rec);
        assert_eq!(rec.to_vec(), evs);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut rec = EventRecorder::with_capacity(0);
        assert_eq!(rec.capacity(), 1);
        for ev in sample_events() {
            rec.push(ev);
        }
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn probe_hooks_feed_the_recorder() {
        let mut rec = EventRecorder::with_capacity(8);
        rec.on_cmd_issue(&CmdIssue {
            at_ns: 1,
            cmd: 0,
            tenant: 0,
            class: CmdClass::Write,
            gc: true,
            unit: 0,
            channel: 0,
            queue_depth: 1,
        });
        rec.on_keeper_decision(&KeeperDecision {
            at_ns: 2,
            strategy: 0,
            features: [0.0; DECISION_FEATURES],
            proba: [0.0; DECISION_CLASSES],
        });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.to_vec()[0].at_ns(), 1);
        assert_eq!(rec.to_vec()[1].at_ns(), 2);
    }

    #[test]
    fn forwarding_impl_reaches_the_recorder() {
        let mut rec = EventRecorder::with_capacity(4);
        {
            let fwd: &mut dyn Probe = &mut rec;
            fwd.on_bus_acquire(&BusAcquire {
                at_ns: 5,
                cmd: 2,
                channel: 1,
                waited_ns: 0,
            });
        }
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn round_trip_preserves_events_and_drop_counter() {
        let evs = sample_events();
        let bytes = encode_events(&evs, 123);
        let (decoded, dropped) = decode_events(&bytes).unwrap();
        assert_eq!(decoded, evs);
        assert_eq!(dropped, 123);
    }

    #[test]
    fn empty_stream_round_trips() {
        let bytes = encode_events([], 0);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let (decoded, dropped) = decode_events(&bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(dropped, 0);
    }

    /// Golden bytes: the exact on-disk image of one small recording. Pins
    /// the SSDP v2 layout — byte order, field order, per-kind payloads —
    /// so codec refactors cannot silently orphan persisted recordings.
    #[test]
    fn golden_bytes_are_stable() {
        let evs = vec![
            ProbeEvent::BusAcquire(BusAcquire {
                at_ns: 0x0102,
                cmd: 7,
                channel: 3,
                waited_ns: 9,
            }),
            ProbeEvent::CmdIssue(CmdIssue {
                at_ns: 0x04,
                cmd: 6,
                tenant: 2,
                class: CmdClass::Write,
                gc: true,
                unit: 8,
                channel: 1,
                queue_depth: 0x0B,
            }),
            ProbeEvent::Realloc(ReallocApply {
                at_ns: 0x0A,
                tenant: 1,
                policy: 2,
                channel_mask: 0xF0,
            }),
        ];
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            // header
            0x50, 0x44, 0x53, 0x53,                         // magic "SSDP" LE
            0x02, 0x00, 0x00, 0x00,                         // version 2
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count 3
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dropped 5
            // record 0: BusAcquire at=0x102 cmd=7 channel=3 waited=9
            0x02,
            0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x07, 0x00, 0x00, 0x00,
            0x03, 0x00,
            0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            // record 1: CmdIssue at=4 cmd=6 tenant=2 class=W gc=1 unit=8
            //           channel=1 queue_depth=11
            0x00,
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x06, 0x00, 0x00, 0x00,
            0x02, 0x00,
            0x01,
            0x01,
            0x08, 0x00, 0x00, 0x00,
            0x01, 0x00,
            0x0B, 0x00, 0x00, 0x00,
            // record 2: Realloc at=10 tenant=1 policy=2 pad mask=0xF0
            0x05,
            0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x01, 0x00,
            0x02,
            0x00,
            0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(encode_events(&evs, 5), expected);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = encode_events([], 0);
        buf[0] ^= 0xFF;
        assert!(matches!(
            decode_events(&buf).unwrap_err(),
            ProbeCodecError::BadMagic(_)
        ));
        let mut buf = encode_events([], 0);
        buf[4] = 9;
        assert_eq!(
            decode_events(&buf).unwrap_err(),
            ProbeCodecError::BadVersion(9)
        );
    }

    /// Bytes the encoder never writes are rejected, so a stream that
    /// decodes always re-encodes to itself.
    #[test]
    fn rejects_bytes_the_encoder_never_writes() {
        let evs = sample_events();
        let mut bytes = encode_events(&evs[..1], 0);
        bytes[HEADER_BYTES] = 99; // kind byte of record 0
        assert_eq!(
            decode_events(&bytes).unwrap_err(),
            ProbeCodecError::BadKind(99)
        );
        let mut bytes = encode_events(&evs[..1], 0);
        // CmdIssue class byte: kind(1) + at(8) + cmd(4) + tenant(2) = 15.
        bytes[HEADER_BYTES + 15] = 7;
        assert_eq!(
            decode_events(&bytes).unwrap_err(),
            ProbeCodecError::BadField {
                field: "class",
                value: 7
            }
        );
        let mut bytes = encode_events(&evs[..1], 0);
        // CmdIssue gc byte: one past the class byte.
        bytes[HEADER_BYTES + 16] = 2;
        assert_eq!(
            decode_events(&bytes).unwrap_err(),
            ProbeCodecError::BadField {
                field: "gc",
                value: 2
            }
        );
        let mut bytes = encode_events(&evs[5..6], 0);
        // Realloc pad byte: kind(1) + at(8) + tenant(2) + policy(1) = 12.
        bytes[HEADER_BYTES + 12] = 1;
        assert_eq!(
            decode_events(&bytes).unwrap_err(),
            ProbeCodecError::BadField {
                field: "pad",
                value: 1
            }
        );
        let mut bytes = encode_events(&evs, 0);
        bytes.push(0);
        assert_eq!(
            decode_events(&bytes).unwrap_err(),
            ProbeCodecError::TrailingBytes(1)
        );
    }

    /// Seeded mutation fuzzing (bit flips, truncations, splices of
    /// encoder output): decoding never panics, and every mutant that
    /// decodes re-encodes to exactly its own bytes.
    #[test]
    fn mutated_streams_never_panic_and_decode_only_canonical_bytes() {
        let evs = sample_events();
        let corpus = [
            encode_events(&evs, 1),
            encode_events(&evs[3..], 17),
            encode_events([], 0),
        ];
        let corpus: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
        let mut rng = simrng::SimRng::seed_from_u64(0x55_44_50);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..20_000 {
            let bytes = simrng::mutate(&mut rng, &corpus);
            match decode_events(&bytes) {
                Ok((events, dropped)) => {
                    assert_eq!(encode_events(&events, dropped), bytes);
                    ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        assert!(ok > 1_000 && err > 1_000, "{ok} decoded, {err} rejected");
    }

    /// Every truncation point yields a clean error, never a panic.
    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = encode_events(&sample_events(), 1);
        for cut in 0..bytes.len() {
            assert!(
                decode_events(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(ProbeCodecError::BadMagic(1).to_string().contains("magic"));
        assert!(ProbeCodecError::BadVersion(2)
            .to_string()
            .contains("version"));
        assert!(ProbeCodecError::BadKind(3).to_string().contains("kind"));
        assert!(ProbeCodecError::Truncated {
            expected: 4,
            got: 0
        }
        .to_string()
        .contains("truncated"));
        assert!(ProbeCodecError::BadField {
            field: "class",
            value: 9
        }
        .to_string()
        .contains("class"));
        assert!(ProbeCodecError::TrailingBytes(3)
            .to_string()
            .contains("trailing"));
    }
}
