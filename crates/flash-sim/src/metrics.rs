//! Streaming metric aggregation over probe hook streams.
//!
//! [`MetricsProbe`] is the consumption side of the probe layer: it
//! implements [`Probe`] and folds every hook into fixed-size online
//! accumulators — per-tenant and per-channel log₂ latency histograms,
//! channel busy time from bus acquire/release pairs, GC work counters,
//! and a windowed throughput/queue-depth timeline — without retaining
//! events. The same aggregator serves two paths:
//!
//! * **live**: attach a `MetricsProbe` (possibly [`crate::probe::Tee`]'d
//!   with an [`crate::EventRecorder`]) to a run;
//! * **offline**: decode a persisted `.ssdp` capture and
//!   [`crate::probe::replay`] it into a fresh probe — `ssdtrace` does
//!   exactly this, so a summary computed live and one computed from the
//!   full capture of the same run are identical.
//!
//! Memory is bounded by (tenants + channels) histograms plus one
//! [`WindowSample`] per elapsed window; only the timeline grows with
//! simulated time, at `makespan / window_ns` entries.

use crate::probe::{BusAcquire, BusRelease, CmdComplete, CmdIssue, GcCollect, Probe};
use crate::scheduler::CmdClass;
use crate::stats::{Fnv1a, LatencyStats};

/// Latency and GC-attribution accumulators for one tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Host read page-command latencies (issue to completion).
    pub read: LatencyStats,
    /// Host write page-command latencies (GC excluded).
    pub write: LatencyStats,
    /// Internal GC commands attributed to this tenant (its writes
    /// triggered the passes).
    pub gc_cmds: u64,
    /// Summed latency of those GC commands.
    pub gc_ns: u64,
}

impl TenantMetrics {
    /// Folds another tenant's accumulators in (histograms bucket-wise).
    pub fn merge(&mut self, other: &TenantMetrics) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.gc_cmds += other.gc_cmds;
        self.gc_ns += other.gc_ns;
    }
}

/// Bus-level accumulators for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelMetrics {
    /// Total time the channel bus was held (sum of release `held_ns`).
    pub busy_ns: u64,
    /// Bus acquisitions observed.
    pub acquires: u64,
    /// Total time commands held their unit waiting for this bus.
    pub bus_wait_ns: u64,
    /// Commands issued to units on this channel.
    pub issues: u64,
}

impl ChannelMetrics {
    /// Folds another channel's counters in.
    pub fn merge(&mut self, other: &ChannelMetrics) {
        self.busy_ns += other.busy_ns;
        self.acquires += other.acquires;
        self.bus_wait_ns += other.bus_wait_ns;
        self.issues += other.issues;
    }
}

/// Device-wide GC work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcMetrics {
    /// GC passes (victim collections) observed.
    pub passes: u64,
    /// Live pages migrated by GC.
    pub moved_pages: u64,
    /// Blocks erased by GC.
    pub erased_blocks: u64,
    /// Die time consumed by GC composite operations.
    pub busy_ns: u64,
}

impl GcMetrics {
    /// Folds another device's GC counters in.
    pub fn merge(&mut self, other: &GcMetrics) {
        self.passes += other.passes;
        self.moved_pages += other.moved_pages;
        self.erased_blocks += other.erased_blocks;
        self.busy_ns += other.busy_ns;
    }
}

/// One fixed-width timeline window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Window start, in simulated ns (`index * window_ns`).
    pub start_ns: u64,
    /// Host commands completed in the window.
    pub completes: u64,
    /// GC commands completed in the window.
    pub gc_completes: u64,
    /// GC passes charged in the window.
    pub gc_passes: u64,
    /// Sum of unit queue depths sampled at each issue in the window.
    pub queue_depth_sum: u64,
    /// Number of queue-depth samples (= commands issued) in the window.
    pub queue_depth_samples: u64,
}

impl WindowSample {
    /// Mean unit backlog over the window's issues (0 when idle).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }
}

/// Immutable snapshot of everything a [`MetricsProbe`] aggregated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// Per-tenant accumulators, indexed by tenant id.
    pub tenants: Vec<TenantMetrics>,
    /// Per-channel accumulators, indexed by channel.
    pub channels: Vec<ChannelMetrics>,
    /// Device-wide GC counters.
    pub gc: GcMetrics,
    /// Timeline windows, oldest first (empty when windowing is off).
    pub timeline: Vec<WindowSample>,
    /// Timeline window width in ns (0 = windowing disabled).
    pub window_ns: u64,
    /// Timestamp of the first observed event.
    pub first_event_ns: u64,
    /// Timestamp of the last observed event.
    pub last_event_ns: u64,
    /// Hook invocations folded in (all kinds).
    pub events_observed: u64,
}

impl MetricsSummary {
    /// Observed simulated span: last event minus first event.
    pub fn span_ns(&self) -> u64 {
        self.last_event_ns.saturating_sub(self.first_event_ns)
    }

    /// Per-channel bus utilization over the observed span, in `[0, 1]`
    /// (all zeros when the span is empty).
    pub fn channel_utilization(&self) -> Vec<f64> {
        let span = self.span_ns();
        self.channels
            .iter()
            .map(|c| {
                if span == 0 {
                    0.0
                } else {
                    c.busy_ns as f64 / span as f64
                }
            })
            .collect()
    }

    /// Host write page-commands across all tenants.
    pub fn host_writes(&self) -> u64 {
        self.tenants.iter().map(|t| t.write.count).sum()
    }

    /// Host read page-commands across all tenants.
    pub fn host_reads(&self) -> u64 {
        self.tenants.iter().map(|t| t.read.count).sum()
    }

    /// Write amplification: (host writes + GC page moves) / host writes.
    /// 1.0 means GC moved nothing; 0 host writes reports 1.0.
    pub fn write_amplification(&self) -> f64 {
        let host = self.host_writes();
        if host == 0 {
            1.0
        } else {
            (host + self.gc.moved_pages) as f64 / host as f64
        }
    }

    /// Folds another summary into this one. Histograms and counters merge
    /// bucket-wise; `first_event_ns`/`last_event_ns` take the min/max of
    /// the two observed spans; timelines with the same window width merge
    /// window-by-window (simulated clocks are aligned: both start at 0).
    /// If the window widths differ the merged timeline is dropped and
    /// windowing marked disabled — the counters would be incomparable.
    ///
    /// Equivalent to [`MetricsSummary::merge_offset`] with zero offsets:
    /// tenant `i` of `other` folds into tenant `i` of `self`.
    pub fn merge(&mut self, other: &MetricsSummary) {
        self.merge_offset(other, 0, 0);
    }

    /// [`MetricsSummary::merge`] with re-indexing: tenant `i` of `other`
    /// folds into tenant `tenant_base + i` of `self`, channel `c` into
    /// `channel_base + c`. This is how a fleet of per-device summaries
    /// merges into one device-spanning summary — each shard's local
    /// tenant/channel ids land in a disjoint global range, so no shard's
    /// histogram is conflated with another's.
    pub fn merge_offset(
        &mut self,
        other: &MetricsSummary,
        tenant_base: usize,
        channel_base: usize,
    ) {
        if tenant_base + other.tenants.len() > self.tenants.len() {
            self.tenants
                .resize(tenant_base + other.tenants.len(), TenantMetrics::default());
        }
        for (i, t) in other.tenants.iter().enumerate() {
            self.tenants[tenant_base + i].merge(t);
        }
        if channel_base + other.channels.len() > self.channels.len() {
            self.channels.resize(
                channel_base + other.channels.len(),
                ChannelMetrics::default(),
            );
        }
        for (i, c) in other.channels.iter().enumerate() {
            self.channels[channel_base + i].merge(c);
        }
        self.gc.merge(&other.gc);

        if self.events_observed == 0 {
            self.window_ns = other.window_ns;
            self.first_event_ns = other.first_event_ns;
            self.last_event_ns = other.last_event_ns;
        } else if other.events_observed > 0 {
            self.first_event_ns = self.first_event_ns.min(other.first_event_ns);
            self.last_event_ns = self.last_event_ns.max(other.last_event_ns);
        }
        self.events_observed += other.events_observed;

        if self.window_ns == other.window_ns {
            if self.timeline.len() < other.timeline.len() {
                for idx in self.timeline.len()..other.timeline.len() {
                    self.timeline.push(WindowSample {
                        start_ns: idx as u64 * self.window_ns,
                        ..WindowSample::default()
                    });
                }
            }
            for (w, o) in self.timeline.iter_mut().zip(other.timeline.iter()) {
                w.completes += o.completes;
                w.gc_completes += o.gc_completes;
                w.gc_passes += o.gc_passes;
                w.queue_depth_sum += o.queue_depth_sum;
                w.queue_depth_samples += o.queue_depth_samples;
            }
        } else if other.events_observed > 0 {
            self.timeline.clear();
            self.window_ns = 0;
        }
    }

    /// FNV-1a over every value of the summary, in declaration order:
    /// tenant count, then per tenant its read and write histograms, GC
    /// commands and GC time; channel count, then per channel busy time,
    /// acquires, bus wait and issues; the four GC counters; window count,
    /// then per window its six fields; window width, first and last
    /// event, and events observed. Integers, lengths and histograms are
    /// fed as by [`crate::SimReport::digest`]. `FleetSummary::digest`
    /// builds on this value.
    pub fn digest(&self) -> u64 {
        let Self {
            tenants,
            channels,
            gc,
            timeline,
            window_ns,
            first_event_ns,
            last_event_ns,
            events_observed,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(tenants.len() as u64);
        for TenantMetrics {
            read,
            write,
            gc_cmds,
            gc_ns,
        } in tenants
        {
            read.feed(&mut h);
            write.feed(&mut h);
            h.u64s([*gc_cmds, *gc_ns]);
        }
        h.u64(channels.len() as u64);
        for &ChannelMetrics {
            busy_ns,
            acquires,
            bus_wait_ns,
            issues,
        } in channels
        {
            h.u64s([busy_ns, acquires, bus_wait_ns, issues]);
        }
        let GcMetrics {
            passes,
            moved_pages,
            erased_blocks,
            busy_ns,
        } = *gc;
        h.u64s([passes, moved_pages, erased_blocks, busy_ns]);
        h.u64(timeline.len() as u64);
        for &WindowSample {
            start_ns,
            completes,
            gc_completes,
            gc_passes,
            queue_depth_sum,
            queue_depth_samples,
        } in timeline
        {
            h.u64s([
                start_ns,
                completes,
                gc_completes,
                gc_passes,
                queue_depth_sum,
                queue_depth_samples,
            ]);
        }
        h.u64s([
            *window_ns,
            *first_event_ns,
            *last_event_ns,
            *events_observed,
        ]);
        h.finish()
    }
}

/// A [`Probe`] that aggregates metrics online. See the module docs.
///
/// Construction picks the timeline window width; everything else sizes
/// itself on demand from the tenant/channel ids that flow past.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsProbe {
    window_ns: u64,
    tenants: Vec<TenantMetrics>,
    channels: Vec<ChannelMetrics>,
    gc: GcMetrics,
    timeline: Vec<WindowSample>,
    first_event_ns: u64,
    last_event_ns: u64,
    events_observed: u64,
}

impl MetricsProbe {
    /// An aggregator with a timeline of `window_ns`-wide buckets.
    /// `window_ns == 0` disables the timeline (histograms and counters
    /// still accumulate). Timeline memory is `makespan / window_ns`
    /// entries, so pick a width proportionate to the run.
    pub fn new(window_ns: u64) -> Self {
        Self {
            window_ns,
            ..Self::default()
        }
    }

    /// Snapshot of everything aggregated so far.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            tenants: self.tenants.clone(),
            channels: self.channels.clone(),
            gc: self.gc,
            timeline: self.timeline.clone(),
            window_ns: self.window_ns,
            first_event_ns: self.first_event_ns,
            last_event_ns: self.last_event_ns,
            events_observed: self.events_observed,
        }
    }

    /// Consumes the probe, yielding its summary without cloning.
    pub fn into_summary(self) -> MetricsSummary {
        MetricsSummary {
            tenants: self.tenants,
            channels: self.channels,
            gc: self.gc,
            timeline: self.timeline,
            window_ns: self.window_ns,
            first_event_ns: self.first_event_ns,
            last_event_ns: self.last_event_ns,
            events_observed: self.events_observed,
        }
    }

    #[inline]
    fn touch(&mut self, at_ns: u64) {
        if self.events_observed == 0 {
            self.first_event_ns = at_ns;
        }
        self.last_event_ns = self.last_event_ns.max(at_ns);
        self.events_observed += 1;
    }

    #[inline]
    fn tenant_mut(&mut self, tenant: u16) -> &mut TenantMetrics {
        let idx = tenant as usize;
        if idx >= self.tenants.len() {
            self.tenants.resize(idx + 1, TenantMetrics::default());
        }
        &mut self.tenants[idx]
    }

    #[inline]
    fn channel_mut(&mut self, channel: u16) -> &mut ChannelMetrics {
        let idx = channel as usize;
        if idx >= self.channels.len() {
            self.channels.resize(idx + 1, ChannelMetrics::default());
        }
        &mut self.channels[idx]
    }

    #[inline]
    fn window_mut(&mut self, at_ns: u64) -> Option<&mut WindowSample> {
        if self.window_ns == 0 {
            return None;
        }
        let idx = (at_ns / self.window_ns) as usize;
        while self.timeline.len() <= idx {
            let start_ns = self.timeline.len() as u64 * self.window_ns;
            self.timeline.push(WindowSample {
                start_ns,
                ..WindowSample::default()
            });
        }
        Some(&mut self.timeline[idx])
    }
}

impl Probe for MetricsProbe {
    #[inline]
    fn on_cmd_issue(&mut self, ev: &CmdIssue) {
        self.touch(ev.at_ns);
        self.channel_mut(ev.channel).issues += 1;
        if let Some(w) = self.window_mut(ev.at_ns) {
            w.queue_depth_sum += ev.queue_depth as u64;
            w.queue_depth_samples += 1;
        }
    }

    #[inline]
    fn on_cmd_complete(&mut self, ev: &CmdComplete) {
        self.touch(ev.at_ns);
        let t = self.tenant_mut(ev.tenant);
        if ev.gc {
            t.gc_cmds += 1;
            t.gc_ns += ev.latency_ns;
        } else {
            match ev.class {
                CmdClass::Read => t.read.record(ev.latency_ns),
                CmdClass::Write => t.write.record(ev.latency_ns),
            }
        }
        if let Some(w) = self.window_mut(ev.at_ns) {
            if ev.gc {
                w.gc_completes += 1;
            } else {
                w.completes += 1;
            }
        }
    }

    #[inline]
    fn on_bus_acquire(&mut self, ev: &BusAcquire) {
        self.touch(ev.at_ns);
        let c = self.channel_mut(ev.channel);
        c.acquires += 1;
        c.bus_wait_ns += ev.waited_ns;
    }

    #[inline]
    fn on_bus_release(&mut self, ev: &BusRelease) {
        self.touch(ev.at_ns);
        self.channel_mut(ev.channel).busy_ns += ev.held_ns;
    }

    #[inline]
    fn on_gc_collect(&mut self, ev: &GcCollect) {
        self.touch(ev.at_ns);
        self.gc.passes += 1;
        self.gc.moved_pages += ev.moved_pages as u64;
        self.gc.erased_blocks += ev.erased_blocks as u64;
        self.gc.busy_ns += ev.duration_ns;
        if let Some(w) = self.window_mut(ev.at_ns) {
            w.gc_passes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{replay, BusRelease, CmdComplete, CmdIssue, ProbeEvent};
    use crate::scheduler::CmdClass;

    fn issue(at_ns: u64, tenant: u16, channel: u16, queue_depth: u32) -> ProbeEvent {
        ProbeEvent::CmdIssue(CmdIssue {
            at_ns,
            cmd: 1,
            tenant,
            class: CmdClass::Write,
            gc: false,
            unit: 0,
            channel,
            queue_depth,
        })
    }

    fn complete(at_ns: u64, tenant: u16, class: CmdClass, gc: bool, latency_ns: u64) -> ProbeEvent {
        ProbeEvent::CmdComplete(CmdComplete {
            at_ns,
            cmd: 1,
            tenant,
            class,
            gc,
            unit: 0,
            channel: 0,
            latency_ns,
        })
    }

    #[test]
    fn aggregates_latency_per_tenant_and_class() {
        let mut p = MetricsProbe::new(0);
        replay(
            [
                complete(10, 0, CmdClass::Read, false, 100),
                complete(20, 0, CmdClass::Write, false, 200),
                complete(30, 1, CmdClass::Write, false, 400),
                complete(40, 1, CmdClass::Write, true, 5_000), // GC, attributed
            ]
            .iter(),
            &mut p,
        );
        let s = p.summary();
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].read.count, 1);
        assert_eq!(s.tenants[0].read.sum_ns, 100);
        assert_eq!(s.tenants[0].write.count, 1);
        assert_eq!(s.tenants[1].write.count, 1);
        assert_eq!(s.tenants[1].gc_cmds, 1);
        assert_eq!(s.tenants[1].gc_ns, 5_000);
        assert_eq!(s.host_reads(), 1);
        assert_eq!(s.host_writes(), 2);
        assert_eq!(s.first_event_ns, 10);
        assert_eq!(s.last_event_ns, 40);
        assert_eq!(s.events_observed, 4);
    }

    #[test]
    fn bus_pairs_accumulate_channel_busy_time() {
        let mut p = MetricsProbe::new(0);
        p.on_bus_acquire(&BusAcquire {
            at_ns: 100,
            cmd: 1,
            channel: 2,
            waited_ns: 30,
        });
        p.on_bus_release(&BusRelease {
            at_ns: 150,
            cmd: 1,
            channel: 2,
            held_ns: 50,
        });
        p.on_bus_release(&BusRelease {
            at_ns: 300,
            cmd: 2,
            channel: 0,
            held_ns: 70,
        });
        let s = p.summary();
        assert_eq!(s.channels.len(), 3);
        assert_eq!(s.channels[2].busy_ns, 50);
        assert_eq!(s.channels[2].acquires, 1);
        assert_eq!(s.channels[2].bus_wait_ns, 30);
        assert_eq!(s.channels[0].busy_ns, 70);
        assert_eq!(s.channels[1], ChannelMetrics::default());
        // span = 300 - 100; utilization = busy / span.
        let util = s.channel_utilization();
        assert!((util[2] - 50.0 / 200.0).abs() < 1e-12);
        assert!((util[0] - 70.0 / 200.0).abs() < 1e-12);
    }

    /// Every value of a summary reaches its digest: bumping any counter
    /// by one, any histogram field or one bucket, or one `Vec` element,
    /// or growing a `Vec`, gives a digest unlike the base and every other
    /// perturbation.
    #[test]
    fn digest_moves_with_every_value() {
        let mut lat = LatencyStats::new();
        lat.record(7);
        let base = MetricsSummary {
            tenants: vec![
                TenantMetrics {
                    read: lat.clone(),
                    write: lat.clone(),
                    gc_cmds: 1,
                    gc_ns: 2,
                };
                2
            ],
            channels: vec![
                ChannelMetrics {
                    busy_ns: 3,
                    acquires: 4,
                    bus_wait_ns: 5,
                    issues: 6,
                };
                2
            ],
            gc: GcMetrics {
                passes: 7,
                moved_pages: 8,
                erased_blocks: 9,
                busy_ns: 10,
            },
            timeline: (0..2)
                .map(|i| WindowSample {
                    start_ns: 100 * i,
                    completes: 11,
                    gc_completes: 12,
                    gc_passes: 13,
                    queue_depth_sum: 14,
                    queue_depth_samples: 15,
                })
                .collect(),
            window_ns: 100,
            first_event_ns: 16,
            last_event_ns: 170,
            events_observed: 18,
        };
        assert_eq!(base.digest(), base.clone().digest());
        let mut seen = vec![base.digest()];
        let mut check = |what: &str, edit: &dyn Fn(&mut MetricsSummary)| {
            let mut s = base.clone();
            edit(&mut s);
            let d = s.digest();
            assert!(!seen.contains(&d), "{what}: digest did not move");
            seen.push(d);
        };
        for (i, bump) in crate::stats::hist_bumps::<64>().into_iter().enumerate() {
            check(&format!("tenants[1].read #{i}"), &|s| {
                bump(&mut s.tenants[1].read)
            });
            check(&format!("tenants[1].write #{i}"), &|s| {
                bump(&mut s.tenants[1].write)
            });
        }
        check("tenants[1].gc_cmds", &|s| s.tenants[1].gc_cmds += 1);
        check("tenants[1].gc_ns", &|s| s.tenants[1].gc_ns += 1);
        check("tenants len", &|s| s.tenants.push(TenantMetrics::default()));
        check("channels[1].busy_ns", &|s| s.channels[1].busy_ns += 1);
        check("channels[1].acquires", &|s| s.channels[1].acquires += 1);
        check("channels[1].bus_wait_ns", &|s| {
            s.channels[1].bus_wait_ns += 1
        });
        check("channels[1].issues", &|s| s.channels[1].issues += 1);
        check("channels len", &|s| {
            s.channels.push(ChannelMetrics::default())
        });
        check("gc.passes", &|s| s.gc.passes += 1);
        check("gc.moved_pages", &|s| s.gc.moved_pages += 1);
        check("gc.erased_blocks", &|s| s.gc.erased_blocks += 1);
        check("gc.busy_ns", &|s| s.gc.busy_ns += 1);
        check("timeline[1].start_ns", &|s| s.timeline[1].start_ns += 1);
        check("timeline[1].completes", &|s| s.timeline[1].completes += 1);
        check("timeline[1].gc_completes", &|s| {
            s.timeline[1].gc_completes += 1
        });
        check("timeline[1].gc_passes", &|s| s.timeline[1].gc_passes += 1);
        check("timeline[1].queue_depth_sum", &|s| {
            s.timeline[1].queue_depth_sum += 1
        });
        check("timeline[1].queue_depth_samples", &|s| {
            s.timeline[1].queue_depth_samples += 1
        });
        check("timeline len", &|s| {
            s.timeline.push(WindowSample::default())
        });
        check("window_ns", &|s| s.window_ns += 1);
        check("first_event_ns", &|s| s.first_event_ns += 1);
        check("last_event_ns", &|s| s.last_event_ns += 1);
        check("events_observed", &|s| s.events_observed += 1);
    }

    #[test]
    fn gc_counters_and_write_amplification() {
        let mut p = MetricsProbe::new(0);
        p.on_gc_collect(&GcCollect {
            at_ns: 5,
            plane: 0,
            victim_block: 3,
            moved_pages: 6,
            erased_blocks: 1,
            duration_ns: 1_000,
        });
        p.on_gc_collect(&GcCollect {
            at_ns: 9,
            plane: 1,
            victim_block: 7,
            moved_pages: 2,
            erased_blocks: 1,
            duration_ns: 500,
        });
        replay(
            [
                complete(10, 0, CmdClass::Write, false, 10),
                complete(11, 0, CmdClass::Write, false, 10),
            ]
            .iter(),
            &mut p,
        );
        let s = p.summary();
        assert_eq!(s.gc.passes, 2);
        assert_eq!(s.gc.moved_pages, 8);
        assert_eq!(s.gc.erased_blocks, 2);
        assert_eq!(s.gc.busy_ns, 1_500);
        // WA = (2 host + 8 moved) / 2 host = 5.
        assert!((s.write_amplification() - 5.0).abs() < 1e-12);
        assert_eq!(MetricsSummary::default().write_amplification(), 1.0);
    }

    #[test]
    fn timeline_buckets_by_window() {
        let mut p = MetricsProbe::new(100);
        replay(
            [
                issue(10, 0, 0, 3),
                complete(50, 0, CmdClass::Write, false, 40),
                issue(120, 0, 0, 5),
                complete(260, 0, CmdClass::Write, true, 140),
            ]
            .iter(),
            &mut p,
        );
        let s = p.summary();
        assert_eq!(s.timeline.len(), 3);
        assert_eq!(s.timeline[0].start_ns, 0);
        assert_eq!(s.timeline[0].completes, 1);
        assert_eq!(s.timeline[0].queue_depth_samples, 1);
        assert!((s.timeline[0].mean_queue_depth() - 3.0).abs() < 1e-12);
        assert_eq!(s.timeline[1].start_ns, 100);
        assert_eq!(s.timeline[1].queue_depth_samples, 1);
        assert_eq!(s.timeline[2].gc_completes, 1);
        assert_eq!(s.timeline[2].completes, 0);
        // Window 0 disables the timeline entirely.
        let mut off = MetricsProbe::new(0);
        replay([issue(10, 0, 0, 3)].iter(), &mut off);
        assert!(off.summary().timeline.is_empty());
    }

    /// Splitting one event stream across two probes and merging their
    /// summaries equals one probe observing the whole stream.
    #[test]
    fn merge_equals_union_of_streams() {
        let events = [
            issue(10, 0, 0, 3),
            complete(50, 0, CmdClass::Write, false, 40),
            issue(120, 1, 1, 5),
            complete(260, 1, CmdClass::Read, false, 140),
            complete(300, 0, CmdClass::Write, true, 900),
        ];
        let mut whole = MetricsProbe::new(100);
        replay(events.iter(), &mut whole);

        let mut a = MetricsProbe::new(100);
        replay(events[..2].iter(), &mut a);
        let mut b = MetricsProbe::new(100);
        replay(events[2..].iter(), &mut b);
        let mut merged = a.into_summary();
        merged.merge(&b.into_summary());
        assert_eq!(merged, whole.into_summary());

        // Merging into an empty default adopts the other side wholesale.
        let mut empty = MetricsSummary::default();
        empty.merge(&merged);
        assert_eq!(empty, merged);
    }

    /// Offsets re-index shard-local tenants/channels into disjoint global
    /// ranges: two identical one-tenant shards merge into two distinct
    /// global tenants, not one doubled tenant.
    #[test]
    fn merge_offset_keeps_shards_disjoint() {
        let shard = || {
            let mut p = MetricsProbe::new(0);
            replay(
                [
                    issue(10, 0, 0, 1),
                    complete(60, 0, CmdClass::Write, false, 50),
                ]
                .iter(),
                &mut p,
            );
            p.into_summary()
        };
        let mut fleet = MetricsSummary::default();
        fleet.merge_offset(&shard(), 0, 0);
        fleet.merge_offset(&shard(), 4, 8);
        assert_eq!(fleet.tenants.len(), 5);
        assert_eq!(fleet.channels.len(), 9);
        assert_eq!(fleet.tenants[0].write.count, 1);
        assert_eq!(fleet.tenants[4].write.count, 1);
        assert!(fleet.tenants[1..4].iter().all(|t| t.write.count == 0));
        assert_eq!(fleet.channels[0].issues, 1);
        assert_eq!(fleet.channels[8].issues, 1);
        assert_eq!(fleet.events_observed, 4);
        assert_eq!(fleet.host_writes(), 2);
    }

    /// Timelines with mismatched window widths cannot be summed
    /// window-by-window; the merge drops the timeline rather than lie.
    #[test]
    fn merge_with_mismatched_windows_disables_timeline() {
        let probe_with_window = |w: u64| {
            let mut p = MetricsProbe::new(w);
            replay([issue(10, 0, 0, 1)].iter(), &mut p);
            p.into_summary()
        };
        let mut a = probe_with_window(100);
        a.merge(&probe_with_window(200));
        assert_eq!(a.window_ns, 0);
        assert!(a.timeline.is_empty());
        assert_eq!(a.events_observed, 2, "histograms still merged");
    }

    #[test]
    fn into_summary_matches_summary() {
        let mut p = MetricsProbe::new(50);
        replay(
            [
                issue(10, 3, 1, 2),
                complete(70, 3, CmdClass::Read, false, 60),
            ]
            .iter(),
            &mut p,
        );
        assert_eq!(p.summary(), p.clone().into_summary());
        assert_eq!(p.summary().tenants.len(), 4);
    }
}
