//! Fleet-level result aggregation.
//!
//! Each shard produces a [`flash_sim::MetricsSummary`] with *local*
//! tenant (slot) and channel indices. The fleet summary re-indexes them
//! into disjoint global ranges and merges bucket-wise via
//! [`MetricsSummary::merge_offset`]: global tenant `d * DEVICE_SLOTS + s`
//! is slot `s` of device `d`, global channel `d * channels + c` is
//! channel `c` of device `d`. The merged summary is an ordinary
//! `MetricsSummary`, so every `ssdtrace` renderer (text/JSON/CSV) applies
//! to a fleet run unchanged.
//!
//! Timelines are kept both ways: merged window-by-window inside
//! [`FleetSummary::merged`] (all shards share one simulated clock
//! starting at 0), and per shard — tagged with the device id — via
//! [`FleetSummary::tagged_timeline_csv`].

use flash_sim::stats::Fnv1a;
use flash_sim::MetricsSummary;
use ssdkeeper::placement::DEVICE_SLOTS;
use ssdkeeper::Strategy;

/// One shard's contribution to the fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Device (= shard) index.
    pub device: usize,
    /// Channel-allocation strategy the per-device keeper settled on.
    pub strategy: Strategy,
    /// Fleet tenant ids per namespace slot (dense prefix).
    pub slot_tenants: Vec<Vec<usize>>,
    /// The shard's local metrics summary (slot-indexed tenants).
    pub metrics: MetricsSummary,
    /// Discrete events the shard's simulator processed.
    pub events_processed: u64,
    /// Simulated completion time of the shard.
    pub makespan_ns: u64,
}

/// Merged view of a whole fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Bucket-wise merge of every shard, globally re-indexed (see the
    /// module docs for the index mapping).
    pub merged: MetricsSummary,
    /// Per-shard summaries, ascending by device id.
    pub shards: Vec<ShardSummary>,
    /// Channels per device (the global channel stride).
    pub channels_per_device: usize,
}

impl FleetSummary {
    /// Merges shard summaries (must be ascending by device id).
    pub(crate) fn from_shards(shards: Vec<ShardSummary>, channels_per_device: usize) -> Self {
        let mut merged = MetricsSummary::default();
        for shard in &shards {
            merged.merge_offset(
                &shard.metrics,
                shard.device * DEVICE_SLOTS,
                shard.device * channels_per_device,
            );
        }
        Self {
            merged,
            shards,
            channels_per_device,
        }
    }

    /// Discrete events processed across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Longest shard makespan — the fleet's simulated completion time
    /// (shards run concurrently in simulated time).
    pub fn makespan_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.makespan_ns).max().unwrap_or(0)
    }

    /// FNV-1a over the fleet's values: the merged summary's
    /// [`MetricsSummary::digest`], the shard count, then per shard its
    /// device, strategy index (in the four-tenant space), slot count and
    /// each slot's tenant count and tenant ids, its metrics digest,
    /// events and makespan; last the channels per device. Two fleet runs
    /// digest equal iff their results are bit-identical. This is the
    /// value the determinism gate compares across worker counts.
    pub fn digest(&self) -> u64 {
        let Self {
            merged,
            shards,
            channels_per_device,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(merged.digest());
        h.u64(shards.len() as u64);
        for ShardSummary {
            device,
            strategy,
            slot_tenants,
            metrics,
            events_processed,
            makespan_ns,
        } in shards
        {
            h.u64s([
                *device as u64,
                strategy.index(DEVICE_SLOTS) as u64,
                slot_tenants.len() as u64,
            ]);
            for slot in slot_tenants {
                h.u64(slot.len() as u64);
                h.u64s(slot.iter().map(|&t| t as u64));
            }
            h.u64s([metrics.digest(), *events_processed, *makespan_ns]);
        }
        h.u64(*channels_per_device as u64);
        h.finish()
    }

    /// Shard-tagged timeline concatenation: one CSV row per (shard,
    /// window), shards in device order, windows oldest first.
    pub fn tagged_timeline_csv(&self) -> String {
        let mut out = String::from(
            "shard,window_start_ns,completes,gc_completes,gc_passes,mean_queue_depth\n",
        );
        for shard in &self.shards {
            for w in &shard.metrics.timeline {
                out.push_str(&format!(
                    "{},{},{},{},{},{:.3}\n",
                    shard.device,
                    w.start_ns,
                    w.completes,
                    w.gc_completes,
                    w.gc_passes,
                    w.mean_queue_depth()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::metrics::{MetricsProbe, TenantMetrics};
    use flash_sim::probe::{replay, CmdComplete, ProbeEvent};
    use flash_sim::scheduler::CmdClass;

    fn shard(device: usize, latency_ns: u64) -> ShardSummary {
        let mut p = MetricsProbe::new(100);
        replay(
            [ProbeEvent::CmdComplete(CmdComplete {
                at_ns: 10,
                cmd: 1,
                tenant: 0,
                class: CmdClass::Write,
                gc: false,
                unit: 0,
                channel: 0,
                latency_ns,
            })]
            .iter(),
            &mut p,
        );
        ShardSummary {
            device,
            strategy: Strategy::Shared,
            slot_tenants: vec![vec![device]],
            metrics: p.into_summary(),
            events_processed: 5,
            makespan_ns: 100 * (device as u64 + 1),
        }
    }

    #[test]
    fn shards_merge_into_disjoint_global_tenants() {
        let fs = FleetSummary::from_shards(vec![shard(0, 50), shard(1, 70)], 8);
        assert_eq!(fs.merged.tenants.len(), DEVICE_SLOTS + 1);
        assert_eq!(fs.merged.tenants[0].write.count, 1);
        assert_eq!(fs.merged.tenants[DEVICE_SLOTS].write.count, 1);
        assert_eq!(
            fs.merged.tenants[1],
            TenantMetrics::default(),
            "no cross-shard conflation"
        );
        assert_eq!(fs.total_events(), 10);
        assert_eq!(fs.makespan_ns(), 200);
        // Timelines merged window-by-window in the global view...
        assert_eq!(fs.merged.timeline[0].completes, 2);
        // ...and concatenated with shard tags in the CSV.
        let csv = fs.tagged_timeline_csv();
        assert!(csv.starts_with("shard,"));
        assert!(csv.contains("\n0,0,1,"));
        assert!(csv.contains("\n1,0,1,"));
    }

    #[test]
    fn digest_is_sensitive_to_any_shard() {
        let a = FleetSummary::from_shards(vec![shard(0, 50), shard(1, 70)], 8);
        let b = FleetSummary::from_shards(vec![shard(0, 50), shard(1, 71)], 8);
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
    }
}
