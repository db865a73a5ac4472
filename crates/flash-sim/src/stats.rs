//! Latency accounting and end-of-run reports.
//!
//! Every latency and phase sample lands in one histogram type,
//! [`Log2Hist`]: exact count, sum, min and max, plus `N` log₂ buckets.
//! Reports print both means — the metric the paper's figures use — and
//! tail percentiles for the extended analyses. [`LatencyStats`] (64
//! buckets) holds request latencies; [`PhaseHist`] (32 buckets, the
//! always-on per-phase histograms) clamps samples at 2³¹ ns.
//!
//! [`SimReport::digest`] and [`crate::MetricsSummary::digest`] reduce a
//! report to one 64-bit [`Fnv1a`] value over its numbers alone, so the
//! determinism pins move when a number changes and never when a field or
//! type is renamed.

use crate::ftl::wear::WearSummary;
use crate::ftl::FtlStats;

/// 64-bit FNV-1a over a byte stream: the one digest behind every report
/// pin. Integers are fed as little-endian `u64` ([`Fnv1a::u64`]), floats
/// as their bit patterns (`to_bits`), and every `Vec` or array is
/// preceded by its length, so two reports digest equal iff their values
/// are bit-identical, whatever their fields or types are called.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        Self::default()
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds an integer as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds each integer in turn, as [`Fnv1a::u64`] does.
    pub fn u64s(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.u64(v);
        }
    }

    /// Feeds a float as its bit pattern (`-0.0` and `0.0` differ).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Streaming log₂ histogram: sample `v` lands in bucket
/// `min(bits(v), N - 1)`, where `bits(0) = 0`, so bucket `i > 0` holds
/// `[2^(i-1), 2^i)` and the last bucket also holds everything larger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist<const N: usize> {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples in nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Samples per log₂ bucket.
    pub buckets: [u64; N],
}

/// Request-latency histogram: 64 buckets cover every `u64`.
pub type LatencyStats = Log2Hist<64>;

/// Per-phase histogram: 32 buckets cover 1 ns .. ~2 s, with everything
/// larger clamped into the last bucket, so the always-on phase
/// histograms stay small.
pub type PhaseHist = Log2Hist<PHASE_BUCKETS>;

const PHASE_BUCKETS: usize = 32;

impl<const N: usize> Default for Log2Hist<N> {
    fn default() -> Self {
        Self {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; N],
        }
    }
}

impl<const N: usize> Log2Hist<N> {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum_ns += v;
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket.min(N - 1)] += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Feeds count, sum, min, max, then the bucket count and every
    /// bucket.
    pub(crate) fn feed(&self, h: &mut Fnv1a) {
        let Self {
            count,
            sum_ns,
            min_ns,
            max_ns,
            buckets,
        } = self;
        h.u64s([*count, *sum_ns, *min_ns, *max_ns, N as u64]);
        h.u64s(*buckets);
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Mean sample in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    /// Approximate percentile (0.0..=1.0) from the log₂ buckets: the upper
    /// edge `1 << i` of the bucket containing the quantile, so the estimate
    /// errs high by at most 2×. Bucket 0 (samples equal to 0) reports 0,
    /// and samples clamped into the last bucket report its edge
    /// `1 << (N - 1)`.
    ///
    /// Edge-case contract: an empty histogram reports 0 for every `q`;
    /// out-of-range `q` clamps into `[0, 1]` (`q < 0` behaves like 0,
    /// `q > 1` like 1); a NaN `q` is treated as 0. No input can panic or
    /// index past the last bucket.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (N - 1)
    }
}

/// Decomposition of page-command time into its four phases, summed over
/// commands of one class. This is the quantitative form of the paper's
/// "access conflicts": waiting time at the die/plane and at the channel
/// bus is exactly the interference other requests impose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time spent queued for the execution unit (plane/die).
    pub wait_unit_ns: u64,
    /// Time executing array operations (read/program).
    pub array_ns: u64,
    /// Time holding the unit while queued for the channel bus.
    pub wait_bus_ns: u64,
    /// Time transferring on the bus.
    pub transfer_ns: u64,
    /// Page commands accounted.
    pub cmds: u64,
}

impl LatencyBreakdown {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.wait_unit_ns + self.array_ns + self.wait_bus_ns + self.transfer_ns
    }

    /// Mean per-command waiting time (unit + bus queues), µs.
    pub fn mean_wait_us(&self) -> f64 {
        if self.cmds == 0 {
            0.0
        } else {
            (self.wait_unit_ns + self.wait_bus_ns) as f64 / self.cmds as f64 / 1_000.0
        }
    }

    /// Feeds the five sums in declaration order.
    fn feed(&self, h: &mut Fnv1a) {
        let Self {
            wait_unit_ns,
            array_ns,
            wait_bus_ns,
            transfer_ns,
            cmds,
        } = *self;
        h.u64s([wait_unit_ns, array_ns, wait_bus_ns, transfer_ns, cmds]);
    }

    /// Fraction of command time spent waiting — the conflict share.
    pub fn conflict_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            (self.wait_unit_ns + self.wait_bus_ns) as f64 / total as f64
        }
    }
}

/// Where simulated time goes, histogrammed per phase — the report-level
/// aggregation of the probe layer's hook points (see `probe` module docs).
/// Recorded unconditionally: the entries update at the same places the
/// [`LatencyBreakdown`] sums do, reusing already-computed durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Per-command time queued for the execution unit (plane/die).
    pub wait_unit: PhaseHist,
    /// Per-command array operation time (read sense / program).
    pub array: PhaseHist,
    /// Per-command time holding the unit while waiting for the bus.
    pub wait_bus: PhaseHist,
    /// Per-command bus transfer time.
    pub transfer: PhaseHist,
    /// Per-pass GC composite duration.
    pub gc_exec: PhaseHist,
    /// Unit backlog sampled at each command issue (samples, not ns).
    pub queue_depth: PhaseHist,
}

impl PhaseReport {
    /// Merges another phase report into this one.
    pub fn merge(&mut self, other: &PhaseReport) {
        self.wait_unit.merge(&other.wait_unit);
        self.array.merge(&other.array);
        self.wait_bus.merge(&other.wait_bus);
        self.transfer.merge(&other.transfer);
        self.gc_exec.merge(&other.gc_exec);
        self.queue_depth.merge(&other.queue_depth);
    }

    /// Feeds the six histograms in declaration order.
    fn feed(&self, h: &mut Fnv1a) {
        let Self {
            wait_unit,
            array,
            wait_bus,
            transfer,
            gc_exec,
            queue_depth,
        } = self;
        for hist in [wait_unit, array, wait_bus, transfer, gc_exec, queue_depth] {
            hist.feed(h);
        }
    }
}

/// Per-tenant latency breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Read-request latencies.
    pub read: LatencyStats,
    /// Write-request latencies.
    pub write: LatencyStats,
}

/// End-of-run report for one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-tenant breakdown, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
    /// All read requests across tenants.
    pub read: LatencyStats,
    /// All write requests across tenants.
    pub write: LatencyStats,
    /// All requests.
    pub total: LatencyStats,
    /// FTL counters (GC, write amplification, seeding).
    pub ftl: FtlStats,
    /// Device wear summary.
    pub wear: WearSummary,
    /// Simulated time at which the last command completed.
    pub makespan_ns: u64,
    /// Number of discrete events processed.
    pub events_processed: u64,
    /// Per-channel bus busy time in nanoseconds (index = channel).
    pub bus_busy_ns: Vec<u64>,
    /// Phase decomposition of read page-commands.
    pub read_breakdown: LatencyBreakdown,
    /// Phase decomposition of host write page-commands (GC excluded).
    pub write_breakdown: LatencyBreakdown,
    /// Total die time consumed by GC composite operations.
    pub gc_busy_ns: u64,
    /// Per-phase latency and queue-depth histograms (always collected).
    pub phases: PhaseReport,
}

impl SimReport {
    /// The paper's overall performance metric: mean read latency plus mean
    /// write latency (µs). Lower is better; §III-B sums the two series and
    /// Figure 5(c) reports exactly this as "total response latency".
    pub fn total_latency_metric_us(&self) -> f64 {
        self.read.mean_us() + self.write.mean_us()
    }

    /// Simulation throughput for a run that took `wall` of host time:
    /// discrete events processed per wall-clock second. This is the
    /// tracked perf metric of the `sim_throughput` bench; zero-duration
    /// walls report 0 rather than dividing by zero.
    pub fn events_per_sec(&self, wall: std::time::Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.events_processed as f64 / secs
        }
    }

    /// Per-channel bus utilization over the makespan, in `[0, 1]`.
    /// Empty runs report all zeros.
    pub fn bus_utilization(&self) -> Vec<f64> {
        if self.makespan_ns == 0 {
            return vec![0.0; self.bus_busy_ns.len()];
        }
        self.bus_busy_ns
            .iter()
            .map(|&b| b as f64 / self.makespan_ns as f64)
            .collect()
    }

    /// Highest-to-lowest channel utilization ratio; 1.0 means perfectly
    /// balanced buses (∞-free: returns `f64::INFINITY` when some channel
    /// idles completely while another works).
    pub fn bus_imbalance(&self) -> f64 {
        let util = self.bus_utilization();
        let max = util.iter().copied().fold(0.0f64, f64::max);
        let min = util.iter().copied().fold(f64::INFINITY, f64::min);
        if max == 0.0 {
            1.0
        } else {
            max / min
        }
    }

    /// FNV-1a over every value of the report, in declaration order:
    /// tenant count, then each tenant's read and write histograms; the
    /// read, write and total histograms; the five FTL counters; the wear
    /// summary (erases, min, max, then mean and standard deviation as
    /// bits); makespan and events; channel count and each channel's busy
    /// time; the read and write breakdowns; GC busy time; and the six
    /// phase histograms. A histogram feeds count, sum, min, max, bucket
    /// count and buckets ([`Fnv1a`] has the encoding). Two reports
    /// digest equal iff they are bit-identical; the determinism suite
    /// pins this value.
    pub fn digest(&self) -> u64 {
        let Self {
            tenants,
            read,
            write,
            total,
            ftl,
            wear,
            makespan_ns,
            events_processed,
            bus_busy_ns,
            read_breakdown,
            write_breakdown,
            gc_busy_ns,
            phases,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(tenants.len() as u64);
        for TenantReport { read, write } in tenants {
            read.feed(&mut h);
            write.feed(&mut h);
        }
        for hist in [read, write, total] {
            hist.feed(&mut h);
        }
        let FtlStats {
            host_pages_written,
            gc_pages_moved,
            gc_blocks_erased,
            gc_invocations,
            seeded_pages,
        } = *ftl;
        h.u64s([
            host_pages_written,
            gc_pages_moved,
            gc_blocks_erased,
            gc_invocations,
            seeded_pages,
        ]);
        let WearSummary {
            total_erases,
            min,
            max,
            mean,
            std_dev,
        } = *wear;
        h.u64s([total_erases, min.into(), max.into()]);
        h.f64(mean);
        h.f64(std_dev);
        h.u64s([*makespan_ns, *events_processed, bus_busy_ns.len() as u64]);
        h.u64s(bus_busy_ns.iter().copied());
        read_breakdown.feed(&mut h);
        write_breakdown.feed(&mut h);
        h.u64(*gc_busy_ns);
        phases.feed(&mut h);
        h.finish()
    }
}

/// One-step perturbations of every histogram field (count, sum, min, max
/// and one bucket), for the digest sensitivity tests.
#[cfg(test)]
pub(crate) fn hist_bumps<const N: usize>() -> [fn(&mut Log2Hist<N>); 5] {
    [
        |h| h.count += 1,
        |h| h.sum_ns += 1,
        |h| h.min_ns += 1,
        |h| h.max_ns += 1,
        |h| h.buckets[3] += 1,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    // Each histogram property below runs at both bucket counts in use:
    // 64 (`LatencyStats`) and 32 (`PhaseHist`).

    fn hist<const N: usize>(samples: &[u64]) -> Log2Hist<N> {
        let mut h = Log2Hist::<N>::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn events_per_sec_divides_by_wall_time() {
        let report = SimReport {
            tenants: Vec::new(),
            read: LatencyStats::new(),
            write: LatencyStats::new(),
            total: LatencyStats::new(),
            ftl: Default::default(),
            wear: Default::default(),
            makespan_ns: 0,
            events_processed: 1_000,
            bus_busy_ns: Vec::new(),
            read_breakdown: Default::default(),
            write_breakdown: Default::default(),
            gc_busy_ns: 0,
            phases: Default::default(),
        };
        let rate = report.events_per_sec(std::time::Duration::from_millis(500));
        assert_eq!(rate, 2_000.0);
        assert_eq!(report.events_per_sec(std::time::Duration::ZERO), 0.0);
    }

    /// A report with a distinct non-zero value in every field.
    fn sample_report() -> SimReport {
        let lat = |v: u64| hist::<64>(&[v, 3 * v]);
        let phase = |v: u64| hist::<32>(&[v]);
        let breakdown = |v: u64| LatencyBreakdown {
            wait_unit_ns: v,
            array_ns: v + 1,
            wait_bus_ns: v + 2,
            transfer_ns: v + 3,
            cmds: v + 4,
        };
        SimReport {
            tenants: (0..2)
                .map(|t| TenantReport {
                    read: lat(10 + t),
                    write: lat(20 + t),
                })
                .collect(),
            read: lat(30),
            write: lat(40),
            total: lat(50),
            ftl: FtlStats {
                host_pages_written: 60,
                gc_pages_moved: 61,
                gc_blocks_erased: 62,
                gc_invocations: 63,
                seeded_pages: 64,
            },
            wear: WearSummary {
                total_erases: 70,
                min: 71,
                max: 72,
                mean: 73.5,
                std_dev: 74.5,
            },
            makespan_ns: 80,
            events_processed: 81,
            bus_busy_ns: vec![90, 91],
            read_breakdown: breakdown(100),
            write_breakdown: breakdown(110),
            gc_busy_ns: 120,
            phases: PhaseReport {
                wait_unit: phase(130),
                array: phase(131),
                wait_bus: phase(132),
                transfer: phase(133),
                gc_exec: phase(134),
                queue_depth: phase(135),
            },
        }
    }

    /// Every value of a report reaches its digest: bumping any scalar by
    /// one, any histogram field or one bucket, or one `Vec` element, or
    /// growing a `Vec`, gives a digest unlike the base and every other
    /// perturbation.
    #[test]
    fn digest_moves_with_every_value() {
        let base = sample_report();
        assert_eq!(base.digest(), base.clone().digest());
        let mut seen = vec![base.digest()];
        let mut check = |what: &str, edit: &dyn Fn(&mut SimReport)| {
            let mut r = base.clone();
            edit(&mut r);
            let d = r.digest();
            assert!(!seen.contains(&d), "{what}: digest did not move");
            seen.push(d);
        };
        for (i, bump) in hist_bumps::<64>().into_iter().enumerate() {
            check(&format!("tenants[1].read #{i}"), &|r| {
                bump(&mut r.tenants[1].read)
            });
            check(&format!("tenants[1].write #{i}"), &|r| {
                bump(&mut r.tenants[1].write)
            });
            check(&format!("read #{i}"), &|r| bump(&mut r.read));
            check(&format!("write #{i}"), &|r| bump(&mut r.write));
            check(&format!("total #{i}"), &|r| bump(&mut r.total));
        }
        for (i, bump) in hist_bumps::<32>().into_iter().enumerate() {
            check(&format!("wait_unit #{i}"), &|r| {
                bump(&mut r.phases.wait_unit)
            });
            check(&format!("array #{i}"), &|r| bump(&mut r.phases.array));
            check(&format!("wait_bus #{i}"), &|r| bump(&mut r.phases.wait_bus));
            check(&format!("transfer #{i}"), &|r| bump(&mut r.phases.transfer));
            check(&format!("gc_exec #{i}"), &|r| bump(&mut r.phases.gc_exec));
            check(&format!("queue_depth #{i}"), &|r| {
                bump(&mut r.phases.queue_depth)
            });
        }
        let breakdowns: [fn(&mut SimReport) -> &mut LatencyBreakdown; 2] =
            [|r| &mut r.read_breakdown, |r| &mut r.write_breakdown];
        for (i, b) in breakdowns.into_iter().enumerate() {
            check(&format!("breakdown {i} wait_unit"), &|r| {
                b(r).wait_unit_ns += 1
            });
            check(&format!("breakdown {i} array"), &|r| b(r).array_ns += 1);
            check(&format!("breakdown {i} wait_bus"), &|r| {
                b(r).wait_bus_ns += 1
            });
            check(&format!("breakdown {i} transfer"), &|r| {
                b(r).transfer_ns += 1
            });
            check(&format!("breakdown {i} cmds"), &|r| b(r).cmds += 1);
        }
        check("tenants len", &|r| r.tenants.push(TenantReport::default()));
        check("ftl.host_pages_written", &|r| r.ftl.host_pages_written += 1);
        check("ftl.gc_pages_moved", &|r| r.ftl.gc_pages_moved += 1);
        check("ftl.gc_blocks_erased", &|r| r.ftl.gc_blocks_erased += 1);
        check("ftl.gc_invocations", &|r| r.ftl.gc_invocations += 1);
        check("ftl.seeded_pages", &|r| r.ftl.seeded_pages += 1);
        check("wear.total_erases", &|r| r.wear.total_erases += 1);
        check("wear.min", &|r| r.wear.min += 1);
        check("wear.max", &|r| r.wear.max += 1);
        check("wear.mean", &|r| r.wear.mean += 1.0);
        check("wear.std_dev", &|r| r.wear.std_dev += 1.0);
        check("makespan_ns", &|r| r.makespan_ns += 1);
        check("events_processed", &|r| r.events_processed += 1);
        check("bus_busy_ns[1]", &|r| r.bus_busy_ns[1] += 1);
        check("bus_busy_ns len", &|r| r.bus_busy_ns.push(0));
        check("gc_busy_ns", &|r| r.gc_busy_ns += 1);
    }

    fn records_every_field<const N: usize>() {
        let empty = Log2Hist::<N>::new();
        assert_eq!((empty.count, empty.min_ns, empty.max_ns), (0, u64::MAX, 0));
        assert_eq!(empty.mean_ns(), 0.0);

        let h = hist::<N>(&[100, 0, 300]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 400);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 300);
        assert_eq!(h.buckets[0], 1); // a zero sample is representable
        assert_eq!(h.buckets[7], 1); // 100 needs 7 bits
        assert_eq!(h.buckets[9], 1); // 300 needs 9 bits
        assert!((h.mean_ns() - 400.0 / 3.0).abs() < 1e-9);
        assert!((h.mean_us() - 0.4 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn record_updates_count_sum_min_max_and_buckets() {
        records_every_field::<64>();
        records_every_field::<32>();
    }

    fn edge_cases<const N: usize>() {
        let empty = Log2Hist::<N>::new();
        for q in [f64::NAN, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY] {
            assert_eq!(empty.percentile_ns(q), 0, "N = {N}, empty, q = {q}");
        }
        let h = hist::<N>(&[100, 200, 400, 800]);
        // q < 0 and NaN clamp to 0; q > 1 (and +inf) clamp to 1.
        assert_eq!(h.percentile_ns(-3.0), h.percentile_ns(0.0));
        assert_eq!(h.percentile_ns(f64::NAN), h.percentile_ns(0.0));
        assert_eq!(h.percentile_ns(7.5), h.percentile_ns(1.0));
        assert_eq!(h.percentile_ns(f64::INFINITY), h.percentile_ns(1.0));
    }

    /// The percentile edge-case contract: empty histograms report 0,
    /// out-of-range q clamps, NaN q behaves like q = 0.
    #[test]
    fn percentile_edge_cases_never_panic() {
        edge_cases::<64>();
        edge_cases::<32>();
    }

    fn last_bucket_clamps<const N: usize>() {
        // Samples at and past the last bucket's lower edge clamp into it
        // and report its edge, for any q, without indexing past it.
        for v in [1 << (N - 1), u64::MAX] {
            let h = hist::<N>(&[v]);
            assert_eq!(h.buckets[N - 1], 1);
            assert_eq!(h.max_ns, v);
            for q in [0.0, 0.5, 1.0, 99.0] {
                assert_eq!(h.percentile_ns(q), 1u64 << (N - 1), "N = {N}, v = {v}");
            }
        }
        // The bucket below the last is not clamped.
        let below = hist::<N>(&[(1 << (N - 2)) - 1]);
        assert_eq!(below.buckets[N - 2], 1);
        assert_eq!(below.percentile_ns(1.0), 1u64 << (N - 2));
    }

    #[test]
    fn last_bucket_clamp_reports_its_edge() {
        last_bucket_clamps::<64>();
        last_bucket_clamps::<32>();
    }

    fn exact_on_hand_built<const N: usize>() {
        // 10 samples of 0 (bucket 0), 10 of 3 (bucket 2, edge 4),
        // 10 of 1000 (bucket 10, edge 1024).
        let h = hist::<N>(&[[0, 3, 1000]; 10].concat());
        assert_eq!(h.percentile_ns(0.0), 0); // target clamps to first sample
        assert_eq!(h.percentile_ns(0.10), 0);
        assert_eq!(h.percentile_ns(1.0 / 3.0), 0); // exactly the 10th sample
        assert_eq!(h.percentile_ns(0.34), 4);
        assert_eq!(h.percentile_ns(2.0 / 3.0), 4);
        assert_eq!(h.percentile_ns(0.67), 1024);
        assert_eq!(h.percentile_ns(1.0), 1024);
    }

    /// Exact percentile values on a hand-built histogram where every
    /// bucket boundary is known.
    #[test]
    fn percentile_exact_on_hand_built_histogram() {
        exact_on_hand_built::<64>();
        exact_on_hand_built::<32>();
    }

    fn monotone<const N: usize>() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(7_000 + seed);
            let samples: Vec<u64> = (0..rng.gen_range(1usize..300))
                .map(|_| rng.gen_range(0u64..5_000_000_000))
                .collect();
            let h = hist::<N>(&samples);
            let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
            let ps: Vec<u64> = qs.iter().map(|&q| h.percentile_ns(q)).collect();
            for w in ps.windows(2) {
                assert!(w[0] <= w[1], "N = {N}, seed {seed}: {ps:?}");
            }
            assert!(
                ps[ps.len() - 1] <= h.max_ns.saturating_mul(2),
                "seed {seed}"
            );
        }
    }

    /// Percentile is monotone in q and never above twice the maximum.
    #[test]
    fn percentile_monotone_in_q() {
        monotone::<64>();
        monotone::<32>();
    }

    fn within_one_bucket<const N: usize>() {
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(9_000 + seed);
            let mut samples: Vec<u64> = (0..rng.gen_range(50usize..400))
                .map(|_| rng.gen_range(0u64..2_000_000))
                .collect();
            let h = hist::<N>(&samples);
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let target = ((samples.len() as f64) * q).ceil().max(1.0) as usize;
                let truth = samples[target - 1];
                let est = h.percentile_ns(q);
                if truth == 0 {
                    assert_eq!(est, 0, "N = {N}, seed {seed} q {q}");
                } else {
                    assert!(
                        est > truth && est <= truth.saturating_mul(2),
                        "N = {N}, seed {seed} q {q}: truth {truth}, estimate {est}"
                    );
                }
            }
        }
    }

    /// The bucketed estimate agrees with a sorted-sample reference to
    /// within one log₂ bucket: true_value < estimate <= 2 * true_value
    /// (with the zero bucket handled exactly).
    #[test]
    fn percentile_within_one_bucket_of_sorted_reference() {
        within_one_bucket::<64>();
        within_one_bucket::<32>();
    }

    fn merge_is_union<const N: usize>() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(1000 + seed);
            let xs: Vec<u64> = (0..rng.gen_range(0usize..50))
                .map(|_| rng.gen_range(0u64..5_000_000_000))
                .collect();
            let ys: Vec<u64> = (0..rng.gen_range(0usize..50))
                .map(|_| rng.gen_range(0u64..5_000_000_000))
                .collect();
            let mut a = hist::<N>(&xs);
            a.merge(&hist::<N>(&ys));
            assert_eq!(a, hist::<N>(&[xs, ys].concat()), "N = {N}, seed {seed}");
        }
    }

    /// merge(a, b) equals recording the union, min and max included.
    #[test]
    fn merge_equals_union() {
        merge_is_union::<64>();
        merge_is_union::<32>();
    }

    #[test]
    fn phase_report_merge_combines_all_phases() {
        let mut a = PhaseReport::default();
        a.wait_unit.record(1);
        a.gc_exec.record(2);
        let mut b = PhaseReport::default();
        b.wait_unit.record(3);
        b.queue_depth.record(4);
        a.merge(&b);
        assert_eq!(a.wait_unit.count, 2);
        assert_eq!((a.wait_unit.min_ns, a.wait_unit.max_ns), (1, 3));
        assert_eq!(a.gc_exec.count, 1);
        assert_eq!(a.queue_depth.count, 1);
    }
}
