//! Observation-window feature extraction (the features collector's math).
//!
//! SSDKeeper's features collector watches the mixed workload for a period
//! `T` and derives, per §V-A:
//!
//! * the **overall intensity level** — total requests in the window
//!   quantized to 20 levels;
//! * each tenant's **read/write characteristic** — 0 (write-dominated) or
//!   1 (read-dominated);
//! * each tenant's **share** of total requests (relative intensity, sums
//!   to 1).
//!
//! This module holds the trace-side computation; assembling the 9-D model
//! input lives in `ssdkeeper::features`.

use flash_sim::{IoRequest, Op};

/// Number of intensity levels the paper quantizes into.
pub(crate) const INTENSITY_LEVELS: u32 = 20;

/// Calibration of the intensity quantizer: the request count (per window)
/// that maps to the top level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityScale {
    /// Requests per observation window that saturate level 19.
    pub max_requests_per_window: f64,
}

impl IntensityScale {
    /// Scale that saturates at `max` requests per window.
    pub fn new(max: f64) -> Self {
        assert!(max > 0.0, "scale must be positive");
        Self {
            max_requests_per_window: max,
        }
    }

    /// Quantizes a request count to a level in `0..20`.
    pub fn level(&self, requests: u64) -> u32 {
        let frac = requests as f64 / self.max_requests_per_window;
        ((frac * INTENSITY_LEVELS as f64) as u32).min(INTENSITY_LEVELS - 1)
    }
}

/// Raw per-window observations for a fixed tenant count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedFeatures {
    /// Reads observed per tenant.
    pub reads: Vec<u64>,
    /// Writes observed per tenant.
    pub writes: Vec<u64>,
}

impl ObservedFeatures {
    /// Observes all requests with `arrival_ns < window_ns` (pass
    /// `u64::MAX` to observe a whole trace).
    pub fn collect(trace: &[IoRequest], tenants: usize, window_ns: u64) -> Self {
        Self::collect_range(trace, tenants, 0, window_ns)
    }

    /// Observes requests with `start_ns <= arrival_ns < end_ns`; the trace
    /// must be sorted by arrival. Used by periodic re-observation, where
    /// each decision sees only its own window.
    pub fn collect_range(trace: &[IoRequest], tenants: usize, start_ns: u64, end_ns: u64) -> Self {
        let mut reads = vec![0u64; tenants];
        let mut writes = vec![0u64; tenants];
        let begin = trace.partition_point(|r| r.arrival_ns < start_ns);
        for r in trace[begin..].iter().take_while(|r| r.arrival_ns < end_ns) {
            let t = r.tenant as usize;
            if t < tenants {
                match r.op {
                    Op::Read => reads[t] += 1,
                    Op::Write => writes[t] += 1,
                }
            }
        }
        Self { reads, writes }
    }

    /// Number of tenants observed.
    pub fn tenants(&self) -> usize {
        self.reads.len()
    }

    /// Total requests in the window.
    pub fn total(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Per-tenant request totals.
    pub(crate) fn per_tenant_total(&self, t: usize) -> u64 {
        self.reads[t] + self.writes[t]
    }

    /// The binary read/write characteristic: 1 when reads ≥ writes
    /// (read-dominated), else 0. Idle tenants default to read-dominated.
    pub fn rw_characteristic(&self, t: usize) -> u8 {
        u8::from(self.reads[t] >= self.writes[t])
    }

    /// Each tenant's share of the window's requests; all zeros for an
    /// empty window.
    pub fn shares(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.tenants()];
        }
        (0..self.tenants())
            .map(|t| self.per_tenant_total(t) as f64 / total as f64)
            .collect()
    }

    /// Total write fraction across tenants (the y-axis of Figure 6).
    #[cfg(test)]
    fn total_write_proportion(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.writes.iter().sum::<u64>() as f64 / total as f64
    }

    /// Intensity level under the given scale.
    pub fn intensity_level(&self, scale: &IntensityScale) -> u32 {
        scale.level(self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    fn req(t: u16, op: Op, at: u64) -> IoRequest {
        IoRequest::new(0, t, op, 0, 1, at)
    }

    #[test]
    fn collect_respects_window() {
        let trace = vec![
            req(0, Op::Read, 0),
            req(0, Op::Write, 50),
            req(1, Op::Read, 100), // outside window
        ];
        let obs = ObservedFeatures::collect(&trace, 2, 100);
        assert_eq!(obs.total(), 2);
        assert_eq!(obs.reads, vec![1, 0]);
        assert_eq!(obs.writes, vec![1, 0]);
    }

    #[test]
    fn characteristics_and_shares() {
        let trace = vec![
            req(0, Op::Write, 0),
            req(0, Op::Write, 1),
            req(0, Op::Read, 2),
            req(1, Op::Read, 3),
        ];
        let obs = ObservedFeatures::collect(&trace, 2, u64::MAX);
        assert_eq!(obs.rw_characteristic(0), 0, "tenant 0 write-dominated");
        assert_eq!(obs.rw_characteristic(1), 1, "tenant 1 read-dominated");
        assert_eq!(obs.shares(), vec![0.75, 0.25]);
        assert_eq!(obs.total_write_proportion(), 0.5);
    }

    #[test]
    fn collect_range_slices_by_arrival() {
        let trace = vec![
            req(0, Op::Read, 10),
            req(0, Op::Write, 20),
            req(1, Op::Read, 30),
            req(1, Op::Write, 40),
        ];
        let obs = ObservedFeatures::collect_range(&trace, 2, 20, 40);
        assert_eq!(obs.total(), 2);
        assert_eq!(obs.writes[0], 1);
        assert_eq!(obs.reads[1], 1);
        // Inclusive start, exclusive end.
        let edge = ObservedFeatures::collect_range(&trace, 2, 40, 41);
        assert_eq!(edge.total(), 1);
        // Empty range.
        assert_eq!(
            ObservedFeatures::collect_range(&trace, 2, 50, 100).total(),
            0
        );
    }

    #[test]
    fn collect_equals_collect_range_from_zero() {
        let trace: Vec<IoRequest> = (0..50)
            .map(|i| {
                req(
                    (i % 3) as u16,
                    if i % 2 == 0 { Op::Read } else { Op::Write },
                    i * 7,
                )
            })
            .collect();
        assert_eq!(
            ObservedFeatures::collect(&trace, 3, 200),
            ObservedFeatures::collect_range(&trace, 3, 0, 200)
        );
    }

    #[test]
    fn idle_tenant_defaults_to_read_dominated() {
        let obs = ObservedFeatures::collect(&[], 2, u64::MAX);
        assert_eq!(obs.rw_characteristic(0), 1);
        assert_eq!(obs.shares(), vec![0.0, 0.0]);
        assert_eq!(obs.total_write_proportion(), 0.0);
    }

    #[test]
    fn intensity_level_quantization() {
        let scale = IntensityScale::new(2_000.0);
        assert_eq!(scale.level(0), 0);
        assert_eq!(scale.level(99), 0);
        assert_eq!(scale.level(100), 1);
        assert_eq!(scale.level(1_000), 10);
        assert_eq!(scale.level(1_999), 19);
        assert_eq!(scale.level(2_000), 19, "clamped at the top level");
        assert_eq!(scale.level(1_000_000), 19);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = IntensityScale::new(0.0);
    }

    #[test]
    fn out_of_range_tenants_are_ignored() {
        let trace = vec![req(7, Op::Read, 0)];
        let obs = ObservedFeatures::collect(&trace, 2, u64::MAX);
        assert_eq!(obs.total(), 0);
    }

    /// Shares always sum to ~1 for non-empty windows and levels stay
    /// below 20, over seeded random op mixes.
    #[test]
    fn invariants() {
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let len = rng.gen_range(1usize..300);
            let ops: Vec<(u16, bool)> = (0..len)
                .map(|_| (rng.gen_range(0u16..4), rng.gen()))
                .collect();
            let scale_max = rng.gen_range(1.0f64..10_000.0);
            let trace: Vec<IoRequest> = ops
                .iter()
                .enumerate()
                .map(|(i, &(t, is_read))| {
                    req(t, if is_read { Op::Read } else { Op::Write }, i as u64)
                })
                .collect();
            let obs = ObservedFeatures::collect(&trace, 4, u64::MAX);
            let sum: f64 = obs.shares().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "seed {seed}");
            let scale = IntensityScale::new(scale_max);
            assert!(
                obs.intensity_level(&scale) < INTENSITY_LEVELS,
                "seed {seed}"
            );
            let wp = obs.total_write_proportion();
            assert!((0.0..=1.0).contains(&wp), "seed {seed}");
        }
    }
}
