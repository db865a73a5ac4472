//! Arrival-time generation.

use crate::spec::ArrivalProcess;
use simrng::Rng;

/// Stateful generator of monotonically increasing arrival timestamps.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalGen {
    process: ArrivalProcess,
    mean_gap_ns: f64,
    clock_ns: f64,
    /// Remaining requests in the current burst (OnOff only).
    burst_remaining: u32,
}

impl ArrivalGen {
    /// Builds a generator for a tenant with mean rate `iops`.
    ///
    /// # Panics
    ///
    /// Panics if `iops` is not positive.
    pub fn new(process: ArrivalProcess, iops: f64) -> Self {
        assert!(iops > 0.0, "arrival rate must be positive");
        Self {
            process,
            mean_gap_ns: 1e9 / iops,
            clock_ns: 0.0,
            burst_remaining: 0,
        }
    }

    /// Draws the next arrival time in nanoseconds.
    pub fn next_arrival(&mut self, rng: &mut impl Rng) -> u64 {
        let gap = match self.process {
            ArrivalProcess::Poisson => exponential(self.mean_gap_ns, rng),
            ArrivalProcess::OnOff {
                on_fraction,
                burst_len,
            } => {
                // Within a burst the rate is mean/on_fraction (faster);
                // between bursts a long gap restores the long-run mean.
                if self.burst_remaining == 0 {
                    self.burst_remaining = burst_len;
                    // Off-gap: the burst of `burst_len` requests takes
                    // `burst_len * gap_on`; the off time fills the rest of
                    // the cycle so the mean rate holds.
                    let gap_on = self.mean_gap_ns * on_fraction;
                    let cycle = burst_len as f64 * self.mean_gap_ns;
                    let off = cycle - burst_len as f64 * gap_on;
                    self.burst_remaining -= 1;
                    exponential(off.max(gap_on), rng)
                } else {
                    self.burst_remaining -= 1;
                    exponential(self.mean_gap_ns * on_fraction, rng)
                }
            }
        };
        self.clock_ns += gap;
        self.clock_ns as u64
    }
}

/// Exponential sample with the given mean, via [`simrng::dist`].
fn exponential(mean: f64, rng: &mut impl Rng) -> f64 {
    simrng::dist::exponential(rng, mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> simrng::SimRng {
        simrng::SimRng::seed_from_u64(seed)
    }

    #[test]
    fn arrivals_are_monotonic() {
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson, 10_000.0);
        let mut r = rng(1);
        let mut prev = 0;
        for _ in 0..1000 {
            let t = g.next_arrival(&mut r);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn poisson_mean_rate_is_respected() {
        let iops = 50_000.0;
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson, iops);
        let mut r = rng(2);
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = g.next_arrival(&mut r);
        }
        let measured = n as f64 / (last as f64 / 1e9);
        assert!(
            (measured - iops).abs() / iops < 0.05,
            "measured {measured} vs {iops}"
        );
    }

    #[test]
    fn onoff_long_run_rate_matches_mean() {
        let iops = 20_000.0;
        let mut g = ArrivalGen::new(
            ArrivalProcess::OnOff {
                on_fraction: 0.2,
                burst_len: 50,
            },
            iops,
        );
        let mut r = rng(3);
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = g.next_arrival(&mut r);
        }
        let measured = n as f64 / (last as f64 / 1e9);
        assert!(
            (measured - iops).abs() / iops < 0.1,
            "measured {measured} vs {iops}"
        );
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        // Compare squared coefficient of variation of gaps.
        let cv2 = |process: ArrivalProcess, seed: u64| -> f64 {
            let mut g = ArrivalGen::new(process, 10_000.0);
            let mut r = rng(seed);
            let mut prev = 0u64;
            let gaps: Vec<f64> = (0..20_000)
                .map(|_| {
                    let t = g.next_arrival(&mut r);
                    let gap = (t - prev) as f64;
                    prev = t;
                    gap
                })
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalProcess::Poisson, 4);
        let bursty = cv2(
            ArrivalProcess::OnOff {
                on_fraction: 0.1,
                burst_len: 100,
            },
            4,
        );
        assert!(
            bursty > poisson * 2.0,
            "bursty CV² {bursty} vs poisson {poisson}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut g = ArrivalGen::new(ArrivalProcess::Poisson, 1000.0);
            let mut r = rng(seed);
            (0..100).map(|_| g.next_arrival(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalGen::new(ArrivalProcess::Poisson, 0.0);
    }
}
