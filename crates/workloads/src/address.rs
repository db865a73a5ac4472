//! Address (LPN) generation for the three locality patterns.

use crate::spec::AddressPattern;
use simrng::Rng;

/// Stateful LPN generator for one tenant.
#[derive(Debug, Clone)]
pub(crate) struct AddressGen {
    pattern: AddressPattern,
    lpn_space: u64,
    /// Sequential-run cursor.
    run_pos: u64,
    run_remaining: u32,
}

impl AddressGen {
    /// Builds a generator over `0..lpn_space`.
    ///
    /// # Panics
    ///
    /// Panics if `lpn_space` is zero.
    pub fn new(pattern: AddressPattern, lpn_space: u64) -> Self {
        assert!(lpn_space > 0, "lpn space must be non-empty");
        Self {
            pattern,
            lpn_space,
            run_pos: 0,
            run_remaining: 0,
        }
    }

    /// Draws the starting LPN of the next request. `size` pages will be
    /// accessed from it; sequential runs advance by `size`.
    pub(crate) fn next_lpn(&mut self, size: u32, rng: &mut impl Rng) -> u64 {
        match self.pattern {
            AddressPattern::Uniform => rng.gen_range(0..self.lpn_space),
            AddressPattern::Zipf { theta } => zipf_approx(self.lpn_space, theta, rng),
            AddressPattern::SequentialRuns { run_len } => {
                if self.run_remaining == 0 {
                    self.run_remaining = run_len;
                    self.run_pos = rng.gen_range(0..self.lpn_space);
                }
                self.run_remaining -= 1;
                let lpn = self.run_pos;
                self.run_pos = (self.run_pos + size as u64) % self.lpn_space;
                lpn
            }
        }
    }
}

/// Bounded-Zipf sample via the continuous inverse-CDF approximation:
/// `F(x) ∝ x^(1-θ)` on `[1, n]`, so `x = ((n^(1-θ) - 1)·u + 1)^(1/(1-θ))`.
/// Rank 1 (the hottest page) maps to LPN 0.
///
/// The approximation slightly underweights the very first ranks relative
/// to exact Zipf but preserves the power-law head/tail shape that matters
/// for GC and cache behaviour.
pub(crate) fn zipf_approx(n: u64, theta: f64, rng: &mut impl Rng) -> u64 {
    simrng::dist::zipf(rng, n, theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::Rng;

    fn rng(seed: u64) -> simrng::SimRng {
        simrng::SimRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut g = AddressGen::new(AddressPattern::Uniform, 32);
        let mut r = rng(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let lpn = g.next_lpn(1, &mut r);
            assert!(lpn < 32);
            seen.insert(lpn);
        }
        assert_eq!(seen.len(), 32, "2000 uniform draws should cover 32 slots");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let n = 10_000u64;
        let mut r = rng(2);
        let mut head = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            if zipf_approx(n, 0.9, &mut r) < n / 100 {
                head += 1;
            }
        }
        // With theta=0.9, the hottest 1% of pages should absorb far more
        // than 1% of accesses.
        assert!(
            head as f64 / draws as f64 > 0.2,
            "head fraction {}",
            head as f64 / draws as f64
        );
    }

    #[test]
    fn zipf_skew_increases_with_theta() {
        let n = 10_000u64;
        let head_frac = |theta: f64| {
            let mut r = rng(3);
            let mut head = 0usize;
            for _ in 0..10_000 {
                if zipf_approx(n, theta, &mut r) < n / 10 {
                    head += 1;
                }
            }
            head as f64 / 10_000.0
        };
        assert!(head_frac(0.9) > head_frac(0.5));
        assert!(head_frac(0.5) > head_frac(0.1));
    }

    #[test]
    fn sequential_runs_walk_forward() {
        let mut g = AddressGen::new(AddressPattern::SequentialRuns { run_len: 4 }, 1000);
        let mut r = rng(4);
        let a = g.next_lpn(2, &mut r);
        let b = g.next_lpn(2, &mut r);
        let c = g.next_lpn(2, &mut r);
        let d = g.next_lpn(2, &mut r);
        assert_eq!(b, (a + 2) % 1000);
        assert_eq!(c, (b + 2) % 1000);
        assert_eq!(d, (c + 2) % 1000);
        // Fifth draw starts a new run (usually elsewhere).
        let e = g.next_lpn(2, &mut r);
        assert!(e < 1000);
    }

    #[test]
    fn sequential_runs_wrap_at_space_end() {
        let mut g = AddressGen::new(AddressPattern::SequentialRuns { run_len: 100 }, 8);
        let mut r = rng(5);
        for _ in 0..50 {
            assert!(g.next_lpn(3, &mut r) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_space_panics() {
        let _ = AddressGen::new(AddressPattern::Uniform, 0);
    }

    /// Zipf samples always fall inside [0, n), over seeded random
    /// (n, theta) pairs.
    #[test]
    fn zipf_in_range() {
        let mut meta = rng(801);
        for _ in 0..512 {
            let n = meta.gen_range(1u64..100_000);
            let theta = meta.gen_range(0.05f64..0.95);
            let mut r = rng(meta.gen());
            let v = zipf_approx(n, theta, &mut r);
            assert!(v < n, "n {n} theta {theta}");
        }
    }

    /// All patterns produce in-range addresses.
    #[test]
    fn all_patterns_in_range() {
        let mut meta = rng(802);
        for _ in 0..64 {
            let seed: u64 = meta.gen();
            let size = meta.gen_range(1u32..8);
            let patterns = [
                AddressPattern::Uniform,
                AddressPattern::Zipf { theta: 0.8 },
                AddressPattern::SequentialRuns { run_len: 7 },
            ];
            for p in patterns {
                let mut g = AddressGen::new(p, 513);
                let mut r = rng(seed);
                for _ in 0..64 {
                    assert!(g.next_lpn(size, &mut r) < 513);
                }
            }
        }
    }
}
