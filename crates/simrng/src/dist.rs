//! Distribution helpers shared by workload synthesis, the learner, and
//! ANN initialization.
//!
//! Everything here is a thin, deterministic transform over [`RngCore`]
//! draws — inverse-CDF where a closed form exists — so the sampled
//! streams are a pure function of the seed.

use crate::{Rng, RngCore};

/// Exponential sample with the given mean, via inverse CDF.
///
/// The uniform is drawn from `[EPSILON, 1)` so `ln` never sees zero.
#[inline]
pub fn exponential<R: RngCore + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Bounded-Zipf sample over `[0, n)` via the continuous inverse-CDF
/// approximation: `F(x) ∝ x^(1-θ)` on `[1, n]`, so
/// `x = ((n^(1-θ) - 1)·u + 1)^(1/(1-θ))`. Rank 1 (the hottest item) maps
/// to 0. Requires `0 < θ < 1`.
///
/// The approximation slightly underweights the very first ranks relative
/// to exact Zipf but preserves the power-law head/tail shape that matters
/// for GC and cache behaviour.
pub fn zipf<R: RngCore + ?Sized>(rng: &mut R, n: u64, theta: f64) -> u64 {
    debug_assert!(n > 0);
    debug_assert!(0.0 < theta && theta < 1.0);
    let one_minus = 1.0 - theta;
    let u: f64 = rng.gen_range(0.0..1.0);
    let x = ((n as f64).powf(one_minus) - 1.0)
        .mul_add(u, 1.0)
        .powf(1.0 / one_minus);
    (x as u64 - 1).min(n - 1)
}

/// The Xavier/Glorot uniform bound `sqrt(6 / (fan_in + fan_out))`.
#[inline]
pub(crate) fn xavier_limit(fan_in: usize, fan_out: usize) -> f32 {
    debug_assert!(fan_in + fan_out > 0);
    (6.0 / (fan_in + fan_out) as f32).sqrt()
}

/// One Xavier/Glorot-uniform weight: uniform in `±xavier_limit`.
#[inline]
pub fn xavier_uniform<R: RngCore + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> f32 {
    let limit = xavier_limit(fan_in, fan_out);
    rng.gen_range(-limit..limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn exponential_mean_is_respected() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.03, "mean {mean}");
    }

    #[test]
    fn exponential_is_non_negative() {
        let mut rng = SimRng::seed_from_u64(2);
        assert!((0..10_000).all(|_| exponential(&mut rng, 1.0) >= 0.0));
    }

    #[test]
    fn zipf_stays_in_range_and_is_head_heavy() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 10_000u64;
        let draws = 20_000;
        let mut head = 0usize;
        for _ in 0..draws {
            let v = zipf(&mut rng, n, 0.9);
            assert!(v < n);
            if v < n / 100 {
                head += 1;
            }
        }
        assert!(
            head as f64 / draws as f64 > 0.2,
            "hottest 1% drew only {head}/{draws}"
        );
    }

    #[test]
    fn zipf_skew_increases_with_theta() {
        let head_frac = |theta: f64| {
            let mut rng = SimRng::seed_from_u64(5);
            (0..10_000)
                .filter(|_| zipf(&mut rng, 10_000, theta) < 1_000)
                .count()
        };
        assert!(head_frac(0.9) > head_frac(0.5));
        assert!(head_frac(0.5) > head_frac(0.1));
    }

    #[test]
    fn xavier_init_is_bounded() {
        let mut rng = SimRng::seed_from_u64(10);
        let limit = xavier_limit(9, 64);
        assert!((limit - (6.0f32 / 73.0).sqrt()).abs() < 1e-7);
        for _ in 0..10_000 {
            let w = xavier_uniform(&mut rng, 9, 64);
            assert!(w.abs() <= limit);
        }
    }
}
