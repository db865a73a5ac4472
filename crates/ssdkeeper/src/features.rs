//! The 9-dimensional feature vector (§V-A).
//!
//! `[intensity level (1)] ++ [read/write characteristic per tenant (4)]
//! ++ [request share per tenant (4)]`, printed the way the paper does:
//! `[5] [1,0,1,0] [0.10,0.20,0.30,0.40]`.

use workloads::{IntensityScale, ObservedFeatures};

/// Number of tenants the paper's model is built for.
pub const TENANTS: usize = 4;
/// Width of the model input.
pub(crate) const FEATURE_DIM: usize = 1 + 2 * TENANTS;

/// The features collector's output for one observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Overall intensity level, 0–19.
    pub intensity_level: u32,
    /// Per-tenant read/write characteristic (0 write-dominated, 1
    /// read-dominated).
    pub rw_char: [u8; TENANTS],
    /// Per-tenant share of total requests (sums to 1 for active windows).
    pub shares: [f64; TENANTS],
}

impl FeatureVector {
    /// Builds the vector from window observations.
    ///
    /// Traces with fewer than four tenants are padded with idle tenants
    /// (characteristic 1, share 0), matching a device whose remaining
    /// namespaces are quiet.
    ///
    /// # Panics
    ///
    /// Panics when more than four tenants were observed.
    pub fn from_observed(obs: &ObservedFeatures, scale: &IntensityScale) -> Self {
        assert!(
            obs.tenants() <= TENANTS,
            "the paper's model handles up to {TENANTS} tenants"
        );
        let mut rw_char = [1u8; TENANTS];
        let mut shares = [0.0f64; TENANTS];
        let observed_shares = obs.shares();
        for t in 0..obs.tenants() {
            rw_char[t] = obs.rw_characteristic(t);
            shares[t] = observed_shares[t];
        }
        Self {
            intensity_level: obs.intensity_level(scale),
            rw_char,
            shares,
        }
    }

    /// The model input: level normalized to `[0,1]`, characteristics as
    /// 0/1, shares as-is.
    pub fn to_input(&self) -> [f32; FEATURE_DIM] {
        let mut out = [0.0f32; FEATURE_DIM];
        out[0] = self.intensity_level as f32 / 19.0;
        for t in 0..TENANTS {
            out[1 + t] = self.rw_char[t] as f32;
            out[1 + TENANTS + t] = self.shares[t] as f32;
        }
        out
    }

    /// Total write proportion implied by the features: write-dominated
    /// tenants contribute their share (the Figure 6 y-axis
    /// approximation).
    pub fn write_proportion_estimate(&self) -> f64 {
        (0..TENANTS)
            .filter(|&t| self.rw_char[t] == 0)
            .map(|t| self.shares[t])
            .sum()
    }
}

/// Quantizes a measured request *rate* into the 20-level intensity scale:
/// `level = floor(rate / max_iops * 20)`, clamped to 19. Used by offline
/// label generation, where the whole trace is visible and rate is the
/// honest intensity measure; the online collector uses
/// [`workloads::IntensityScale`] over a fixed window instead.
pub(crate) fn rate_intensity_level(requests: u64, span_ns: u64, max_iops: f64) -> u32 {
    assert!(max_iops > 0.0, "max_iops must be positive");
    if requests == 0 || span_ns == 0 {
        return 0;
    }
    let rate = requests as f64 / (span_ns as f64 / 1e9);
    ((rate / max_iops * 20.0) as u32).min(19)
}

impl FeatureVector {
    /// Builds the vector from a whole trace using the rate-based level.
    pub fn from_trace(trace: &[flash_sim::IoRequest], tenants: usize, max_iops: f64) -> Self {
        let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
        let span_ns = trace
            .last()
            .map(|r| r.arrival_ns.saturating_sub(trace[0].arrival_ns))
            .unwrap_or(0)
            .max(1);
        let mut rw_char = [1u8; TENANTS];
        let mut shares = [0.0f64; TENANTS];
        let observed_shares = obs.shares();
        for t in 0..obs.tenants().min(TENANTS) {
            rw_char[t] = obs.rw_characteristic(t);
            shares[t] = observed_shares[t];
        }
        Self {
            intensity_level: rate_intensity_level(obs.total(), span_ns, max_iops),
            rw_char,
            shares,
        }
    }
}

impl std::fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] [{},{},{},{}] [{:.2},{:.2},{:.2},{:.2}]",
            self.intensity_level,
            self.rw_char[0],
            self.rw_char[1],
            self.rw_char[2],
            self.rw_char[3],
            self.shares[0],
            self.shares[1],
            self.shares[2],
            self.shares[3],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::{IoRequest, Op};

    fn req(t: u16, op: Op, at: u64) -> IoRequest {
        IoRequest::new(0, t, op, 0, 1, at)
    }

    fn sample_obs() -> ObservedFeatures {
        let trace = vec![
            req(0, Op::Write, 0),
            req(0, Op::Write, 1),
            req(1, Op::Read, 2),
            req(2, Op::Read, 3),
            req(3, Op::Write, 4),
            req(3, Op::Read, 5),
            req(3, Op::Read, 6),
            req(3, Op::Read, 7),
        ];
        ObservedFeatures::collect(&trace, 4, u64::MAX)
    }

    #[test]
    fn from_observed_fills_all_slots() {
        let scale = IntensityScale::new(16.0);
        let fv = FeatureVector::from_observed(&sample_obs(), &scale);
        assert_eq!(fv.intensity_level, 10); // 8 of 16 requests → level 10
        assert_eq!(fv.rw_char, [0, 1, 1, 1]);
        assert_eq!(fv.shares, [0.25, 0.125, 0.125, 0.5]);
    }

    #[test]
    fn padding_for_two_tenant_traces() {
        let trace = vec![req(0, Op::Write, 0), req(1, Op::Read, 1)];
        let obs = ObservedFeatures::collect(&trace, 2, u64::MAX);
        let fv = FeatureVector::from_observed(&obs, &IntensityScale::new(4.0));
        assert_eq!(fv.rw_char, [0, 1, 1, 1]);
        assert_eq!(fv.shares[2], 0.0);
        assert_eq!(fv.shares[3], 0.0);
    }

    #[test]
    fn to_input_layout_and_normalization() {
        let fv = FeatureVector {
            intensity_level: 19,
            rw_char: [1, 0, 1, 0],
            shares: [0.1, 0.2, 0.3, 0.4],
        };
        let x = fv.to_input();
        assert_eq!(x.len(), 9);
        assert_eq!(x[0], 1.0);
        assert_eq!(&x[1..5], &[1.0, 0.0, 1.0, 0.0]);
        assert!((x[5] - 0.1).abs() < 1e-6);
        assert!((x[8] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn display_matches_paper_format() {
        let fv = FeatureVector {
            intensity_level: 5,
            rw_char: [1, 0, 1, 0],
            shares: [0.1, 0.2, 0.3, 0.4],
        };
        assert_eq!(fv.to_string(), "[5] [1,0,1,0] [0.10,0.20,0.30,0.40]");
    }

    #[test]
    fn write_proportion_estimate_sums_write_dominated_shares() {
        let fv = FeatureVector {
            intensity_level: 5,
            rw_char: [0, 1, 0, 1],
            shares: [0.4, 0.1, 0.2, 0.3],
        };
        assert!((fv.write_proportion_estimate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rate_level_quantization() {
        // 1000 requests over 0.1 s = 10k IOPS; max 20k → level 10.
        assert_eq!(rate_intensity_level(1000, 100_000_000, 20_000.0), 10);
        assert_eq!(rate_intensity_level(0, 100, 20_000.0), 0);
        assert_eq!(rate_intensity_level(10, 0, 20_000.0), 0);
        // Saturates at 19.
        assert_eq!(rate_intensity_level(1_000_000, 1_000_000, 1.0), 19);
    }

    #[test]
    fn from_trace_measures_rate_and_shares() {
        // 4 requests over 3 µs ≈ 1.33M IOPS; max 2M → level 13.
        let trace = vec![
            req(0, Op::Write, 0),
            req(1, Op::Read, 1_000),
            req(1, Op::Read, 2_000),
            req(2, Op::Read, 3_000),
        ];
        let fv = FeatureVector::from_trace(&trace, 4, 2_000_000.0);
        assert_eq!(fv.intensity_level, 13);
        assert_eq!(fv.rw_char, [0, 1, 1, 1]);
        assert_eq!(fv.shares, [0.25, 0.5, 0.25, 0.0]);
    }

    #[test]
    fn from_trace_empty_is_level_zero() {
        let fv = FeatureVector::from_trace(&[], 4, 1000.0);
        assert_eq!(fv.intensity_level, 0);
        assert_eq!(fv.shares, [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "up to 4 tenants")]
    fn too_many_tenants_panics() {
        let trace = vec![req(4, Op::Read, 0)];
        let obs = ObservedFeatures::collect(&trace, 5, u64::MAX);
        let _ = FeatureVector::from_observed(&obs, &IntensityScale::new(1.0));
    }
}
