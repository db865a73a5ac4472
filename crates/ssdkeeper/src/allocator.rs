//! The channel allocator (§IV-D).
//!
//! A thin inference wrapper: forward-propagate the collector's features
//! through the trained network and emit the winning strategy. The paper
//! argues the overhead is negligible (`Σ 16·Nᵢ` bytes of parameters,
//! `Σ Nᵢ·Nᵢ₊₁` multiplications per decision); [`ChannelAllocator::cost`]
//! reports both numbers for this model.

use crate::features::{FeatureVector, FEATURE_DIM};
use crate::strategy::Strategy;
use ann::{Matrix, Network};

/// Inference-time cost figures for a deployed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatorCost {
    /// Parameter storage in bytes.
    pub param_bytes: usize,
    /// Floating-point multiplications per decision.
    pub mults_per_decision: usize,
}

/// Maps observed workload features to a channel-allocation strategy.
#[derive(Debug, Clone)]
pub struct ChannelAllocator {
    network: Network,
    max_total_iops: f64,
}

impl ChannelAllocator {
    /// Wraps a trained network.
    ///
    /// # Panics
    ///
    /// Panics unless the network is 9-in / 42-out (the paper topology).
    pub fn new(network: Network, max_total_iops: f64) -> Self {
        assert_eq!(network.input_width(), 9, "expected 9 input features");
        assert_eq!(network.output_width(), 42, "expected 42 strategy classes");
        assert!(max_total_iops > 0.0);
        Self {
            network,
            max_total_iops,
        }
    }

    /// The IOPS that saturate the intensity scale this model was trained
    /// with; online feature extraction must use the same calibration.
    pub fn max_total_iops(&self) -> f64 {
        self.max_total_iops
    }

    /// Predicts the best strategy for the observed features.
    pub fn predict(&self, features: &FeatureVector) -> Strategy {
        obs::span!("decide");
        obs::counter_add!("keeper.decisions", 1u64);
        let class = self.network.predict_one(&features.to_input());
        Strategy::from_index(class, 4).expect("42-way output maps onto the strategy space")
    }

    /// Batched prediction: the feature vectors packed into one matrix,
    /// one forward pass for the whole window. Each decision equals what
    /// [`ChannelAllocator::predict`] returns for that feature vector alone
    /// (rows never mix in [`Network::forward`]).
    pub fn predict_batch(&self, features: &[FeatureVector]) -> Vec<Strategy> {
        obs::span!("decide_batch");
        obs::counter_add!("keeper.decisions", features.len() as u64);
        let mut x = Matrix::zeros(features.len(), FEATURE_DIM);
        for (i, f) in features.iter().enumerate() {
            x.row_mut(i).copy_from_slice(&f.to_input());
        }
        self.network
            .predict(&x)
            .into_iter()
            .map(|class| {
                Strategy::from_index(class, 4).expect("42-way output maps onto the strategy space")
            })
            .collect()
    }

    /// Class probabilities over the 42 strategies (for analysis).
    pub fn predict_proba(&self, features: &FeatureVector) -> Vec<f32> {
        let x = Matrix::from_rows(&[&features.to_input()]);
        self.network.predict_proba(&x).row(0).to_vec()
    }

    /// Inference cost of this model.
    pub fn cost(&self) -> AllocatorCost {
        AllocatorCost {
            param_bytes: self.network.param_bytes(),
            mults_per_decision: self.network.forward_mults(),
        }
    }

    /// Borrow the underlying network (e.g. for persistence via
    /// [`ann::io`]).
    pub fn network(&self) -> &Network {
        &self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::Activation;

    fn allocator() -> ChannelAllocator {
        ChannelAllocator::new(Network::paper_topology(Activation::Logistic, 3), 100_000.0)
    }

    fn fv(level: u32) -> FeatureVector {
        FeatureVector {
            intensity_level: level,
            rw_char: [0, 1, 0, 1],
            shares: [0.4, 0.1, 0.3, 0.2],
        }
    }

    #[test]
    fn predict_returns_a_strategy_in_the_space() {
        let a = allocator();
        let s = a.predict(&fv(10));
        assert!(s.index(4) < 42);
    }

    #[test]
    fn predict_is_deterministic() {
        let a = allocator();
        assert_eq!(a.predict(&fv(5)), a.predict(&fv(5)));
    }

    #[test]
    fn proba_sums_to_one_and_matches_argmax() {
        let a = allocator();
        let p = a.predict_proba(&fv(7));
        assert_eq!(p.len(), 42);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(a.predict(&fv(7)).index(4), argmax);
    }

    #[test]
    fn batched_decisions_match_single_decisions() {
        let a = allocator();
        let features: Vec<FeatureVector> = (0..20).map(fv).collect();
        let out = a.predict_batch(&features);
        assert_eq!(out.len(), features.len());
        for (f, s) in features.iter().zip(out.iter()) {
            assert_eq!(*s, a.predict(f), "batched decision drifted");
        }
        assert!(a.predict_batch(&[]).is_empty());
    }

    /// A seeded corpus of realistic keeper feature vectors: mixed
    /// intensities, all read/write characters, normalized channel shares.
    fn corpus(seed: u64, n: usize) -> Vec<FeatureVector> {
        use simrng::{Rng, SimRng};
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD0C5);
        (0..n)
            .map(|_| {
                let mut shares = [0.0f64; 4];
                let mut total = 0.0;
                for s in shares.iter_mut() {
                    *s = rng.gen_range(0.05..1.0);
                    total += *s;
                }
                for s in shares.iter_mut() {
                    *s /= total;
                }
                FeatureVector {
                    intensity_level: rng.gen_range(0u32..20),
                    rw_char: [
                        rng.gen_range(0u8..2),
                        rng.gen_range(0u8..2),
                        rng.gen_range(0u8..2),
                        rng.gen_range(0u8..2),
                    ],
                    shares,
                }
            })
            .collect()
    }

    /// The decision digest is pinned: any change to the forward kernel,
    /// the feature packing or the class-to-strategy mapping moves it.
    /// Every batched row must also equal the single-row decision.
    #[test]
    fn decision_digest_is_pinned() {
        let a = ChannelAllocator::new(Network::paper_topology(Activation::Logistic, 3), 120_000.0);
        let features = corpus(3, 64);
        let decisions = a.predict_batch(&features);
        for (f, s) in features.iter().zip(&decisions) {
            assert_eq!(*s, a.predict(f), "batched decision drifted");
        }
        // FNV-1a over the decided strategy indices.
        let digest = decisions.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
            (h ^ d.index(4) as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, 0xf69b_2745_6b3e_e725, "got 0x{digest:016x}");
    }

    #[test]
    fn cost_matches_paper_topology() {
        let c = allocator().cost();
        assert_eq!(c.mults_per_decision, 9 * 64 + 64 * 42);
        assert_eq!(c.param_bytes, (9 * 64 + 64 + 64 * 42 + 42) * 4);
        // "Negligible" indeed: under 16 KB and ~3.3k multiplications.
        assert!(c.param_bytes < 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "42 strategy classes")]
    fn wrong_topology_is_rejected() {
        let net = Network::builder(9, 1)
            .hidden(8, Activation::ReLU)
            .output(10)
            .build();
        let _ = ChannelAllocator::new(net, 1.0);
    }

    #[test]
    fn exposes_calibration_and_network() {
        let a = allocator();
        assert_eq!(a.max_total_iops(), 100_000.0);
        assert_eq!(a.network().output_width(), 42);
    }
}
