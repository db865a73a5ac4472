//! The channel allocator (§IV-D).
//!
//! A thin inference wrapper: forward-propagate the collector's features
//! through the trained network and emit the winning strategy. The paper
//! argues the overhead is negligible (`Σ 16·Nᵢ` bytes of parameters,
//! `Σ Nᵢ·Nᵢ₊₁` multiplications per decision); [`ChannelAllocator::cost`]
//! reports both numbers for this model.
//!
//! Batching is the one throughput lever:
//! [`ChannelAllocator::predict_batch_into`] packs many feature vectors
//! into one matrix and runs each layer's kernel once for the whole window
//! instead of once per tenant, through reused [`DecisionScratch`] buffers
//! (zero steady-state allocations).

use crate::features::FeatureVector;
use crate::strategy::Strategy;
use ann::network::ForwardScratch;
use ann::{Matrix, Network};

/// Inference-time cost figures for a deployed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatorCost {
    /// Parameter storage in bytes.
    pub param_bytes: usize,
    /// Floating-point multiplications per decision.
    pub mults_per_decision: usize,
}

/// Reusable buffers for batched allocator decisions: the packed feature
/// matrix, the network's forward scratch, and the class output vector.
/// One scratch serves any number of allocators.
#[derive(Debug)]
pub struct DecisionScratch {
    input: Matrix,
    fwd: ForwardScratch,
    classes: Vec<usize>,
}

impl Default for DecisionScratch {
    fn default() -> Self {
        Self {
            input: Matrix::zeros(0, 0),
            fwd: ForwardScratch::new(),
            classes: Vec::new(),
        }
    }
}

impl DecisionScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }
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

    /// Batched prediction through reused scratch buffers: one kernel
    /// invocation per layer for the whole window. Each decision equals
    /// what [`ChannelAllocator::predict`] would return for that feature
    /// vector alone (the kernel is row-independent).
    pub fn predict_batch_into(
        &self,
        features: &[FeatureVector],
        scratch: &mut DecisionScratch,
        out: &mut Vec<Strategy>,
    ) {
        out.clear();
        if features.is_empty() {
            return;
        }
        obs::span!("decide_batch");
        obs::counter_add!("keeper.decisions", features.len() as u64);
        scratch.input.resize(features.len(), 9);
        for (i, f) in features.iter().enumerate() {
            scratch.input.row_mut(i).copy_from_slice(&f.to_input());
        }
        self.network
            .predict_batch_into(&scratch.input, &mut scratch.fwd, &mut scratch.classes);
        out.reserve(scratch.classes.len());
        for &class in &scratch.classes {
            out.push(
                Strategy::from_index(class, 4).expect("42-way output maps onto the strategy space"),
            );
        }
    }

    /// Batched prediction, allocating the result vector.
    pub fn predict_batch(&self, features: &[FeatureVector]) -> Vec<Strategy> {
        let mut scratch = DecisionScratch::new();
        let mut out = Vec::new();
        self.predict_batch_into(features, &mut scratch, &mut out);
        out
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
        let mut scratch = DecisionScratch::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            // Second pass runs with warm buffers.
            a.predict_batch_into(&features, &mut scratch, &mut out);
            assert_eq!(out.len(), features.len());
            for (f, s) in features.iter().zip(out.iter()) {
                assert_eq!(*s, a.predict(f), "batched decision drifted");
            }
        }
        a.predict_batch_into(&[], &mut scratch, &mut out);
        assert!(out.is_empty());
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
