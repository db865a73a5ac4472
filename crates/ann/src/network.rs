//! Multi-layer perceptron assembled from dense layers.

use crate::activation::Activation;
use crate::layer::{Dense, DenseGrads};
use crate::loss::{softmax_cross_entropy, softmax_rows};
use crate::matrix::Matrix;

/// A feed-forward network. The last layer emits logits (identity
/// activation); classification probabilities come from softmax in the
/// loss / in [`Network::predict_proba`].
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Dense>,
}

/// Builder for [`Network`]; see [`Network::builder`].
pub struct NetworkBuilder {
    input: usize,
    rng: simrng::SimRng,
    layers: Vec<Dense>,
    output_done: bool,
}

impl Network {
    /// Starts building a network with `input` features; `seed` makes the
    /// weight initialization reproducible.
    pub fn builder(input: usize, seed: u64) -> NetworkBuilder {
        NetworkBuilder {
            input,
            rng: simrng::SimRng::seed_from_u64(seed),
            layers: Vec::new(),
            output_done: false,
        }
    }

    /// The paper's topology: 9 input features, one hidden layer of 64
    /// neurons with the given activation, 42 output classes (§IV-D).
    pub fn paper_topology(hidden_act: Activation, seed: u64) -> Self {
        Self::builder(9, seed)
            .hidden(64, hidden_act)
            .output(42)
            .build()
    }

    /// Constructs directly from layers (used by [`crate::io`]).
    ///
    /// # Panics
    ///
    /// Panics if consecutive layers have mismatched widths or no layers
    /// are given.
    pub(crate) fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].fan_out(), pair[1].fan_in(), "layer width mismatch");
        }
        Self { layers }
    }

    /// The layers, input to output.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input feature count.
    pub fn input_width(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Output class count.
    pub fn output_width(&self) -> usize {
        self.layers.last().expect("non-empty").fan_out()
    }

    /// Forward pass returning the logits for a batch. Rows never mix:
    /// each output row is bit-identical to the forward pass of its input
    /// row alone, so a batched decision equals the single-row one.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            a = layer.forward(&a);
        }
        a
    }

    /// Forward pass keeping every intermediate activation
    /// (`[x, a1, ..., logits]`); used by backprop.
    pub(crate) fn forward_trace(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Class probabilities (softmax of the logits).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = self.forward(x);
        softmax_rows(&mut logits);
        logits
    }

    /// Arg-max class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows())
            .map(|i| {
                logits
                    .row(i)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(j, _)| j)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Predicts the class of a single feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the input width.
    pub fn predict_one(&self, features: &[f32]) -> usize {
        assert_eq!(features.len(), self.input_width(), "feature width mismatch");
        let x = Matrix::from_rows(&[features]);
        self.predict(&x)[0]
    }

    /// Mean softmax cross-entropy loss and per-layer parameter gradients
    /// for a labelled batch. The input layer's `dL/dx` feeds no parameter
    /// and is never computed.
    pub(crate) fn loss_and_grads(&self, x: &Matrix, labels: &[usize]) -> (f32, Vec<DenseGrads>) {
        let acts = self.forward_trace(x);
        let logits = acts.last().expect("non-empty trace");
        let (loss, mut upstream) = softmax_cross_entropy(logits, labels);
        let mut grads: Vec<DenseGrads> = Vec::with_capacity(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let (g, delta) = layer.backward(&acts[idx], &acts[idx + 1], upstream);
            grads.push(g);
            if idx == 0 {
                break;
            }
            upstream = delta.matmul_t(&layer.w);
        }
        grads.reverse();
        (loss, grads)
    }

    /// Mean loss on a labelled batch without computing gradients.
    pub fn loss(&self, x: &Matrix, labels: &[usize]) -> f32 {
        let logits = self.forward(x);
        softmax_cross_entropy(&logits, labels).0
    }

    /// Mutable access for optimizers: `(w, b)` of layer `idx`.
    pub(crate) fn params_mut(&mut self, idx: usize) -> (&mut Matrix, &mut Vec<f32>) {
        let layer = &mut self.layers[idx];
        (&mut layer.w, &mut layer.b)
    }

    /// Total parameter bytes (the paper's storage-overhead figure).
    pub fn param_bytes(&self) -> usize {
        self.layers.iter().map(Dense::param_bytes).sum()
    }

    /// Total multiplications per forward pass per input row (the paper's
    /// computational-overhead figure, `Σ Nᵢ·Nᵢ₊₁`).
    pub fn forward_mults(&self) -> usize {
        self.layers.iter().map(Dense::forward_mults).sum()
    }
}

impl NetworkBuilder {
    /// Appends a hidden layer of `width` neurons.
    pub fn hidden(mut self, width: usize, act: Activation) -> Self {
        assert!(!self.output_done, "output layer already added");
        let fan_in = self.layers.last().map_or(self.input, Dense::fan_out);
        self.layers
            .push(Dense::new(fan_in, width, act, &mut self.rng));
        self
    }

    /// Appends the output (logit) layer with `classes` neurons.
    pub fn output(mut self, classes: usize) -> Self {
        assert!(!self.output_done, "output layer already added");
        let fan_in = self.layers.last().map_or(self.input, Dense::fan_out);
        self.layers.push(Dense::new(
            fan_in,
            classes,
            Activation::Identity,
            &mut self.rng,
        ));
        self.output_done = true;
        self
    }

    /// Finalizes the network.
    ///
    /// # Panics
    ///
    /// Panics if [`NetworkBuilder::output`] was never called.
    pub fn build(self) -> Network {
        assert!(self.output_done, "call .output(classes) before .build()");
        Network {
            layers: self.layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        Network::builder(2, 1)
            .hidden(4, Activation::Tanh)
            .output(3)
            .build()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let net = tiny_net();
        assert_eq!(net.input_width(), 2);
        assert_eq!(net.output_width(), 3);
        assert_eq!(net.layers().len(), 2);
    }

    #[test]
    fn paper_topology_dimensions_and_costs() {
        let net = Network::paper_topology(Activation::Logistic, 1);
        assert_eq!(net.input_width(), 9);
        assert_eq!(net.output_width(), 42);
        assert_eq!(net.forward_mults(), 9 * 64 + 64 * 42);
        // Storage stays in the low kilobytes — "negligible" per §IV-D.
        assert!(net.param_bytes() < 16 * 1024);
    }

    #[test]
    fn forward_shapes() {
        let net = tiny_net();
        let x = Matrix::zeros(5, 2);
        let out = net.forward(&x);
        assert_eq!(out.rows(), 5);
        assert_eq!(out.cols(), 3);
        let trace = net.forward_trace(&x);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[1].cols(), 4);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.5, -0.5], &[1.0, 1.0]]);
        let p = net.predict_proba(&x);
        for i in 0..2 {
            assert!((p.row(i).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn predict_matches_argmax_of_proba() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.2, 0.9], &[-1.0, 0.3]]);
        let preds = net.predict(&x);
        let p = net.predict_proba(&x);
        for (i, &c) in preds.iter().enumerate() {
            let best = p
                .row(i)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(c, best);
        }
    }

    #[test]
    fn predict_one_checks_width() {
        let net = tiny_net();
        let c = net.predict_one(&[0.1, 0.2]);
        assert!(c < 3);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_one_rejects_bad_width() {
        let _ = tiny_net().predict_one(&[0.1]);
    }

    #[test]
    fn same_seed_same_network() {
        let a = Network::paper_topology(Activation::ReLU, 9);
        let b = Network::paper_topology(Activation::ReLU, 9);
        assert_eq!(a, b);
        let c = Network::paper_topology(Activation::ReLU, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn from_layers_validates_widths() {
        let mut rng = simrng::SimRng::seed_from_u64(0);
        let l1 = Dense::new(2, 4, Activation::ReLU, &mut rng);
        let l2 = Dense::new(4, 3, Activation::Identity, &mut rng);
        let net = Network::from_layers(vec![l1.clone(), l2]);
        assert_eq!(net.input_width(), 2);
        let bad = Dense::new(5, 3, Activation::Identity, &mut rng);
        let result = std::panic::catch_unwind(|| Network::from_layers(vec![l1, bad]));
        assert!(result.is_err());
    }

    #[test]
    fn whole_network_gradient_check() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.4, -0.8], &[0.1, 0.9]]);
        let labels = [0usize, 2];
        let (_, grads) = net.loss_and_grads(&x, &labels);
        let h = 1e-2f32;
        #[allow(clippy::needless_range_loop)]
        for li in 0..net.layers().len() {
            for i in 0..net.layers()[li].fan_in() {
                for j in 0..net.layers()[li].fan_out() {
                    let mut plus = net.clone();
                    {
                        let (w, _) = plus.params_mut(li);
                        w.set(i, j, w.get(i, j) + h);
                    }
                    let mut minus = net.clone();
                    {
                        let (w, _) = minus.params_mut(li);
                        w.set(i, j, w.get(i, j) - h);
                    }
                    let numeric = (plus.loss(&x, &labels) - minus.loss(&x, &labels)) / (2.0 * h);
                    let analytic = grads[li].w.get(i, j);
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "layer {li} dW[{i},{j}]: {numeric} vs {analytic}"
                    );
                }
            }
        }
    }
}
