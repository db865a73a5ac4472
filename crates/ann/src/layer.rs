//! Dense (fully connected) layers.

use crate::activation::Activation;
use crate::matrix::Matrix;
use simrng::Rng;

/// A dense layer: `a = act(x · w + b)` with `w: [in, out]`, `b: [out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, `[fan_in, fan_out]`.
    pub w: Matrix,
    /// Bias vector, `[fan_out]`.
    pub b: Vec<f32>,
    /// Activation applied element-wise to the affine output.
    pub act: Activation,
}

/// Gradients of one layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// `dL/dw`, same shape as `w`.
    pub w: Matrix,
    /// `dL/db`, same shape as `b`.
    pub b: Vec<f32>,
}

impl Dense {
    /// Creates a layer with He/Xavier-style uniform initialization:
    /// weights in `±sqrt(6 / (fan_in + fan_out))`, biases zero.
    pub fn new(fan_in: usize, fan_out: usize, act: Activation, rng: &mut impl Rng) -> Self {
        assert!(
            fan_in > 0 && fan_out > 0,
            "layer dimensions must be positive"
        );
        let w = Matrix::from_fn(fan_in, fan_out, |_, _| {
            simrng::dist::xavier_uniform(rng, fan_in, fan_out)
        });
        Self {
            w,
            b: vec![0.0; fan_out],
            act,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass for a batch `x: [batch, fan_in]` → `[batch, fan_out]`.
    /// Each output row depends on its input row alone, through the one
    /// kernel [`Matrix::matmul_into`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        debug_assert_eq!(x.cols(), self.fan_in());
        let mut out = Matrix::zeros(0, 0);
        x.matmul_into(&self.w, &mut out);
        out.add_row_broadcast(&self.b);
        for i in 0..out.rows() {
            self.act.apply_slice(out.row_mut(i));
        }
        out
    }

    /// Backward pass.
    ///
    /// * `x` — the input that produced `a` (`[batch, fan_in]`);
    /// * `a` — the forward output (`[batch, fan_out]`);
    /// * `upstream` — `dL/da` (`[batch, fan_out]`).
    ///
    /// Returns the parameter gradients and `dL/dx` for the previous layer.
    pub fn backward(&self, x: &Matrix, a: &Matrix, upstream: &Matrix) -> (DenseGrads, Matrix) {
        debug_assert_eq!(upstream.rows(), x.rows());
        debug_assert_eq!(upstream.cols(), self.fan_out());
        // delta = upstream ⊙ act'(a)
        let mut delta = upstream.clone();
        if self.act != Activation::Identity {
            for i in 0..delta.rows() {
                let a_row = a.row(i);
                for (d, &y) in delta.row_mut(i).iter_mut().zip(a_row.iter()) {
                    *d *= self.act.derivative_from_output(y);
                }
            }
        }
        let grads = DenseGrads {
            w: x.t_matmul(&delta),
            b: delta.column_sums(),
        };
        let dx = delta.matmul_t(&self.w);
        (grads, dx)
    }

    /// Bytes of parameter storage, assuming the paper's costing of 16 bytes
    /// per neuron-parameter pair is replaced by exact f32 accounting.
    pub fn param_bytes(&self) -> usize {
        (self.w.rows() * self.w.cols() + self.b.len()) * std::mem::size_of::<f32>()
    }

    /// Number of floating-point multiplications one forward pass performs
    /// per input row (`fan_in × fan_out`, the paper's §IV-D cost model).
    pub fn forward_mults(&self) -> usize {
        self.fan_in() * self.fan_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> simrng::SimRng {
        simrng::SimRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng());
        // Zero the weights: output must equal the bias.
        layer.w = Matrix::zeros(3, 2);
        layer.b = vec![0.5, -0.5];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let out = layer.forward(&x);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.row(0), &[0.5, -0.5]);
    }

    #[test]
    fn forward_known_affine() {
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng());
        layer.w = Matrix::from_rows(&[&[2.0], &[3.0]]);
        layer.b = vec![1.0];
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]);
        let out = layer.forward(&x);
        assert_eq!(out.get(0, 0), 6.0);
        assert_eq!(out.get(1, 0), 5.0);
    }

    #[test]
    fn relu_forward_clamps() {
        let mut layer = Dense::new(1, 1, Activation::ReLU, &mut rng());
        layer.w = Matrix::from_rows(&[&[1.0]]);
        layer.b = vec![0.0];
        let out = layer.forward(&Matrix::from_rows(&[&[-5.0], &[5.0]]));
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(1, 0), 5.0);
    }

    #[test]
    fn init_is_bounded_and_seeded() {
        let a = Dense::new(9, 64, Activation::ReLU, &mut rng());
        let b = Dense::new(9, 64, Activation::ReLU, &mut rng());
        assert_eq!(a, b, "same seed, same init");
        let limit = (6.0 / 73.0f32).sqrt();
        assert!(a.w.as_slice().iter().all(|&v| v.abs() <= limit));
        assert!(a.b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cost_model_accessors() {
        let layer = Dense::new(9, 64, Activation::ReLU, &mut rng());
        assert_eq!(layer.fan_in(), 9);
        assert_eq!(layer.fan_out(), 64);
        assert_eq!(layer.forward_mults(), 9 * 64);
        assert_eq!(layer.param_bytes(), (9 * 64 + 64) * 4);
    }

    /// Central finite-difference check of every parameter and input
    /// gradient through a scalar loss `sum(a)`.
    #[test]
    fn backward_matches_finite_difference() {
        for act in [Activation::Identity, Activation::Logistic, Activation::Tanh] {
            let mut r = rng();
            let layer = Dense::new(3, 2, act, &mut r);
            let x = Matrix::from_rows(&[&[0.3, -0.7, 0.5], &[0.9, 0.1, -0.2]]);
            let a = layer.forward(&x);
            let upstream = Matrix::from_fn(2, 2, |_, _| 1.0); // d(sum)/da = 1
            let (grads, dx) = layer.backward(&x, &a, &upstream);
            let loss = |l: &Dense, x: &Matrix| -> f32 { l.forward(x).as_slice().iter().sum() };
            let h = 1e-3f32;

            for i in 0..3 {
                for j in 0..2 {
                    let mut lp = layer.clone();
                    lp.w.set(i, j, lp.w.get(i, j) + h);
                    let mut lm = layer.clone();
                    lm.w.set(i, j, lm.w.get(i, j) - h);
                    let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                    assert!(
                        (numeric - grads.w.get(i, j)).abs() < 2e-2,
                        "{act}: dW[{i},{j}] numeric {numeric} vs {}",
                        grads.w.get(i, j)
                    );
                }
            }
            for j in 0..2 {
                let mut lp = layer.clone();
                lp.b[j] += h;
                let mut lm = layer.clone();
                lm.b[j] -= h;
                let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!((numeric - grads.b[j]).abs() < 2e-2, "{act}: db[{j}]");
            }
            for i in 0..2 {
                for j in 0..3 {
                    let mut xp = x.clone();
                    xp.set(i, j, xp.get(i, j) + h);
                    let mut xm = x.clone();
                    xm.set(i, j, xm.get(i, j) - h);
                    let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
                    assert!((numeric - dx.get(i, j)).abs() < 2e-2, "{act}: dx[{i},{j}]");
                }
            }
        }
    }
}
