//! First-order optimizers.
//!
//! The paper (§II-B, §V-B) trains its strategy model with four
//! configurations — SGD, SGD with momentum, and Adam with two activation
//! choices. The three algorithms behind them are implemented so the
//! Figure 4 / Table III sweep can run.
//!
//! Optimizers address parameter tensors by an opaque `slot` id (layer
//! index × 2 + {weights=0, bias=1}); per-slot state buffers are allocated
//! lazily on first use.

use std::collections::HashMap;

/// A first-order parameter update rule.
pub trait Optimizer {
    /// Applies one update: `params -= f(grads)` for the tensor identified
    /// by `slot`.
    fn update(&mut self, slot: usize, params: &mut [f32], grads: &[f32]);

    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;
}

fn state_buf(map: &mut HashMap<usize, Vec<f32>>, slot: usize, len: usize) -> &mut [f32] {
    map.entry(slot).or_insert_with(|| vec![0.0; len])
}

/// Plain stochastic gradient descent: `p -= lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate (the paper uses 0.2).
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// The paper's configuration (lr = 0.2).
    pub fn paper() -> Self {
        Self::new(0.2)
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _slot: usize, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn name(&self) -> &'static str {
        "SGD"
    }
}

/// SGD with classical momentum: `v = μ·v + g; p -= lr·v`.
#[derive(Debug, Clone)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (the paper uses 0.9).
    pub mu: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Momentum {
    /// Momentum SGD with given rate and coefficient.
    pub fn new(lr: f32, mu: f32) -> Self {
        Self {
            lr,
            mu,
            velocity: HashMap::new(),
        }
    }

    /// The paper's configuration (lr = 0.2, μ = 0.9).
    pub fn paper() -> Self {
        Self::new(0.2, 0.9)
    }
}

impl Optimizer for Momentum {
    fn update(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        let v = state_buf(&mut self.velocity, slot, params.len());
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *v = self.mu * *v + g;
            *p -= self.lr * *v;
        }
    }

    fn name(&self) -> &'static str {
        "SGD-momentum"
    }
}

/// Adam (Kingma & Ba): bias-corrected first and second moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Base learning rate (the paper uses 0.02).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Divide-by-zero guard.
    pub eps: f32,
    m: HashMap<usize, Vec<f32>>,
    v: HashMap<usize, Vec<f32>>,
    t: HashMap<usize, u32>,
}

impl Adam {
    /// Adam with the given rate and the standard β₁ = 0.9, β₂ = 0.999.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: HashMap::new(),
            v: HashMap::new(),
            t: HashMap::new(),
        }
    }

    /// The paper's configuration (lr = 0.02).
    pub fn paper() -> Self {
        Self::new(0.02)
    }
}

impl Optimizer for Adam {
    fn update(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        let t = self.t.entry(slot).or_insert(0);
        *t += 1;
        let t = *t as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let m = state_buf(&mut self.m, slot, params.len());
        let v = self
            .v
            .entry(slot)
            .or_insert_with(|| vec![0.0; params.len()]);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn name(&self) -> &'static str {
        "Adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(p) = Σ pᵢ² from a fixed start; every optimizer must
    /// reduce it substantially.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = vec![1.0f32, -2.0, 0.5, 3.0];
        for _ in 0..steps {
            let g: Vec<f32> = p.iter().map(|&x| 2.0 * x).collect();
            opt.update(0, &mut p, &g);
        }
        p.iter().map(|&x| x * x).sum()
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0f32, 2.0];
        opt.update(0, &mut p, &[10.0, -10.0]);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn all_optimizers_minimize_a_quadratic() {
        let start: f32 = 1.0 + 4.0 + 0.25 + 9.0;
        let cases: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Sgd::new(0.05)),
            Box::new(Momentum::new(0.02, 0.9)),
            Box::new(Adam::new(0.2)),
        ];
        for mut opt in cases {
            let end = run_quadratic(opt.as_mut(), 200);
            assert!(
                end < start * 0.01,
                "{} failed to minimize: {start} -> {end}",
                opt.name()
            );
        }
    }

    #[test]
    fn momentum_accelerates_past_plain_sgd_on_a_ravine() {
        // A poorly conditioned quadratic: f = 0.5*(100 x² + y²).
        let run = |opt: &mut dyn Optimizer| -> f32 {
            let mut p = vec![1.0f32, 1.0];
            for _ in 0..50 {
                let g = vec![100.0 * p[0], p[1]];
                opt.update(0, &mut p, &g);
            }
            0.5 * (100.0 * p[0] * p[0] + p[1] * p[1])
        };
        let mut sgd = Sgd::new(0.002);
        let mut mom = Momentum::new(0.002, 0.9);
        let f_sgd = run(&mut sgd);
        let f_mom = run(&mut mom);
        assert!(f_mom < f_sgd, "momentum {f_mom} should beat sgd {f_sgd}");
    }

    #[test]
    fn adam_bias_correction_makes_first_step_lr_sized() {
        let mut opt = Adam::new(0.1);
        let mut p = vec![0.0f32];
        opt.update(0, &mut p, &[3.0]);
        // With bias correction the first step is ≈ lr regardless of g scale.
        assert!((p[0] + 0.1).abs() < 1e-3, "first Adam step was {}", p[0]);
    }

    #[test]
    fn slots_have_independent_state() {
        let mut opt = Momentum::new(0.1, 0.9);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        opt.update(0, &mut a, &[1.0]);
        opt.update(0, &mut a, &[1.0]);
        // Slot 1 starts fresh: its first step must equal slot 0's first step.
        opt.update(1, &mut b, &[1.0]);
        assert!((b[0] + 0.1).abs() < 1e-6, "fresh slot took step {}", b[0]);
        assert!(a[0] < b[0], "slot 0 accumulated momentum");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Sgd::paper().name(), "SGD");
        assert_eq!(Momentum::paper().name(), "SGD-momentum");
        assert_eq!(Adam::paper().name(), "Adam");
    }

    #[test]
    fn paper_hyperparameters() {
        assert_eq!(Sgd::paper().lr, 0.2);
        let m = Momentum::paper();
        assert_eq!((m.lr, m.mu), (0.2, 0.9));
        assert_eq!(Adam::paper().lr, 0.02);
    }
}
