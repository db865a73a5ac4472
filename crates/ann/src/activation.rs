//! Activation functions.
//!
//! The paper compares ReLU and logistic hidden activations (its
//! "Adam-ReLU" vs "Adam-logistic" configurations); tanh and identity are
//! included for completeness (identity is what the output layer uses —
//! the softmax lives in the loss).

/// Element-wise non-linearity applied by a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(0, x)`.
    ReLU,
    /// `1 / (1 + e^-x)` (the paper's "logistic").
    Logistic,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (used for logit outputs).
    Identity,
}

impl Activation {
    /// Applies the function to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Logistic => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the **output** `y = f(x)`.
    ///
    /// All four functions here admit this form, which lets backprop avoid
    /// caching pre-activations.
    #[inline]
    pub(crate) fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::ReLU => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Logistic => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }

    /// Applies the function in place to a buffer.
    pub(crate) fn apply_slice(self, xs: &mut [f32]) {
        if self == Activation::Identity {
            return;
        }
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Stable name used by the model text format.
    pub fn name(self) -> &'static str {
        match self {
            Activation::ReLU => "relu",
            Activation::Logistic => "logistic",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        }
    }

    /// Parses a name produced by [`Activation::name`].
    pub(crate) fn from_name(s: &str) -> Option<Self> {
        match s {
            "relu" => Some(Activation::ReLU),
            "logistic" => Some(Activation::Logistic),
            "tanh" => Some(Activation::Tanh),
            "identity" => Some(Activation::Identity),
            _ => None,
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    const ALL: [Activation; 4] = [
        Activation::ReLU,
        Activation::Logistic,
        Activation::Tanh,
        Activation::Identity,
    ];

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
        assert_eq!(Activation::ReLU.apply(3.0), 3.0);
    }

    #[test]
    fn logistic_range_and_midpoint() {
        let f = Activation::Logistic;
        assert!((f.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(f.apply(10.0) > 0.999);
        assert!(f.apply(-10.0) < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let f = Activation::Tanh;
        assert!((f.apply(1.5) + f.apply(-1.5)).abs() < 1e-6);
    }

    #[test]
    fn identity_is_noop() {
        let mut xs = [1.0f32, -2.0, 3.0];
        Activation::Identity.apply_slice(&mut xs);
        assert_eq!(xs, [1.0, -2.0, 3.0]);
    }

    #[test]
    fn apply_slice_matches_apply() {
        for act in ALL {
            let inputs = [-2.0f32, -0.5, 0.0, 0.5, 2.0];
            let mut buf = inputs;
            act.apply_slice(&mut buf);
            for (i, &x) in inputs.iter().enumerate() {
                assert_eq!(buf[i], act.apply(x), "{act} mismatch at {x}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for act in ALL {
            assert_eq!(Activation::from_name(act.name()), Some(act));
            assert_eq!(act.to_string(), act.name());
        }
        assert_eq!(Activation::from_name("bogus"), None);
    }

    /// Numeric derivative matches derivative_from_output at smooth
    /// points, over a seeded sweep of inputs.
    #[test]
    fn derivative_matches_finite_difference() {
        let mut rng = SimRng::seed_from_u64(101);
        for _ in 0..512 {
            let x: f32 = rng.gen_range(-3.0f32..3.0);
            let h = 1e-3f32;
            for act in [Activation::Logistic, Activation::Tanh, Activation::Identity] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "{act} at {x}: {numeric} vs {analytic}"
                );
            }
            // ReLU away from the kink.
            if x.abs() > 0.01 {
                let act = Activation::ReLU;
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!((numeric - act.derivative_from_output(y)).abs() < 5e-3);
            }
        }
    }

    /// Logistic output always lies in (0, 1); tanh in (-1, 1).
    #[test]
    fn bounded_outputs() {
        let mut rng = SimRng::seed_from_u64(102);
        for _ in 0..2048 {
            let x: f32 = rng.gen_range(-50.0f32..50.0);
            let l = Activation::Logistic.apply(x);
            assert!((0.0..=1.0).contains(&l));
            let t = Activation::Tanh.apply(x);
            assert!((-1.0..=1.0).contains(&t));
        }
    }
}
