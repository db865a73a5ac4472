//! Classification loss: numerically stable softmax + cross-entropy.

use crate::matrix::Matrix;

/// Applies a numerically stable softmax to each row of `logits` in place.
pub fn softmax_rows(logits: &mut Matrix) {
    for i in 0..logits.rows() {
        let row = logits.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Mean cross-entropy of softmax(`logits`) against integer `labels`, and
/// the gradient w.r.t. the logits (`(softmax - onehot) / batch`).
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row required");
    let mut probs = logits.clone();
    softmax_rows(&mut probs);
    let batch = logits.rows() as f32;
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let p = probs.get(i, label).max(1e-12);
        loss -= p.ln();
        // grad = (p - onehot)/batch, computed in place on the probs copy.
        let row = probs.row_mut(i);
        for v in row.iter_mut() {
            *v /= batch;
        }
        row[label] -= 1.0 / batch;
    }
    (loss / batch, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        softmax_rows(&mut m);
        for i in 0..2 {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(i).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut b = Matrix::from_rows(&[&[101.0, 102.0, 103.0]]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        for j in 0..3 {
            assert!((a.get(0, j) - b.get(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut m = Matrix::from_rows(&[&[1000.0, 0.0]]);
        softmax_rows(&mut m);
        assert!(m.get(0, 0).is_finite());
        assert!((m.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0, 0.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_k() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0, 0.0, 0.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[0.3, -1.0, 2.0], &[0.0, 0.1, 0.2]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 2]);
        for i in 0..2 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} grad sum {s}");
        }
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }

    /// The analytic logits gradient matches a central finite difference
    /// over a seeded sweep of random logits and labels.
    #[test]
    fn cross_entropy_gradient_check() {
        let mut rng = SimRng::seed_from_u64(201);
        for case in 0..64 {
            let vals: Vec<f32> = (0..6).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let logits = Matrix::from_vec(2, 3, vals);
            let labels = [rng.gen_range(0usize..3), rng.gen_range(0usize..3)];
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            let h = 1e-2f32;
            for i in 0..2 {
                for j in 0..3 {
                    let mut plus = logits.clone();
                    plus.set(i, j, plus.get(i, j) + h);
                    let mut minus = logits.clone();
                    minus.set(i, j, minus.get(i, j) - h);
                    let (lp, _) = softmax_cross_entropy(&plus, &labels);
                    let (lm, _) = softmax_cross_entropy(&minus, &labels);
                    let numeric = (lp - lm) / (2.0 * h);
                    assert!(
                        (numeric - grad.get(i, j)).abs() < 5e-3,
                        "case {case} d logits[{i},{j}]: numeric {numeric} vs analytic {}",
                        grad.get(i, j)
                    );
                }
            }
        }
    }

    /// Loss is non-negative for any logits.
    #[test]
    fn loss_non_negative() {
        let mut rng = SimRng::seed_from_u64(202);
        for _ in 0..256 {
            let vals: Vec<f32> = (0..4).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
            let logits = Matrix::from_vec(1, 4, vals);
            let (loss, _) = softmax_cross_entropy(&logits, &[rng.gen_range(0usize..4)]);
            assert!(loss >= 0.0);
        }
    }
}
