//! Labelled datasets: storage, shuffling, splitting, batching.

use crate::matrix::Matrix;
use simrng::Rng;
use simrng::SliceRandom;

/// A classification dataset: feature matrix plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Matrix,
    labels: Vec<usize>,
    classes: usize,
}

/// Errors from [`Dataset::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Row count and label count differ.
    LengthMismatch {
        /// Feature rows.
        rows: usize,
        /// Labels provided.
        labels: usize,
    },
    /// A label is `>= classes`.
    LabelOutOfRange {
        /// Offending row.
        index: usize,
        /// The label value.
        label: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            DatasetError::LabelOutOfRange { index, label } => {
                write!(f, "label {label} at row {index} out of range")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset; validates label range and lengths.
    pub fn new(x: Matrix, labels: Vec<usize>, classes: usize) -> Result<Self, DatasetError> {
        if x.rows() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                rows: x.rows(),
                labels: labels.len(),
            });
        }
        for (index, &label) in labels.iter().enumerate() {
            if label >= classes {
                return Err(DatasetError::LabelOutOfRange { index, label });
            }
        }
        Ok(Self { x, labels, classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature width.
    pub(crate) fn feature_width(&self) -> usize {
        self.x.cols()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Returns a row-shuffled copy using the given RNG.
    pub(crate) fn shuffled(&self, rng: &mut impl Rng) -> Dataset {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.subset(&order)
    }

    /// Selects rows by index into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.gather_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            classes: self.classes,
        }
    }

    /// Splits into `(front, back)` at `frac` (e.g. 0.7 gives the paper's
    /// 7:3 train/test split). The split is positional; shuffle first.
    pub fn split(&self, frac: f64) -> (Dataset, Dataset) {
        let cut = ((self.len() as f64) * frac.clamp(0.0, 1.0)).round() as usize;
        let front: Vec<usize> = (0..cut).collect();
        let back: Vec<usize> = (cut..self.len()).collect();
        (self.subset(&front), self.subset(&back))
    }

    /// Iterates over `(features, labels)` minibatches of at most
    /// `batch_size` rows, in order.
    pub(crate) fn batches(
        &self,
        batch_size: usize,
    ) -> impl Iterator<Item = (Matrix, &[usize])> + '_ {
        let batch_size = batch_size.max(1);
        (0..self.len()).step_by(batch_size).map(move |start| {
            let end = (start + batch_size).min(self.len());
            let idx: Vec<usize> = (start..end).collect();
            (self.x.gather_rows(&idx), &self.labels[start..end])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let x = Matrix::from_fn(10, 3, |i, j| (i * 3 + j) as f32);
        let labels = (0..10).map(|i| i % 4).collect();
        Dataset::new(x, labels, 4).unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            Dataset::new(x, vec![0, 1], 2).unwrap_err(),
            DatasetError::LengthMismatch { rows: 3, labels: 2 }
        );
    }

    #[test]
    fn new_validates_label_range() {
        let x = Matrix::zeros(2, 2);
        assert_eq!(
            Dataset::new(x, vec![0, 5], 2).unwrap_err(),
            DatasetError::LabelOutOfRange { index: 1, label: 5 }
        );
    }

    #[test]
    fn accessors() {
        let d = sample();
        assert_eq!(d.len(), 10);
        assert!(!d.is_empty());
        assert_eq!(d.feature_width(), 3);
        assert_eq!(d.classes(), 4);
    }

    #[test]
    fn split_respects_fraction() {
        let d = sample();
        let (train, test) = d.split(0.7);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.labels()[0], d.labels()[0]);
        assert_eq!(test.labels()[0], d.labels()[7]);
    }

    #[test]
    fn split_extremes() {
        let d = sample();
        let (a, b) = d.split(0.0);
        assert_eq!((a.len(), b.len()), (0, 10));
        let (a, b) = d.split(1.5);
        assert_eq!((a.len(), b.len()), (10, 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let d = sample();
        let mut rng = simrng::SimRng::seed_from_u64(3);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), d.len());
        // Every original row appears exactly once.
        let mut rows: Vec<usize> = (0..s.len())
            .map(|i| s.features().row(i)[0] as usize / 3)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..d.len()).collect::<Vec<_>>());
        // Feature rows must follow their labels.
        for i in 0..s.len() {
            let row = s.features().row(i);
            let orig_index = (row[0] as usize) / 3;
            assert_eq!(s.labels()[i], d.labels()[orig_index]);
        }
    }

    #[test]
    fn shuffle_with_same_seed_is_deterministic() {
        let d = sample();
        let mut r1 = simrng::SimRng::seed_from_u64(9);
        let mut r2 = simrng::SimRng::seed_from_u64(9);
        assert_eq!(d.shuffled(&mut r1), d.shuffled(&mut r2));
    }

    #[test]
    fn batches_cover_everything_in_order() {
        let d = sample();
        let mut seen = 0;
        for (x, labels) in d.batches(4) {
            assert_eq!(x.rows(), labels.len());
            assert!(x.rows() <= 4);
            for (i, &l) in labels.iter().enumerate() {
                assert_eq!(l, d.labels()[seen + i]);
            }
            seen += labels.len();
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn batch_size_zero_is_clamped() {
        let d = sample();
        assert_eq!(d.batches(0).count(), 10);
    }

    #[test]
    fn error_display() {
        let e = DatasetError::LengthMismatch { rows: 1, labels: 2 };
        assert!(e.to_string().contains("1"));
        let e = DatasetError::LabelOutOfRange { index: 0, label: 9 };
        assert!(e.to_string().contains("9"));
    }
}
