//! Evaluation metrics: accuracy and confusion matrices.

use crate::data::Dataset;
use crate::network::Network;

/// Fraction of dataset rows whose arg-max prediction matches the label.
/// Returns 0 for an empty dataset.
pub fn accuracy(net: &Network, data: &Dataset) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let preds = net.predict(data.features());
    let correct = preds
        .iter()
        .zip(data.labels())
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / data.len() as f32
}

/// `classes × classes` confusion matrix; `confusion[true][pred]` counts.
pub fn confusion(net: &Network, data: &Dataset) -> Vec<Vec<u32>> {
    let mut m = vec![vec![0u32; data.classes()]; data.classes()];
    let preds = net.predict(data.features());
    for (&p, &t) in preds.iter().zip(data.labels()) {
        m[t][p] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::Dense;
    use crate::matrix::Matrix;

    /// A hand-built "network" that copies input feature j to logit j.
    fn identity_net(width: usize) -> Network {
        let mut rng = simrng::SimRng::seed_from_u64(0);
        let mut layer = Dense::new(width, width, Activation::Identity, &mut rng);
        layer.w = Matrix::from_fn(width, width, |i, j| if i == j { 1.0 } else { 0.0 });
        layer.b = vec![0.0; width];
        Network::from_layers(vec![layer])
    }

    fn one_hot_dataset() -> Dataset {
        // Row i is the one-hot vector of class i → identity net predicts i.
        let x = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        Dataset::new(x, vec![0, 1, 2], 3).unwrap()
    }

    #[test]
    fn accuracy_perfect_and_broken() {
        let net = identity_net(3);
        let data = one_hot_dataset();
        assert_eq!(accuracy(&net, &data), 1.0);
        // Mislabel everything: accuracy 0.
        let bad = Dataset::new(data.features().clone(), vec![1, 2, 0], 3).unwrap();
        assert_eq!(accuracy(&net, &bad), 0.0);
    }

    #[test]
    fn accuracy_empty_dataset_is_zero() {
        let net = identity_net(2);
        let data = Dataset::new(Matrix::zeros(0, 2), vec![], 2).unwrap();
        assert_eq!(accuracy(&net, &data), 0.0);
    }

    #[test]
    fn confusion_diagonal_when_perfect() {
        let net = identity_net(3);
        let data = one_hot_dataset();
        let m = confusion(&net, &data);
        for (t, row) in m.iter().enumerate() {
            for (p, &count) in row.iter().enumerate() {
                assert_eq!(count, u32::from(t == p));
            }
        }
    }

    #[test]
    fn confusion_counts_misclassifications() {
        let net = identity_net(2);
        // Feature argmax 1 but label 0 for both rows.
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[0.1, 0.9]]);
        let data = Dataset::new(x, vec![0, 0], 2).unwrap();
        let m = confusion(&net, &data);
        assert_eq!(m[0][1], 2);
        assert_eq!(m[0][0], 0);
    }
}
