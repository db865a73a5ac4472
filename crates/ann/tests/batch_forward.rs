//! The batching contract: a forward pass over a whole matrix is
//! **bit-identical** to running each row alone, for random shapes and
//! seeds (DESIGN.md §6d). The keeper relies on it: adapt-once decides one
//! window at a time, periodic re-adaptation decides all its windows in one
//! batch, and both must make the same call on the same features.

use ann::activation::Activation;
use ann::matrix::Matrix;
use ann::network::Network;
use simrng::{Rng, SimRng};

fn random_network(rng: &mut SimRng) -> Network {
    let input = rng.gen_range(2usize..12);
    let hidden = rng.gen_range(3usize..33);
    let classes = rng.gen_range(2usize..17);
    let act = match rng.gen_range(0u32..3) {
        0 => Activation::ReLU,
        1 => Activation::Logistic,
        _ => Activation::Tanh,
    };
    Network::builder(input, rng.gen())
        .hidden(hidden, act)
        .output(classes)
        .build()
}

fn random_batch(rng: &mut SimRng, rows: usize, cols: usize) -> Matrix {
    // ReLU-style zeros included: the kernel's sparsity handling must not
    // depend on batch shape.
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0u32..4) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

/// Property: for random networks, shapes, and seeds, the forward pass
/// of a whole matrix equals running each row alone — bit for bit — and
/// the batched arg-max equals `predict_one` on every row.
#[test]
fn batched_forward_is_bit_identical_to_row_by_row() {
    let mut rng = SimRng::seed_from_u64(0xBA7C);
    for _ in 0..40 {
        let net = random_network(&mut rng);
        let rows = rng.gen_range(1usize..70);
        let x = random_batch(&mut rng, rows, net.input_width());
        let batched = net.forward(&x);
        assert_eq!((batched.rows(), batched.cols()), (rows, net.output_width()));
        for i in 0..rows {
            let one = Matrix::from_rows(&[x.row(i)]);
            let alone = net.forward(&one);
            for (a, b) in batched.row(i).iter().zip(alone.row(0).iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} drifted under batching");
            }
        }
        let preds = net.predict(&x);
        assert_eq!(preds.len(), rows);
        for (i, &pred) in preds.iter().enumerate() {
            assert_eq!(pred, net.predict_one(x.row(i)), "arg-max drifted");
        }
    }
}
