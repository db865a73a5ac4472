//! `ann` — a from-scratch dense neural-network library.
//!
//! This crate replaces the scikit-learn MLP the SSDKeeper paper uses for
//! its strategy learner. It provides exactly what the paper exercises,
//! with no external numerics dependencies:
//!
//! * dense (fully-connected) layers with ReLU / logistic / tanh / identity
//!   activations ([`layer`], [`activation`]);
//! * softmax + cross-entropy classification loss ([`loss`]);
//! * minibatch backpropagation ([`train`]);
//! * the optimizer family the paper sweeps in Figure 4 / Table III — SGD,
//!   SGD with momentum, AdaGrad, RMSProp, and Adam ([`optimizer`]);
//! * dataset shuffling/splitting and accuracy metrics ([`data`],
//!   [`metrics`]);
//! * a plain-text model format for moving trained parameters into the
//!   simulated FTL ([`io`]), mirroring the paper's "train on the host,
//!   send the parameters to the FTL" deployment;
//! * batched scratch-buffer inference ([`network::ForwardScratch`]) for
//!   the decision hot path.
//!
//! # Example: learn XOR
//!
//! ```
//! use ann::prelude::*;
//!
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let labels = vec![0usize, 1, 1, 0];
//! let data = Dataset::new(x, labels, 2).unwrap();
//! let mut net = Network::builder(2, 77)
//!     .hidden(16, Activation::Tanh)
//!     .output(2)
//!     .build();
//! let mut opt = Adam::new(0.05);
//! let mut trainer = Trainer::new(400, 4, 3);
//! trainer.fit(&mut net, &data, None, &mut opt);
//! assert_eq!(ann::metrics::accuracy(&net, &data), 1.0);
//! ```
#![warn(missing_docs)]

pub mod activation;
pub mod data;
pub mod io;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod train;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::data::Dataset;
    pub use crate::matrix::Matrix;
    pub use crate::network::{ForwardScratch, Network};
    pub use crate::optimizer::{AdaGrad, Adam, Momentum, Optimizer, RmsProp, Sgd};
    pub use crate::train::{TrainHistory, Trainer};
}

pub use prelude::*;
