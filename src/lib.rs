//! Umbrella crate for the SSDKeeper reproduction.
//!
//! Re-exports the workspace crates so downstream users (and the examples
//! and integration tests in this repository) can depend on a single
//! package:
//!
//! * [`flash_sim`] — the discrete-event SSD simulator substrate;
//! * [`ann`] — the from-scratch neural-network library;
//! * [`workloads`] — synthetic and MSR-like workload generation;
//! * [`ssdkeeper`] — the paper's contribution: features collector,
//!   strategy learner, channel allocator, and hybrid page allocator;
//! * [`parallel`] — the scoped thread-pool used to fan out simulations.

#![forbid(unsafe_code)]

pub use ann;
pub use flash_sim;
pub use parallel;
pub use ssdkeeper;
pub use workloads;
