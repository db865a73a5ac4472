//! `ssdkeeper` — self-adapting channel allocation for multi-tenant SSDs.
//!
//! This crate implements the SSDKeeper mechanism from Liu et al.,
//! *SSDKeeper: Self-Adapting Channel Allocation to Improve the Performance
//! of SSD Devices* (IPDPS 2020), on top of the [`flash_sim`] substrate:
//!
//! * [`strategy`] — the space of channel-allocation strategies (42 for
//!   four tenants on an 8-channel SSD);
//! * [`features`] — the 9-dimensional workload feature vector;
//! * [`label`] — Algorithm 1's label generation: run a mixed workload
//!   under every strategy, keep the argmin-latency strategy;
//! * [`learner`] — synthetic mixed-workload sampling, dataset generation,
//!   and ANN training (the strategy learner);
//! * [`allocator`] — the channel allocator: a trained model mapping
//!   observed features to a strategy;
//! * [`hybrid`] — the hybrid page allocator (static pages for
//!   read-dominated tenants, dynamic for write-dominated);
//! * [`keeper`] — Algorithm 2's online loop: observe under `Shared`,
//!   predict at `t == T`, re-allocate channels mid-run — driven through
//!   the unified [`keeper::RunSpec`] session API;
//! * [`placement`] — the fleet tier above the keeper: deterministic
//!   bin-packing of tenants onto devices by predicted intensity, with a
//!   tail-latency-drift re-placement hook (used by `crates/fleet`).
//!
//! Probes, event recording, the persisted event codec and the streaming
//! metrics live in [`flash_sim::probe`] and [`flash_sim::metrics`]; attach
//! one to a session with [`keeper::RunSpec::with_probe`].
//!
//! # End-to-end sketch
//!
//! ```no_run
//! use ssdkeeper::learner::{DatasetSpec, Learner};
//! use ssdkeeper::keeper::{Keeper, KeeperConfig, RunSpec};
//! use flash_sim::SsdConfig;
//!
//! // Offline: generate labelled data and train the strategy model.
//! let learner = Learner::new(DatasetSpec::quick(64));
//! let dataset = learner.generate_dataset(1);
//! let model = learner.train(&dataset, ssdkeeper::learner::OptimizerChoice::AdamLogistic);
//!
//! // Online: drive a mixed trace through the adaptive FTL.
//! let keeper = Keeper::new(KeeperConfig::default(), model.allocator());
//! # let trace = vec![];
//! let outcome = keeper.run(RunSpec::adapt_once(&trace, &[1 << 14; 4])).unwrap();
//! println!("chose {} -> {:.1} us", outcome.strategy, outcome.report.total_latency_metric_us());
//! ```
#![warn(missing_docs)]

pub mod allocator;
pub mod analysis;
pub mod features;
pub mod hybrid;
pub mod keeper;
pub mod label;
pub mod learner;
pub mod model_io;
pub mod placement;
pub mod strategy;

pub use allocator::{ChannelAllocator, DecisionScratch};
pub use features::FeatureVector;
pub use keeper::{Keeper, KeeperConfig, KeeperError, RunMode, RunOutcome, RunSpec};
pub use placement::{FleetPlacer, Placement, TenantLoad};
pub use strategy::Strategy;
