//! `flash-sim` — a trace-driven, discrete-event flash SSD simulator.
//!
//! This crate is the Rust substrate standing in for **SSDSim** (Hu et al.,
//! "Exploring and exploiting the multilevel parallelism inside SSDs"), the
//! simulator the SSDKeeper paper modifies for its evaluation. It models:
//!
//! * the full physical hierarchy of an SSD — channels, chips, dies, planes,
//!   blocks, and pages ([`geometry`]) — with the paper's Table I
//!   configuration as the default ([`SsdConfig::paper_table1`]);
//! * timing at command granularity: array read / program / erase latencies
//!   plus channel-bus transfer time, with per-die and per-bus contention
//!   ([`sim`]);
//! * read-priority command scheduling with bounded write starvation
//!   ([`scheduler`]);
//! * a page-level FTL: logical-to-physical mapping, static and dynamic page
//!   allocation, greedy garbage collection, and wear accounting ([`ftl`]);
//! * multi-tenant channel partitioning: every tenant owns a (mutable) set of
//!   channels, which is how SSDKeeper's channel allocator is enforced
//!   ([`tenant`]).
//!
//! The simulator is fully deterministic: a given configuration and request
//! trace always produces the same latencies, which the test-suite checks by
//! property testing.
//!
//! # Quick example
//!
//! ```
//! use flash_sim::{IoRequest, Op, SimArena, SimBuilder, SsdConfig, TenantLayout};
//!
//! let mut cfg = SsdConfig::small_test();
//! cfg.channels = 4;
//! // Two tenants striped over all channels, 64 logical pages each.
//! let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(64);
//! // A fresh arena is a cold build; reuse one to make repeated runs
//! // allocation-free.
//! let mut arena = SimArena::new();
//! let sim = SimBuilder::new(cfg, layout).build_with_arena(&mut arena).unwrap();
//! let trace = vec![
//!     IoRequest::new(0, 0, Op::Write, 0, 4, 0),
//!     IoRequest::new(1, 1, Op::Read, 0, 2, 10_000),
//! ];
//! let report = sim.run_reclaim(&trace, &mut arena).unwrap();
//! assert_eq!(report.total.count, 2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod ftl;
pub mod geometry;
pub mod metrics;
pub mod probe;
pub mod request;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod tenant;

pub use config::SsdConfig;
pub use ftl::alloc::PageAllocPolicy;
pub use metrics::{MetricsProbe, MetricsSummary};
pub use probe::{replay, EventRecorder, NullProbe, Probe, ProbeEvent, Tee};
pub use request::{IoRequest, Op};
pub use sim::{validate_trace, Reallocation, SimArena, SimBuilder, SimError, Simulator};
pub use stats::{LatencyStats, PhaseHist, PhaseReport, SimReport};
pub use tenant::TenantLayout;
