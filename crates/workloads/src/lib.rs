//! `workloads` — multi-tenant I/O workload synthesis.
//!
//! The SSDKeeper paper drives its simulator with two kinds of input:
//!
//! 1. **Synthetic mixed workloads** for training — generated by sweeping
//!    read/write proportions and intensities (§V-A: "we mainly change the
//!    read/write characteristics and read/write proportion");
//! 2. **Real MSR-Cambridge block traces** for evaluation (Table II: mds_0,
//!    mds_1, rsrch_0, prxy_0, src_1, web_2), mixed four at a time
//!    (Table IV) in chronological order.
//!
//! The MSR traces are proprietary-download artifacts not shipped here, so
//! [`msr`] provides *parameterized synthesizers* that reproduce the
//! published per-trace characteristics (write ratio, relative request
//! volume; Table II) plus access-pattern flavour (sequential-run reads for
//! web/src, small random writes for proxy/research servers). SSDKeeper's
//! decisions depend only on the aggregate features the collector extracts,
//! so this substitution preserves the experiments' shape (see DESIGN.md).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod arrival;
pub mod feature_window;
pub mod mix;
pub mod msr;
pub mod profile;
pub mod replay;
pub mod spec;
pub mod synth;

pub use feature_window::{IntensityScale, ObservedFeatures};
pub use mix::mix_chronological;
pub use msr::MsrTrace;
pub use profile::{profile, TraceProfile};
pub use replay::{parse_msr_csv, to_page_requests, ReplayConfig};
pub use spec::{AddressPattern, ArrivalProcess, SizeDist, TenantSpec};
pub use synth::generate_tenant_stream;
