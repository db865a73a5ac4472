//! Monotonic nanoseconds since the first observation in this process.
//!
//! All span timestamps and sampler `elapsed_ms` fields share one epoch
//! so they can be correlated. The epoch is pinned lazily by whichever
//! call happens first; binaries that want `t=0` at startup call
//! [`init`] early in `main`.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Pins the process epoch to "now" if it is not already pinned.
pub fn init() {
    let _ = EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds elapsed since the process epoch (monotonic, never
/// decreases; saturates at `u64::MAX` after ~584 years).
pub(crate) fn now_ns() -> u64 {
    let e = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(e.as_nanos()).unwrap_or(u64::MAX)
}
