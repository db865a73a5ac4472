//! The fleet seed-derivation rule.
//!
//! Every random decision in a fleet run derives from one `fleet_seed`
//! through [`derive()`]: a splitmix64 finalizer over `(fleet_seed, domain,
//! index)`. The rule has two properties the determinism argument leans
//! on (see DESIGN.md §"Fleet sharding"):
//!
//! 1. **Stable addressing** — a tenant's stream seed depends only on the
//!    fleet seed and the tenant's fleet-wide id, never on its placement,
//!    the device count, or the worker count. Moving a tenant between
//!    devices replays the *same* request stream on the new device.
//! 2. **Domain separation** — distinct domains (stream vs. profile vs.
//!    model) cannot collide even for equal indices, so adding a new
//!    consumer of randomness never perturbs existing ones.

/// Domain tag for per-tenant request-stream generation.
pub const DOMAIN_STREAM: u64 = 1;
/// Domain tag for per-tenant workload-profile parameters.
pub const DOMAIN_PROFILE: u64 = 2;
/// Domain tag for the fleet's allocator model.
pub(crate) const DOMAIN_MODEL: u64 = 3;

/// Derives a child seed from `(fleet_seed, domain, index)` with a
/// splitmix64 finalizer. Pure and stateless: the same triple always
/// yields the same seed, on every platform. Delegates to
/// [`simrng::derive_seed`], the workspace-wide rule also used by the
/// label farm's per-sample seeding.
pub fn derive(fleet_seed: u64, domain: u64, index: u64) -> u64 {
    simrng::derive_seed(fleet_seed, domain, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure() {
        assert_eq!(derive(42, DOMAIN_STREAM, 7), derive(42, DOMAIN_STREAM, 7));
    }

    #[test]
    fn domains_and_indices_separate() {
        let mut seen = std::collections::HashSet::new();
        for domain in [DOMAIN_STREAM, DOMAIN_PROFILE, DOMAIN_MODEL] {
            for index in 0..1000u64 {
                assert!(
                    seen.insert(derive(42, domain, index)),
                    "collision at domain {domain} index {index}"
                );
            }
        }
    }

    #[test]
    fn fleet_seed_changes_everything() {
        for index in 0..100u64 {
            assert_ne!(
                derive(1, DOMAIN_STREAM, index),
                derive(2, DOMAIN_STREAM, index)
            );
        }
    }
}
