//! The hybrid page allocator (§IV-E).
//!
//! SSDKeeper assigns **static** page allocation to read-dominated tenants
//! (consecutive logical pages stripe across channels, so sequential reads
//! engage every bus) and **dynamic** allocation to write-dominated
//! tenants (writes chase idle dies, so bursts spread out). This module
//! maps observed characteristics to per-tenant policies.

use flash_sim::PageAllocPolicy;

/// Chooses the page-allocation policy for one tenant from its read/write
/// characteristic (1 = read-dominated → static; 0 = write-dominated →
/// dynamic).
pub(crate) fn policy_for_characteristic(rw_char: u8) -> PageAllocPolicy {
    if rw_char == 0 {
        PageAllocPolicy::Dynamic
    } else {
        PageAllocPolicy::Static
    }
}

/// Policies for a full tenant vector. When `enabled` is false every
/// tenant gets static allocation (the paper's non-hybrid baseline).
pub fn policies(rw_chars: &[u8], enabled: bool) -> Vec<PageAllocPolicy> {
    rw_chars
        .iter()
        .map(|&c| {
            if enabled {
                policy_for_characteristic(c)
            } else {
                PageAllocPolicy::Static
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_dominated_gets_static() {
        assert_eq!(policy_for_characteristic(1), PageAllocPolicy::Static);
    }

    #[test]
    fn write_dominated_gets_dynamic() {
        assert_eq!(policy_for_characteristic(0), PageAllocPolicy::Dynamic);
    }

    #[test]
    fn disabled_hybrid_is_all_static() {
        let p = policies(&[0, 1, 0, 1], false);
        assert!(p.iter().all(|&p| p == PageAllocPolicy::Static));
    }

    #[test]
    fn enabled_hybrid_mixes_policies() {
        let p = policies(&[0, 1, 0, 1], true);
        assert_eq!(
            p,
            vec![
                PageAllocPolicy::Dynamic,
                PageAllocPolicy::Static,
                PageAllocPolicy::Dynamic,
                PageAllocPolicy::Static,
            ]
        );
    }
}
