//! The channel-allocation strategy space.
//!
//! For an 8-channel SSD the paper enumerates (§IV-C):
//!
//! * **two tenants** — 8 strategies: `Shared`, `Isolated` (= 4:4), and the
//!   asymmetric two-part splits 7:1, 6:2, 5:3, 3:5, 2:6, 1:7;
//! * **four tenants** — 42 strategies: the 8 above (two-part splits now
//!   group tenants by write/read dominance, `Isolated` becomes 2:2:2:2)
//!   plus the 34 ordered compositions of 8 into four positive parts other
//!   than `[2,2,2,2]`.
//!
//! Four-part strategies assign parts **positionally** (tenant *i* gets
//! `parts[i]` channels); the model's per-tenant share features let it
//! learn which position deserves the big share. Two-part strategies
//! assign by the observed read/write characteristic: the first number is
//! the channel count of the write-dominated group, as in the paper's
//! notation.

use flash_sim::sim::Reallocation;
use flash_sim::{SimError, SsdConfig, TenantLayout};

/// One channel-allocation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Every tenant stripes over all channels (traditional shared SSD).
    Shared,
    /// Channels split evenly among tenants (static Open-Channel
    /// partitioning).
    Isolated,
    /// Write-dominated tenants share the first `write_channels` channels;
    /// read-dominated tenants share the rest. Valid values: 1–7 except 4
    /// (4:4 *is* `Isolated` for two tenants and is folded into it).
    TwoPart {
        /// Channels given to the write-dominated group.
        write_channels: u8,
    },
    /// Tenant `i` owns `parts[i]` channels (contiguous ranges, in order).
    /// `[2,2,2,2]` is excluded (that is `Isolated`).
    FourPart(
        /// Channels per tenant, summing to the channel count.
        [u8; 4],
    ),
}

impl Strategy {
    /// All strategies applicable to `tenants` tenants on an 8-channel SSD,
    /// in stable label order (index = class id for the learner).
    ///
    /// # Panics
    ///
    /// Panics unless `tenants` is 2 or 4 (the configurations the paper
    /// evaluates).
    pub fn all_for_tenants(tenants: usize) -> Vec<Strategy> {
        assert!(
            tenants == 2 || tenants == 4,
            "the paper's strategy space covers 2 or 4 tenants, got {tenants}"
        );
        let mut out = vec![Strategy::Shared, Strategy::Isolated];
        for w in [7u8, 6, 5, 3, 2, 1] {
            out.push(Strategy::TwoPart { write_channels: w });
        }
        if tenants == 4 {
            for parts in compositions_of_8_into_4() {
                if parts != [2, 2, 2, 2] {
                    out.push(Strategy::FourPart(parts));
                }
            }
        }
        out
    }

    /// The learner's class id of this strategy (its position in
    /// [`Strategy::all_for_tenants`]).
    pub fn index(&self, tenants: usize) -> usize {
        Strategy::all_for_tenants(tenants)
            .iter()
            .position(|s| s == self)
            .expect("strategy not in the space for this tenant count")
    }

    /// Inverse of [`Strategy::index`].
    pub fn from_index(index: usize, tenants: usize) -> Option<Strategy> {
        Strategy::all_for_tenants(tenants).get(index).copied()
    }

    /// Assigns channels to tenants.
    ///
    /// * `rw_chars[i]` is tenant *i*'s observed read/write characteristic
    ///   (0 = write-dominated, 1 = read-dominated), used by two-part
    ///   strategies;
    /// * returns one channel list per tenant.
    ///
    /// If a two-part split finds one dominance group empty, the orphaned
    /// channels go unused — the honest cost of a mismatched strategy,
    /// which label generation will penalize. Tenants in an empty group
    /// never occur (every tenant belongs to exactly one group).
    ///
    /// # Panics
    ///
    /// Panics if `rw_chars.len()` is incompatible with the strategy or the
    /// config has fewer channels than tenants.
    pub fn assign_channels(&self, rw_chars: &[u8], cfg: &SsdConfig) -> Vec<Vec<usize>> {
        let n = rw_chars.len();
        let channels = cfg.channels;
        assert!(n > 0 && n <= channels, "{n} tenants on {channels} channels");
        match *self {
            Strategy::Shared => vec![(0..channels).collect(); n],
            Strategy::Isolated => {
                // Contiguous even split; remainders go to the first tenants.
                let base = channels / n;
                let extra = channels % n;
                let mut out = Vec::with_capacity(n);
                let mut start = 0;
                for i in 0..n {
                    let len = base + usize::from(i < extra);
                    out.push((start..start + len).collect());
                    start += len;
                }
                out
            }
            Strategy::TwoPart { write_channels } => {
                let w = write_channels as usize;
                assert!(w >= 1 && w < channels, "two-part split out of range");
                let write_set: Vec<usize> = (0..w).collect();
                let read_set: Vec<usize> = (w..channels).collect();
                rw_chars
                    .iter()
                    .map(|&c| {
                        if c == 0 {
                            write_set.clone()
                        } else {
                            read_set.clone()
                        }
                    })
                    .collect()
            }
            Strategy::FourPart(parts) => {
                assert_eq!(n, 4, "four-part strategies need exactly four tenants");
                assert_eq!(
                    parts.iter().map(|&p| p as usize).sum::<usize>(),
                    channels,
                    "parts must cover every channel"
                );
                let mut out = Vec::with_capacity(4);
                let mut start = 0usize;
                for &p in &parts {
                    out.push((start..start + p as usize).collect());
                    start += p as usize;
                }
                out
            }
        }
    }

    /// The layout that runs this strategy from `t = 0`: channel sets from
    /// [`Self::assign_channels`], page-allocation policies from
    /// [`crate::hybrid::policies`] (static for all when `hybrid` is off),
    /// and each tenant's logical space from `lpn_spaces`.
    pub(crate) fn layout(
        &self,
        rw_chars: &[u8],
        lpn_spaces: &[u64],
        cfg: &SsdConfig,
        hybrid: bool,
    ) -> Result<TenantLayout, SimError> {
        let lists = self.assign_channels(rw_chars, cfg);
        let mut layout =
            TenantLayout::from_channel_lists(&lists, cfg).ok_or_else(|| SimError::BadLayout {
                reason: format!("strategy {self:?} produced invalid channel lists {lists:?}"),
            })?;
        let policies = crate::hybrid::policies(rw_chars, hybrid);
        for (t, (&space, &policy)) in lpn_spaces.iter().zip(&policies).enumerate() {
            layout = layout.with_lpn_space(t, space).with_policy(t, policy);
        }
        Ok(layout)
    }

    /// A mid-run switch to this strategy at `at_ns`: every tenant's new
    /// channel set and page-allocation policy.
    pub(crate) fn reallocation(
        &self,
        at_ns: u64,
        rw_chars: &[u8],
        cfg: &SsdConfig,
        hybrid: bool,
    ) -> Reallocation {
        let policies = crate::hybrid::policies(rw_chars, hybrid);
        let rows = self
            .assign_channels(rw_chars, cfg)
            .into_iter()
            .zip(policies);
        Reallocation::new(
            at_ns,
            rows.enumerate()
                .map(|(t, (channels, policy))| (t, channels, Some(policy))),
        )
    }

    /// Canonical grouped label used by the Figure 6 analysis: four-part
    /// strategies collapse to their sorted-descending parts (5:1:1:1
    /// stands for every ordering), two-part strategies keep the
    /// write-first notation.
    pub fn canonical_label(&self) -> String {
        match *self {
            Strategy::Shared => "Shared".to_string(),
            Strategy::Isolated => "Isolated".to_string(),
            Strategy::TwoPart { write_channels } => {
                format!("{}:{}", write_channels, 8 - write_channels)
            }
            Strategy::FourPart(mut parts) => {
                parts.sort_unstable_by(|a, b| b.cmp(a));
                format!("{}:{}:{}:{}", parts[0], parts[1], parts[2], parts[3])
            }
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Strategy::Shared => write!(f, "Shared"),
            Strategy::Isolated => write!(f, "Isolated"),
            Strategy::TwoPart { write_channels } => {
                write!(f, "{}:{}", write_channels, 8 - write_channels)
            }
            Strategy::FourPart(p) => write!(f, "{}:{}:{}:{}", p[0], p[1], p[2], p[3]),
        }
    }
}

/// Ordered compositions of 8 into four positive parts, lexicographic.
fn compositions_of_8_into_4() -> Vec<[u8; 4]> {
    let mut out = Vec::with_capacity(35);
    for a in 1..=5u8 {
        for b in 1..=(8 - a - 2) {
            for c in 1..=(8 - a - b - 1) {
                let d = 8 - a - b - c;
                debug_assert!(d >= 1);
                out.push([a, b, c, d]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    fn cfg() -> SsdConfig {
        SsdConfig::paper_table1()
    }

    #[test]
    fn two_tenant_space_has_8_strategies() {
        let all = Strategy::all_for_tenants(2);
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], Strategy::Shared);
        assert_eq!(all[1], Strategy::Isolated);
        assert!(!all.contains(&Strategy::TwoPart { write_channels: 4 }));
    }

    #[test]
    fn four_tenant_space_has_42_strategies() {
        let all = Strategy::all_for_tenants(4);
        assert_eq!(all.len(), 42, "matches the paper's output layer width");
        // No duplicates.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 42);
        // 2:2:2:2 is represented only by Isolated.
        assert!(!all.contains(&Strategy::FourPart([2, 2, 2, 2])));
    }

    #[test]
    #[should_panic(expected = "2 or 4 tenants")]
    fn unsupported_tenant_count_panics() {
        let _ = Strategy::all_for_tenants(3);
    }

    #[test]
    fn compositions_count_is_35() {
        assert_eq!(compositions_of_8_into_4().len(), 35);
    }

    #[test]
    fn index_round_trips() {
        for tenants in [2usize, 4] {
            for (i, s) in Strategy::all_for_tenants(tenants).iter().enumerate() {
                assert_eq!(s.index(tenants), i);
                assert_eq!(Strategy::from_index(i, tenants), Some(*s));
            }
            assert_eq!(Strategy::from_index(999, tenants), None);
        }
    }

    #[test]
    fn shared_gives_everyone_everything() {
        let sets = Strategy::Shared.assign_channels(&[0, 1, 0, 1], &cfg());
        assert_eq!(sets.len(), 4);
        for s in sets {
            assert_eq!(s, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn isolated_partitions_evenly() {
        let sets = Strategy::Isolated.assign_channels(&[0, 1, 0, 1], &cfg());
        let mut owned = [0u32; 8];
        for s in &sets {
            assert_eq!(s.len(), 2);
            for &c in s {
                owned[c] += 1;
            }
        }
        assert!(owned.iter().all(|&n| n == 1));
    }

    #[test]
    fn isolated_two_tenants_is_4_4() {
        let sets = Strategy::Isolated.assign_channels(&[0, 1], &cfg());
        assert_eq!(sets[0], vec![0, 1, 2, 3]);
        assert_eq!(sets[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn two_part_groups_by_dominance() {
        let s = Strategy::TwoPart { write_channels: 6 };
        let sets = s.assign_channels(&[0, 1, 1, 0], &cfg());
        assert_eq!(sets[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sets[3], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sets[1], vec![6, 7]);
        assert_eq!(sets[2], vec![6, 7]);
    }

    #[test]
    fn four_part_is_positional_and_contiguous() {
        let s = Strategy::FourPart([5, 1, 1, 1]);
        let sets = s.assign_channels(&[0, 1, 0, 1], &cfg());
        assert_eq!(sets[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(sets[1], vec![5]);
        assert_eq!(sets[2], vec![6]);
        assert_eq!(sets[3], vec![7]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Strategy::Shared.to_string(), "Shared");
        assert_eq!(Strategy::Isolated.to_string(), "Isolated");
        assert_eq!(Strategy::TwoPart { write_channels: 7 }.to_string(), "7:1");
        assert_eq!(Strategy::FourPart([4, 2, 1, 1]).to_string(), "4:2:1:1");
    }

    #[test]
    fn canonical_label_collapses_orderings() {
        assert_eq!(
            Strategy::FourPart([1, 5, 1, 1]).canonical_label(),
            "5:1:1:1"
        );
        assert_eq!(
            Strategy::FourPart([1, 2, 4, 1]).canonical_label(),
            "4:2:1:1"
        );
        assert_eq!(
            Strategy::TwoPart { write_channels: 2 }.canonical_label(),
            "2:6"
        );
        assert_eq!(Strategy::Shared.canonical_label(), "Shared");
    }

    /// Every strategy yields non-empty, in-range channel sets covering
    /// each tenant, and four-part assignments are disjoint and complete.
    /// Exhaustive over all 42 strategies, with seeded random tenant
    /// characteristics per strategy.
    #[test]
    fn assignments_are_well_formed() {
        let mut rng = SimRng::seed_from_u64(701);
        for idx in 0..42usize {
            for _ in 0..8 {
                let chars: Vec<u8> = (0..4).map(|_| rng.gen_range(0u8..2)).collect();
                let s = Strategy::from_index(idx, 4).unwrap();
                let sets = s.assign_channels(&chars, &cfg());
                assert_eq!(sets.len(), 4);
                for set in &sets {
                    assert!(!set.is_empty());
                    assert!(set.iter().all(|&c| c < 8));
                }
                if let Strategy::FourPart(_) = s {
                    let mut owned = [0u32; 8];
                    for set in &sets {
                        for &c in set {
                            owned[c] += 1;
                        }
                    }
                    assert!(owned.iter().all(|&n| n == 1), "strategy {idx}");
                }
            }
        }
    }

    /// Canonical labels never depend on part order. Exhaustive over all
    /// four-part strategies.
    #[test]
    fn canonical_is_order_invariant() {
        for idx in 8..42usize {
            if let Some(Strategy::FourPart(parts)) = Strategy::from_index(idx, 4) {
                let mut rev = parts;
                rev.reverse();
                // The reversed composition is also in the space (unless it
                // is the same composition).
                let a = Strategy::FourPart(parts).canonical_label();
                let b = Strategy::FourPart(rev).canonical_label();
                assert_eq!(a, b, "strategy {idx}");
            }
        }
    }
}
