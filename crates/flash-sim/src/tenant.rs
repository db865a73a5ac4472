//! Multi-tenant channel partitioning.
//!
//! SSDKeeper enforces a channel-allocation strategy by giving every tenant a
//! [`ChannelSet`] — the channels its writes may land on. Reads always follow
//! the mapping table, so after a mid-run re-allocation (Algorithm 2's
//! `predict` step at `t == T`) old data is still read from wherever it was
//! written, exactly as on a real device.

use crate::config::SsdConfig;
use crate::ftl::alloc::PageAllocPolicy;

/// An ordered set of channel indices a tenant may write to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSet {
    channels: Vec<u16>,
}

impl ChannelSet {
    /// Builds a set from channel indices; duplicates are removed, order is
    /// preserved for striding.
    ///
    /// Returns `None` when `channels` is empty or any index is out of range.
    pub fn new(channels: &[usize], total_channels: usize) -> Option<Self> {
        if channels.is_empty() {
            return None;
        }
        let mut seen = vec![false; total_channels];
        let mut out = Vec::with_capacity(channels.len());
        for &c in channels {
            if c >= total_channels {
                return None;
            }
            if !seen[c] {
                seen[c] = true;
                out.push(c as u16);
            }
        }
        Some(Self { channels: out })
    }

    /// Every channel in the device.
    pub fn all(total_channels: usize) -> Self {
        Self {
            channels: (0..total_channels as u16).collect(),
        }
    }

    /// The channels as a slice.
    pub fn channels(&self) -> &[u16] {
        &self.channels
    }

    /// Number of channels in the set.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Channel used by static allocation for stripe position `i`.
    pub fn stripe(&self, i: u64) -> usize {
        self.channels[(i % self.channels.len() as u64) as usize] as usize
    }

    /// Whether `channel` is in the set.
    pub fn contains(&self, channel: usize) -> bool {
        self.channels.iter().any(|&c| c as usize == channel)
    }
}

/// One tenant's allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantState {
    /// Channels this tenant's new writes go to.
    pub channels: ChannelSet,
    /// Page allocation mode for this tenant (static or dynamic).
    pub policy: PageAllocPolicy,
    /// Size of the tenant's logical page space. Writes beyond this wrap
    /// (the simulator masks LPNs by this bound).
    pub lpn_space: u64,
}

/// Channel/policy assignment for every tenant sharing the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLayout {
    tenants: Vec<TenantState>,
}

/// Default logical space per tenant used by the convenience constructors:
/// large enough that synthetic workloads do not self-overwrite unless asked
/// to, small enough that mapping tables stay dense.
const DEFAULT_LPN_SPACE: u64 = 1 << 20;

impl TenantLayout {
    /// Builds a layout from explicit per-tenant states.
    pub fn new(tenants: Vec<TenantState>) -> Self {
        Self { tenants }
    }

    /// `n` tenants all striping over every channel (the paper's *Shared*
    /// baseline), static page allocation.
    pub fn shared(n: usize, cfg: &SsdConfig) -> Self {
        let tenants = (0..n)
            .map(|_| TenantState {
                channels: ChannelSet::all(cfg.channels),
                policy: PageAllocPolicy::Static,
                lpn_space: DEFAULT_LPN_SPACE,
            })
            .collect();
        Self { tenants }
    }

    /// `n` tenants splitting the channels as evenly as possible (the
    /// paper's *Isolated* baseline), static page allocation.
    ///
    /// Channels are dealt round-robin so remainders spread across tenants.
    pub fn isolated(n: usize, cfg: &SsdConfig) -> Self {
        assert!(n > 0, "need at least one tenant");
        assert!(
            n <= cfg.channels,
            "cannot isolate {n} tenants on {} channels",
            cfg.channels
        );
        let mut per_tenant: Vec<Vec<usize>> = vec![Vec::new(); n];
        for ch in 0..cfg.channels {
            per_tenant[ch % n].push(ch);
        }
        let tenants = per_tenant
            .into_iter()
            .map(|chs| TenantState {
                channels: ChannelSet::new(&chs, cfg.channels)
                    .expect("isolated split always yields non-empty valid sets"),
                policy: PageAllocPolicy::Static,
                lpn_space: DEFAULT_LPN_SPACE,
            })
            .collect();
        Self { tenants }
    }

    /// Builds a layout from per-tenant channel lists, all static allocation.
    ///
    /// Returns `None` if any list is empty or out of range.
    pub fn from_channel_lists(lists: &[Vec<usize>], cfg: &SsdConfig) -> Option<Self> {
        let tenants = lists
            .iter()
            .map(|chs| {
                Some(TenantState {
                    channels: ChannelSet::new(chs, cfg.channels)?,
                    policy: PageAllocPolicy::Static,
                    lpn_space: DEFAULT_LPN_SPACE,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self { tenants })
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Immutable access to a tenant's state.
    pub fn tenant(&self, idx: usize) -> &TenantState {
        &self.tenants[idx]
    }

    /// Mutable access to a tenant's state (used by mid-run re-allocation).
    pub(crate) fn tenant_mut(&mut self, idx: usize) -> &mut TenantState {
        &mut self.tenants[idx]
    }

    /// Iterates over tenant states.
    pub fn iter(&self) -> impl Iterator<Item = &TenantState> {
        self.tenants.iter()
    }

    /// Sets one tenant's page-allocation policy (builder style).
    pub fn with_policy(mut self, tenant: usize, policy: PageAllocPolicy) -> Self {
        self.tenants[tenant].policy = policy;
        self
    }

    /// Sets one tenant's logical space (builder style).
    pub fn with_lpn_space(mut self, tenant: usize, lpn_space: u64) -> Self {
        assert!(lpn_space > 0, "lpn_space must be positive");
        self.tenants[tenant].lpn_space = lpn_space;
        self
    }

    /// Sets every tenant's logical space (builder style).
    pub fn with_lpn_space_all(mut self, lpn_space: u64) -> Self {
        assert!(lpn_space > 0, "lpn_space must be positive");
        for t in &mut self.tenants {
            t.lpn_space = lpn_space;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SsdConfig {
        SsdConfig::paper_table1()
    }

    #[test]
    fn channel_set_rejects_empty_and_out_of_range() {
        assert!(ChannelSet::new(&[], 8).is_none());
        assert!(ChannelSet::new(&[8], 8).is_none());
        assert!(ChannelSet::new(&[0, 7], 8).is_some());
    }

    #[test]
    fn channel_set_dedups_preserving_order() {
        let s = ChannelSet::new(&[3, 1, 3, 1, 5], 8).unwrap();
        assert_eq!(s.channels(), &[3, 1, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn stripe_cycles_through_set() {
        let s = ChannelSet::new(&[2, 4, 6], 8).unwrap();
        let strides: Vec<usize> = (0..6).map(|i| s.stripe(i)).collect();
        assert_eq!(strides, vec![2, 4, 6, 2, 4, 6]);
    }

    #[test]
    fn contains_checks_membership() {
        let s = ChannelSet::new(&[0, 2], 4).unwrap();
        assert!(s.contains(0));
        assert!(!s.contains(1));
    }

    #[test]
    fn all_covers_every_channel() {
        let s = ChannelSet::all(8);
        assert_eq!(s.len(), 8);
        assert!((0..8).all(|c| s.contains(c)));
    }

    #[test]
    fn shared_layout_gives_every_tenant_all_channels() {
        let layout = TenantLayout::shared(4, &cfg());
        assert_eq!(layout.tenant_count(), 4);
        for t in layout.iter() {
            assert_eq!(t.channels.len(), 8);
            assert_eq!(t.policy, PageAllocPolicy::Static);
        }
    }

    #[test]
    fn isolated_layout_partitions_channels() {
        let layout = TenantLayout::isolated(4, &cfg());
        let mut owned = [0u32; 8];
        for t in layout.iter() {
            assert_eq!(t.channels.len(), 2);
            for &c in t.channels.channels() {
                owned[c as usize] += 1;
            }
        }
        assert!(
            owned.iter().all(|&n| n == 1),
            "each channel owned exactly once"
        );
    }

    #[test]
    fn isolated_layout_with_remainder() {
        let layout = TenantLayout::isolated(3, &cfg());
        let sizes: Vec<usize> = layout.iter().map(|t| t.channels.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    #[should_panic(expected = "cannot isolate")]
    fn isolated_rejects_more_tenants_than_channels() {
        let _ = TenantLayout::isolated(9, &cfg());
    }

    #[test]
    fn from_channel_lists_validates() {
        assert!(TenantLayout::from_channel_lists(&[vec![0], vec![]], &cfg()).is_none());
        assert!(TenantLayout::from_channel_lists(&[vec![0], vec![9]], &cfg()).is_none());
        let layout =
            TenantLayout::from_channel_lists(&[vec![0, 1, 2], vec![3, 4, 5, 6, 7]], &cfg())
                .unwrap();
        assert_eq!(layout.tenant(0).channels.len(), 3);
        assert_eq!(layout.tenant(1).channels.len(), 5);
    }

    #[test]
    fn builders_set_policy_and_space() {
        let layout = TenantLayout::shared(2, &cfg())
            .with_policy(1, PageAllocPolicy::Dynamic)
            .with_lpn_space(0, 128)
            .with_lpn_space_all(256);
        assert_eq!(layout.tenant(1).policy, PageAllocPolicy::Dynamic);
        assert_eq!(layout.tenant(0).lpn_space, 256);
        assert_eq!(layout.tenant(1).lpn_space, 256);
    }
}
