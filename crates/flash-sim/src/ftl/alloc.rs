//! Page allocation: choosing the plane a write lands on.
//!
//! The paper contrasts two modes (§IV-E):
//!
//! * **Static** — channel/chip/plane are a pure function of the LPN, so
//!   consecutive logical pages stripe across the tenant's channels. This
//!   maximizes read parallelism for sequential reads, which is why
//!   SSDKeeper assigns it to read-dominated tenants.
//! * **Dynamic** — the write goes to the least-backlogged die in the
//!   tenant's channel set, so bursts of writes spread to whatever is idle.
//!   SSDKeeper assigns it to write-dominated tenants.
//!
//! SSDKeeper's *hybrid page allocator* is exactly the per-tenant choice
//! between these two, driven by the observed read/write characteristic.

use crate::geometry::Geometry;
use crate::tenant::TenantState;

/// Page allocation mode for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageAllocPolicy {
    /// LPN-determined placement (channel-first striping).
    Static,
    /// Least-backlogged-die placement at dispatch time.
    Dynamic,
}

impl std::fmt::Display for PageAllocPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageAllocPolicy::Static => write!(f, "static"),
            PageAllocPolicy::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// Flat plane index chosen by **static** allocation for `(tenant, lpn)`.
///
/// Striping order is channel-first, then die-within-channel, then plane:
/// consecutive LPNs hit different channels, so a `size`-page sequential read
/// engages `min(size, |channels|)` buses at once.
pub(crate) fn static_plane(geo: &Geometry, tenant: &TenantState, lpn: u64) -> usize {
    let set = &tenant.channels;
    let nch = set.len() as u64;
    let dies_per_channel = geo.dies_per_channel() as u64;
    let planes_per_die = geo.planes_per_die() as u64;

    let channel = set.stripe(lpn);
    let die_in_channel = (lpn / nch) % dies_per_channel;
    let plane_in_die = (lpn / (nch * dies_per_channel)) % planes_per_die;

    let die = geo.die_index_of(channel, die_in_channel as usize);
    geo.plane_index_of(die, plane_in_die as usize)
}

/// Flat plane index chosen by **dynamic** allocation.
///
/// `plane_backlog` maps flat plane index to the number of commands
/// currently queued or executing on its execution unit; `plane_free` maps
/// flat plane index to its free-page count. Among the tenant's channels
/// the least-backlogged plane wins; ties prefer the plane with the most
/// free pages (so planes fill evenly and GC pressure stays balanced),
/// then the lower index.
/// Ties are broken in **channel-first** order (all channels' first planes
/// before any channel's second plane), so a burst of writes arriving at an
/// idle device fans out across buses instead of piling onto one channel —
/// the same parallelism static striping gets.
pub(crate) fn dynamic_plane(
    geo: &Geometry,
    tenant: &TenantState,
    plane_backlog: &[u32],
    plane_free: impl Fn(usize) -> u64,
) -> usize {
    let planes_per_channel = geo.dies_per_channel() * geo.planes_per_die();
    (0..planes_per_channel)
        .flat_map(|rank| {
            tenant
                .channels
                .channels()
                .iter()
                .enumerate()
                .map(move |(ch_pos, &ch)| {
                    let die = geo.die_index_of(ch as usize, rank / geo.planes_per_die());
                    let plane = geo.plane_index_of(die, rank % geo.planes_per_die());
                    (rank, ch_pos, plane)
                })
        })
        // `(rank, ch_pos)` makes every key unique, so `min_by_key`'s
        // last-min-wins tie rule cannot differ from the first-wins scan
        // this replaces: backlog first, then most free pages, then
        // channel-first rank order.
        .min_by_key(|&(rank, ch_pos, plane)| {
            (
                plane_backlog[plane],
                std::cmp::Reverse(plane_free(plane)),
                rank,
                ch_pos,
            )
        })
        .map(|(_, _, plane)| plane)
        .expect("channel sets are non-empty by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::tenant::{ChannelSet, TenantState};
    use simrng::{Rng, SimRng};

    fn tenant_with_channels(chs: &[usize], cfg: &SsdConfig) -> TenantState {
        TenantState {
            channels: ChannelSet::new(chs, cfg.channels).unwrap(),
            policy: PageAllocPolicy::Static,
            lpn_space: 1 << 16,
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(PageAllocPolicy::Static.to_string(), "static");
        assert_eq!(PageAllocPolicy::Dynamic.to_string(), "dynamic");
    }

    #[test]
    fn static_stripes_consecutive_lpns_across_channels() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[0, 1, 2, 3], &cfg);
        let channels: Vec<usize> = (0..8)
            .map(|lpn| geo.channel_of_plane(static_plane(&geo, &tenant, lpn)))
            .collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn static_respects_channel_set() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[5, 7], &cfg);
        for lpn in 0..256 {
            let ch = geo.channel_of_plane(static_plane(&geo, &tenant, lpn));
            assert!(ch == 5 || ch == 7, "lpn {lpn} landed on channel {ch}");
        }
    }

    #[test]
    fn static_eventually_uses_every_plane_in_set() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[2, 3], &cfg);
        let reachable: usize = 2 * geo.dies_per_channel() * geo.planes_per_die();
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..1024 {
            seen.insert(static_plane(&geo, &tenant, lpn));
        }
        assert_eq!(seen.len(), reachable);
    }

    #[test]
    fn dynamic_picks_least_backlogged_plane() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[0, 1], &cfg);
        let mut backlog = vec![10u32; geo.total_planes()];
        let idle = geo.plane_index_of(geo.die_index_of(1, 1), 2);
        backlog[idle] = 0; // channel 1, second die, third plane is idle
        let plane = dynamic_plane(&geo, &tenant, &backlog, |_| 100);
        assert_eq!(plane, idle);
    }

    #[test]
    fn dynamic_ignores_planes_outside_channel_set() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[6], &cfg);
        let mut backlog = vec![5u32; geo.total_planes()];
        // Channel 0's planes are idle but outside the set.
        for d in geo.dies_of_channel(0) {
            for p in geo.planes_of_die(d) {
                backlog[p] = 0;
            }
        }
        let plane = dynamic_plane(&geo, &tenant, &backlog, |_| 100);
        assert_eq!(geo.channel_of_plane(plane), 6);
    }

    #[test]
    fn dynamic_breaks_backlog_ties_by_free_pages() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[0], &cfg);
        let backlog = vec![0u32; geo.total_planes()];
        // Make plane index 2 within die 0 the freest.
        let target = geo.plane_index_of(0, 2);
        let plane = dynamic_plane(
            &geo,
            &tenant,
            &backlog,
            |p| if p == target { 99 } else { 1 },
        );
        assert_eq!(plane, target);
    }

    /// Static allocation is a pure function of (channel set, lpn).
    #[test]
    fn static_is_deterministic() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let tenant = tenant_with_channels(&[1, 4, 6], &cfg);
        let mut rng = SimRng::seed_from_u64(401);
        for _ in 0..512 {
            let lpn = rng.gen_range(0u64..100_000);
            assert_eq!(
                static_plane(&geo, &tenant, lpn),
                static_plane(&geo, &tenant, lpn)
            );
        }
    }

    /// Dynamic allocation always lands inside the tenant's channel set.
    #[test]
    fn dynamic_stays_in_set() {
        let cfg = SsdConfig::paper_table1();
        let geo = Geometry::new(&cfg);
        let mut rng = SimRng::seed_from_u64(402);
        for _ in 0..256 {
            let backlogs: Vec<u32> = (0..64).map(|_| rng.gen_range(0u32..100)).collect();
            let ch_a = rng.gen_range(0usize..8);
            let ch_b = rng.gen_range(0usize..8);
            let tenant = tenant_with_channels(&[ch_a, ch_b], &cfg);
            let plane = dynamic_plane(&geo, &tenant, &backlogs, |_| 10);
            let ch = geo.channel_of_plane(plane);
            assert!(ch == ch_a || ch == ch_b);
        }
    }
}
