//! Greedy garbage collection.
//!
//! When a plane's spare-block pool drops below the configured threshold the
//! FTL runs one GC pass on that plane: pick the full block with the fewest
//! valid pages (ties broken toward the least-erased block, a light
//! wear-leveling touch), migrate its valid pages to the plane's active
//! block, erase it, and return it to the spare pool.
//!
//! Bookkeeping happens synchronously; the **time** the pass takes —
//! `moved × (read + program) + erase` — is returned as a [`GcCharge`] that
//! the engine turns into a die-blocking composite operation, so foreground
//! I/O behind a collecting die stalls exactly as it would on hardware.
//! Migrations use on-chip copyback and never touch the channel bus.

use super::Ftl;

/// Timing charge for one GC pass, to be applied to the owning execution
/// unit by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcCharge {
    /// Flat plane index that performs the pass.
    pub plane: usize,
    /// Block index of the chosen victim within the plane.
    pub victim_block: u32,
    /// Total busy time: valid-page moves plus the erase.
    pub duration_ns: u64,
    /// Valid pages migrated.
    pub moved_pages: u32,
    /// Blocks erased (always 1 for a single pass).
    pub erased_blocks: u32,
}

/// Runs one greedy pass on `plane`. Returns `None` when no profitable
/// victim exists (every full block is 100 % valid, or no block is full).
///
/// When the plane's erase-count spread exceeds the configured static
/// wear-leveling threshold, the pass instead targets the *coldest* full
/// block — even a fully valid one — so cold data stops pinning low-wear
/// blocks out of the rotation.
pub(super) fn collect_plane(ftl: &mut Ftl, plane: usize) -> Option<GcCharge> {
    let victim = pick_wear_victim(ftl, plane).or_else(|| ftl.plane_mut(plane).greedy_victim())?;
    // No index removal here: the victim's entries go stale when the erase
    // below bumps its erase count (and empties it), and the lazy cleanup
    // in victim selection discards them.

    // Collect, invalidate, and migrate the victim's live pages in the
    // FTL's fused inner loop (see `Ftl::migrate_for_gc`); the victim is
    // erased there only when the spare pool ran dry mid-migration.
    let (moved, victim_erased) = ftl.migrate_for_gc(plane, victim);
    if !victim_erased {
        ftl.erase_block_internal(plane, victim);
    }

    let (read_ns, write_ns, erase_ns) = ftl.timings();
    let stats = ftl.stats_mut();
    stats.gc_pages_moved += moved as u64;
    stats.gc_blocks_erased += 1;
    stats.gc_invocations += 1;

    Some(GcCharge {
        plane,
        victim_block: victim as u32,
        duration_ns: moved as u64 * (read_ns + write_ns) + erase_ns,
        moved_pages: moved,
        erased_blocks: 1,
    })
}

/// Static wear leveling: when the plane's erase spread exceeds the
/// threshold, returns the coldest (least-erased) full block so its data
/// is migrated and the block rejoins the write rotation. Returns `None`
/// when disabled (threshold 0) or the spread is within bounds.
fn pick_wear_victim(ftl: &mut Ftl, plane: usize) -> Option<usize> {
    let threshold = ftl.wear_threshold_internal();
    if threshold == 0 {
        return None;
    }
    // O(1) spread check via the plane's erase histogram.
    if ftl.plane_ref(plane).erase_spread() <= threshold {
        return None;
    }
    // Coldest full block, ties toward more invalid pages (cheaper moves):
    // min (erase, valid, idx) straight out of the victim index.
    ftl.plane_mut(plane).wear_victim()
}

#[cfg(test)]
mod tests {
    use crate::config::SsdConfig;
    use crate::ftl::{Ftl, PageState};
    use crate::tenant::TenantLayout;

    fn setup(threshold: f64, lpn_space: u64) -> (SsdConfig, TenantLayout, Ftl) {
        let cfg = SsdConfig {
            gc_free_block_threshold: threshold,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(lpn_space);
        let ftl = Ftl::new(&cfg, &layout);
        (cfg, layout, ftl)
    }

    /// Drives plane 0 until GC has fired at least once.
    fn hammer(ftl: &mut Ftl, writes: u64, hot_set: u64) {
        for i in 0..writes {
            ftl.write(0, i % hot_set, 0).unwrap();
        }
    }

    #[test]
    fn gc_triggers_under_pressure_and_keeps_invariants() {
        let (_cfg, _layout, mut ftl) = setup(0.25, 64);
        hammer(&mut ftl, 512, 8);
        assert!(ftl.stats().gc_invocations > 0);
        ftl.check_invariants();
    }

    #[test]
    fn gc_charge_duration_matches_moved_pages() {
        let (_cfg, _layout, mut ftl) = setup(0.25, 64);
        // Find a write whose outcome carries a GC charge.
        let mut found = false;
        for i in 0..2048 {
            let out = ftl.write(0, i % 8, 0).unwrap();
            if let Some(gc) = out.gc {
                let (r, w, e) = (20_000u64, 200_000u64, 1_500_000u64);
                assert_eq!(gc.duration_ns, gc.moved_pages as u64 * (r + w) + e);
                assert_eq!(gc.erased_blocks, 1);
                assert_eq!(gc.plane, 0);
                assert!((gc.victim_block as usize) < SsdConfig::small_test().blocks_per_plane);
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one GC charge");
    }

    #[test]
    fn hot_overwrites_produce_cheap_victims() {
        // A tiny hot set means victims are fully invalid: zero moves.
        let (_cfg, _layout, mut ftl) = setup(0.25, 4);
        hammer(&mut ftl, 1024, 4);
        let stats = ftl.stats();
        assert!(stats.gc_invocations > 0);
        // Write amplification should stay close to 1 for fully-hot traffic.
        assert!(
            stats.write_amplification() < 1.2,
            "WA {} too high for fully-hot workload",
            stats.write_amplification()
        );
    }

    #[test]
    fn mixed_hot_cold_moves_cold_pages() {
        let (_cfg, _layout, mut ftl) = setup(0.25, 32);
        // Interleave one-shot cold pages with hot pages so blocks hold a
        // mix, then overwrite hot pages in a *random* order: cyclic
        // overwrites would hand greedy GC a fully-invalid victim every
        // pass, whereas random ones leave every block partially valid and
        // force migrations.
        use simrng::Rng;
        for i in 0..16u64 {
            ftl.write(0, i, 0).unwrap(); // hot
            ftl.write(0, 16 + i, 0).unwrap(); // cold, written once
        }
        let mut rng = simrng::SimRng::seed_from_u64(42);
        for _ in 0..1024 {
            let lpn = rng.gen_range(0..16u64);
            ftl.write(0, lpn, 0).unwrap();
        }
        let stats = ftl.stats();
        assert!(stats.gc_pages_moved > 0, "cold valid pages must migrate");
        ftl.check_invariants();
        // Cold data must still be readable at its (migrated) location.
        let layout = TenantLayout::shared(1, &SsdConfig::small_test()).with_lpn_space_all(32);
        for lpn in 16..32 {
            ftl.translate_read(0, lpn, &layout).unwrap();
        }
    }

    #[test]
    fn erase_counts_accumulate() {
        let (cfg, _layout, mut ftl) = setup(0.25, 8);
        hammer(&mut ftl, 2048, 8);
        let total_erases: u64 = (0..1)
            .map(|_| {
                (0..cfg.blocks_per_plane)
                    .map(|b| ftl.plane_ref(0).blocks[b].erase_count as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total_erases, ftl.stats().gc_blocks_erased);
        assert!(total_erases > 1);
    }

    #[test]
    fn static_wear_leveling_bounds_the_erase_spread() {
        use crate::ftl::wear::wear_summary;
        // Cold data written once, then a hot region hammered hard. With
        // greedy-only GC the cold blocks are never erased and the spread
        // grows with total wear; static WL drags them back into rotation.
        let run = |threshold: u32| {
            let cfg = SsdConfig {
                channels: 1,
                chips_per_channel: 1,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 8,
                pages_per_block: 8,
                gc_free_block_threshold: 0.25,
                wear_leveling_threshold: threshold,
                ..SsdConfig::small_test()
            };
            let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(32);
            let mut ftl = Ftl::new(&cfg, &layout);
            for lpn in 16..32 {
                ftl.write(0, lpn, 0).unwrap(); // cold, written once
            }
            for i in 0..8_192u64 {
                ftl.write(0, i % 16, 0).unwrap(); // hot
            }
            ftl.check_invariants();
            // Cold data must remain readable.
            for lpn in 16..32 {
                ftl.translate_read(0, lpn, &layout).unwrap();
            }
            wear_summary(&ftl)
        };
        let greedy = run(0);
        let leveled = run(4);
        assert!(
            leveled.spread() < greedy.spread(),
            "WL spread {} must beat greedy spread {}",
            leveled.spread(),
            greedy.spread()
        );
        assert!(
            leveled.spread() <= 8,
            "spread must stay near the threshold, got {}",
            leveled.spread()
        );
    }

    #[test]
    fn wear_leveling_disabled_by_zero_threshold() {
        // threshold 0 must never trigger the cold-victim path (behaviour
        // identical to the original greedy policy).
        let (_cfg, _layout, mut ftl) = setup(0.25, 8);
        hammer(&mut ftl, 512, 8);
        // All data hot: every block cycles anyway; just assert no panic
        // and invariants hold.
        ftl.check_invariants();
    }

    #[test]
    fn gc_never_erases_live_data() {
        let (_cfg, layout, mut ftl) = setup(0.25, 48);
        for round in 0..64u64 {
            for lpn in 0..48 {
                if lpn % 3 == round % 3 {
                    ftl.write(0, lpn, 0).unwrap();
                }
            }
        }
        // Every LPN ever written must resolve to a Valid page with its tag.
        ftl.check_invariants();
        for lpn in 0..48 {
            let addr = ftl.translate_read(0, lpn, &layout).unwrap();
            let plane = ftl.geometry().plane_index(&addr);
            match ftl.plane_ref(plane).page(addr.block as usize, addr.page) {
                PageState::Valid { tenant, lpn: l } => {
                    assert_eq!(tenant, 0);
                    assert_eq!(l, lpn);
                }
                other => panic!("lpn {lpn} maps to {other:?}"),
            }
        }
    }
}
