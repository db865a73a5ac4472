//! Wear (erase-count) accounting across the device.
//!
//! The FTL's GC victim selection already tie-breaks toward low-erase blocks
//! (see [`super::gc`]); this module provides the reporting side: per-device
//! erase-count distribution summaries used by tests, examples, and the
//! ablation benches.

use super::Ftl;

/// Summary of the erase-count distribution over all blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearSummary {
    /// Total block erases performed.
    pub total_erases: u64,
    /// Lowest per-block erase count.
    pub min: u32,
    /// Highest per-block erase count.
    pub max: u32,
    /// Mean erase count.
    pub mean: f64,
    /// Population standard deviation of erase counts.
    pub std_dev: f64,
}

impl WearSummary {
    /// Max-minus-min spread; 0 for perfectly even wear.
    pub fn spread(&self) -> u32 {
        self.max - self.min
    }
}

/// Computes the erase-count summary for the whole device.
///
/// Streams over the per-plane block tables twice (totals, then variance)
/// instead of materialising a flat count vector, so repeated reporting —
/// e.g. once per keeper window on a warm [`crate::SimArena`] — performs no
/// heap allocation. The accumulation order matches the flattened
/// plane-major order the old vector used, so the floating-point results
/// are bit-identical.
///
/// A device nothing was erased on — every short labelling run — is
/// answered from the per-plane erase maxima in O(planes): all counts are
/// 0, so the streaming pass would produce exactly `+0.0` for both the
/// mean and the standard deviation, which is what `default` holds.
pub(crate) fn wear_summary(ftl: &Ftl) -> WearSummary {
    let geo = ftl.geometry();
    let blocks = geo.total_planes() * geo.blocks_per_plane();
    if blocks == 0 || (0..geo.total_planes()).all(|p| ftl.plane_ref(p).max_erase == 0) {
        return WearSummary::default();
    }
    let mut total: u64 = 0;
    let mut min = u32::MAX;
    let mut max = 0u32;
    for plane in 0..geo.total_planes() {
        for block in &ftl.plane_ref(plane).blocks {
            let c = block.erase_count;
            total += c as u64;
            min = min.min(c);
            max = max.max(c);
        }
    }
    let mean = total as f64 / blocks as f64;
    let mut sq_sum = 0.0f64;
    for plane in 0..geo.total_planes() {
        for block in &ftl.plane_ref(plane).blocks {
            let d = block.erase_count as f64 - mean;
            sq_sum += d * d;
        }
    }
    WearSummary {
        total_erases: total,
        min,
        max,
        mean,
        std_dev: (sq_sum / blocks as f64).sqrt(),
    }
}

/// Summarises an explicit slice of erase counts (test/diagnostic helper).
#[cfg_attr(not(test), allow(dead_code))]
fn summarize(counts: &[u32]) -> WearSummary {
    if counts.is_empty() {
        return WearSummary {
            total_erases: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let min = *counts.iter().min().expect("non-empty");
    let max = *counts.iter().max().expect("non-empty");
    let mean = total as f64 / counts.len() as f64;
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / counts.len() as f64;
    WearSummary {
        total_erases: total,
        min,
        max,
        mean,
        std_dev: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::ftl::Ftl;
    use crate::tenant::TenantLayout;

    #[test]
    fn fresh_device_has_zero_wear() {
        let cfg = SsdConfig::small_test();
        let layout = TenantLayout::shared(1, &cfg);
        let ftl = Ftl::new(&cfg, &layout);
        let w = wear_summary(&ftl);
        assert_eq!(w.total_erases, 0);
        assert_eq!(w.spread(), 0);
        assert_eq!(w.mean, 0.0);
    }

    #[test]
    fn summarize_empty_slice() {
        let w = summarize(&[]);
        assert_eq!(w.total_erases, 0);
        assert_eq!(w.std_dev, 0.0);
    }

    #[test]
    fn summarize_known_values() {
        let w = summarize(&[1, 3, 5, 7]);
        assert_eq!(w.total_erases, 16);
        assert_eq!(w.min, 1);
        assert_eq!(w.max, 7);
        assert_eq!(w.spread(), 6);
        assert!((w.mean - 4.0).abs() < 1e-12);
        // population std dev of [1,3,5,7] = sqrt(5)
        assert!((w.std_dev - 5.0f64.sqrt()).abs() < 1e-12);
    }

    /// Every block's erase count, flattened plane-major.
    fn flat_counts(ftl: &Ftl) -> Vec<u32> {
        (0..ftl.geometry().total_planes())
            .flat_map(|p| ftl.plane_ref(p).blocks.iter().map(|b| b.erase_count))
            .collect()
    }

    /// `wear_summary` must agree with `summarize` to the bit.
    fn assert_bit_identical(got: WearSummary, want: WearSummary) {
        assert_eq!(got, want);
        assert_eq!(got.mean.to_bits(), want.mean.to_bits());
        assert_eq!(got.std_dev.to_bits(), want.std_dev.to_bits());
    }

    #[test]
    fn written_but_never_erased_device_matches_summarize_bitwise() {
        let cfg = SsdConfig::small_test();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
        let mut ftl = Ftl::new(&cfg, &layout);
        for lpn in 0..20u64 {
            ftl.write(0, lpn, (lpn % 4) as usize).unwrap();
        }
        assert_eq!(ftl.stats().gc_blocks_erased, 0);
        assert_bit_identical(wear_summary(&ftl), summarize(&flat_counts(&ftl)));
    }

    #[test]
    fn erased_device_matches_summarize_bitwise() {
        let cfg = SsdConfig::small_test();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(8);
        // A few erases (most blocks still at 0) through to every block of
        // the written planes erased many times.
        for writes in [250u64, 1_000] {
            let mut ftl = Ftl::new(&cfg, &layout);
            for i in 0..writes {
                ftl.write(0, i % 8, (i % 3) as usize).unwrap();
            }
            assert!(ftl.stats().gc_blocks_erased > 0);
            assert_bit_identical(wear_summary(&ftl), summarize(&flat_counts(&ftl)));
        }
    }

    #[test]
    fn wear_accumulates_under_gc_and_stays_bounded() {
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.25,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(8);
        let mut ftl = Ftl::new(&cfg, &layout);
        for i in 0..4096u64 {
            ftl.write(0, i % 8, 0).unwrap();
        }
        let w = wear_summary(&ftl);
        assert!(w.total_erases > 0);
        assert_eq!(w.total_erases, ftl.stats().gc_blocks_erased);
        // Only plane 0 receives writes in this test, so device-wide spread
        // equals plane-0 spread plus zeros elsewhere; within plane 0 the
        // erase tie-break keeps wear within a small band.
        let plane0: Vec<u32> = ftl
            .plane_ref(0)
            .blocks
            .iter()
            .map(|b| b.erase_count)
            .collect();
        let lo = *plane0.iter().min().unwrap();
        let hi = *plane0.iter().max().unwrap();
        assert!(
            hi - lo <= hi.max(4),
            "wear spread should stay bounded (lo={lo}, hi={hi})"
        );
        assert!(
            lo > 0,
            "victim rotation must touch every block in the plane"
        );
    }
}
