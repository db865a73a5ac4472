//! SSD hardware configuration.
//!
//! Defaults follow Table I of the SSDKeeper paper: an 8-channel SSD with two
//! chips per channel, four planes per chip, 4096 blocks per plane, 128 pages
//! per block, and 16 KB pages (512 GB raw), with 20 µs reads, 200 µs
//! programs, and 1.5 ms erases.

use crate::scheduler::SchedPolicy;

/// Nanoseconds per microsecond, used throughout the timing model.
pub(crate) const US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub(crate) const MS: u64 = 1_000_000;

/// Full hardware description of the simulated SSD.
///
/// All structural fields must be non-zero; [`SsdConfig::validate`] enforces
/// this and is called by the simulator constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Number of independent channels (buses).
    pub channels: usize,
    /// Flash chips attached to each channel.
    pub chips_per_channel: usize,
    /// Dies per chip. A die is the unit that executes array commands.
    pub dies_per_chip: usize,
    /// Planes per die. A plane holds blocks and has its own page/cache
    /// registers; the FTL allocates pages plane by plane.
    pub planes_per_die: usize,
    /// Blocks per plane. A block is the erase unit.
    pub blocks_per_plane: usize,
    /// Pages per block. A page is the read/write unit.
    pub pages_per_block: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Array read latency (cell-to-register), in nanoseconds.
    pub read_latency_ns: u64,
    /// Program latency (register-to-cell), in nanoseconds.
    pub write_latency_ns: u64,
    /// Block erase latency, in nanoseconds.
    pub erase_latency_ns: u64,
    /// Channel bus bandwidth in MB/s; governs page transfer time.
    pub bus_mb_per_s: u64,
    /// Fraction of a plane's blocks kept free; dropping below this triggers
    /// garbage collection on that plane.
    pub gc_free_block_threshold: f64,
    /// Queueing discipline at dies and buses. FIFO is SSDSim-faithful;
    /// read-priority is the scheduling ablation.
    pub sched_policy: SchedPolicy,
    /// Host queue depth: maximum requests in flight *per tenant*. Further
    /// arrivals queue at the host and are admitted as completions free
    /// slots (latency is still measured from the original arrival, so
    /// host queueing counts). `0` disables the bound (infinite queue
    /// depth — the configuration used for the paper-shape sweeps, whose
    /// saturated points then diverge with trace length).
    pub host_queue_depth: u32,
    /// Static wear-leveling threshold: when a plane's erase-count spread
    /// (max − min) exceeds this, the next GC pass on that plane targets
    /// the *coldest* full block (moving its data so the block rejoins the
    /// write rotation) instead of the greedy min-valid victim. 0 disables
    /// static wear leveling (greedy GC still tie-breaks toward low erase
    /// counts).
    pub wear_leveling_threshold: u32,
    /// Whether planes within a die execute array commands concurrently
    /// (SSDSim's plane-level parallelism; the paper's chips have 4 planes).
    /// When false, the die is the unit of array execution — the ablation
    /// configuration.
    pub plane_parallelism: bool,
}

impl SsdConfig {
    /// The exact configuration of Table I in the paper.
    pub fn paper_table1() -> Self {
        Self {
            channels: 8,
            chips_per_channel: 2,
            dies_per_chip: 1,
            planes_per_die: 4,
            blocks_per_plane: 4096,
            pages_per_block: 128,
            page_size: 16 * 1024,
            read_latency_ns: 20 * US,
            write_latency_ns: 200 * US,
            erase_latency_ns: 3 * MS / 2,
            bus_mb_per_s: 200,
            gc_free_block_threshold: 0.05,
            sched_policy: SchedPolicy::Fifo,
            host_queue_depth: 0,
            wear_leveling_threshold: 32,
            plane_parallelism: true,
        }
    }

    /// Table I timing and topology with a shrunken per-plane block count, so
    /// that whole-device sweeps (thousands of simulator runs) fit in memory
    /// and exercise GC within short traces.
    pub fn scaled_for_sweeps() -> Self {
        Self {
            blocks_per_plane: 256,
            ..Self::paper_table1()
        }
    }

    /// A tiny geometry for unit tests: 2 channels, 1 chip, 2 planes,
    /// 8 blocks of 8 pages.
    pub fn small_test() -> Self {
        Self {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size: 16 * 1024,
            read_latency_ns: 20 * US,
            write_latency_ns: 200 * US,
            erase_latency_ns: 3 * MS / 2,
            bus_mb_per_s: 800,
            gc_free_block_threshold: 0.25,
            sched_policy: SchedPolicy::ReadPriority { max_bypass: 8 },
            host_queue_depth: 0,
            wear_leveling_threshold: 0,
            plane_parallelism: false,
        }
    }

    /// Nanoseconds the channel bus is occupied transferring one page.
    ///
    /// Table I does not list a bus speed; the default of 200 MB/s
    /// (ONFI-class, ~82 us per 16 KB page) makes the channel bus the
    /// binding resource for both reads (20 us array + 82 us bus) and
    /// writes (82 us bus + 200 us program, with programs overlapping
    /// across planes). In this regime each channel sustains ~12 kIOPS of
    /// either class, which is what makes *channel-count* allocation the
    /// lever the paper studies.
    pub fn page_transfer_ns(&self) -> u64 {
        let bytes_per_ns = self.bus_mb_per_s as f64 * 1e6 / 1e9;
        (self.page_size as f64 / bytes_per_ns).round() as u64
    }

    /// Checks structural and timing sanity; the simulator refuses invalid
    /// configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        macro_rules! nonzero {
            ($field:ident) => {
                if self.$field == 0 {
                    return Err(ConfigError::ZeroField(stringify!($field)));
                }
            };
        }
        nonzero!(channels);
        nonzero!(chips_per_channel);
        nonzero!(dies_per_chip);
        nonzero!(planes_per_die);
        nonzero!(blocks_per_plane);
        nonzero!(pages_per_block);
        nonzero!(page_size);
        nonzero!(read_latency_ns);
        nonzero!(write_latency_ns);
        nonzero!(erase_latency_ns);
        nonzero!(bus_mb_per_s);
        if !(0.0..1.0).contains(&self.gc_free_block_threshold) {
            return Err(ConfigError::BadGcThreshold(self.gc_free_block_threshold));
        }
        if self.blocks_per_plane < 2 {
            // GC needs at least one spare block to migrate into.
            return Err(ConfigError::ZeroField("blocks_per_plane (needs >= 2)"));
        }
        // Probe events carry a tenant's channels as a u64 bit mask.
        if self.channels > MAX_CHANNELS {
            return Err(ConfigError::TooLarge {
                what: "channels",
                value: self.channels as u64,
                max: MAX_CHANNELS as u64,
            });
        }
        // Physical addresses hold chip, die and plane indices as u16.
        for (what, n) in [
            ("chips_per_channel", self.chips_per_channel),
            ("dies_per_chip", self.dies_per_chip),
            ("planes_per_die", self.planes_per_die),
        ] {
            if n > MAX_U16_INDEXED {
                return Err(ConfigError::TooLarge {
                    what,
                    value: n as u64,
                    max: MAX_U16_INDEXED as u64,
                });
            }
        }
        // Page ids are packed into a u32 whose u32::MAX marks an unmapped
        // LPN, so the last page's id must stay below it. Checked
        // multiplication: the product of six usize fields can overflow.
        let pages = [
            self.chips_per_channel,
            self.dies_per_chip,
            self.planes_per_die,
            self.blocks_per_plane,
            self.pages_per_block,
        ]
        .iter()
        .try_fold(self.channels as u64, |acc, &n| acc.checked_mul(n as u64))
        .unwrap_or(u64::MAX);
        if pages > MAX_TOTAL_PAGES {
            return Err(ConfigError::TooLarge {
                what: "total pages",
                value: pages,
                max: MAX_TOTAL_PAGES,
            });
        }
        Ok(())
    }
}

/// Most channels a device may have: probe events record a tenant's
/// channels as a `u64` bit mask.
const MAX_CHANNELS: usize = 64;

/// Most chips per channel, dies per chip, or planes per die: physical
/// addresses hold each index as a `u16`.
const MAX_U16_INDEXED: usize = u16::MAX as usize + 1;

/// Most physical pages a device may have: page ids are packed into a
/// `u32`, and `u32::MAX` marks an unmapped logical page, so the ids
/// `0..total` must all stay below it.
pub(crate) const MAX_TOTAL_PAGES: u64 = u32::MAX as u64;

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_table1()
    }
}

/// Errors produced by [`SsdConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural or timing field that must be non-zero was zero.
    ZeroField(&'static str),
    /// The GC threshold is outside `[0, 1)`.
    BadGcThreshold(f64),
    /// A dimension exceeds what the simulator's compact encodings can
    /// address: at most 64 channels (probe channel masks are `u64`),
    /// 65,536 chips per channel, dies per chip or planes per die
    /// (addresses hold them as `u16`), and `u32::MAX` pages in all
    /// (packed page ids are `u32`, with `u32::MAX` marking an unmapped
    /// LPN).
    TooLarge {
        /// The field or derived quantity that is too large.
        what: &'static str,
        /// Its value (`u64::MAX` when it overflows a `u64`).
        value: u64,
        /// The largest supported value.
        max: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroField(name) => {
                write!(f, "configuration field `{name}` must be non-zero")
            }
            ConfigError::BadGcThreshold(v) => {
                write!(f, "gc_free_block_threshold must be in [0,1), got {v}")
            }
            ConfigError::TooLarge { what, value, max } => {
                write!(f, "{what} is {value}, but at most {max} are supported")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capacity_is_512_gb() {
        let cfg = SsdConfig::paper_table1();
        let pages = crate::geometry::Geometry::new(&cfg).total_pages();
        assert_eq!(pages * cfg.page_size as u64, 512u64 << 30);
    }

    #[test]
    fn table1_page_transfer_is_82us() {
        let cfg = SsdConfig::paper_table1();
        assert_eq!(cfg.page_transfer_ns(), 81_920);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(SsdConfig::default(), SsdConfig::paper_table1());
    }

    #[test]
    fn validate_accepts_all_presets() {
        for cfg in [
            SsdConfig::paper_table1(),
            SsdConfig::scaled_for_sweeps(),
            SsdConfig::small_test(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_zero_channels() {
        let cfg = SsdConfig {
            channels: 0,
            ..SsdConfig::small_test()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroField("channels")));
    }

    #[test]
    fn validate_rejects_bad_gc_threshold() {
        let cfg = SsdConfig {
            gc_free_block_threshold: 1.5,
            ..SsdConfig::small_test()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGcThreshold(_))
        ));
    }

    #[test]
    fn validate_rejects_single_block_plane() {
        let cfg = SsdConfig {
            blocks_per_plane: 1,
            ..SsdConfig::small_test()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_than_64_channels() {
        let at_limit = SsdConfig {
            channels: 64,
            ..SsdConfig::small_test()
        };
        at_limit.validate().unwrap();
        let cfg = SsdConfig {
            channels: 65,
            ..SsdConfig::small_test()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooLarge {
                what: "channels",
                value: 65,
                max: 64
            })
        );
    }

    #[test]
    fn validate_rejects_page_ids_that_reach_the_unmapped_marker() {
        // 2^32 pages: the last page's packed id would equal u32::MAX.
        let cfg = SsdConfig {
            blocks_per_plane: 1 << 19,
            ..SsdConfig::paper_table1()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooLarge {
                what: "total pages",
                value: 1 << 32,
                max: u32::MAX as u64
            })
        );
        // u32::MAX = 3 * 5 * 17 * 257 * 65537 pages: ids 0..u32::MAX - 1
        // all stay below the marker.
        let largest = SsdConfig {
            channels: 3,
            chips_per_channel: 5,
            dies_per_chip: 17,
            planes_per_die: 257,
            blocks_per_plane: 65_537,
            pages_per_block: 1,
            ..SsdConfig::small_test()
        };
        assert_eq!(3 * 5 * 17 * 257 * 65_537, u32::MAX);
        largest.validate().unwrap();
    }

    #[test]
    fn validate_rejects_dimensions_whose_product_overflows() {
        let cfg = SsdConfig {
            blocks_per_plane: usize::MAX / 2,
            pages_per_block: usize::MAX / 2,
            ..SsdConfig::small_test()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooLarge {
                what: "total pages",
                value: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_indices_wider_than_u16() {
        let cfg = SsdConfig {
            chips_per_channel: (1 << 16) + 1,
            ..SsdConfig::small_test()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooLarge {
                what: "chips_per_channel",
                ..
            })
        ));
    }

    #[test]
    fn config_error_display_is_informative() {
        let e = ConfigError::ZeroField("channels");
        assert!(e.to_string().contains("channels"));
        let e = ConfigError::BadGcThreshold(2.0);
        assert!(e.to_string().contains("2"));
        let e = ConfigError::TooLarge {
            what: "channels",
            value: 65,
            max: 64,
        };
        assert_eq!(
            e.to_string(),
            "channels is 65, but at most 64 are supported"
        );
    }
}
