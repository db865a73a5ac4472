//! Physical addressing within the SSD hierarchy.
//!
//! The hierarchy is `channel → chip → die → plane → block → page`. Two flat
//! index spaces are used pervasively by the engine:
//!
//! * **die index** — identifies the unit of array-command contention;
//! * **plane index** — identifies the unit of page allocation and GC.
//!
//! Both are plain `usize` row-major flattenings computed by [`Geometry`].

use crate::config::SsdConfig;

/// A fully resolved physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// Channel (bus) index.
    pub channel: u16,
    /// Chip index within the channel.
    pub chip: u16,
    /// Die index within the chip.
    pub die: u16,
    /// Plane index within the die.
    pub plane: u16,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Flat-plane coordinates precomputed at construction: everything a hot
/// path needs to turn `(plane, block, page)` into a [`PhysAddr`] or a
/// packed page id without a single divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlaneCoord {
    channel: u16,
    chip: u16,
    die: u16,
    plane: u16,
    /// Packed id of page 0 of block 0 in this plane.
    page_base: u32,
}

/// Precomputed dimension arithmetic for a fixed [`SsdConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    channels: usize,
    chips_per_channel: usize,
    dies_per_chip: usize,
    planes_per_die: usize,
    blocks_per_plane: usize,
    pages_per_block: usize,
    coords: Vec<PlaneCoord>,
}

impl Geometry {
    /// Builds the dimension table from a configuration.
    pub fn new(cfg: &SsdConfig) -> Self {
        let mut geo = Self {
            channels: cfg.channels,
            chips_per_channel: cfg.chips_per_channel,
            dies_per_chip: cfg.dies_per_chip,
            planes_per_die: cfg.planes_per_die,
            blocks_per_plane: cfg.blocks_per_plane,
            pages_per_block: cfg.pages_per_block,
            coords: Vec::new(),
        };
        debug_assert!(
            geo.total_pages() <= crate::config::MAX_TOTAL_PAGES,
            "device too large for packed page ids; SsdConfig::validate rejects it"
        );
        geo.coords = (0..geo.total_planes())
            .map(|p| {
                let die_flat = p / geo.planes_per_die;
                let within_channel = die_flat % geo.dies_per_channel();
                PlaneCoord {
                    channel: (die_flat / geo.dies_per_channel()) as u16,
                    chip: (within_channel / geo.dies_per_chip) as u16,
                    die: (within_channel % geo.dies_per_chip) as u16,
                    plane: (p % geo.planes_per_die) as u16,
                    page_base: (p * geo.pages_per_plane()) as u32,
                }
            })
            .collect();
        geo
    }

    /// Whether this geometry was built from a configuration with the same
    /// six dimensions — everything [`Geometry::new`] derives its tables
    /// from, so a match means the instance can be reused verbatim.
    pub(crate) fn matches(&self, cfg: &SsdConfig) -> bool {
        self.channels == cfg.channels
            && self.chips_per_channel == cfg.chips_per_channel
            && self.dies_per_chip == cfg.dies_per_chip
            && self.planes_per_die == cfg.planes_per_die
            && self.blocks_per_plane == cfg.blocks_per_plane
            && self.pages_per_block == cfg.pages_per_block
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Chips per channel.
    pub fn chips_per_channel(&self) -> usize {
        self.chips_per_channel
    }

    /// Dies per chip.
    pub fn dies_per_chip(&self) -> usize {
        self.dies_per_chip
    }

    /// Dies per channel.
    pub(crate) fn dies_per_channel(&self) -> usize {
        self.chips_per_channel * self.dies_per_chip
    }

    /// Total dies in the device.
    pub(crate) fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel()
    }

    /// Planes per die.
    pub fn planes_per_die(&self) -> usize {
        self.planes_per_die
    }

    /// Total planes in the device.
    pub(crate) fn total_planes(&self) -> usize {
        self.total_dies() * self.planes_per_die
    }

    /// Blocks per plane.
    pub fn blocks_per_plane(&self) -> usize {
        self.blocks_per_plane
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// Pages per plane.
    pub(crate) fn pages_per_plane(&self) -> usize {
        self.blocks_per_plane * self.pages_per_block
    }

    /// Total physical pages in the device.
    pub(crate) fn total_pages(&self) -> u64 {
        self.total_planes() as u64 * self.pages_per_plane() as u64
    }

    /// Flat die index of an address.
    pub(crate) fn die_index(&self, addr: &PhysAddr) -> usize {
        (addr.channel as usize * self.chips_per_channel + addr.chip as usize) * self.dies_per_chip
            + addr.die as usize
    }

    /// Flat die index from `(channel, die-within-channel)` coordinates.
    pub(crate) fn die_index_of(&self, channel: usize, die_in_channel: usize) -> usize {
        debug_assert!(channel < self.channels);
        debug_assert!(die_in_channel < self.dies_per_channel());
        channel * self.dies_per_channel() + die_in_channel
    }

    /// Channel that owns a flat die index.
    pub(crate) fn channel_of_die(&self, die: usize) -> usize {
        die / self.dies_per_channel()
    }

    /// Flat plane index of an address.
    pub(crate) fn plane_index(&self, addr: &PhysAddr) -> usize {
        self.die_index(addr) * self.planes_per_die + addr.plane as usize
    }

    /// Flat plane index from `(die, plane-within-die)`.
    pub(crate) fn plane_index_of(&self, die: usize, plane: usize) -> usize {
        debug_assert!(plane < self.planes_per_die);
        die * self.planes_per_die + plane
    }

    /// Die that owns a flat plane index.
    pub(crate) fn die_of_plane(&self, plane: usize) -> usize {
        plane / self.planes_per_die
    }

    /// Channel that owns a flat plane index.
    pub(crate) fn channel_of_plane(&self, plane: usize) -> usize {
        self.coords[plane].channel as usize
    }

    /// Resolves `(flat plane, block, page)` to a full address from the
    /// precomputed coordinate table — no division, no modulo.
    #[inline]
    pub(crate) fn addr_at(&self, plane: usize, block: u32, page: u32) -> PhysAddr {
        let c = self.coords[plane];
        PhysAddr {
            channel: c.channel,
            chip: c.chip,
            die: c.die,
            plane: c.plane,
            block,
            page,
        }
    }

    /// Packed page id of `(flat plane, block, page)`: one multiply off the
    /// plane's precomputed base.
    #[inline]
    pub(crate) fn packed_at(&self, plane: usize, block: u32, page: u32) -> u32 {
        debug_assert!((block as usize) < self.blocks_per_plane);
        debug_assert!((page as usize) < self.pages_per_block);
        self.coords[plane].page_base + block * self.pages_per_block as u32 + page
    }

    /// Splits a packed page id into `(flat plane, block, page)` — the
    /// inverse of [`Self::packed_at`].
    #[inline]
    pub(crate) fn split_packed(&self, packed: u32) -> (usize, u32, u32) {
        let packed = packed as usize;
        let within = packed % self.pages_per_plane();
        (
            packed / self.pages_per_plane(),
            (within / self.pages_per_block) as u32,
            (within % self.pages_per_block) as u32,
        )
    }

    /// Packs a physical page into a dense `u32` page id
    /// (`plane * pages_per_plane + block * pages_per_block + page`): the
    /// reference the tests hold [`Self::packed_at`] to.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is outside the geometry or the
    /// device has more than `u32::MAX` pages (Table I has ~33.5 M).
    #[cfg(test)]
    pub(crate) fn pack_page(&self, addr: &PhysAddr) -> u32 {
        self.packed_at(self.plane_index(addr), addr.block, addr.page)
    }

    /// Resolves a packed page id to a full address.
    #[inline]
    pub(crate) fn unpack_page(&self, packed: u32) -> PhysAddr {
        let (plane, block, page) = self.split_packed(packed);
        self.addr_at(plane, block, page)
    }

    /// Iterator over the flat die indices belonging to `channel`.
    pub(crate) fn dies_of_channel(&self, channel: usize) -> impl Iterator<Item = usize> {
        let d = self.dies_per_channel();
        (channel * d)..(channel * d + d)
    }

    /// Iterator over the flat plane indices belonging to `die`.
    pub(crate) fn planes_of_die(&self, die: usize) -> impl Iterator<Item = usize> {
        let p = self.planes_per_die;
        (die * p)..(die * p + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SimRng};

    fn table1() -> Geometry {
        Geometry::new(&SsdConfig::paper_table1())
    }

    #[test]
    fn basic_counts_match_config() {
        let g = table1();
        assert_eq!(g.channels(), 8);
        assert_eq!(g.total_dies(), 16);
        assert_eq!(g.total_planes(), 64);
        assert_eq!(g.pages_per_plane(), 4096 * 128);
        assert_eq!(g.total_pages(), 64 * 4096 * 128);
    }

    #[test]
    fn die_index_round_trips_channel() {
        let g = table1();
        for ch in 0..8 {
            for d in g.dies_of_channel(ch) {
                assert_eq!(g.channel_of_die(d), ch);
            }
        }
    }

    #[test]
    fn plane_iteration_covers_device_exactly_once() {
        let g = table1();
        let mut seen = vec![false; g.total_planes()];
        for die in 0..g.total_dies() {
            for p in g.planes_of_die(die) {
                assert!(!seen[p], "plane {p} visited twice");
                seen[p] = true;
                assert_eq!(g.die_of_plane(p), die);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn channel_of_plane_consistent() {
        let g = table1();
        for p in 0..g.total_planes() {
            assert_eq!(g.channel_of_plane(p), g.channel_of_die(g.die_of_plane(p)));
        }
    }

    #[test]
    fn die_index_of_matches_die_index() {
        let g = table1();
        let addr = PhysAddr {
            channel: 3,
            chip: 1,
            die: 0,
            plane: 2,
            block: 5,
            page: 7,
        };
        assert_eq!(g.die_index(&addr), g.die_index_of(3, 1));
    }

    #[test]
    fn pack_unpack_round_trip() {
        let g = table1();
        let mut rng = SimRng::seed_from_u64(501);
        for _ in 0..1024 {
            let addr = PhysAddr {
                channel: rng.gen_range(0u16..8),
                chip: rng.gen_range(0u16..2),
                die: 0,
                plane: rng.gen_range(0u16..4),
                block: rng.gen_range(0u32..4096),
                page: rng.gen_range(0u32..128),
            };
            let packed = g.pack_page(&addr);
            assert_eq!(g.unpack_page(packed), addr);
        }
    }

    #[test]
    fn packed_ids_are_dense_and_unique() {
        let cfg = SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 8,
            ..SsdConfig::paper_table1()
        };
        let g = Geometry::new(&cfg);
        let mut rng = SimRng::seed_from_u64(502);
        for _ in 0..1024 {
            let a = PhysAddr {
                channel: 1,
                chip: 0,
                die: 0,
                plane: 1,
                block: rng.gen_range(0u32..64),
                page: rng.gen_range(0u32..8),
            };
            let b = PhysAddr {
                channel: 1,
                chip: 0,
                die: 0,
                plane: 1,
                block: rng.gen_range(0u32..64),
                page: rng.gen_range(0u32..8),
            };
            assert_eq!(g.pack_page(&a) == g.pack_page(&b), a == b);
        }
    }

    /// `addr_at`/`packed_at`/`split_packed` agree with the reference
    /// pack/unpack pair over the whole (reduced) device.
    #[test]
    fn coordinate_table_matches_reference_arithmetic() {
        let cfg = SsdConfig {
            blocks_per_plane: 32,
            pages_per_block: 8,
            ..SsdConfig::paper_table1()
        };
        let g = Geometry::new(&cfg);
        for plane in 0..g.total_planes() {
            assert_eq!(
                g.channel_of_plane(plane),
                g.channel_of_die(g.die_of_plane(plane))
            );
            for block in 0..32u32 {
                for page in 0..8u32 {
                    let addr = g.addr_at(plane, block, page);
                    assert_eq!(g.plane_index(&addr), plane);
                    let packed = g.packed_at(plane, block, page);
                    assert_eq!(packed, g.pack_page(&addr));
                    assert_eq!(g.split_packed(packed), (plane, block, page));
                    assert_eq!(g.unpack_page(packed), addr);
                }
            }
        }
    }

    #[test]
    fn unpack_boundary_pages() {
        let g = table1();
        let last = PhysAddr {
            channel: 7,
            chip: 1,
            die: 0,
            plane: 3,
            block: 4095,
            page: 127,
        };
        let packed = g.pack_page(&last);
        assert_eq!(packed as u64, g.total_pages() - 1);
        assert_eq!(g.unpack_page(packed), last);
        let first = PhysAddr {
            channel: 0,
            chip: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(g.pack_page(&first), 0);
        assert_eq!(g.unpack_page(0), first);
    }
}
