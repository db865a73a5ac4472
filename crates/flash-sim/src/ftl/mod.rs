//! Flash translation layer: mapping, page allocation, garbage collection,
//! and wear accounting.
//!
//! Structure:
//! * [`mapping`] — per-tenant logical-to-physical page tables;
//! * [`alloc`] — static/dynamic plane selection (the paper's two page
//!   allocation modes, combined by SSDKeeper's hybrid page allocator);
//! * [`gc`] — greedy per-plane garbage collection;
//! * [`wear`] — erase-count accounting.
//!
//! The FTL here is *logically synchronous*: the bookkeeping effect of a
//! write or a GC pass is applied immediately, while its **timing** cost is
//! returned to the engine as a charge ([`gc::GcCharge`]) that occupies the
//! die in simulated time. This keeps the data structures simple and
//! deterministic without losing the performance interference GC causes.

pub mod alloc;
pub mod gc;
pub mod mapping;
pub mod wear;

use crate::config::SsdConfig;
use crate::geometry::{Geometry, PhysAddr};
use crate::tenant::TenantLayout;
use gc::GcCharge;
use mapping::TenantMap;

/// Per-page FTL state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageState {
    /// Never written since the last erase.
    Free,
    /// Holds live data for `(tenant, lpn)`.
    Valid {
        /// Owning tenant.
        tenant: u16,
        /// Logical page the data belongs to.
        lpn: u64,
    },
    /// Holds stale data awaiting GC.
    Invalid,
}

/// One erase block's counters. Its page states live in the owning
/// plane's page table.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockState {
    /// Write pointer: next free page index, `== pages_per_block` when full.
    /// Every page at or above it is `Free`.
    pub(crate) next_page: u32,
    /// Number of `Valid` pages.
    pub(crate) valid_count: u32,
    /// Lifetime erase count.
    pub(crate) erase_count: u32,
}

impl BlockState {
    /// Whether the write pointer has reached the end of the block.
    pub(crate) fn is_full(&self, pages_per_block: usize) -> bool {
        self.next_page as usize >= pages_per_block
    }
}

/// One plane: the unit of page allocation and garbage collection.
#[derive(Debug, Clone)]
pub(crate) struct PlaneState {
    /// All blocks in the plane.
    pub(crate) blocks: Vec<BlockState>,
    /// Page states of blocks `0..touched`, block-major: page `p` of block
    /// `b` is entry `b * pages_per_block + p`. The table grows with the
    /// watermark in [`PlaneState::pop_free_block`], so a build costs
    /// O(blocks) and a run pays only for the blocks it writes; a block at
    /// or above the watermark has no entries and reads as `Free`.
    pages: Vec<PageState>,
    /// Block currently receiving writes, if any.
    pub(crate) active_block: Option<usize>,
    /// Fully erased blocks available to become active.
    pub(crate) free_blocks: Vec<usize>,
    /// Count of `Free` pages across the plane (fast full-check).
    pub(crate) free_pages: u64,
    /// Watermark: one past the highest block index ever taken off the
    /// free list since the last reset. Blocks at or above it were never
    /// popped, so they are pristine (no pages written, never erased) and
    /// [`PlaneState::reset`] can skip them.
    touched: usize,
    /// GC victim index: bucket `v` holds candidate entries for **full,
    /// non-active** blocks with `valid_count == v` as a lazy min-heap of
    /// `(erase_count << 32) | block_idx` keys, so the greedy victim — min
    /// by `(valid, erase, idx)` — is the live top of the first non-empty
    /// bucket. Entries are pushed on every transition into a bucket and
    /// never removed eagerly: a stale entry (its block moved on, got
    /// erased, or became active) is detected by comparing the key against
    /// the block's current state and popped at query time. Each push is
    /// popped at most once, so maintenance is O(log bucket) per
    /// invalidation with no per-node allocation — unlike the ordered-set
    /// variant this replaces, whose rebalancing dominated the GC-heavy
    /// write path.
    full_blocks: Vec<std::collections::BinaryHeap<std::cmp::Reverse<u64>>>,
    /// `erase_hist[c]` = blocks with `erase_count == c`; with the min/max
    /// cursors below it answers the wear-leveling spread check in O(1).
    erase_hist: Vec<u32>,
    /// Smallest erase count present in the plane.
    min_erase: u32,
    /// Largest erase count present in the plane.
    max_erase: u32,
}

impl PlaneState {
    fn new(cfg: &SsdConfig) -> Self {
        Self {
            blocks: vec![BlockState::default(); cfg.blocks_per_plane],
            pages: Vec::new(),
            active_block: None,
            free_blocks: (0..cfg.blocks_per_plane).rev().collect(),
            free_pages: (cfg.blocks_per_plane * cfg.pages_per_block) as u64,
            touched: 0,
            full_blocks: vec![std::collections::BinaryHeap::new(); cfg.pages_per_block + 1],
            erase_hist: vec![cfg.blocks_per_plane as u32],
            min_erase: 0,
            max_erase: 0,
        }
    }

    /// Packs a victim-index entry; `Reverse` turns the max-heap into the
    /// min-heap the `(erase, idx)` order needs.
    #[inline]
    fn victim_key(erase: u32, block: u32) -> std::cmp::Reverse<u64> {
        std::cmp::Reverse((erase as u64) << 32 | block as u64)
    }

    /// Whether a bucket entry still describes its block: the block must be
    /// full, non-active, in this bucket, and not erased since the push
    /// (each erase bumps `erase_count`, so a block never re-enters a
    /// bucket under a key it already used).
    #[inline]
    fn entry_is_current(&self, bucket: usize, key: u64) -> bool {
        let idx = key as u32 as usize;
        let erase = (key >> 32) as u32;
        let b = &self.blocks[idx];
        b.next_page as usize >= self.bucket_pages_per_block()
            && self.active_block != Some(idx)
            && b.valid_count as usize == bucket
            && b.erase_count == erase
    }

    /// `pages_per_block`, recovered from the bucket count so the index
    /// methods need no extra argument threading.
    #[inline]
    fn bucket_pages_per_block(&self) -> usize {
        self.full_blocks.len() - 1
    }

    /// Adds `block` (full, non-active) to the bucket of its current valid
    /// count. Stale entries from earlier states are left behind for the
    /// query-time cleanup.
    pub(crate) fn index_insert(&mut self, block: usize) {
        let b = &self.blocks[block];
        self.full_blocks[b.valid_count as usize]
            .push(Self::victim_key(b.erase_count, block as u32));
    }

    /// Pops stale entries off a bucket and returns its live minimum
    /// `(erase, idx)` key, if any.
    fn bucket_top(&mut self, bucket: usize) -> Option<u64> {
        while let Some(&std::cmp::Reverse(key)) = self.full_blocks[bucket].peek() {
            if self.entry_is_current(bucket, key) {
                return Some(key);
            }
            self.full_blocks[bucket].pop();
        }
        None
    }

    /// Greedy victim: the full, non-active block minimizing
    /// `(valid_count, erase_count, idx)`, excluding fully-valid blocks
    /// (nothing reclaimable). Exactly the order of the old linear scan.
    pub(crate) fn greedy_victim(&mut self) -> Option<usize> {
        let fully_valid = self.bucket_pages_per_block();
        (0..fully_valid).find_map(|v| self.bucket_top(v).map(|key| key as u32 as usize))
    }

    /// Wear victim: the full, non-active block minimizing
    /// `(erase_count, valid_count, idx)` — fully-valid blocks included,
    /// since cold data is exactly what static wear leveling must move.
    /// Each bucket's live top is its min by `(erase, idx)`, so one
    /// candidate per bucket finds the global min in O(pages_per_block).
    pub(crate) fn wear_victim(&mut self) -> Option<usize> {
        (0..self.full_blocks.len())
            .filter_map(|valid| {
                self.bucket_top(valid).map(|key| {
                    let idx = key as u32;
                    let erase = (key >> 32) as u32;
                    (erase, valid as u32, idx)
                })
            })
            .min()
            .map(|(_, _, idx)| idx as usize)
    }

    /// Records that a block went from `old_count` to `old_count + 1`
    /// erases, keeping the histogram and min/max cursors exact.
    pub(crate) fn note_erase(&mut self, old_count: u32) {
        self.erase_hist[old_count as usize] -= 1;
        if old_count as usize + 1 == self.erase_hist.len() {
            self.erase_hist.push(0);
        }
        self.erase_hist[old_count as usize + 1] += 1;
        self.max_erase = self.max_erase.max(old_count + 1);
        while self.erase_hist[self.min_erase as usize] == 0 {
            self.min_erase += 1;
        }
    }

    /// `max - min` erase count over all blocks, in O(1).
    pub(crate) fn erase_spread(&self) -> u32 {
        self.max_erase - self.min_erase
    }

    /// State of page `page` in block `block`; `Free` for a block at or
    /// above the watermark, which has no table entries.
    #[cfg(test)]
    pub(crate) fn page(&self, block: usize, page: u32) -> PageState {
        debug_assert!((page as usize) < self.bucket_pages_per_block());
        self.pages
            .get(self.page_slot(block, page))
            .copied()
            .unwrap_or(PageState::Free)
    }

    /// Index of page `page` of block `block` in the page table.
    #[inline]
    fn page_slot(&self, block: usize, page: u32) -> usize {
        block * self.bucket_pages_per_block() + page as usize
    }

    /// Takes the next block off the free list, raising the watermark past
    /// it and growing the page table to cover it. The only way a block
    /// leaves the free list, so every block that can hold data is below
    /// the watermark.
    #[inline]
    fn pop_free_block(&mut self) -> Option<usize> {
        let b = self.free_blocks.pop()?;
        if b >= self.touched {
            self.touched = b + 1;
            let len = self.touched * self.bucket_pages_per_block();
            self.pages.resize(len, PageState::Free);
        }
        Some(b)
    }

    /// Restores the factory-fresh [`PlaneState::new`] state in place,
    /// keeping the block, page-table, free-list, victim-bucket, and
    /// histogram allocations. The plane's shape (block count, pages per
    /// block) must be unchanged — [`Ftl::reset`] guarantees it via the
    /// geometry check.
    ///
    /// Costs O(blocks written since the last reset), not O(plane size):
    /// blocks at or above the `touched` watermark are already pristine,
    /// and the page table is emptied without touching its entries (the
    /// next run refills them as its watermark rises). A plane nothing was
    /// written to is untouched state, free list included, and returns at
    /// once.
    fn reset(&mut self) {
        if self.touched == 0 {
            return;
        }
        let blocks_per_plane = self.blocks.len();
        self.blocks[..self.touched].fill(BlockState::default());
        self.pages.clear();
        self.touched = 0;
        self.active_block = None;
        self.free_blocks.clear();
        self.free_blocks.extend((0..blocks_per_plane).rev());
        self.free_pages = (blocks_per_plane * self.bucket_pages_per_block()) as u64;
        for bucket in &mut self.full_blocks {
            bucket.clear();
        }
        self.erase_hist.clear();
        self.erase_hist.push(blocks_per_plane as u32);
        self.min_erase = 0;
        self.max_erase = 0;
    }
}

/// Outcome of a logical page write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Physical page the data landed on.
    pub addr: PhysAddr,
    /// Timing charge for a GC pass the write triggered, if any.
    pub gc: Option<GcCharge>,
}

/// FTL errors surfaced to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// A plane ran out of free pages and GC could not reclaim any.
    PlaneFull {
        /// Flat plane index that filled up.
        plane: usize,
    },
    /// A request addressed a tenant not present in the layout.
    UnknownTenant(u16),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::PlaneFull { plane } => {
                write!(f, "plane {plane} is full and GC reclaimed nothing")
            }
            FtlError::UnknownTenant(t) => write!(f, "tenant {t} not in layout"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Aggregate FTL counters reported at end of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host pages written.
    pub host_pages_written: u64,
    /// Pages moved by garbage collection.
    pub gc_pages_moved: u64,
    /// Blocks erased by garbage collection.
    pub gc_blocks_erased: u64,
    /// GC passes triggered by host writes (timing charged).
    pub gc_invocations: u64,
    /// Pages silently seeded to satisfy reads of never-written LPNs.
    pub seeded_pages: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + GC writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages_written == 0 {
            1.0
        } else {
            (self.host_pages_written + self.gc_pages_moved) as f64 / self.host_pages_written as f64
        }
    }
}

/// The flash translation layer.
#[derive(Debug)]
pub struct Ftl {
    geo: Geometry,
    pages_per_block: usize,
    gc_trigger_blocks: usize,
    wear_leveling_threshold: u32,
    read_ns: u64,
    write_ns: u64,
    erase_ns: u64,
    planes: Vec<PlaneState>,
    maps: Vec<TenantMap>,
    stats: FtlStats,
    /// Reusable buffer for a GC pass's live `(tenant, lpn)` pages, so the
    /// steady-state hot path allocates nothing per collection.
    gc_scratch: Vec<(u16, u64)>,
}

impl Ftl {
    /// Builds the FTL for a device/layout pair.
    pub fn new(cfg: &SsdConfig, layout: &TenantLayout) -> Self {
        let geo = Geometry::new(cfg);
        // Floor of 2: the active block counts toward the spare pool, so a
        // trigger of 1 would only fire after the last block is already
        // full — too late for the write that needs it. Two guarantees GC
        // runs while one whole spare block still exists.
        let gc_trigger_blocks =
            ((cfg.blocks_per_plane as f64 * cfg.gc_free_block_threshold).ceil() as usize).max(2);
        Self {
            planes: (0..geo.total_planes())
                .map(|_| PlaneState::new(cfg))
                .collect(),
            maps: layout.iter().map(|t| TenantMap::new(t.lpn_space)).collect(),
            geo,
            pages_per_block: cfg.pages_per_block,
            gc_trigger_blocks,
            wear_leveling_threshold: cfg.wear_leveling_threshold,
            read_ns: cfg.read_latency_ns,
            write_ns: cfg.write_latency_ns,
            erase_ns: cfg.erase_latency_ns,
            stats: FtlStats::default(),
            gc_scratch: Vec::new(),
        }
    }

    /// Resets the FTL in place to the state [`Ftl::new`] would produce
    /// for `(cfg, layout)`, keeping every allocation — mapping tables,
    /// plane/block state, victim buckets — provided the device dimensions
    /// match the ones this FTL was built with. Returns `false` (leaving
    /// the instance valid for its old shape) when the dimensions differ
    /// and the caller must build fresh.
    pub(crate) fn reset(&mut self, cfg: &SsdConfig, layout: &TenantLayout) -> bool {
        if !self.geo.matches(cfg) {
            return false;
        }
        // Same dimensions, but the non-dimensional knobs may differ.
        self.pages_per_block = cfg.pages_per_block;
        self.gc_trigger_blocks =
            ((cfg.blocks_per_plane as f64 * cfg.gc_free_block_threshold).ceil() as usize).max(2);
        self.wear_leveling_threshold = cfg.wear_leveling_threshold;
        self.read_ns = cfg.read_latency_ns;
        self.write_ns = cfg.write_latency_ns;
        self.erase_ns = cfg.erase_latency_ns;
        for plane in &mut self.planes {
            plane.reset();
        }
        let old = self.maps.len();
        for (i, t) in layout.iter().enumerate() {
            if i < old {
                self.maps[i].reset(t.lpn_space);
            } else {
                self.maps.push(TenantMap::new(t.lpn_space));
            }
        }
        self.maps.truncate(layout.tenant_count());
        self.stats = FtlStats::default();
        self.gc_scratch.clear();
        true
    }

    /// The geometry the FTL was built with.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Free pages remaining in a flat plane.
    pub(crate) fn plane_free_pages(&self, plane: usize) -> u64 {
        self.planes[plane].free_pages
    }

    /// Number of erased spare blocks in a flat plane.
    pub(crate) fn plane_free_blocks(&self, plane: usize) -> usize {
        self.planes[plane].free_blocks.len()
            + usize::from(self.planes[plane].active_block.is_some())
    }

    /// Looks up the physical location of `(tenant, lpn)` for a read.
    ///
    /// LPNs that were never written are **seeded**: a physical page is
    /// allocated via the static policy (so pre-existing data is striped the
    /// way a freshly formatted device would hold it) with no timing cost,
    /// modelling data that was already on flash before the trace began.
    pub(crate) fn translate_read(
        &mut self,
        tenant: u16,
        lpn: u64,
        layout: &TenantLayout,
    ) -> Result<PhysAddr, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.lpn_space();
        if let Some(packed) = self.maps[tenant as usize].get(lpn) {
            return Ok(self.geo.unpack_page(packed));
        }
        // Seed: allocate statically, discard the GC charge (no time passes).
        let state = layout.tenant(tenant as usize);
        let plane = alloc::static_plane(&self.geo, state, lpn);
        let outcome = self.write_inner(tenant, lpn, plane)?;
        self.stats.seeded_pages += 1;
        self.stats.host_pages_written -= 1; // seeding is not a host write
        Ok(outcome.addr)
    }

    /// Writes `(tenant, lpn)` to `plane` (flat index), invalidating any
    /// previous copy and possibly triggering GC on that plane.
    pub fn write(&mut self, tenant: u16, lpn: u64, plane: usize) -> Result<WriteOutcome, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.lpn_space();
        self.write_inner(tenant, lpn, plane)
    }

    /// [`Ftl::write`] for an LPN already reduced modulo the tenant's
    /// logical space. The admit path computes `lpn % lpn_space` once for
    /// plane selection and reuses it here, skipping a second 64-bit
    /// modulo per written page.
    pub(crate) fn write_in_space(
        &mut self,
        tenant: u16,
        lpn: u64,
        plane: usize,
    ) -> Result<WriteOutcome, FtlError> {
        if self.maps.len() <= tenant as usize {
            return Err(FtlError::UnknownTenant(tenant));
        }
        debug_assert!(
            lpn < self.maps[tenant as usize].lpn_space(),
            "caller must pre-reduce the LPN"
        );
        self.write_inner(tenant, lpn, plane)
    }

    fn write_inner(
        &mut self,
        tenant: u16,
        lpn: u64,
        plane: usize,
    ) -> Result<WriteOutcome, FtlError> {
        // Invalidate the previous copy, if any.
        if let Some(old_packed) = self.maps[tenant as usize].get(lpn) {
            self.invalidate_packed(old_packed);
        }

        // Land the page on the plane's active block.
        let addr = self.append_to_plane(plane, tenant, lpn)?;
        self.maps[tenant as usize].set(lpn, self.geo.packed_at(plane, addr.block, addr.page));
        self.stats.host_pages_written += 1;

        // Trigger GC when spare blocks run low.
        let gc = if self.plane_free_blocks(plane) < self.gc_trigger_blocks {
            self.collect_plane(plane)
        } else {
            None
        };
        Ok(WriteOutcome { addr, gc })
    }

    /// Marks the page behind a packed id invalid, relocating the block
    /// between victim-index buckets when it is indexed (full and
    /// non-active). Works on the packed form directly so the hot write
    /// path never materializes a [`PhysAddr`] for the dying copy.
    fn invalidate_packed(&mut self, packed: u32) {
        let (plane, bi, page) = self.geo.split_packed(packed);
        let bi = bi as usize;
        let pages_per_block = self.pages_per_block;
        let state = &mut self.planes[plane];
        let slot = state.page_slot(bi, page);
        debug_assert!(matches!(state.pages[slot], PageState::Valid { .. }));
        state.pages[slot] = PageState::Invalid;
        let block = &mut state.blocks[bi];
        block.valid_count -= 1;
        // Re-index under the new valid count; the entry left in the old
        // bucket goes stale and is popped lazily at victim selection.
        if block.is_full(pages_per_block) && state.active_block != Some(bi) {
            state.index_insert(bi);
        }
    }

    /// Appends a page to the plane's active block, rotating in a fresh block
    /// when needed.
    fn append_to_plane(
        &mut self,
        plane: usize,
        tenant: u16,
        lpn: u64,
    ) -> Result<PhysAddr, FtlError> {
        let pages_per_block = self.pages_per_block;
        let state = &mut self.planes[plane];

        let need_new_block = match state.active_block {
            Some(b) => state.blocks[b].is_full(pages_per_block),
            None => true,
        };
        if need_new_block {
            match state.pop_free_block() {
                Some(b) => {
                    // The outgoing active block (full, by `need_new_block`)
                    // leaves rotation and becomes victim material. Insert
                    // only on success: on the PlaneFull path it stays the
                    // active block.
                    if let Some(old) = state.active_block {
                        state.index_insert(old);
                    }
                    state.active_block = Some(b);
                }
                None => return Err(FtlError::PlaneFull { plane }),
            }
        }
        let b = state.active_block.expect("just ensured an active block");
        let page = state.blocks[b].next_page;
        let slot = state.page_slot(b, page);
        debug_assert!(matches!(state.pages[slot], PageState::Free));
        state.pages[slot] = PageState::Valid { tenant, lpn };
        let block = &mut state.blocks[b];
        block.next_page += 1;
        block.valid_count += 1;
        state.free_pages -= 1;

        Ok(self.geo.addr_at(plane, b as u32, page))
    }

    /// Runs one greedy GC pass on `plane`; returns the timing charge or
    /// `None` when no profitable victim exists.
    fn collect_plane(&mut self, plane: usize) -> Option<GcCharge> {
        gc::collect_plane(self, plane)
    }

    // ---- internals shared with the gc module ----

    pub(crate) fn plane_mut(&mut self, plane: usize) -> &mut PlaneState {
        &mut self.planes[plane]
    }

    pub(crate) fn plane_ref(&self, plane: usize) -> &PlaneState {
        &self.planes[plane]
    }

    pub(crate) fn timings(&self) -> (u64, u64, u64) {
        (self.read_ns, self.write_ns, self.erase_ns)
    }

    pub(crate) fn wear_threshold_internal(&self) -> u32 {
        self.wear_leveling_threshold
    }

    pub(crate) fn stats_mut(&mut self) -> &mut FtlStats {
        &mut self.stats
    }

    /// Erases `block` in `plane`: all pages become free, the spare pool
    /// grows, wear accounting advances.
    pub(crate) fn erase_block_internal(&mut self, plane: usize, block: usize) {
        let pages_per_block = self.pages_per_block as u64;
        let state = &mut self.planes[plane];
        let first = state.page_slot(block, 0);
        let b = &mut state.blocks[block];
        debug_assert_eq!(b.valid_count, 0, "erasing a block with live data");
        state.pages[first..first + b.next_page as usize].fill(PageState::Free);
        b.next_page = 0;
        let old_erase = b.erase_count;
        b.erase_count += 1;
        state.free_pages += pages_per_block;
        state.free_blocks.push(block);
        state.note_erase(old_erase);
    }

    /// GC inner loop: drains the victim's live pages and re-appends them
    /// to the plane's active block(s), remapping each as it lands. Fused
    /// into one method so the per-moved-page work — block rotation check,
    /// page append, packed-id computation, mapping update — runs with the
    /// loop invariants (`pages_per_block`, the plane's packed page base)
    /// held in locals; this body executes once per live page of every
    /// victim, the hottest FTL path under write pressure.
    ///
    /// Returns `(pages_moved, victim_erased)`. `victim_erased` is set
    /// when the spare pool ran dry mid-migration and the victim had to be
    /// erased early to supply the destination block for its own remaining
    /// live pages.
    pub(crate) fn migrate_for_gc(&mut self, plane: usize, victim: usize) -> (u32, bool) {
        obs::span!("gc_migrate");
        let pages_per_block = self.pages_per_block;
        let mut live = std::mem::take(&mut self.gc_scratch);
        live.clear();
        {
            // Collect the live pages and invalidate the whole victim in
            // one pass over its pages. The victim is full, so it can
            // never be the active block the moves land on.
            let state = &mut self.planes[plane];
            let first = state.page_slot(victim, 0);
            let block = &mut state.blocks[victim];
            debug_assert!(block.next_page as usize == pages_per_block);
            for p in &mut state.pages[first..first + pages_per_block] {
                if let PageState::Valid { tenant, lpn } = *p {
                    live.push((tenant, lpn));
                }
                *p = PageState::Invalid;
            }
            block.valid_count = 0;
        }

        let page_base = self.geo.packed_at(plane, 0, 0);
        let ppb32 = pages_per_block as u32;
        let mut moved = 0u32;
        let mut victim_erased = false;
        for &(tenant, lpn) in &live {
            let state = &mut self.planes[plane];
            let need_new_block = match state.active_block {
                Some(b) => state.blocks[b].is_full(pages_per_block),
                None => true,
            };
            if need_new_block {
                if state.free_blocks.is_empty() {
                    // Spare pool dry: free the victim now and continue
                    // into the block it just vacated.
                    self.erase_block_internal(plane, victim);
                    victim_erased = true;
                }
                let state = &mut self.planes[plane];
                let b = state
                    .pop_free_block()
                    .expect("erased victim provides a spare block");
                // The outgoing active block (full, by `need_new_block`)
                // leaves rotation and becomes victim material.
                if let Some(old) = state.active_block {
                    state.index_insert(old);
                }
                state.active_block = Some(b);
            }
            let state = &mut self.planes[plane];
            let b = state.active_block.expect("just ensured an active block");
            let page = state.blocks[b].next_page;
            let slot = state.page_slot(b, page);
            debug_assert!(matches!(state.pages[slot], PageState::Free));
            state.pages[slot] = PageState::Valid { tenant, lpn };
            let block = &mut state.blocks[b];
            block.next_page += 1;
            block.valid_count += 1;
            state.free_pages -= 1;
            self.maps[tenant as usize].set(lpn, page_base + b as u32 * ppb32 + page);
            moved += 1;
        }
        self.gc_scratch = live;
        (moved, victim_erased)
    }

    /// Validates internal invariants; used by tests.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let ppb = self.pages_per_block;
        for (pi, plane) in self.planes.iter().enumerate() {
            // The page table covers exactly the blocks below the reset
            // watermark; every block at or above it is pristine and reads
            // `Free`.
            assert!(plane.touched <= plane.blocks.len());
            assert_eq!(
                plane.pages.len(),
                plane.touched * ppb,
                "plane {pi} page table does not match the watermark {}",
                plane.touched
            );
            let mut free_pages = 0u64;
            for (bi, block) in plane.blocks.iter().enumerate() {
                let mut valid = 0u32;
                for i in 0..ppb as u32 {
                    let p = plane.page(bi, i);
                    valid += u32::from(matches!(p, PageState::Valid { .. }));
                    free_pages += u64::from(p == PageState::Free);
                    // Pages below the write pointer must not be Free.
                    if i < block.next_page {
                        assert!(p != PageState::Free, "hole below write pointer");
                    } else {
                        assert!(p == PageState::Free, "data above write pointer");
                    }
                }
                assert_eq!(valid, block.valid_count, "plane {pi} valid_count mismatch");
                if bi >= plane.touched {
                    assert!(
                        block.next_page == 0
                            && block.valid_count == 0
                            && block.erase_count == 0
                            && (0..ppb as u32).all(|i| plane.page(bi, i) == PageState::Free),
                        "plane {pi} block {bi} above the watermark {} is not pristine",
                        plane.touched
                    );
                }
            }
            assert_eq!(
                free_pages, plane.free_pages,
                "plane {pi} free_pages mismatch"
            );
            // The victim index must cover exactly the full, non-active
            // blocks: after discarding stale entries, each bucket's live
            // keys are the `(erase, idx)` pairs of its blocks.
            let mut expect = vec![std::collections::BTreeSet::new(); ppb + 1];
            for (bi, b) in plane.blocks.iter().enumerate() {
                if b.is_full(ppb) && plane.active_block != Some(bi) {
                    expect[b.valid_count as usize].insert((b.erase_count as u64) << 32 | bi as u64);
                }
            }
            let live: Vec<std::collections::BTreeSet<u64>> = plane
                .full_blocks
                .iter()
                .enumerate()
                .map(|(v, bucket)| {
                    bucket
                        .iter()
                        .map(|&std::cmp::Reverse(key)| key)
                        .filter(|&key| plane.entry_is_current(v, key))
                        .collect()
                })
                .collect();
            assert_eq!(expect, live, "plane {pi} victim index stale");
            // The erase histogram and its cursors must match the blocks.
            let mut hist = vec![0u32; plane.erase_hist.len()];
            for b in &plane.blocks {
                hist[b.erase_count as usize] += 1;
            }
            assert_eq!(hist, plane.erase_hist, "plane {pi} erase histogram stale");
            let min = plane.blocks.iter().map(|b| b.erase_count).min().unwrap();
            let max = plane.blocks.iter().map(|b| b.erase_count).max().unwrap();
            assert_eq!((min, max), (plane.min_erase, plane.max_erase));
        }
        // Mapping must point at Valid pages tagged with the same (tenant, lpn).
        for (t, map) in self.maps.iter().enumerate() {
            for (lpn, packed) in map.iter_mapped() {
                let addr = self.geo.unpack_page(packed);
                let plane = self.geo.plane_index(&addr);
                match self.planes[plane].page(addr.block as usize, addr.page) {
                    PageState::Valid { tenant, lpn: l } => {
                        assert_eq!(tenant as usize, t);
                        assert_eq!(l, lpn);
                    }
                    other => panic!("mapping points at non-valid page: {other:?}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantLayout;

    fn small() -> (SsdConfig, TenantLayout) {
        let cfg = SsdConfig::small_test();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
        (cfg, layout)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let out = ftl.write(0, 5, 0).unwrap();
        let addr = ftl.translate_read(0, 5, &layout).unwrap();
        assert_eq!(addr, out.addr);
        ftl.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let first = ftl.write(0, 5, 0).unwrap().addr;
        let second = ftl.write(0, 5, 0).unwrap().addr;
        assert_ne!(
            first, second,
            "log-structured writes never overwrite in place"
        );
        let read = ftl.translate_read(0, 5, &layout).unwrap();
        assert_eq!(read, second);
        ftl.check_invariants();
    }

    #[test]
    fn read_of_unwritten_lpn_seeds_statically() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let a1 = ftl.translate_read(0, 9, &layout).unwrap();
        let a2 = ftl.translate_read(0, 9, &layout).unwrap();
        assert_eq!(a1, a2, "seeding is stable");
        assert_eq!(ftl.stats().seeded_pages, 1);
        assert_eq!(ftl.stats().host_pages_written, 0);
        ftl.check_invariants();
    }

    #[test]
    fn lpns_wrap_at_tenant_space() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let a = ftl.write(0, 3, 0).unwrap().addr;
        // 3 + 64 wraps to 3: reading it must hit the same page.
        let b = ftl.translate_read(0, 3 + 64, &layout).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        assert_eq!(ftl.write(7, 0, 0).unwrap_err(), FtlError::UnknownTenant(7));
        assert!(matches!(
            ftl.translate_read(7, 0, &layout),
            Err(FtlError::UnknownTenant(7))
        ));
    }

    #[test]
    fn filling_a_plane_without_invalid_pages_errors() {
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.0,
            ..SsdConfig::small_test()
        };
        // lpn space larger than one plane so every write is a fresh page.
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(10_000);
        let mut ftl = Ftl::new(&cfg, &layout);
        let plane_pages = (cfg.blocks_per_plane * cfg.pages_per_block) as u64;
        for lpn in 0..plane_pages {
            ftl.write(0, lpn, 0).unwrap();
        }
        assert!(matches!(
            ftl.write(0, plane_pages, 0),
            Err(FtlError::PlaneFull { plane: 0 })
        ));
    }

    #[test]
    fn overwrites_trigger_gc_and_reclaim_space() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        // Hammer a small working set confined to plane 0 far beyond its
        // capacity; GC must keep reclaiming.
        let plane_pages = (cfg.blocks_per_plane * cfg.pages_per_block) as u64; // 64
        for i in 0..(plane_pages * 8) {
            let lpn = i % 16; // small hot set
            ftl.write(0, lpn, 0).unwrap();
        }
        let stats = ftl.stats();
        assert!(stats.gc_blocks_erased > 0, "GC must have run");
        assert!(stats.write_amplification() >= 1.0);
        ftl.check_invariants();
    }

    #[test]
    fn write_amplification_default_is_one() {
        assert_eq!(FtlStats::default().write_amplification(), 1.0);
    }

    /// Asserts `warm` holds exactly the state `fresh` does, plane by
    /// plane: block contents, free-list order, victim buckets, erase
    /// histogram and cursors, watermark, mapping tables, counters.
    fn assert_same_state(warm: &Ftl, fresh: &Ftl) {
        assert_eq!(warm.planes.len(), fresh.planes.len());
        for (pi, (w, f)) in warm.planes.iter().zip(&fresh.planes).enumerate() {
            for (bi, (wb, fb)) in w.blocks.iter().zip(&f.blocks).enumerate() {
                assert_eq!(
                    (wb.next_page, wb.valid_count, wb.erase_count),
                    (fb.next_page, fb.valid_count, fb.erase_count),
                    "plane {pi} block {bi} counters"
                );
                let pages = |p: &PlaneState| {
                    (0..warm.pages_per_block as u32)
                        .map(|i| p.page(bi, i))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pages(w), pages(f), "plane {pi} block {bi} pages");
            }
            assert_eq!(w.blocks.len(), f.blocks.len(), "plane {pi} block count");
            assert_eq!(w.pages.len(), f.pages.len(), "plane {pi} page table");
            assert_eq!(w.active_block, f.active_block, "plane {pi} active block");
            assert_eq!(w.free_blocks, f.free_blocks, "plane {pi} free-list order");
            assert_eq!(w.free_pages, f.free_pages, "plane {pi} free pages");
            assert_eq!(w.touched, f.touched, "plane {pi} watermark");
            assert_eq!(w.full_blocks.len(), f.full_blocks.len());
            assert!(
                w.full_blocks.iter().all(|b| b.is_empty()),
                "plane {pi} victim buckets not emptied"
            );
            assert_eq!(w.erase_hist, f.erase_hist, "plane {pi} erase histogram");
            assert_eq!(
                (w.min_erase, w.max_erase),
                (f.min_erase, f.max_erase),
                "plane {pi} erase cursors"
            );
        }
        assert_eq!(warm.maps.len(), fresh.maps.len());
        for (w, f) in warm.maps.iter().zip(&fresh.maps) {
            assert_eq!(w.lpn_space(), f.lpn_space());
            assert_eq!(w.iter_mapped().count(), 0);
        }
        assert_eq!(warm.stats, fresh.stats);
        assert_eq!(warm.gc_trigger_blocks, fresh.gc_trigger_blocks);
    }

    /// Seeded random writes to the low half of the planes (skewed toward
    /// plane 0) and seeding reads, checking the invariants after every
    /// operation (so a block written past the reset watermark is caught
    /// the moment it happens); returns every outcome so two FTLs fed the
    /// same stream can be compared.
    fn random_traffic(
        ftl: &mut Ftl,
        layout: &TenantLayout,
        seed: u64,
        ops: usize,
    ) -> Vec<Result<PhysAddr, FtlError>> {
        use simrng::{Rng, SimRng};
        let mut rng = SimRng::seed_from_u64(seed);
        let planes = ftl.geometry().total_planes() / 2;
        (0..ops)
            .map(|_| {
                let tenant = rng.gen_range(0..layout.tenant_count()) as u16;
                let lpn = rng.gen_range(0u64..layout.tenant(tenant as usize).lpn_space);
                let out = if rng.gen_bool(0.9) {
                    let plane = rng.gen_range(0..planes).min(rng.gen_range(0..planes));
                    ftl.write(tenant, lpn, plane).map(|o| o.addr)
                } else {
                    ftl.translate_read(tenant, lpn, layout)
                };
                ftl.check_invariants();
                out
            })
            .collect()
    }

    #[test]
    fn reset_after_random_gc_traffic_matches_a_fresh_ftl() {
        let cfg = SsdConfig {
            channels: 4,
            blocks_per_plane: 16,
            wear_leveling_threshold: 2,
            ..SsdConfig::small_test()
        };
        // Seeding reads stay on channels 0-1 too, so the planes of
        // channels 2-3 are never written and keep a zero watermark.
        let dirty_layout =
            TenantLayout::from_channel_lists(&[vec![0, 1], vec![0, 1], vec![1]], &cfg)
                .unwrap()
                .with_lpn_space_all(40);
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(24);
        for seed in [1u64, 2, 3, 4] {
            let mut ftl = Ftl::new(&cfg, &dirty_layout);
            random_traffic(&mut ftl, &dirty_layout, seed, 2_500);
            ftl.check_invariants();
            assert!(ftl.stats().gc_blocks_erased > 0, "seed {seed}: no GC ran");
            assert!(
                ftl.planes.iter().any(|p| p.touched == 0),
                "seed {seed}: traffic should leave some plane untouched"
            );

            assert!(ftl.reset(&cfg, &layout));
            ftl.check_invariants();
            let mut fresh = Ftl::new(&cfg, &layout);
            assert_same_state(&ftl, &fresh);

            // And the reset FTL behaves like the fresh one from here on.
            let warm_out = random_traffic(&mut ftl, &layout, seed + 50, 1_000);
            let fresh_out = random_traffic(&mut fresh, &layout, seed + 50, 1_000);
            assert_eq!(warm_out, fresh_out, "seed {seed}: outcomes diverged");
            assert_eq!(ftl.stats(), fresh.stats());
            ftl.check_invariants();
        }
    }

    #[test]
    fn gc_migration_into_a_fresh_block_raises_the_watermark() {
        // 8 blocks of 8 pages, GC below 4 spare blocks.
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.5,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
        let mut ftl = Ftl::new(&cfg, &layout);
        // Fresh data fills blocks 0-4 and 3 pages of block 5; GC fires
        // from block 5 on but finds only fully valid victims.
        for lpn in 0..43 {
            ftl.write(0, lpn, 0).unwrap();
        }
        assert_eq!(ftl.stats().gc_blocks_erased, 0);
        assert_eq!(ftl.planes[0].touched, 6);
        // One overwrite makes block 0 a 7-valid victim; its pages overflow
        // block 5's 4 free pages into block 6, popped by the migration.
        let gc = ftl.write(0, 0, 0).unwrap().gc.expect("GC pass");
        assert_eq!((gc.victim_block, gc.moved_pages), (0, 7));
        assert_eq!(ftl.planes[0].touched, 7);
        ftl.check_invariants();
        assert!(ftl.reset(&cfg, &layout));
        assert_same_state(&ftl, &Ftl::new(&cfg, &layout));
    }

    #[test]
    fn reset_after_a_full_plane_matches_a_fresh_ftl() {
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.0,
            ..SsdConfig::small_test()
        };
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(10_000);
        let mut ftl = Ftl::new(&cfg, &layout);
        let mut lpn = 0;
        while ftl.write(0, lpn, 1).is_ok() {
            lpn += 1;
        }
        assert_eq!(ftl.planes[1].touched, cfg.blocks_per_plane);
        assert!(ftl.reset(&cfg, &layout));
        ftl.check_invariants();
        assert_same_state(&ftl, &Ftl::new(&cfg, &layout));
    }

    #[test]
    fn plane_free_counters_consistent() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let before = ftl.plane_free_pages(0);
        ftl.write(0, 0, 0).unwrap();
        assert_eq!(ftl.plane_free_pages(0), before - 1);
        assert!(ftl.plane_free_blocks(0) <= cfg.blocks_per_plane);
    }
}
