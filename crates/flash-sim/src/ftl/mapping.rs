//! Per-tenant page-level address mapping.
//!
//! Each tenant owns a dense logical page space (`0..lpn_space`) and a flat
//! table from LPN to packed physical page id
//! (`plane * pages_per_plane + block * pages_per_block + page`). A dense
//! `Vec<u32>` is used instead of a hash map: lookups are on the critical
//! path of every simulated I/O, and the spaces involved (2²⁰ pages by
//! default) make the table small (4 MB/tenant) and perfectly
//! cache-predictable.

/// Sentinel for "never mapped".
const UNMAPPED: u32 = u32::MAX;

/// Logical-to-physical table for one tenant.
#[derive(Debug, Clone)]
pub(crate) struct TenantMap {
    table: Vec<u32>,
}

impl TenantMap {
    /// Creates an empty map covering `0..lpn_space`.
    ///
    /// # Panics
    ///
    /// Panics if `lpn_space` is zero.
    pub fn new(lpn_space: u64) -> Self {
        assert!(lpn_space > 0, "tenant logical space must be non-empty");
        Self {
            table: vec![UNMAPPED; lpn_space as usize],
        }
    }

    /// Clears every mapping and re-sizes the table to `lpn_space`,
    /// reusing the existing allocation when it is already large enough —
    /// equivalent to `*self = TenantMap::new(lpn_space)` without the 4
    /// MB/tenant reallocation.
    ///
    /// # Panics
    ///
    /// Panics if `lpn_space` is zero.
    pub fn reset(&mut self, lpn_space: u64) {
        assert!(lpn_space > 0, "tenant logical space must be non-empty");
        self.table.clear();
        self.table.resize(lpn_space as usize, UNMAPPED);
    }

    /// Size of the logical space.
    pub fn lpn_space(&self) -> u64 {
        self.table.len() as u64
    }

    /// Looks up an LPN. `lpn` must be `< lpn_space`.
    pub fn get(&self, lpn: u64) -> Option<u32> {
        let v = self.table[lpn as usize];
        (v != UNMAPPED).then_some(v)
    }

    /// Maps `lpn` to a packed physical page id.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ppa` is the sentinel value.
    pub fn set(&mut self, lpn: u64, ppa: u32) {
        debug_assert_ne!(
            ppa, UNMAPPED,
            "u32::MAX is reserved as the unmapped sentinel"
        );
        self.table[lpn as usize] = ppa;
    }

    /// Iterates over `(lpn, packed_ppa)` pairs that are currently mapped.
    #[cfg(test)]
    pub(crate) fn iter_mapped(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != UNMAPPED)
            .map(|(i, &v)| (i as u64, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_empty() {
        let m = TenantMap::new(16);
        assert_eq!(m.lpn_space(), 16);
        assert!(m.get(0).is_none());
        assert_eq!(m.iter_mapped().count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_space_panics() {
        let _ = TenantMap::new(0);
    }

    #[test]
    fn set_get_remap_cycle() {
        let mut m = TenantMap::new(8);
        m.set(3, 42);
        assert_eq!(m.get(3), Some(42));
        assert_eq!(m.iter_mapped().count(), 1);
        m.set(3, 43); // remap does not change count
        assert_eq!(m.get(3), Some(43));
        assert_eq!(m.iter_mapped().count(), 1);
        m.reset(8);
        assert!(m.get(3).is_none());
        assert_eq!(m.iter_mapped().count(), 0);
    }

    #[test]
    fn iter_mapped_yields_pairs_in_order() {
        let mut m = TenantMap::new(8);
        m.set(5, 50);
        m.set(1, 10);
        assert_eq!(m.iter_mapped().collect::<Vec<_>>(), vec![(1, 10), (5, 50)]);
    }
}
