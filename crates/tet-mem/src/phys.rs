//! Sparse simulated physical memory with copy-on-write snapshot forks.

use std::sync::Arc;

use crate::{same_seal, IntMap, PAGE_SIZE};

/// One 4 KiB physical page.
pub type Page = [u8; PAGE_SIZE as usize];

/// A resident page: either shared with the sealed snapshot image
/// (clean) or privately owned (dirtied since the seal).
#[derive(Debug, Clone)]
enum PageSlot {
    /// Clean — still the snapshot's copy. Any write COW-forks it.
    Shared(Arc<Page>),
    /// Dirtied (or allocated) since the last seal.
    Owned(Box<Page>),
}

impl PageSlot {
    fn bytes(&self) -> &Page {
        match self {
            PageSlot::Shared(p) => p,
            PageSlot::Owned(p) => p,
        }
    }
}

/// Sparse physical memory, allocated page-by-page on first write.
///
/// Reads of never-written memory return zero, like freshly-zeroed DRAM.
///
/// Snapshot forks are O(touched): [`PhysMem::seal`] freezes the current
/// contents into an `Arc`-shared base image, after which every resident
/// page is [`PageSlot::Shared`] and writes COW-fork individual pages
/// into the `dirty` journal. [`PhysMem::restore`] walks only that
/// journal, re-pointing dirtied pages at the base image and dropping
/// pages allocated since the seal.
///
/// # Examples
///
/// ```
/// use tet_mem::PhysMem;
///
/// let mut m = PhysMem::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x9_0000), 0);
/// ```
#[derive(Debug, Default)]
pub struct PhysMem {
    pages: IntMap<u64, PageSlot>,
    /// The sealed snapshot image this memory forked from, if any.
    base: Option<Arc<IntMap<u64, Arc<Page>>>>,
    /// Page numbers touched since the last seal/restore. Deduplicated by
    /// construction: a page COW-forks (or is inserted) at most once per
    /// epoch, exactly when it journals itself.
    dirty: Vec<u64>,
    /// Recycled page boxes, so the restore → re-dirty cycle of a trial
    /// loop does not hit the allocator. Not cloned.
    spare: Vec<Box<Page>>,
}

impl Clone for PhysMem {
    fn clone(&self) -> Self {
        PhysMem {
            pages: self.pages.clone(),
            base: self.base.clone(),
            dirty: self.dirty.clone(),
            spare: Vec::new(),
        }
    }
}

/// Cap on recycled page boxes kept across restores.
const SPARE_PAGES: usize = 64;

impl PhysMem {
    /// Creates empty (all-zero) physical memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&self, pa: u64) -> Option<&Page> {
        self.pages.get(&(pa / PAGE_SIZE)).map(PageSlot::bytes)
    }

    fn blank_page(&mut self) -> Box<Page> {
        match self.spare.pop() {
            Some(mut p) => {
                p.fill(0);
                p
            }
            None => Box::new([0; PAGE_SIZE as usize]),
        }
    }

    fn page_mut(&mut self, pa: u64) -> &mut Page {
        let vpn = pa / PAGE_SIZE;
        if !matches!(self.pages.get(&vpn), Some(PageSlot::Owned(_))) {
            let slot = match self.pages.remove(&vpn) {
                // COW fork: first write to a clean page this epoch.
                Some(PageSlot::Shared(arc)) => {
                    let mut owned = match self.spare.pop() {
                        Some(p) => p,
                        None => Box::new([0; PAGE_SIZE as usize]),
                    };
                    owned.copy_from_slice(&arc[..]);
                    PageSlot::Owned(owned)
                }
                Some(owned @ PageSlot::Owned(_)) => owned,
                // Fresh allocation.
                None => PageSlot::Owned(self.blank_page()),
            };
            if self.base.is_some() {
                self.dirty.push(vpn);
            }
            self.pages.insert(vpn, slot);
        }
        match self.pages.get_mut(&vpn) {
            Some(PageSlot::Owned(p)) => p,
            _ => unreachable!("page was just made Owned"),
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, pa: u64) -> u8 {
        self.page(pa)
            .map(|p| p[(pa % PAGE_SIZE) as usize])
            .unwrap_or(0)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, pa: u64, v: u8) {
        let off = (pa % PAGE_SIZE) as usize;
        self.page_mut(pa)[off] = v;
    }

    /// Fills `out` with the bytes starting at `pa`: one page lookup and
    /// one copy when the range stays inside one page (a cache line
    /// always does), byte by byte when it crosses a page boundary.
    pub(crate) fn read_into(&self, pa: u64, out: &mut [u8]) {
        let off = (pa % PAGE_SIZE) as usize;
        if off + out.len() <= PAGE_SIZE as usize {
            match self.page(pa) {
                Some(p) => out.copy_from_slice(&p[off..off + out.len()]),
                None => out.fill(0),
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(pa + i as u64);
            }
        }
    }

    /// Reads an 8-byte little-endian value (may cross a page boundary).
    pub fn read_u64(&self, pa: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_into(pa, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Writes an 8-byte little-endian value (may cross a page boundary).
    pub fn write_u64(&mut self, pa: u64, v: u64) {
        self.write_bytes(pa, &v.to_le_bytes());
    }

    /// Copies a byte slice into memory starting at `pa`: one page
    /// lookup and one copy when it stays inside one page, byte by byte
    /// when it crosses a page boundary.
    pub fn write_bytes(&mut self, pa: u64, bytes: &[u8]) {
        let off = (pa % PAGE_SIZE) as usize;
        if bytes.is_empty() {
            // Touches no page (and so allocates and journals none).
        } else if off + bytes.len() <= PAGE_SIZE as usize {
            self.page_mut(pa)[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(pa + i as u64, *b);
            }
        }
    }

    /// Reads `len` bytes starting at `pa`.
    pub fn read_bytes(&self, pa: u64, len: usize) -> Vec<u8> {
        let mut bytes = vec![0; len];
        self.read_into(pa, &mut bytes);
        bytes
    }

    /// Number of physical pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages dirtied (written or allocated) since the last
    /// seal or delta restore. Zero for never-sealed memory.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Freezes the current contents into an `Arc`-shared base image.
    /// Clones of a sealed `PhysMem` share every page; their writes
    /// COW-fork pages individually, and [`PhysMem::restore`]
    /// against a clone of the same seal is O(pages dirtied).
    pub fn seal(&mut self) {
        let pages = std::mem::take(&mut self.pages);
        let mut base = IntMap::with_capacity_and_hasher(pages.len(), Default::default());
        self.pages.reserve(pages.len());
        for (vpn, slot) in pages {
            let arc = match slot {
                PageSlot::Shared(arc) => arc,
                PageSlot::Owned(owned) => Arc::from(owned),
            };
            base.insert(vpn, Arc::clone(&arc));
            self.pages.insert(vpn, PageSlot::Shared(arc));
        }
        self.base = Some(Arc::new(base));
        self.dirty.clear();
    }

    /// Rolls this memory back to the contents of `src`, a sealed
    /// snapshot. Across a shared base image only the pages dirtied since
    /// the seal are touched: they re-point at the base image, and pages
    /// allocated since the seal are dropped. Otherwise every page is
    /// copied (an `Arc` bump per page where the source is sealed, a deep
    /// copy otherwise) and the source's base image is adopted, so the
    /// next restore replays the dirty set.
    pub fn restore(&mut self, src: &PhysMem) {
        let PhysMem {
            pages,
            base,
            dirty,
            // The recycled page boxes are this memory's own.
            spare: _,
        } = src;
        if same_seal(&self.base, base) {
            debug_assert!(
                dirty.is_empty(),
                "restore source must be a sealed, unmutated snapshot"
            );
            let base = self.base.clone().expect("sealed");
            for i in 0..self.dirty.len() {
                let vpn = self.dirty[i];
                let old = match base.get(&vpn) {
                    Some(arc) => self.pages.insert(vpn, PageSlot::Shared(Arc::clone(arc))),
                    None => self.pages.remove(&vpn),
                };
                if let Some(PageSlot::Owned(p)) = old {
                    if self.spare.len() < SPARE_PAGES {
                        self.spare.push(p);
                    }
                }
            }
        } else {
            self.pages.clone_from(pages);
            self.base.clone_from(base);
        }
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PhysMem::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_0000), 0);
    }

    #[test]
    fn u64_round_trip_little_endian() {
        let mut m = PhysMem::new();
        m.write_u64(0x2000, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0x2000), 0x08);
        assert_eq!(m.read_u8(0x2007), 0x01);
        assert_eq!(m.read_u64(0x2000), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_u64_access() {
        let mut m = PhysMem::new();
        m.write_u64(0x1ffc, u64::MAX);
        assert_eq!(m.read_u64(0x1ffc), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn write_bytes_round_trip() {
        let mut m = PhysMem::new();
        m.write_bytes(0x3000, b"whisper");
        assert_eq!(m.read_bytes(0x3000, 7), b"whisper");
    }

    #[test]
    fn delta_restore_walks_only_the_dirty_set() {
        let mut m = PhysMem::new();
        m.write_u64(0x1000, 0x1111);
        m.write_u64(0x5000, 0x5555);
        m.seal();
        let snap = m.clone();
        assert_eq!(m.dirty_pages(), 0);

        // Dirty one existing page, allocate one new page.
        m.write_u8(0x1004, 0xff);
        m.write_u8(0x9000, 0xee);
        assert_eq!(m.dirty_pages(), 2);
        assert_eq!(m.resident_pages(), 3);

        m.restore(&snap);
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u64(0x1000), 0x1111);
        assert_eq!(m.read_u8(0x9000), 0);
        assert_eq!(m.read_u64(0x5000), 0x5555);
    }

    #[test]
    fn delta_restore_refuses_mismatched_seals() {
        let mut a = PhysMem::new();
        a.write_u8(0x1000, 1);
        a.seal();
        let mut b = PhysMem::new();
        b.write_u8(0x1000, 2);
        b.seal();
        a.write_u8(0x7000, 7);
        // A foreign base image cannot be trusted: copy, and adopt it.
        a.restore(&b);
        assert_eq!(a.read_u8(0x1000), 2);
        assert_eq!(a.read_u8(0x7000), 0);
        assert_eq!(a.resident_pages(), b.resident_pages());
        assert!(same_seal(&a.base, &b.base), "copy adopts the base image");
        // The next restore replays the dirty set.
        a.write_u8(0x1000, 9);
        assert_eq!(a.dirty_pages(), 1);
        a.restore(&b);
        assert_eq!(a.dirty_pages(), 0);
        assert_eq!(a.read_u8(0x1000), 2);
    }

    /// A u64 assembled from single-byte reads: the reference for the
    /// one-lookup paths.
    fn u64_by_bytes(m: &PhysMem, pa: u64) -> u64 {
        u64::from_le_bytes(std::array::from_fn(|k| m.read_u8(pa + k as u64)))
    }

    #[test]
    fn restore_matches_exhaustive_copy_after_random_churn() {
        let mut m = PhysMem::new();
        for i in 0..16u64 {
            m.write_u64(0x1000 * i, i * 0x0101);
        }
        m.seal();
        let snap = m.clone();
        // u64s straddling each boundary between pages i and i + 1: the
        // last ones reach past the sealed pages and allocate.
        let straddle = |i: u64| 0x1000 * (i + 1) - 3;
        let sealed: Vec<u64> = (0..20).map(|i| snap.read_u64(straddle(i))).collect();
        for i in 0..32u64 {
            m.write_u8(0x800 * i + 7, i as u8);
        }
        for i in 0..20u64 {
            m.write_u64(straddle(i), !i);
            assert_eq!(m.read_u64(straddle(i)), !i);
            assert_eq!(u64_by_bytes(&m, straddle(i)), !i);
            assert_eq!(snap.read_u64(straddle(i)), sealed[i as usize], "COW leaked");
        }
        m.restore(&snap);
        let reference = snap.clone();
        assert_eq!(m.resident_pages(), reference.resident_pages());
        for i in 0..32u64 {
            let pa = 0x800 * i + 7;
            assert_eq!(m.read_u8(pa), reference.read_u8(pa), "pa {pa:#x}");
        }
        for i in 0..20u64 {
            let pa = straddle(i);
            assert_eq!(m.read_u64(pa), sealed[i as usize], "pa {pa:#x}");
            assert_eq!(m.read_u64(pa), u64_by_bytes(&reference, pa), "pa {pa:#x}");
        }
    }
}
