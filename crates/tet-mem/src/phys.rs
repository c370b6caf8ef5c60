//! Sparse simulated physical memory with copy-on-write snapshot forks.

use crate::cow::CowTable;
use crate::{IntMap, PAGE_SIZE};

/// Sparse physical memory, allocated page-by-page on first write.
///
/// Reads of never-written memory return zero, like freshly-zeroed DRAM.
///
/// Each resident page is one 4 KiB chunk of the crate's journaled
/// copy-on-write table, found through a page-number → chunk map.
/// Clones share every page until one side writes it, and
/// [`PhysMem::seal`] is O(1). [`PhysMem::restore`] against a clone of
/// the same seal walks only the pages written since: it copies the
/// snapshot's bytes into each page in place and drops pages allocated
/// since the seal, so a steady trial loop does not allocate.
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
#[derive(Debug, Clone)]
pub struct PhysMem {
    /// Page number → chunk of `frames`, in first-write order.
    slots: IntMap<u64, u32>,
    /// One `PAGE_SIZE`-byte chunk per resident page.
    frames: CowTable<u8>,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMem {
    /// Creates empty (all-zero) physical memory.
    pub fn new() -> Self {
        PhysMem {
            slots: IntMap::default(),
            frames: CowTable::new(0, PAGE_SIZE as usize),
        }
    }

    fn page(&self, pa: u64) -> Option<&[u8]> {
        let &ci = self.slots.get(&(pa / PAGE_SIZE))?;
        self.frames.get(ci as usize)
    }

    fn page_mut(&mut self, pa: u64) -> &mut [u8] {
        let frames = &mut self.frames;
        let ci = *self
            .slots
            .entry(pa / PAGE_SIZE)
            .or_insert_with(|| frames.push() as u32);
        frames.get_mut(ci as usize)
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
        self.slots.len()
    }

    /// Number of pages dirtied (written or allocated) since the last
    /// seal or delta restore. Zero for never-sealed memory.
    pub fn dirty_pages(&self) -> usize {
        self.frames.journal_len()
    }

    /// Marks the current contents as a snapshot point, in O(1): clones
    /// taken now share this seal and every page, and
    /// [`PhysMem::restore`] against one of them is O(pages dirtied).
    pub fn seal(&mut self) {
        self.frames.seal();
    }

    /// Rolls this memory back to the contents of `src`, a sealed
    /// snapshot. Across a shared seal only the pages dirtied since the
    /// seal are touched: the snapshot's bytes are copied into each in
    /// place, and pages allocated since the seal are dropped. Otherwise
    /// every page is shared with `src` (an `Arc` bump each) and its seal
    /// is adopted, so the next restore replays the dirty set.
    pub fn restore(&mut self, src: &PhysMem) {
        let PhysMem { slots, frames } = src;
        let grew = self.frames.len() != frames.len();
        if !self.frames.restore(frames) || grew {
            self.slots.clone_from(slots);
        }
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
        // A foreign seal cannot be trusted: copy, and adopt it.
        a.restore(&b);
        assert_eq!(a.read_u8(0x1000), 2);
        assert_eq!(a.read_u8(0x7000), 0);
        assert_eq!(a.resident_pages(), b.resident_pages());
        assert!(a.frames.shares_seal(&b.frames), "copy adopts the seal");
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

    /// Two forks of one seal, written and restored in turn, each see
    /// only their own writes and the snapshot's pages, and restoring one
    /// never disturbs the other (in-place restores copy into pages a
    /// fork holds alone).
    #[test]
    fn forks_of_one_seal_never_see_each_others_pages() {
        let mut m = PhysMem::new();
        m.write_u64(0x1000, 0x1111);
        m.write_u64(0x2000, 0x2222);
        m.seal();
        let snap = m.clone();
        let mut a = snap.clone();
        let mut b = snap.clone();
        for round in 0..8u64 {
            a.write_u64(0x1000, 0xa0 + round);
            a.write_u8(0x3000 + round, 0xaa);
            b.write_u64(0x1000, 0xb0 + round);
            b.write_u64(0x2000, 0xbb);
            assert_eq!(a.read_u64(0x1000), 0xa0 + round);
            assert_eq!(a.read_u64(0x2000), 0x2222, "round {round}: b leaked into a");
            assert_eq!(b.read_u64(0x1000), 0xb0 + round);
            assert_eq!(
                b.read_u8(0x3000 + round),
                0,
                "round {round}: a leaked into b"
            );
            let (first, second) = if round % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            first.restore(&snap);
            assert_eq!(first.read_u64(0x1000), 0x1111, "round {round}");
            assert_eq!(first.read_u64(0x2000), 0x2222, "round {round}");
            assert_eq!(first.read_u8(0x3000 + round), 0, "round {round}");
            assert_eq!(first.resident_pages(), 2, "round {round}");
            assert_ne!(
                second.read_u64(0x1000),
                0x1111,
                "round {round}: restore leaked"
            );
            second.restore(&snap);
            for fork in [&a, &b] {
                assert_eq!(fork.dirty_pages(), 0);
                assert_eq!(fork.read_u64(0x1000), 0x1111);
                assert_eq!(fork.read_u64(0x2000), 0x2222);
            }
        }
        assert_eq!(snap.read_u64(0x1000), 0x1111, "the snapshot moved");
        assert_eq!(snap.read_u64(0x2000), 0x2222, "the snapshot moved");
        assert_eq!(snap.resident_pages(), 2);
    }
}
