//! Four-level page tables and virtual address spaces.
//!
//! The model follows x86-64's radix-512 layout: bits 47..39, 38..30,
//! 29..21 and 20..12 index the PML4, PDPT, PD and PT levels. Walks can
//! terminate early when an intermediate entry is absent, which is exactly
//! the property TET-KASLR exploits: an *unmapped* kernel probe address
//! fails its walk at a shallow level and gets retried, while a *mapped*
//! (but permission-protected) address completes the walk (paper §4.5,
//! Table 3).

use crate::{IntMap, PAGE_SIZE};

/// A leaf page-table entry.
///
/// `reserved` models a reserved-bit PTE. FLARE's dummy mappings are
/// modelled with this bit: the walk terminates with a reserved-bit fault
/// and — on the modelled Intel cores — does **not** install a TLB entry,
/// which is how TET-KASLR distinguishes FLARE dummies from the real
/// kernel image (see DESIGN.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Pte {
    /// Physical frame number (physical address is `frame * 4096`).
    pub frame: u64,
    /// Present bit: translation exists.
    pub present: bool,
    /// Writable bit.
    pub writable: bool,
    /// User-accessible bit; kernel pages have it clear, and user-mode
    /// access to them raises a permission fault *after* the walk.
    pub user: bool,
    /// Global bit (survives address-space switches; kernel text uses it).
    pub global: bool,
    /// Reserved-bit set: the walk faults at the leaf without a TLB fill.
    pub reserved: bool,
    /// No-execute bit.
    pub nx: bool,
}

impl Pte {
    /// A present, writable, user-accessible data page.
    pub fn user_data(frame: u64) -> Pte {
        Pte {
            frame,
            present: true,
            writable: true,
            user: true,
            global: false,
            reserved: false,
            nx: false,
        }
    }

    /// A present kernel page (supervisor-only, global).
    pub fn kernel(frame: u64) -> Pte {
        Pte {
            frame,
            present: true,
            writable: true,
            user: false,
            global: true,
            reserved: false,
            nx: false,
        }
    }

    /// A FLARE-style dummy entry: present-looking but reserved-bit
    /// poisoned, backed by no real frame.
    pub fn flare_dummy() -> Pte {
        Pte {
            frame: 0,
            present: true,
            writable: false,
            user: false,
            global: false,
            reserved: true,
            nx: true,
        }
    }
}

/// How a page walk for a virtual address concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkOutcome {
    /// Translation found; the leaf PTE is returned. Permission checks
    /// against the access mode are the caller's job.
    Mapped(Pte),
    /// No translation: an entry was absent at `level` (4 = PML4 … 1 = PT).
    NotPresent {
        /// Level at which the walk stopped (4 is the root).
        level: u8,
    },
    /// A reserved-bit leaf terminated the walk (FLARE dummy pages).
    ReservedBit,
}

impl WalkOutcome {
    /// Whether the walk produced a usable translation.
    pub fn is_mapped(&self) -> bool {
        matches!(self, WalkOutcome::Mapped(_))
    }
}

#[derive(Debug, Clone, Default)]
struct Node {
    children: IntMap<u16, Node>,
    leaf: Option<Pte>,
}

/// A 4-level virtual address space.
///
/// # Examples
///
/// ```
/// use tet_mem::{AddressSpace, Pte, WalkOutcome};
///
/// let mut aspace = AddressSpace::new();
/// aspace.map_page(0x7fff_0000_0000, Pte::user_data(42));
/// assert!(aspace.walk(0x7fff_0000_0123).0.is_mapped());
/// assert_eq!(aspace.translate(0x7fff_0000_0010), Some(42 * 4096 + 0x10));
/// assert!(matches!(
///     aspace.walk(0x7fff_5555_0000).0,
///     WalkOutcome::NotPresent { .. }
/// ));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    root: Node,
    mapped_pages: usize,
}

/// Splits a canonical virtual address into its four 9-bit level indices,
/// root level first.
fn level_indices(vaddr: u64) -> [u16; 4] {
    [
        ((vaddr >> 39) & 0x1ff) as u16,
        ((vaddr >> 30) & 0x1ff) as u16,
        ((vaddr >> 21) & 0x1ff) as u16,
        ((vaddr >> 12) & 0x1ff) as u16,
    ]
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps the page containing `vaddr` with the given leaf PTE,
    /// creating intermediate tables as needed. Remapping replaces the
    /// previous leaf.
    pub fn map_page(&mut self, vaddr: u64, pte: Pte) {
        let idx = level_indices(vaddr);
        let mut node = &mut self.root;
        for i in idx.iter().take(3) {
            node = node.children.entry(*i).or_default();
        }
        let leaf_node = node.children.entry(idx[3]).or_default();
        if leaf_node.leaf.is_none() {
            self.mapped_pages += 1;
        }
        leaf_node.leaf = Some(pte);
    }

    /// Removes the mapping for the page containing `vaddr`, if any.
    /// Returns the removed PTE.
    pub fn unmap_page(&mut self, vaddr: u64) -> Option<Pte> {
        let idx = level_indices(vaddr);
        let mut node = &mut self.root;
        for i in idx.iter().take(3) {
            node = node.children.get_mut(i)?;
        }
        let leaf_node = node.children.get_mut(&idx[3])?;
        let removed = leaf_node.leaf.take();
        if removed.is_some() {
            self.mapped_pages -= 1;
        }
        removed
    }

    /// Walks the tables for `vaddr`. Returns the outcome and the number
    /// of levels the walker had to touch (1..=4); an early not-present
    /// stops the walk at that level.
    pub fn walk(&self, vaddr: u64) -> (WalkOutcome, u8) {
        let idx = level_indices(vaddr);
        let mut node = &self.root;
        for (depth, i) in idx.iter().enumerate() {
            match node.children.get(i) {
                Some(child) => node = child,
                None => {
                    let levels_touched = depth as u8 + 1;
                    return (
                        WalkOutcome::NotPresent {
                            level: 4 - depth as u8,
                        },
                        levels_touched,
                    );
                }
            }
        }
        match node.leaf {
            Some(pte) if pte.reserved => (WalkOutcome::ReservedBit, 4),
            Some(pte) if pte.present => (WalkOutcome::Mapped(pte), 4),
            _ => (WalkOutcome::NotPresent { level: 1 }, 4),
        }
    }

    /// Functional translation: virtual to physical address, ignoring
    /// permissions and timing. Returns `None` for unmapped or
    /// reserved-bit pages.
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        match self.walk(vaddr).0 {
            WalkOutcome::Mapped(pte) => Some(pte.frame * PAGE_SIZE + (vaddr % PAGE_SIZE)),
            _ => None,
        }
    }

    /// The leaf PTE for `vaddr`, if mapped (reserved-bit leaves are
    /// returned too, so defenses can be inspected).
    pub fn pte(&self, vaddr: u64) -> Option<Pte> {
        match self.walk(vaddr).0 {
            WalkOutcome::Mapped(pte) => Some(pte),
            WalkOutcome::ReservedBit => {
                // Re-walk to fetch the poisoned leaf.
                let idx = level_indices(vaddr);
                let mut node = &self.root;
                for i in &idx {
                    node = node.children.get(i)?;
                }
                node.leaf
            }
            WalkOutcome::NotPresent { .. } => None,
        }
    }

    /// Number of mapped leaf pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }
}

/// A bump allocator for physical frames.
///
/// # Examples
///
/// ```
/// use tet_mem::FrameAlloc;
///
/// let mut alloc = FrameAlloc::starting_at(0x100);
/// assert_eq!(alloc.alloc(), 0x100);
/// assert_eq!(alloc.alloc(), 0x101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameAlloc {
    next: u64,
}

impl FrameAlloc {
    /// Allocator handing out frames from `first` upwards.
    pub fn starting_at(first: u64) -> Self {
        FrameAlloc { next: first }
    }

    /// Allocates the next frame number.
    pub fn alloc(&mut self) -> u64 {
        let f = self.next;
        self.next += 1;
        f
    }

    /// Allocates `n` consecutive frames, returning the first.
    pub fn alloc_contiguous(&mut self, n: u64) -> u64 {
        let f = self.next;
        self.next += n;
        f
    }
}

impl Default for FrameAlloc {
    fn default() -> Self {
        FrameAlloc::starting_at(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_walk_stops_at_root() {
        let aspace = AddressSpace::new();
        let (outcome, levels) = aspace.walk(0xffff_ffff_8000_0000);
        assert_eq!(outcome, WalkOutcome::NotPresent { level: 4 });
        assert_eq!(levels, 1);
    }

    #[test]
    fn sibling_page_fails_at_leaf_level() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0x1000, Pte::user_data(1));
        // Same PT, different leaf: walk touches all 4 levels.
        let (outcome, levels) = aspace.walk(0x2000);
        assert_eq!(outcome, WalkOutcome::NotPresent { level: 1 });
        assert_eq!(levels, 4);
    }

    #[test]
    fn mapped_walk_returns_pte() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0xffff_ffff_8000_0000, Pte::kernel(7));
        let (outcome, levels) = aspace.walk(0xffff_ffff_8000_0abc);
        assert_eq!(levels, 4);
        match outcome {
            WalkOutcome::Mapped(pte) => {
                assert_eq!(pte.frame, 7);
                assert!(!pte.user);
                assert!(pte.global);
            }
            other => panic!("expected mapped, got {other:?}"),
        }
    }

    #[test]
    fn reserved_bit_leaf_reports_reserved() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0xffff_ffff_9000_0000, Pte::flare_dummy());
        let (outcome, levels) = aspace.walk(0xffff_ffff_9000_0000);
        assert_eq!(outcome, WalkOutcome::ReservedBit);
        assert_eq!(levels, 4);
        assert!(aspace.translate(0xffff_ffff_9000_0000).is_none());
        assert!(aspace.pte(0xffff_ffff_9000_0000).unwrap().reserved);
    }

    #[test]
    fn translate_adds_page_offset() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0x5000, Pte::user_data(3));
        assert_eq!(aspace.translate(0x5123), Some(3 * 4096 + 0x123));
    }

    #[test]
    fn unmap_restores_not_present() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0x5000, Pte::user_data(3));
        assert_eq!(aspace.mapped_pages(), 1);
        let removed = aspace.unmap_page(0x5000).unwrap();
        assert_eq!(removed.frame, 3);
        assert_eq!(aspace.mapped_pages(), 0);
        assert!(aspace.translate(0x5000).is_none());
    }

    #[test]
    fn remap_replaces_leaf_without_double_count() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0x5000, Pte::user_data(3));
        aspace.map_page(0x5000, Pte::user_data(9));
        assert_eq!(aspace.mapped_pages(), 1);
        assert_eq!(aspace.translate(0x5000), Some(9 * 4096));
    }

    #[test]
    fn high_kernel_addresses_distinct_from_user() {
        let mut aspace = AddressSpace::new();
        aspace.map_page(0xffff_ffff_8000_0000, Pte::kernel(1));
        assert!(aspace.translate(0x0000_0000_8000_0000).is_none());
    }

    #[test]
    fn frame_alloc_contiguous() {
        let mut a = FrameAlloc::default();
        let first = a.alloc_contiguous(4);
        assert_eq!(first, 1);
        assert_eq!(a.alloc(), 5);
    }
}
