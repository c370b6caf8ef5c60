//! Model-based property tests: the set-associative cache and TLB are
//! checked against naive reference models over arbitrary operation
//! sequences, and the paging radix tree against a flat map and against
//! an ordered-map reference of leaves and populated tables.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use tet_mem::{AddressSpace, Cache, CacheConfig, Pte, Tlb, TlbConfig, WalkOutcome};

// ---------------------------------------------------------------------
// Cache vs a reference model (per-set LRU lists).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Lookup(u64),
    Fill(u64),
    FlushLine(u64),
    FlushAll,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let addr = (0u64..64).prop_map(|l| l * 64 + (l % 7));
    prop_oneof![
        4 => addr.clone().prop_map(CacheOp::Lookup),
        4 => addr.clone().prop_map(CacheOp::Fill),
        1 => addr.prop_map(CacheOp::FlushLine),
        1 => Just(CacheOp::FlushAll),
    ]
}

/// Reference: same semantics, written as the obvious per-set LRU lists.
#[derive(Debug, Default)]
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }
    fn idx(&self, addr: u64) -> usize {
        ((addr / 64) as usize) % self.sets.len()
    }
    fn lookup(&mut self, addr: u64) -> bool {
        let line = addr & !63;
        let i = self.idx(addr);
        if let Some(p) = self.sets[i].iter().position(|&l| l == line) {
            let l = self.sets[i].remove(p);
            self.sets[i].insert(0, l);
            true
        } else {
            false
        }
    }
    fn fill(&mut self, addr: u64) {
        let line = addr & !63;
        let i = self.idx(addr);
        if let Some(p) = self.sets[i].iter().position(|&l| l == line) {
            self.sets[i].remove(p);
        } else if self.sets[i].len() == self.ways {
            self.sets[i].pop();
        }
        self.sets[i].insert(0, line);
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec(cache_op(), 1..200)) {
        let cfg = CacheConfig::new(4, 2, 1);
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(4, 2);
        for op in &ops {
            match op {
                CacheOp::Lookup(a) => {
                    prop_assert_eq!(dut.lookup(*a), reference.lookup(*a), "lookup({:#x})", a);
                }
                CacheOp::Fill(a) => {
                    dut.fill(*a);
                    reference.fill(*a);
                }
                CacheOp::FlushLine(a) => {
                    dut.flush_line(*a);
                    let line = *a & !63;
                    let i = reference.idx(*a);
                    reference.sets[i].retain(|&l| l != line);
                }
                CacheOp::FlushAll => {
                    dut.flush_all();
                    for s in &mut reference.sets {
                        s.clear();
                    }
                }
            }
            // Invariants: capacity respected, fingerprint matches.
            prop_assert!(dut.resident_lines() <= 8);
            let mut expect: Vec<u64> = reference.sets.iter().flatten().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(dut.fingerprint(), expect);
        }
    }

    #[test]
    fn tlb_capacity_and_presence(pages in prop::collection::vec(0u64..32, 1..100)) {
        let mut tlb = Tlb::new(TlbConfig::new(2, 2));
        let mut last_fill: HashMap<u64, usize> = HashMap::new();
        for (i, p) in pages.iter().enumerate() {
            tlb.fill(p * 4096, Pte::user_data(*p));
            last_fill.insert(*p, i);
            prop_assert!(tlb.resident_entries() <= 4);
            // The just-filled page is always present (MRU).
            prop_assert!(tlb.probe(p * 4096));
        }
        // Every resident entry maps to the right frame.
        for p in 0..32u64 {
            if tlb.probe(p * 4096) {
                prop_assert_eq!(tlb.lookup(p * 4096).unwrap().pte.frame, p);
            }
        }
    }

    #[test]
    fn paging_matches_flat_map(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..100)
    ) {
        // Random map/unmap of pages scattered across the radix levels.
        let mut aspace = AddressSpace::new();
        let mut flat: HashMap<u64, u64> = HashMap::new();
        for (i, (slot, map)) in ops.iter().enumerate() {
            // Spread slots across PML4/PDPT/PD/PT indices.
            let vaddr = (slot % 4) << 39 | (slot % 8) << 30 | (slot % 16) << 21 | slot << 12;
            if *map {
                aspace.map_page(vaddr, Pte::user_data(i as u64 + 1));
                flat.insert(vaddr >> 12, i as u64 + 1);
            } else {
                aspace.unmap_page(vaddr);
                flat.remove(&(vaddr >> 12));
            }
            prop_assert_eq!(aspace.mapped_pages(), flat.len());
        }
        for (vpn, frame) in &flat {
            prop_assert_eq!(aspace.translate(vpn << 12), Some(frame * 4096));
        }
    }

    #[test]
    fn walk_levels_bounded_and_consistent(slots in prop::collection::vec(0u64..64, 1..32)) {
        let mut aspace = AddressSpace::new();
        for s in &slots {
            aspace.map_page(0x4000_0000 + s * 4096, Pte::user_data(*s + 1));
        }
        for probe in 0..128u64 {
            let vaddr = 0x4000_0000 + probe * 4096;
            let (outcome, levels) = aspace.walk(vaddr);
            prop_assert!((1..=4).contains(&levels));
            prop_assert_eq!(outcome.is_mapped(), slots.contains(&probe));
            // A mapped walk always touches all four levels.
            if outcome.is_mapped() {
                prop_assert_eq!(levels, 4);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Page tables vs a reference on ordered maps: every query API, after
// every edit, over mapped, unmapped and half-populated addresses.
// ---------------------------------------------------------------------

/// Per-level index values the edits draw from. Few values per level, so
/// upper-level tables are shared and many leaves sit under populated
/// tables. The last value of each probe list is never mapped: probes
/// with it stop the walk at that level.
const PML4: [u64; 4] = [0, 1, 0x1ff, 5];
const PDPT: [u64; 3] = [0, 2, 9];
const PD: [u64; 3] = [0, 7, 11];
const PT: [u64; 4] = [0, 1, 2, 300];

fn radix_vaddr(i: [u64; 4], offset: u64) -> u64 {
    // Upper-half PML4 slots get the canonical sign extension.
    let sign = if i[0] >= 256 {
        0xffff_0000_0000_0000
    } else {
        0
    };
    sign | i[0] << 39 | i[1] << 30 | i[2] << 21 | i[3] << 12 | offset
}

/// An address among the edit targets (never the last probe value).
fn edit_vaddr() -> impl Strategy<Value = u64> {
    (0usize..3, 0usize..2, 0usize..2, 0usize..3)
        .prop_map(|(a, b, c, d)| radix_vaddr([PML4[a], PDPT[b], PD[c], PT[d]], 0))
}

fn any_pte() -> impl Strategy<Value = Pte> {
    prop_oneof![
        3 => (1u64..1000).prop_map(Pte::user_data),
        3 => (1u64..1000).prop_map(Pte::kernel),
        1 => Just(Pte::flare_dummy()),
        1 => (1u64..1000).prop_map(|f| Pte { present: false, ..Pte::user_data(f) }),
    ]
}

#[derive(Debug, Clone)]
enum PageOp {
    /// Maps (or remaps, if the page is already mapped) one page.
    Map(u64, Pte),
    Unmap(u64),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => (edit_vaddr(), any_pte()).prop_map(|(v, p)| PageOp::Map(v, p)),
        1 => edit_vaddr().prop_map(PageOp::Unmap),
    ]
}

/// Reference: leaves in a `BTreeMap` by page number, plus every table
/// prefix a map ever created (unmapping leaves the tables in place).
#[derive(Debug, Clone, Default)]
struct RefPaging {
    leaves: BTreeMap<u64, Pte>,
    tables: BTreeSet<(usize, u64)>,
}

impl RefPaging {
    fn indices(vaddr: u64) -> [u64; 4] {
        [39, 30, 21, 12].map(|s| (vaddr >> s) & 0x1ff)
    }

    /// Table prefix of `vaddr` below the root at `depth` (1..=4).
    fn prefix(vaddr: u64, depth: usize) -> (usize, u64) {
        let i = Self::indices(vaddr);
        (depth, i[..depth].iter().fold(0, |acc, x| acc << 9 | x))
    }

    fn map(&mut self, vaddr: u64, pte: Pte) {
        for depth in 1..=4 {
            self.tables.insert(Self::prefix(vaddr, depth));
        }
        self.leaves.insert(vaddr >> 12 & 0xf_ffff_ffff, pte);
    }

    fn unmap(&mut self, vaddr: u64) -> Option<Pte> {
        self.leaves.remove(&(vaddr >> 12 & 0xf_ffff_ffff))
    }

    fn walk(&self, vaddr: u64) -> (WalkOutcome, u8) {
        for depth in 1..=4 {
            if !self.tables.contains(&Self::prefix(vaddr, depth)) {
                let level = 5 - depth as u8;
                return (WalkOutcome::NotPresent { level }, depth as u8);
            }
        }
        match self.leaves.get(&(vaddr >> 12 & 0xf_ffff_ffff)) {
            Some(pte) if pte.reserved => (WalkOutcome::ReservedBit, 4),
            Some(pte) if pte.present => (WalkOutcome::Mapped(*pte), 4),
            _ => (WalkOutcome::NotPresent { level: 1 }, 4),
        }
    }

    fn translate(&self, vaddr: u64) -> Option<u64> {
        match self.walk(vaddr).0 {
            WalkOutcome::Mapped(pte) => Some(pte.frame * 4096 + (vaddr & 0xfff)),
            _ => None,
        }
    }

    fn pte(&self, vaddr: u64) -> Option<Pte> {
        match self.walk(vaddr).0 {
            WalkOutcome::Mapped(pte) => Some(pte),
            WalkOutcome::ReservedBit => self.leaves.get(&(vaddr >> 12 & 0xf_ffff_ffff)).copied(),
            WalkOutcome::NotPresent { .. } => None,
        }
    }
}

/// Checks every query API on every probe address against the reference.
fn assert_matches_reference(aspace: &AddressSpace, reference: &RefPaging, offset: u64) {
    assert_eq!(aspace.mapped_pages(), reference.leaves.len());
    for a in PML4 {
        for b in PDPT {
            for c in PD {
                for d in PT {
                    let vaddr = radix_vaddr([a, b, c, d], offset);
                    assert_eq!(aspace.walk(vaddr), reference.walk(vaddr), "walk {vaddr:#x}");
                    assert_eq!(
                        aspace.translate(vaddr),
                        reference.translate(vaddr),
                        "{vaddr:#x}"
                    );
                    assert_eq!(aspace.pte(vaddr), reference.pte(vaddr), "pte {vaddr:#x}");
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn paging_matches_ordered_map_reference(
        ops in prop::collection::vec(page_op(), 1..40),
        clone_at in 0usize..40,
        offset in 0u64..4096,
    ) {
        let mut aspace = AddressSpace::new();
        let mut reference = RefPaging::default();
        let mut frozen = None;
        for (step, op) in ops.iter().enumerate() {
            if step == clone_at {
                frozen = Some((aspace.clone(), reference.clone()));
            }
            match *op {
                PageOp::Map(vaddr, pte) => {
                    aspace.map_page(vaddr, pte);
                    reference.map(vaddr, pte);
                }
                PageOp::Unmap(vaddr) => {
                    prop_assert_eq!(aspace.unmap_page(vaddr), reference.unmap(vaddr));
                }
            }
            assert_matches_reference(&aspace, &reference, offset);
        }
        // A clone taken mid-sequence is unaffected by the later edits.
        if let Some((clone, reference)) = frozen {
            assert_matches_reference(&clone, &reference, offset);
        }
    }
}
