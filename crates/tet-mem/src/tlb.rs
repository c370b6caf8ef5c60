//! Translation lookaside buffers.
//!
//! Whether a *faulting* access installs a TLB entry is the root cause of
//! TET-KASLR: the paper observes (§4.5, Table 3) that Intel cores load
//! TLB entries for mapped kernel addresses even when the access lacks
//! permission, while unmapped addresses obviously cannot fill the TLB.
//! The fill policy lives in the CPU model; this module only provides the
//! structure.
//!
//! Like [`Cache`](crate::Cache), each set is a fixed `ways`-slot window
//! of flat entry/stamp arrays with a monotone recency tick (stamp 0 =
//! empty), plus a one-entry MRU filter for the repeated-page case — the
//! DTLB is consulted on every demand access and the same page dominates
//! warm loops. Observationally identical to the original per-set
//! MRU-first `Vec` lists (see the equivalence property test).
//!
//! Snapshot restore and `flush_all(false)` use the same journal/epoch
//! layer as [`Cache`](crate::Cache) (DESIGN.md §16): slot writes journal
//! themselves once per epoch, restore repairs O(slots touched), and a
//! full non-global flush is a single flush-epoch bump. The
//! `keep_global` flush stays an eager (journaled) scan — it must read
//! every entry's global bit, and TLBs are small.

use std::sync::Arc;

use crate::{same_seal, vpn, Pte};

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        TlbConfig { sets, ways }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// The cached leaf PTE (permissions are re-checked on every use).
    pub pte: Pte,
}

/// A set-associative TLB with LRU replacement.
///
/// # Examples
///
/// ```
/// use tet_mem::{Pte, Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::new(16, 4));
/// assert!(tlb.lookup(0xffff_ffff_8000_0000).is_none());
/// tlb.fill(0xffff_ffff_8000_0000, Pte::kernel(7));
/// assert!(tlb.lookup(0xffff_ffff_8000_0abc).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Cached translations, `ways` consecutive slots per set; a slot is
    /// live iff its stamp is non-zero (VPN 0 is a legal page).
    entries: Vec<TlbEntry>,
    /// LRU age stamps, parallel to `entries`; larger = more recent.
    stamps: Vec<u64>,
    /// Monotone recency clock.
    tick: u64,
    /// One-entry MRU filter: `(vpn, slot)` of the last hit/filled page.
    mru: Option<(u64, usize)>,
    hits: u64,
    misses: u64,
    /// Per-slot validity epoch: live iff `stamps[w] != 0` and
    /// `vepoch[w] == flush_epoch` (see [`Cache`](crate::Cache)).
    vepoch: Vec<u32>,
    flush_epoch: u32,
    /// Seal identity shared with clones; journals are only trusted
    /// across a shared seal.
    seal: Option<Arc<()>>,
    /// Journal epoch (0 = journaling off until first seal).
    epoch: u32,
    /// Per-slot journal stamps, deduplicating `journal`.
    jepoch: Vec<u32>,
    /// Slots written since the last seal/restore.
    journal: Vec<u32>,
    /// Rare-event escape hatch (epoch wrap): forces a full restore.
    full_dirty: bool,
}

const EMPTY: TlbEntry = TlbEntry {
    vpn: 0,
    pte: Pte {
        frame: 0,
        present: false,
        writable: false,
        user: false,
        global: false,
        reserved: false,
        nx: false,
    },
};

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            entries: vec![EMPTY; cfg.entries()],
            stamps: vec![0; cfg.entries()],
            tick: 0,
            mru: None,
            hits: 0,
            misses: 0,
            vepoch: vec![0; cfg.entries()],
            flush_epoch: 0,
            seal: None,
            epoch: 0,
            jepoch: vec![0; cfg.entries()],
            journal: Vec::new(),
            full_dirty: false,
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    #[inline]
    fn set_range(&self, page: u64) -> std::ops::Range<usize> {
        let set = (page as usize) & (self.cfg.sets - 1);
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether slot `w` holds a live entry (non-empty and not lazily
    /// invalidated by a later full flush).
    #[inline]
    fn valid(&self, w: usize) -> bool {
        self.stamps[w] != 0 && self.vepoch[w] == self.flush_epoch
    }

    /// Records slot `w` in the journal (once per epoch) ahead of a write.
    #[inline]
    fn touch(&mut self, w: usize) {
        if self.epoch != 0 && self.jepoch[w] != self.epoch {
            self.jepoch[w] = self.epoch;
            self.journal.push(w as u32);
        }
    }

    /// Starts a new journal epoch (wrap-safe, as in `Cache`).
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.jepoch.fill(0);
            self.epoch = 1;
        }
    }

    /// Looks up the translation for `vaddr`, updating LRU and statistics.
    pub fn lookup(&mut self, vaddr: u64) -> Option<TlbEntry> {
        let page = vpn(vaddr);
        // MRU fast path: the filter entry holds its set's max stamp, so
        // the recency refresh can be skipped without reordering anything.
        if let Some((mru_vpn, slot)) = self.mru {
            if mru_vpn == page {
                self.hits += 1;
                return Some(self.entries[slot]);
            }
        }
        let range = self.set_range(page);
        for w in range {
            if self.valid(w) && self.entries[w].vpn == page {
                self.touch(w);
                self.stamps[w] = self.next_stamp();
                self.mru = Some((page, w));
                self.hits += 1;
                return Some(self.entries[w]);
            }
        }
        self.misses += 1;
        None
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, vaddr: u64) -> bool {
        let page = vpn(vaddr);
        self.set_range(page)
            .any(|w| self.valid(w) && self.entries[w].vpn == page)
    }

    /// Installs a translation, evicting the set's LRU entry when full.
    pub fn fill(&mut self, vaddr: u64, pte: Pte) {
        let page = vpn(vaddr);
        let range = self.set_range(page);
        // Present: refresh the PTE and the recency in place.
        for w in range.clone() {
            if self.valid(w) && self.entries[w].vpn == page {
                self.touch(w);
                self.entries[w].pte = pte;
                self.stamps[w] = self.next_stamp();
                self.mru = Some((page, w));
                return;
            }
        }
        // Reuse an empty way, else overwrite the minimum-stamp (LRU) way.
        let mut victim = range.start;
        let mut victim_stamp = u64::MAX;
        for w in range {
            if !self.valid(w) {
                victim = w;
                break;
            }
            if self.stamps[w] < victim_stamp {
                victim_stamp = self.stamps[w];
                victim = w;
            }
        }
        // The victim may be the filter entry; re-arming on the filled
        // page covers both cases.
        self.touch(victim);
        self.entries[victim] = TlbEntry { vpn: page, pte };
        self.stamps[victim] = self.next_stamp();
        self.vepoch[victim] = self.flush_epoch;
        self.mru = Some((page, victim));
    }

    /// Invalidates the entry for `vaddr` (the `invlpg` primitive).
    pub fn flush_page(&mut self, vaddr: u64) -> bool {
        let page = vpn(vaddr);
        if matches!(self.mru, Some((p, _)) if p == page) {
            self.mru = None;
        }
        for w in self.set_range(page) {
            if self.valid(w) && self.entries[w].vpn == page {
                self.touch(w);
                self.stamps[w] = 0;
                return true;
            }
        }
        false
    }

    /// Full flush, optionally preserving global (kernel) entries — the
    /// semantics of a CR3 write without/with PCID-style global protection.
    pub fn flush_all(&mut self, keep_global: bool) {
        self.mru = None;
        if keep_global {
            // Must inspect every entry's global bit: stays an eager
            // (journaled) scan. TLBs are tens of entries, not thousands.
            for w in 0..self.stamps.len() {
                if self.valid(w) && !self.entries[w].pte.global {
                    self.touch(w);
                    self.stamps[w] = 0;
                }
            }
        } else {
            // O(1) lazy invalidation, as in `Cache::flush_all`.
            self.flush_epoch = self.flush_epoch.wrapping_add(1);
            if self.flush_epoch == 0 {
                self.stamps.fill(0);
                self.vepoch.fill(0);
                self.full_dirty = true;
            }
        }
    }

    /// Number of live entries.
    pub fn resident_entries(&self) -> usize {
        (0..self.stamps.len()).filter(|&w| self.valid(w)).count()
    }

    /// Sorted VPNs of live entries (stealth fingerprinting).
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (0..self.entries.len())
            .filter(|&w| self.valid(w))
            .map(|w| self.entries[w].vpn)
            .collect();
        v.sort_unstable();
        v
    }

    /// Lifetime `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of slots journaled since the last seal/restore.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Marks the current state as a snapshot point (see
    /// [`Cache::seal`](crate::Cache::seal)).
    pub fn seal(&mut self) {
        self.seal = Some(Arc::new(()));
        self.journal.clear();
        self.full_dirty = false;
        self.bump_epoch();
    }

    /// Rolls this TLB back to the state of `src`, a sealed snapshot:
    /// journal replay across a shared seal, otherwise a full copy that
    /// adopts the source's seal (the rule of
    /// [`Cache::restore`](crate::Cache::restore)).
    pub fn restore(&mut self, src: &Tlb) {
        let Tlb {
            cfg,
            entries,
            stamps,
            tick,
            mru,
            hits,
            misses,
            vepoch,
            flush_epoch,
            seal,
            epoch: _,
            jepoch: _,
            journal,
            full_dirty,
        } = src;
        if same_seal(&self.seal, seal) && !self.full_dirty {
            debug_assert!(
                journal.is_empty() && !full_dirty,
                "restore source must be a sealed, unmutated snapshot"
            );
            for i in 0..self.journal.len() {
                let w = self.journal[i] as usize;
                self.entries[w] = entries[w];
                self.stamps[w] = stamps[w];
                self.vepoch[w] = vepoch[w];
            }
        } else {
            debug_assert_eq!(self.cfg, *cfg, "restore across TLB geometries");
            self.cfg = *cfg;
            self.entries.clear();
            self.entries.extend_from_slice(entries);
            self.stamps.clear();
            self.stamps.extend_from_slice(stamps);
            self.vepoch.clear();
            self.vepoch.extend_from_slice(vepoch);
            self.seal.clone_from(seal);
            self.full_dirty = false;
        }
        self.journal.clear();
        self.bump_epoch();
        self.tick = *tick;
        self.mru = *mru;
        self.hits = *hits;
        self.misses = *misses;
        self.flush_epoch = *flush_epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb4() -> Tlb {
        Tlb::new(TlbConfig::new(1, 4))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tlb4();
        assert!(t.lookup(0x1000).is_none());
        t.fill(0x1000, Pte::user_data(1));
        assert_eq!(t.lookup(0x1fff).unwrap().pte.frame, 1);
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut t = tlb4();
        for p in 0..4u64 {
            t.fill(p * 4096, Pte::user_data(p));
        }
        // Touch page 0 → page 1 is now LRU.
        t.lookup(0);
        t.fill(4 * 4096, Pte::user_data(4));
        assert!(t.probe(0));
        assert!(!t.probe(4096));
    }

    #[test]
    fn refill_updates_pte() {
        let mut t = tlb4();
        t.fill(0x1000, Pte::user_data(1));
        t.fill(0x1000, Pte::user_data(2));
        assert_eq!(t.resident_entries(), 1);
        assert_eq!(t.lookup(0x1000).unwrap().pte.frame, 2);
    }

    #[test]
    fn flush_page_only_hits_target() {
        let mut t = tlb4();
        t.fill(0x1000, Pte::user_data(1));
        t.fill(0x2000, Pte::user_data(2));
        assert!(t.flush_page(0x1000));
        assert!(!t.flush_page(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn flush_all_keep_global_retains_kernel_entries() {
        let mut t = tlb4();
        t.fill(0x1000, Pte::user_data(1));
        t.fill(0xffff_ffff_8000_0000, Pte::kernel(2));
        t.flush_all(true);
        assert!(!t.probe(0x1000));
        assert!(t.probe(0xffff_ffff_8000_0000));
        t.flush_all(false);
        assert_eq!(t.resident_entries(), 0);
    }

    #[test]
    fn sets_partition_pages() {
        let mut t = Tlb::new(TlbConfig::new(2, 1));
        t.fill(0x0000, Pte::user_data(0)); // even page → set 0
        t.fill(0x1000, Pte::user_data(1)); // odd page → set 1
        assert_eq!(t.resident_entries(), 2);
        // A second even page evicts only the set-0 entry.
        t.fill(0x2000, Pte::user_data(2));
        assert!(!t.probe(0x0000));
        assert!(t.probe(0x1000));
    }

    #[test]
    fn fingerprint_sorted() {
        let mut t = tlb4();
        t.fill(0x3000, Pte::user_data(3));
        t.fill(0x1000, Pte::user_data(1));
        assert_eq!(t.fingerprint(), vec![1, 3]);
    }

    #[test]
    fn mru_filter_returns_refreshed_pte_and_respects_flush() {
        let mut t = tlb4();
        t.fill(0x1000, Pte::user_data(1));
        assert_eq!(t.lookup(0x1000).unwrap().pte.frame, 1);
        // A refill through the slow path must update what the filter
        // returns on the next fast-path hit.
        t.fill(0x1000, Pte::user_data(9));
        assert_eq!(t.lookup(0x1234).unwrap().pte.frame, 9);
        assert!(t.flush_page(0x1000));
        assert!(t.lookup(0x1000).is_none());
    }

    /// The original per-set MRU-first `Vec` implementation, kept verbatim
    /// as the equivalence oracle for the flat stamp representation.
    struct RefTlb {
        sets: Vec<Vec<TlbEntry>>,
        cfg: TlbConfig,
        hits: u64,
        misses: u64,
    }

    impl RefTlb {
        fn new(cfg: TlbConfig) -> Self {
            RefTlb {
                sets: vec![Vec::with_capacity(cfg.ways); cfg.sets],
                cfg,
                hits: 0,
                misses: 0,
            }
        }

        fn set_index(&self, page: u64) -> usize {
            (page as usize) & (self.cfg.sets - 1)
        }

        fn lookup(&mut self, vaddr: u64) -> Option<TlbEntry> {
            let page = vpn(vaddr);
            let idx = self.set_index(page);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|e| e.vpn == page) {
                let e = set.remove(pos);
                set.insert(0, e);
                self.hits += 1;
                Some(e)
            } else {
                self.misses += 1;
                None
            }
        }

        fn fill(&mut self, vaddr: u64, pte: Pte) {
            let page = vpn(vaddr);
            let idx = self.set_index(page);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|e| e.vpn == page) {
                set.remove(pos);
            } else if set.len() == self.cfg.ways {
                set.pop();
            }
            set.insert(0, TlbEntry { vpn: page, pte });
        }

        fn flush_page(&mut self, vaddr: u64) -> bool {
            let page = vpn(vaddr);
            let idx = self.set_index(page);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|e| e.vpn == page) {
                set.remove(pos);
                true
            } else {
                false
            }
        }

        fn flush_all(&mut self, keep_global: bool) {
            for set in &mut self.sets {
                if keep_global {
                    set.retain(|e| e.pte.global);
                } else {
                    set.clear();
                }
            }
        }

        fn fingerprint(&self) -> Vec<u64> {
            let mut v: Vec<u64> = self.sets.iter().flatten().map(|e| e.vpn).collect();
            v.sort_unstable();
            v
        }
    }

    #[test]
    fn flat_stamp_representation_matches_linear_reference() {
        let mut state = 0x853c49e6748fea9bu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways) in [(1usize, 1usize), (1, 4), (2, 2), (4, 3)] {
            let cfg = TlbConfig::new(sets, ways);
            let mut tlb = Tlb::new(cfg);
            let mut reference = RefTlb::new(cfg);
            let pages = (cfg.entries() * 2) as u64;
            for step in 0..40_000 {
                let r = rng();
                let vaddr = ((r >> 16) % pages) * 4096 + (r & 0xfff);
                match r % 16 {
                    0..=5 => {
                        assert_eq!(
                            tlb.lookup(vaddr),
                            reference.lookup(vaddr),
                            "lookup step {step} ({sets}x{ways})"
                        );
                    }
                    6..=10 => {
                        // Vary PTE contents (incl. the global bit) so
                        // keep_global flushes discriminate.
                        let mut pte = Pte::user_data(r >> 32);
                        pte.global = r & 0x1000 != 0;
                        tlb.fill(vaddr, pte);
                        reference.fill(vaddr, pte);
                    }
                    11..=12 => assert_eq!(
                        tlb.probe(vaddr),
                        reference.sets[reference.set_index(vpn(vaddr))]
                            .iter()
                            .any(|e| e.vpn == vpn(vaddr)),
                        "probe step {step}"
                    ),
                    13 => assert_eq!(
                        tlb.flush_page(vaddr),
                        reference.flush_page(vaddr),
                        "flush step {step}"
                    ),
                    _ => {
                        let keep = r & 1 == 0;
                        tlb.flush_all(keep);
                        reference.flush_all(keep);
                    }
                }
            }
            assert_eq!(tlb.fingerprint(), reference.fingerprint());
            assert_eq!(tlb.stats(), (reference.hits, reference.misses));
        }
    }

    /// A journal-replay restore must be indistinguishable from a clone of
    /// the snapshot, including across keep-global and full flushes.
    #[test]
    fn delta_restore_matches_exhaustive_restore() {
        let mut state = 0xd1b54a32d192ed03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways) in [(1usize, 4usize), (4, 4), (16, 4)] {
            let cfg = TlbConfig::new(sets, ways);
            let mut t = Tlb::new(cfg);
            let pages = (cfg.entries() * 2) as u64;
            for _ in 0..500 {
                let r = rng();
                let vaddr = ((r >> 16) % pages) * 4096;
                let mut pte = Pte::user_data(r >> 32);
                pte.global = r & 0x1000 != 0;
                t.fill(vaddr, pte);
            }
            t.seal();
            let snap = t.clone();
            for _ in 0..2_000 {
                let r = rng();
                let vaddr = ((r >> 16) % pages) * 4096 + (r & 0xfff);
                match r % 8 {
                    0..=3 => {
                        let mut pte = Pte::user_data(r >> 32);
                        pte.global = r & 0x1000 != 0;
                        t.fill(vaddr, pte);
                    }
                    4..=5 => {
                        t.lookup(vaddr);
                    }
                    6 => {
                        t.flush_page(vaddr);
                    }
                    _ => t.flush_all(r & 1 == 0),
                }
            }
            assert!(t.journal_len() > 0);
            t.restore(&snap);
            assert_eq!(t.journal_len(), 0);
            let mut reference = snap.clone();
            assert_eq!(t.fingerprint(), reference.fingerprint(), "{sets}x{ways}");
            assert_eq!(t.stats(), reference.stats());
            for step in 0..500 {
                let r = rng();
                let vaddr = ((r >> 16) % pages) * 4096 + (r & 0xfff);
                assert_eq!(t.lookup(vaddr), reference.lookup(vaddr), "post step {step}");
                let pte = Pte::user_data(r >> 32);
                t.fill(vaddr, pte);
                reference.fill(vaddr, pte);
            }
            assert_eq!(t.fingerprint(), reference.fingerprint());
        }
    }

    #[test]
    fn delta_restore_refuses_foreign_seals() {
        let cfg = TlbConfig::new(1, 4);
        let mut a = Tlb::new(cfg);
        a.fill(0x1000, Pte::user_data(1));
        a.seal();
        let mut b = Tlb::new(cfg);
        b.fill(0x2000, Pte::user_data(2));
        b.seal();
        a.fill(0x4000, Pte::user_data(4));
        // A foreign seal cannot be trusted: copy, and adopt the seal.
        a.restore(&b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(same_seal(&a.seal, &b.seal), "copy adopts the seal");
        // The next restore replays the journal.
        a.fill(0x3000, Pte::user_data(3));
        assert_eq!(a.journal_len(), 1);
        a.restore(&b);
        assert_eq!(a.journal_len(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
