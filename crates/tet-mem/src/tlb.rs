//! Translation lookaside buffers.
//!
//! Whether a *faulting* access installs a TLB entry is the root cause of
//! TET-KASLR: the paper observes (§4.5, Table 3) that Intel cores load
//! TLB entries for mapped kernel addresses even when the access lacks
//! permission, while unmapped addresses obviously cannot fill the TLB.
//! The fill policy lives in the CPU model; this module only provides the
//! structure.
//!
//! A [`Tlb`] is a thin view over the set-associative array behind
//! [`Cache`](crate::Cache) (see the `cache` module docs), keyed by VPN
//! with the leaf [`Pte`] as payload. It inherits the array's stamp LRU,
//! the MRU filter for the repeated-page case (the DTLB is consulted on
//! every demand access and the same page dominates warm loops), the
//! copy-on-write chunks of DESIGN.md §19 and the seal/journal/restore
//! layer and O(1) `flush_all(false)` of DESIGN.md §16. The
//! `keep_global` flush stays an eager scan — it must read every entry's
//! global bit — that journals only the chunks holding a non-global
//! entry. Observationally identical to the original per-set MRU-first
//! `Vec` lists (see the equivalence property test).

use crate::cache::SetAssoc;
use crate::{vpn, Pte};

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
    /// Cached leaf PTEs, keyed by VPN.
    array: SetAssoc<Pte>,
}

impl Tlb {
    /// Creates an empty TLB. No entry storage is allocated until a
    /// translation is installed.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            array: SetAssoc::new(cfg.sets, cfg.ways),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Looks up the translation for `vaddr`, updating LRU and statistics.
    pub fn lookup(&mut self, vaddr: u64) -> Option<TlbEntry> {
        let vpn = vpn(vaddr);
        self.array.lookup(vpn).map(|pte| TlbEntry { vpn, pte })
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, vaddr: u64) -> bool {
        self.array.probe(vpn(vaddr))
    }

    /// Installs a translation, evicting the set's LRU entry when full. A
    /// resident page has its PTE and recency refreshed in place.
    pub fn fill(&mut self, vaddr: u64, pte: Pte) {
        self.array.fill(vpn(vaddr), pte);
    }

    /// Invalidates the entry for `vaddr` (the `invlpg` primitive).
    pub fn flush_page(&mut self, vaddr: u64) -> bool {
        self.array.remove(vpn(vaddr))
    }

    /// Full flush, optionally preserving global (kernel) entries — the
    /// semantics of a CR3 write without/with PCID-style global protection.
    pub fn flush_all(&mut self, keep_global: bool) {
        if keep_global {
            self.array.retain(|pte| pte.global);
        } else {
            self.array.flush_all();
        }
    }

    /// Number of live entries.
    pub fn resident_entries(&self) -> usize {
        self.array.len()
    }

    /// Sorted VPNs of live entries (stealth fingerprinting).
    pub fn fingerprint(&self) -> Vec<u64> {
        self.array.sorted_keys()
    }

    /// Lifetime `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        self.array.stats()
    }

    /// Number of chunks journaled since the last seal/restore.
    pub fn journal_len(&self) -> usize {
        self.array.journal_len()
    }

    /// Marks the current state as a snapshot point (see
    /// [`Cache::seal`](crate::Cache::seal)).
    pub fn seal(&mut self) {
        self.array.seal();
    }

    /// Rolls this TLB back to the state of `src`, a sealed snapshot:
    /// journal replay across a shared seal, otherwise a full copy that
    /// adopts the source's seal (the rule of
    /// [`Cache::restore`](crate::Cache::restore)).
    pub fn restore(&mut self, src: &Tlb) {
        self.cfg = src.cfg;
        self.array.restore(&src.array);
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
    #[derive(Clone)]
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

    /// Applies one random operation (picked by `r`) at `vaddr` to both
    /// TLBs and asserts they agree on its result.
    fn step_both(tlb: &mut Tlb, reference: &mut RefTlb, r: u64, vaddr: u64, ctx: &str) {
        match r % 16 {
            0..=5 => {
                assert_eq!(tlb.lookup(vaddr), reference.lookup(vaddr), "lookup {ctx}");
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
                "probe {ctx}"
            ),
            13 => assert_eq!(
                tlb.flush_page(vaddr),
                reference.flush_page(vaddr),
                "flush {ctx}"
            ),
            _ => {
                let keep = r & 1 == 0;
                tlb.flush_all(keep);
                reference.flush_all(keep);
            }
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
        // One-chunk geometries, and the DTLB's four chunks.
        for (sets, ways) in [(1usize, 1usize), (1, 4), (2, 2), (4, 3), (16, 4)] {
            let cfg = TlbConfig::new(sets, ways);
            let mut tlb = Tlb::new(cfg);
            let mut reference = RefTlb::new(cfg);
            let pages = (cfg.entries() * 2) as u64;
            let vaddr = |r: u64| ((r >> 16) % pages) * 4096 + (r & 0xfff);
            for step in 0..40_000 {
                let r = rng();
                let ctx = format!("step {step} ({sets}x{ways})");
                step_both(&mut tlb, &mut reference, r, vaddr(r), &ctx);
            }
            assert_eq!(tlb.fingerprint(), reference.fingerprint());
            assert_eq!(tlb.stats(), (reference.hits, reference.misses));

            // Copy-on-write isolation: a sealed TLB and its clone, driven
            // by interleaved random operations (full and keep-global
            // flushes included), each match their own reference, and
            // neither moves the snapshot they share.
            for _ in 0..2 * cfg.entries() {
                let r = rng();
                step_both(&mut tlb, &mut reference, r & !0xf | 6, vaddr(r), "prefill");
            }
            tlb.seal();
            let snap = tlb.clone();
            let snap_fp = snap.fingerprint();
            let mut clone = tlb.clone();
            let mut ref_clone = reference.clone();
            let ref_snap = reference.clone();
            for step in 0..20_000 {
                let r = rng();
                let (t, rf, side) = if r & 1 == 0 {
                    (&mut tlb, &mut reference, "sealed")
                } else {
                    (&mut clone, &mut ref_clone, "clone")
                };
                // Now and then restore a side, so short journals, some
                // written only by a flush, get replayed too.
                if (r >> 40) % 32 == 0 {
                    t.restore(&snap);
                    *rf = ref_snap.clone();
                }
                let ctx = format!("{side} step {step} ({sets}x{ways})");
                step_both(t, rf, r >> 1, vaddr(r >> 1), &ctx);
                assert_eq!(tlb.fingerprint(), reference.fingerprint(), "sealed {step}");
                assert_eq!(clone.fingerprint(), ref_clone.fingerprint(), "clone {step}");
                assert_eq!(snap.fingerprint(), snap_fp, "snapshot moved at step {step}");
            }
            assert_eq!(tlb.stats(), (reference.hits, reference.misses));
            assert_eq!(clone.stats(), (ref_clone.hits, ref_clone.misses));
            // Both sides still restore to the untouched snapshot.
            tlb.restore(&snap);
            clone.restore(&snap);
            assert_eq!(tlb.fingerprint(), snap_fp);
            assert_eq!(clone.fingerprint(), snap_fp);
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
        assert!(a.array.shares_seal(&b.array), "copy adopts the seal");
        // The next restore replays the journal.
        a.fill(0x3000, Pte::user_data(3));
        assert_eq!(a.journal_len(), 1);
        a.restore(&b);
        assert_eq!(a.journal_len(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
