//! Set-associative caches with LRU replacement and `clflush` support.
//!
//! # Representation
//!
//! Each set is a fixed window of `ways` slots in two flat arrays (tags
//! and LRU age stamps) — one allocation per array for the whole cache,
//! instead of the original per-set `Vec` MRU lists. Recency is tracked
//! with a monotone per-cache tick: a touched way takes the next stamp,
//! the LRU victim is the minimum-stamp way, and stamp `0` marks an empty
//! slot. This is observationally identical to the MRU-first list (the
//! equivalence property test below drives both against random traces)
//! while making lookup a branch-light scan of `ways` contiguous tags, and
//! it removes the `sets`-sized allocation storm an LLC paid on every
//! `Machine` construction or scenario clone.
//!
//! A one-entry MRU filter (the last line that hit or filled) short-cuts
//! the repeated-line case that dominates warm gadget loops: the filter
//! line necessarily holds its set's maximum stamp, so re-touching it can
//! skip even the stamp update without reordering any set.
//!
//! # Delta restore and O(1) flush (DESIGN.md §16)
//!
//! Snapshot restore used to memcpy every tag/stamp array (2 MiB for a
//! skylake-class LLC) per forked trial. [`Cache::seal`] starts a journal
//! epoch: every slot write records its index once per epoch (deduplicated
//! by a per-slot journal stamp), so [`Cache::restore`] repairs only
//! the slots touched since the seal. A slot is *valid* iff its LRU stamp
//! is non-zero **and** its validity epoch matches the cache-wide flush
//! epoch, which turns [`Cache::flush_all`] into a single counter bump with
//! lazy revalidation on next access instead of an O(slots) `fill(0)`.

use std::sync::Arc;

use crate::{line_addr, same_seal, LINE_SIZE};

/// Geometry and latency of one cache level.
///
/// # Examples
///
/// ```
/// use tet_mem::CacheConfig;
///
/// let l1 = CacheConfig::new(64, 8, 4); // 32 KiB, 4-cycle
/// assert_eq!(l1.capacity_bytes(), 32 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Hit latency contribution in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or `ways` is zero.
    pub fn new(sets: usize, ways: usize, latency: u64) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        CacheConfig {
            sets,
            ways,
            latency,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_SIZE as usize
    }
}

/// One level of set-associative cache, tracking line presence (tags only —
/// data lives in [`PhysMem`](crate::PhysMem), which is always coherent in
/// this single-socket model).
///
/// `lookup` returns hit/miss and updates LRU; `fill` installs a line.
///
/// # Examples
///
/// ```
/// use tet_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(2, 2, 4));
/// assert!(!c.lookup(0x40));
/// c.fill(0x40);
/// assert!(c.lookup(0x40));
/// c.flush_line(0x40);
/// assert!(!c.lookup(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Resident line addresses, `ways` consecutive slots per set. Valid
    /// iff the matching stamp is non-zero (line address 0 is legal, so
    /// validity cannot live in the tag).
    tags: Vec<u64>,
    /// LRU age stamps, parallel to `tags`; larger = more recent, 0 = empty.
    stamps: Vec<u64>,
    /// Monotone recency clock (starts at 1 so 0 stays the empty marker).
    tick: u64,
    /// One-entry MRU filter: the last line that hit or filled.
    mru: Option<u64>,
    hits: u64,
    misses: u64,
    /// Per-slot validity epoch: a slot is live iff `stamps[w] != 0` and
    /// `vepoch[w] == flush_epoch`. `flush_all` bumps `flush_epoch`, lazily
    /// invalidating every slot in O(1).
    vepoch: Vec<u32>,
    flush_epoch: u32,
    /// Identity of the seal this cache (and any clone of it) derives
    /// from; `restore` only trusts journals across a shared seal.
    seal: Option<Arc<()>>,
    /// Journal epoch: 0 = journaling off (never sealed). A slot is
    /// already journaled this epoch iff `jepoch[w] == epoch`.
    epoch: u32,
    /// Per-slot journal stamps, deduplicating `journal`.
    jepoch: Vec<u32>,
    /// Slots written since the last seal/restore.
    journal: Vec<u32>,
    /// Set when a rare event (epoch counter wrap) mutated slots without
    /// journaling; forces the next restore down the exhaustive path.
    full_dirty: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            tags: vec![0; cfg.sets * cfg.ways],
            stamps: vec![0; cfg.sets * cfg.ways],
            tick: 0,
            mru: None,
            hits: 0,
            misses: 0,
            vepoch: vec![0; cfg.sets * cfg.ways],
            flush_epoch: 0,
            seal: None,
            epoch: 0,
            jepoch: vec![0; cfg.sets * cfg.ways],
            journal: Vec::new(),
            full_dirty: false,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = ((line / LINE_SIZE) as usize) & (self.cfg.sets - 1);
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether slot `w` holds a live line (non-empty and not lazily
    /// invalidated by a later `flush_all`).
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

    /// Starts a new journal epoch; wraps reset the per-slot stamps so a
    /// recycled epoch value can never alias a stale journal mark.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.jepoch.fill(0);
            self.epoch = 1;
        }
    }

    /// Looks up the line containing `addr`, updating LRU and hit/miss
    /// statistics. Returns `true` on hit.
    pub fn lookup(&mut self, addr: u64) -> bool {
        let line = line_addr(addr);
        // MRU fast path: this line already holds its set's max stamp, so
        // skipping the stamp refresh preserves every relative order.
        if self.mru == Some(line) {
            self.hits += 1;
            return true;
        }
        let range = self.set_range(line);
        for w in range {
            if self.valid(w) && self.tags[w] == line {
                self.touch(w);
                self.stamps[w] = self.next_stamp();
                self.mru = Some(line);
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line = line_addr(addr);
        self.set_range(line)
            .any(|w| self.valid(w) && self.tags[w] == line)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the
    /// set is full. Returns the evicted line address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = line_addr(addr);
        let range = self.set_range(line);
        // Present: refresh recency only.
        for w in range.clone() {
            if self.valid(w) && self.tags[w] == line {
                self.touch(w);
                self.stamps[w] = self.next_stamp();
                self.mru = Some(line);
                return None;
            }
        }
        // Reuse an empty way, else evict the minimum-stamp (LRU) way.
        let mut victim = range.start;
        let mut victim_stamp = u64::MAX;
        let mut evicted = None;
        for w in range {
            if !self.valid(w) {
                victim = w;
                evicted = None;
                break;
            }
            if self.stamps[w] < victim_stamp {
                victim_stamp = self.stamps[w];
                victim = w;
                evicted = Some(self.tags[w]);
            }
        }
        self.touch(victim);
        self.tags[victim] = line;
        self.stamps[victim] = self.next_stamp();
        self.vepoch[victim] = self.flush_epoch;
        self.mru = Some(line);
        evicted
    }

    /// Removes the line containing `addr` (the `clflush` primitive).
    /// Returns whether the line was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let line = line_addr(addr);
        if self.mru == Some(line) {
            self.mru = None;
        }
        for w in self.set_range(line) {
            if self.valid(w) && self.tags[w] == line {
                self.touch(w);
                self.stamps[w] = 0;
                return true;
            }
        }
        false
    }

    /// Empties the cache: a single flush-epoch bump — every slot's
    /// validity epoch goes stale and the slot reads as empty until the
    /// next fill revalidates it (DESIGN.md §16).
    pub fn flush_all(&mut self) {
        self.mru = None;
        self.flush_epoch = self.flush_epoch.wrapping_add(1);
        if self.flush_epoch == 0 {
            // Counter wrap (once per 2^32 flushes): materialize emptiness
            // eagerly; the unjournaled bulk write forces a full restore.
            self.stamps.fill(0);
            self.vepoch.fill(0);
            self.full_dirty = true;
        }
    }

    /// Number of resident lines (stealth experiments diff this across an
    /// attack to show TET leaves no footprint — Table 1's *stateless*).
    pub fn resident_lines(&self) -> usize {
        (0..self.stamps.len()).filter(|&w| self.valid(w)).count()
    }

    /// A stable fingerprint of cache contents: the sorted list of resident
    /// line addresses. Two fingerprints differ iff the cache state differs.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = (0..self.tags.len())
            .filter(|&w| self.valid(w))
            .map(|w| self.tags[w])
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Lifetime `(hits, misses)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of slots journaled since the last seal/restore.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Marks the current state as a snapshot point: clones taken now
    /// share this seal, and every later slot write journals itself so
    /// [`Cache::restore`] can repair in O(slots touched).
    pub fn seal(&mut self) {
        self.seal = Some(Arc::new(()));
        self.journal.clear();
        self.full_dirty = false;
        self.bump_epoch();
    }

    /// Rolls this cache back to the state of `src`, a sealed snapshot,
    /// reusing the flat tag/stamp allocations. Across a shared seal only
    /// the journaled slots are repaired, in O(slots touched). Otherwise
    /// (a foreign or unsealed source, or an epoch wrap that left this
    /// cache full-dirty) every array is copied and the source's seal is
    /// adopted, so the next restore replays the journal.
    pub fn restore(&mut self, src: &Cache) {
        let Cache {
            cfg,
            tags,
            stamps,
            tick,
            mru,
            hits,
            misses,
            vepoch,
            flush_epoch,
            seal,
            // Journal bookkeeping is this cache's own; it restarts below.
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
                self.tags[w] = tags[w];
                self.stamps[w] = stamps[w];
                self.vepoch[w] = vepoch[w];
            }
        } else {
            debug_assert_eq!(self.cfg, *cfg, "restore across cache geometries");
            self.cfg = *cfg;
            self.tags.clear();
            self.tags.extend_from_slice(tags);
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

    fn tiny() -> Cache {
        Cache::new(CacheConfig::new(2, 2, 1))
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheConfig::new(3, 2, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // All map to set 0 (multiples of 2 lines * 64B = 128).
        c.fill(0);
        c.fill(128);
        // Touch 0 so 128 becomes LRU.
        assert!(c.lookup(0));
        let evicted = c.fill(256);
        assert_eq!(evicted, Some(128));
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(0);
        c.fill(0);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = tiny();
        c.fill(0x47);
        assert!(c.probe(0x40));
        assert!(c.probe(0x7f));
        assert!(!c.probe(0x80));
    }

    #[test]
    fn flush_line_and_all() {
        let mut c = tiny();
        c.fill(0);
        c.fill(64);
        assert!(c.flush_line(0));
        assert!(!c.flush_line(0));
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        c.lookup(0);
        c.fill(0);
        c.lookup(0);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        c.fill(0);
        c.fill(128);
        // probe(0) must NOT move 0 to MRU.
        assert!(c.probe(0));
        let evicted = c.fill(256);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn fingerprint_detects_state_change() {
        let mut c = tiny();
        c.fill(0);
        let f1 = c.fingerprint();
        c.fill(64);
        let f2 = c.fingerprint();
        assert_ne!(f1, f2);
        assert_eq!(f2, vec![0, 64]);
    }

    #[test]
    fn mru_filter_hit_counts_and_survives_flush() {
        let mut c = tiny();
        c.fill(0);
        assert!(c.lookup(0)); // slow-path hit arms the filter
        assert!(c.lookup(0)); // filter hit
        assert_eq!(c.stats(), (2, 0));
        assert!(c.flush_line(0)); // must disarm the filter
        assert!(!c.lookup(0));
    }

    /// The original per-set MRU-first `Vec` implementation, kept verbatim
    /// as the equivalence oracle for the flat stamp representation.
    struct RefCache {
        sets: Vec<Vec<u64>>,
        cfg: CacheConfig,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            RefCache {
                sets: vec![Vec::with_capacity(cfg.ways); cfg.sets],
                cfg,
                hits: 0,
                misses: 0,
            }
        }

        fn set_index(&self, addr: u64) -> usize {
            ((line_addr(addr) / LINE_SIZE) as usize) & (self.cfg.sets - 1)
        }

        fn lookup(&mut self, addr: u64) -> bool {
            let line = line_addr(addr);
            let idx = self.set_index(addr);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn fill(&mut self, addr: u64) -> Option<u64> {
            let line = line_addr(addr);
            let idx = self.set_index(addr);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                return None;
            }
            let evicted = if set.len() == self.cfg.ways {
                set.pop()
            } else {
                None
            };
            set.insert(0, line);
            evicted
        }

        fn flush_line(&mut self, addr: u64) -> bool {
            let line = line_addr(addr);
            let idx = self.set_index(addr);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                true
            } else {
                false
            }
        }

        fn fingerprint(&self) -> Vec<u64> {
            let mut lines: Vec<u64> = self.sets.iter().flatten().copied().collect();
            lines.sort_unstable();
            lines
        }
    }

    #[test]
    fn flat_stamp_representation_matches_linear_reference() {
        // xorshift-driven op mix over a small address space so every set
        // sees hits, evictions, flushes and full flushes many times.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways) in [(1usize, 1usize), (2, 2), (4, 8), (8, 3)] {
            let cfg = CacheConfig::new(sets, ways, 1);
            let mut cache = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            for step in 0..40_000 {
                let r = rng();
                let addr = (r >> 16) % (sets as u64 * ways as u64 * 2 * LINE_SIZE);
                match r % 16 {
                    0..=5 => assert_eq!(
                        cache.lookup(addr),
                        reference.lookup(addr),
                        "lookup step {step} ({sets}x{ways})"
                    ),
                    6..=10 => assert_eq!(
                        cache.fill(addr),
                        reference.fill(addr),
                        "fill step {step} ({sets}x{ways})"
                    ),
                    11..=12 => assert_eq!(
                        cache.probe(addr),
                        reference.sets[reference.set_index(addr)].contains(&line_addr(addr)),
                        "probe step {step} ({sets}x{ways})"
                    ),
                    13..=14 => assert_eq!(
                        cache.flush_line(addr),
                        reference.flush_line(addr),
                        "flush step {step} ({sets}x{ways})"
                    ),
                    _ => {
                        cache.flush_all();
                        for set in &mut reference.sets {
                            set.clear();
                        }
                    }
                }
                debug_assert_eq!(cache.fingerprint(), reference.fingerprint());
            }
            assert_eq!(cache.fingerprint(), reference.fingerprint());
            assert_eq!(cache.stats(), (reference.hits, reference.misses));
        }
    }

    /// A journal-replay restore must leave the cache indistinguishable
    /// from a clone of the snapshot: same fingerprint, stats, and future
    /// behavior.
    #[test]
    fn delta_restore_matches_exhaustive_restore() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways) in [(2usize, 2usize), (8, 4), (16, 16)] {
            let cfg = CacheConfig::new(sets, ways, 1);
            let mut c = Cache::new(cfg);
            for _ in 0..500 {
                let r = rng();
                let addr = (r >> 16) % (sets as u64 * ways as u64 * 2 * LINE_SIZE);
                if r % 2 == 0 {
                    c.fill(addr);
                } else {
                    c.lookup(addr);
                }
            }
            c.seal();
            let snap = c.clone();
            // Churn, including whole-cache flushes.
            for _ in 0..2_000 {
                let r = rng();
                let addr = (r >> 16) % (sets as u64 * ways as u64 * 2 * LINE_SIZE);
                match r % 8 {
                    0..=3 => {
                        c.fill(addr);
                    }
                    4..=5 => {
                        c.lookup(addr);
                    }
                    6 => {
                        c.flush_line(addr);
                    }
                    _ => c.flush_all(),
                }
            }
            assert!(c.journal_len() > 0);
            c.restore(&snap);
            assert_eq!(c.journal_len(), 0);
            let mut reference = snap.clone();
            assert_eq!(c.fingerprint(), reference.fingerprint(), "{sets}x{ways}");
            assert_eq!(c.stats(), reference.stats());
            assert_eq!(c.tick, reference.tick);
            // Future behavior must also agree (LRU order fully restored).
            for step in 0..500 {
                let r = rng();
                let addr = (r >> 16) % (sets as u64 * ways as u64 * 2 * LINE_SIZE);
                assert_eq!(c.fill(addr), reference.fill(addr), "post step {step}");
                assert_eq!(c.lookup(addr), reference.lookup(addr), "post step {step}");
            }
        }
    }

    #[test]
    fn flush_all_is_an_epoch_bump_and_stays_journal_bounded() {
        let mut c = Cache::new(CacheConfig::new(64, 8, 1));
        for i in 0..512u64 {
            c.fill(i * LINE_SIZE);
        }
        c.seal();
        let snap = c.clone();
        let journaled_before = c.journal_len();
        c.flush_all();
        assert_eq!(c.resident_lines(), 0, "flush must read as empty");
        assert_eq!(
            c.journal_len(),
            journaled_before,
            "flush_all must not journal any slot"
        );
        c.fill(3 * LINE_SIZE);
        assert_eq!(c.resident_lines(), 1);
        assert!(c.journal_len() <= 2);
        c.restore(&snap);
        assert_eq!(c.fingerprint(), snap.fingerprint());
        assert_eq!(c.resident_lines(), 512);
    }

    #[test]
    fn delta_restore_refuses_foreign_seals() {
        let cfg = CacheConfig::new(2, 2, 1);
        let mut a = Cache::new(cfg);
        a.fill(0);
        a.seal();
        let mut b = Cache::new(cfg);
        b.fill(64);
        b.seal();
        a.fill(256);
        // A foreign seal cannot be trusted: copy, and adopt the seal.
        a.restore(&b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(same_seal(&a.seal, &b.seal), "copy adopts the seal");
        assert_eq!(a.journal_len(), 0);
        // The next restore replays the journal.
        a.fill(128);
        assert_eq!(a.journal_len(), 1);
        a.restore(&b);
        assert_eq!(a.journal_len(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
