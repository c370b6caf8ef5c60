//! Set-associative caches with LRU replacement and `clflush` support.
//!
//! # Representation
//!
//! `SetAssoc<P>`, the one set-associative array behind caches and TLBs,
//! maps a `u64` key whose low bits pick the set to a payload `P`: `()`
//! for a cache line keyed by line number, a [`Pte`](crate::Pte) for a
//! TLB entry keyed by VPN. [`Cache`] and [`Tlb`](crate::Tlb) are thin
//! address-to-key views over it.
//!
//! Each set is a fixed window of `ways` slots (key, payload, LRU age
//! stamp, validity epoch). Recency is a monotone per-array tick: a
//! touched way takes the next stamp, the victim is the first invalid way
//! or else the minimum-stamp way, and stamp `0` marks an empty slot.
//! This is observationally identical to the original per-set MRU-first
//! `Vec` lists (the equivalence property tests here and in `tlb.rs`
//! drive both against random traces).
//!
//! A one-entry MRU filter (the last key that hit or filled, with its
//! payload) short-cuts the repeated-key case of warm gadget loops: the
//! filter key holds its set's maximum stamp, so re-touching it skips
//! even the stamp update without reordering any set.
//!
//! # Copy-on-write chunks and delta restore (DESIGN.md §16, §19)
//!
//! The slots live in the crate's journaled copy-on-write table
//! (`cow.rs`), in chunks of `CHUNK_SETS` whole sets each, indexed
//! densely by set (no hash per access). A chunk that was never written is absent and reads as empty
//! (stamp 0 already means empty), so a new 8 MiB LLC costs a table of
//! null pointers, not megabytes of zeroes. Cloning, snapshotting and
//! forking a machine cost one reference-count bump per present chunk,
//! and the clone's writes never reach the snapshot. [`Cache::seal`]
//! seals the table, and [`Cache::restore`] repairs only the chunks
//! written since, copying the snapshot's slots into them in place.
//!
//! # O(1) flush
//!
//! A slot is *valid* iff its LRU stamp is non-zero **and** its validity
//! epoch matches the array-wide flush epoch, which turns
//! [`Cache::flush_all`] into a single counter bump with lazy
//! revalidation on next access instead of an O(slots) walk.

use crate::cow::CowTable;
use crate::LINE_SIZE;

/// Sets per chunk — the unit of lazy allocation, copy-on-write sharing
/// and restore journaling. Arrays with fewer sets use one chunk.
const CHUNK_SETS: usize = 4;

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

/// One way of one set.
#[derive(Debug, Clone, Copy, Default)]
struct Slot<P> {
    /// Resident key. Valid iff `stamp` is non-zero (key 0 is legal, so
    /// validity cannot live in the key).
    key: u64,
    /// LRU age stamp; larger = more recent, 0 = empty.
    stamp: u64,
    /// Validity epoch: the slot is live iff `stamp != 0` and
    /// `vepoch == flush_epoch`. `flush_all` bumps `flush_epoch`, lazily
    /// invalidating every slot in O(1).
    vepoch: u32,
    /// What the key maps to.
    payload: P,
}

/// A set-associative array of `key → payload` entries with LRU
/// replacement, copy-on-write chunks and a restore journal (see the
/// module docs). [`Cache`] and [`Tlb`](crate::Tlb) wrap one each.
#[derive(Debug, Clone)]
pub(crate) struct SetAssoc<P> {
    sets: usize,
    ways: usize,
    /// log2 of the sets per chunk: `CHUNK_SETS`, or every set of a
    /// smaller array.
    chunk_shift: u32,
    /// `ways` consecutive slots per set, `1 << chunk_shift` sets per
    /// chunk; an absent chunk has every slot empty.
    table: CowTable<Slot<P>>,
    /// Monotone recency clock (starts at 1 so 0 stays the empty marker).
    tick: u64,
    /// One-entry MRU filter: the last key that hit or filled, and its
    /// payload.
    mru: Option<(u64, P)>,
    hits: u64,
    misses: u64,
    flush_epoch: u32,
}

impl<P: Copy + Default> SetAssoc<P> {
    /// An empty array of `sets` (a power of two) × `ways` slots. No slot
    /// storage is allocated until a key is installed.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        let chunk_sets = CHUNK_SETS.min(sets);
        SetAssoc {
            sets,
            ways,
            chunk_shift: chunk_sets.trailing_zeros(),
            table: CowTable::new(sets / chunk_sets, chunk_sets * ways),
            tick: 0,
            mru: None,
            hits: 0,
            misses: 0,
            flush_epoch: 0,
        }
    }

    /// The chunk holding `key`'s set, and the offset of that set's first
    /// slot within the chunk.
    #[inline]
    fn locate(&self, key: u64) -> (usize, usize) {
        let set = (key as usize) & (self.sets - 1);
        let ci = set >> self.chunk_shift;
        let off = (set & ((1 << self.chunk_shift) - 1)) * self.ways;
        (ci, off)
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether `s` holds a live entry (non-empty and not lazily
    /// invalidated by a later `flush_all`).
    #[inline]
    fn live(&self, s: &Slot<P>) -> bool {
        s.stamp != 0 && s.vepoch == self.flush_epoch
    }

    /// The chunk-relative slot holding `key` in the set at `off` of
    /// chunk `ci`, if resident.
    #[inline]
    fn find(&self, ci: usize, off: usize, key: u64) -> Option<usize> {
        let chunk = self.table.get(ci)?;
        chunk[off..off + self.ways]
            .iter()
            .position(|s| self.live(s) && s.key == key)
            .map(|i| off + i)
    }

    /// Every live slot of every present chunk.
    fn live_slots(&self) -> impl Iterator<Item = &Slot<P>> {
        (0..self.table.len())
            .filter_map(|ci| self.table.get(ci))
            .flatten()
            .filter(|s| self.live(s))
    }

    /// Looks up `key`, updating LRU and hit/miss statistics. Returns its
    /// payload on a hit.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<P> {
        // MRU fast path: this key already holds its set's max stamp, so
        // skipping the stamp refresh preserves every relative order.
        if let Some((k, payload)) = self.mru {
            if k == key {
                self.hits += 1;
                return Some(payload);
            }
        }
        let (ci, off) = self.locate(key);
        let Some(w) = self.find(ci, off, key) else {
            self.misses += 1;
            return None;
        };
        let stamp = self.next_stamp();
        let slot = &mut self.table.get_mut(ci)[w];
        slot.stamp = stamp;
        let payload = slot.payload;
        self.mru = Some((key, payload));
        self.hits += 1;
        Some(payload)
    }

    /// Checks for presence without updating LRU or statistics.
    pub(crate) fn probe(&self, key: u64) -> bool {
        let (ci, off) = self.locate(key);
        self.find(ci, off, key).is_some()
    }

    /// Installs `key → payload`, evicting the LRU way if the set is full.
    /// A resident key has its payload and recency refreshed in place.
    /// Returns the evicted key, if any.
    pub(crate) fn fill(&mut self, key: u64, payload: P) -> Option<u64> {
        let (ci, off) = self.locate(key);
        let stamp = self.next_stamp();
        self.mru = Some((key, payload));
        if let Some(w) = self.find(ci, off, key) {
            let slot = &mut self.table.get_mut(ci)[w];
            slot.stamp = stamp;
            slot.payload = payload;
            return None;
        }
        let (ways, flush_epoch) = (self.ways, self.flush_epoch);
        let set = &mut self.table.get_mut(ci)[off..off + ways];
        // Reuse an empty way, else evict the minimum-stamp (LRU) way.
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        let mut evicted = None;
        for (i, s) in set.iter().enumerate() {
            if s.stamp == 0 || s.vepoch != flush_epoch {
                victim = i;
                evicted = None;
                break;
            }
            if s.stamp < victim_stamp {
                victim_stamp = s.stamp;
                victim = i;
                evicted = Some(s.key);
            }
        }
        set[victim] = Slot {
            key,
            stamp,
            vepoch: flush_epoch,
            payload,
        };
        evicted
    }

    /// Removes `key`. Returns whether it was present.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        if matches!(self.mru, Some((k, _)) if k == key) {
            self.mru = None;
        }
        let (ci, off) = self.locate(key);
        match self.find(ci, off, key) {
            Some(w) => {
                self.table.get_mut(ci)[w].stamp = 0;
                true
            }
            None => false,
        }
    }

    /// Empties the array: a single flush-epoch bump — every slot's
    /// validity epoch goes stale and the slot reads as empty until the
    /// next fill revalidates it (DESIGN.md §16).
    pub(crate) fn flush_all(&mut self) {
        self.mru = None;
        self.flush_epoch = self.flush_epoch.wrapping_add(1);
        if self.flush_epoch == 0 {
            // Counter wrap (once per 2^32 flushes): drop every chunk so
            // no stale slot can alias the recycled epoch; the unjournaled
            // bulk write forces a full restore.
            self.table.clear();
        }
    }

    /// Removes every entry whose payload fails `keep`: an eager scan
    /// that writes, and so journals, only the chunks holding a victim.
    pub(crate) fn retain(&mut self, keep: impl Fn(&P) -> bool) {
        self.mru = None;
        let epoch = self.flush_epoch;
        let victim = move |s: &Slot<P>| s.stamp != 0 && s.vepoch == epoch && !keep(&s.payload);
        for ci in 0..self.table.len() {
            if self.table.get(ci).is_some_and(|c| c.iter().any(&victim)) {
                for s in self.table.get_mut(ci) {
                    if victim(s) {
                        s.stamp = 0;
                    }
                }
            }
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live_slots().count()
    }

    /// The sorted keys of live entries. Two arrays' key lists differ iff
    /// their resident sets differ.
    pub(crate) fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.live_slots().map(|s| s.key).collect();
        keys.sort_unstable();
        keys
    }

    /// Lifetime `(hits, misses)` counts.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of chunks journaled since the last seal/restore.
    pub(crate) fn journal_len(&self) -> usize {
        self.table.journal_len()
    }

    /// Whether this array and `other` derive from the same seal.
    #[cfg(test)]
    pub(crate) fn shares_seal(&self, other: &Self) -> bool {
        self.table.shares_seal(&other.table)
    }

    /// Marks the current state as a snapshot point (see [`Cache::seal`]).
    pub(crate) fn seal(&mut self) {
        self.table.seal();
    }

    /// Rolls this array back to `src`, a sealed snapshot (see
    /// [`Cache::restore`]).
    pub(crate) fn restore(&mut self, src: &Self) {
        let SetAssoc {
            sets,
            ways,
            chunk_shift,
            table,
            tick,
            mru,
            hits,
            misses,
            flush_epoch,
        } = src;
        debug_assert_eq!(
            (self.sets, self.ways),
            (*sets, *ways),
            "restore across geometries"
        );
        self.sets = *sets;
        self.ways = *ways;
        self.chunk_shift = *chunk_shift;
        self.table.restore(table);
        self.tick = *tick;
        self.mru = *mru;
        self.hits = *hits;
        self.misses = *misses;
        self.flush_epoch = *flush_epoch;
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
    /// Resident lines, keyed by line number (`addr / LINE_SIZE`).
    array: SetAssoc<()>,
}

impl Cache {
    /// Creates an empty cache with the given geometry. No slot storage
    /// is allocated until a line is installed.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            array: SetAssoc::new(cfg.sets, cfg.ways),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Looks up the line containing `addr`, updating LRU and hit/miss
    /// statistics. Returns `true` on hit.
    pub fn lookup(&mut self, addr: u64) -> bool {
        self.array.lookup(addr / LINE_SIZE).is_some()
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        self.array.probe(addr / LINE_SIZE)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the
    /// set is full. Returns the evicted line address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.array
            .fill(addr / LINE_SIZE, ())
            .map(|line| line * LINE_SIZE)
    }

    /// Removes the line containing `addr` (the `clflush` primitive).
    /// Returns whether the line was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        self.array.remove(addr / LINE_SIZE)
    }

    /// Empties the cache: a single flush-epoch bump — every slot's
    /// validity epoch goes stale and the slot reads as empty until the
    /// next fill revalidates it (DESIGN.md §16).
    pub fn flush_all(&mut self) {
        self.array.flush_all();
    }

    /// Number of resident lines (stealth experiments diff this across an
    /// attack to show TET leaves no footprint — Table 1's *stateless*).
    pub fn resident_lines(&self) -> usize {
        self.array.len()
    }

    /// A stable fingerprint of cache contents: the sorted list of resident
    /// line addresses. Two fingerprints differ iff the cache state differs.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut lines = self.array.sorted_keys();
        lines.iter_mut().for_each(|line| *line *= LINE_SIZE);
        lines
    }

    /// Lifetime `(hits, misses)` counts.
    pub fn stats(&self) -> (u64, u64) {
        self.array.stats()
    }

    /// Number of chunks journaled since the last seal/restore.
    pub fn journal_len(&self) -> usize {
        self.array.journal_len()
    }

    /// Marks the current state as a snapshot point: clones taken now
    /// share this seal (and every chunk), and every later chunk write
    /// journals itself so [`Cache::restore`] can repair in O(chunks
    /// touched).
    pub fn seal(&mut self) {
        self.array.seal();
    }

    /// Rolls this cache back to the state of `src`, a sealed snapshot.
    /// Across a shared seal only the journaled chunks are repaired, in
    /// O(chunks touched): a chunk this cache holds alone gets the
    /// snapshot's slots copied into it, any other re-points at the
    /// snapshot's. Otherwise (a foreign or unsealed source, or an epoch
    /// wrap that left this cache full-dirty) the whole chunk table is
    /// cloned and the source's seal is adopted, so the next restore
    /// replays the journal.
    pub fn restore(&mut self, src: &Cache) {
        self.cfg = src.cfg;
        self.array.restore(&src.array);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_addr;

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
    #[derive(Clone)]
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

        fn probe(&self, addr: u64) -> bool {
            self.sets[self.set_index(addr)].contains(&line_addr(addr))
        }

        fn flush_all(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }

        fn fingerprint(&self) -> Vec<u64> {
            let mut lines: Vec<u64> = self.sets.iter().flatten().copied().collect();
            lines.sort_unstable();
            lines
        }
    }

    /// The i7-7700's LLC: 8192 sets × 16 ways, 2048 chunks.
    const LLC: (usize, usize) = (8192, 16);

    /// Geometries below one chunk (1×4, 2×2), a few chunks, and the LLC.
    const GEOMETRIES: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 2), (4, 8), (8, 3), LLC];

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// An address from random bits: one of `2 × ways` lines in one of at
    /// most 64 sets, spread evenly over the cache so a large geometry
    /// sees hits, evictions and flushes in as many distinct chunks.
    fn spread_addr(cfg: CacheConfig, r: u64) -> u64 {
        let spread = cfg.sets.min(64);
        let set = ((r >> 16) as usize % spread) * (cfg.sets / spread);
        let tag = (r >> 32) % (2 * cfg.ways as u64);
        (tag * cfg.sets as u64 + set as u64) * LINE_SIZE + (r >> 8) % LINE_SIZE
    }

    /// Applies one random operation (picked by `r`) at `addr` to both
    /// caches and asserts they agree on its result.
    fn step_both(cache: &mut Cache, reference: &mut RefCache, r: u64, addr: u64, ctx: &str) {
        match r % 16 {
            0..=5 => assert_eq!(cache.lookup(addr), reference.lookup(addr), "lookup {ctx}"),
            6..=10 => assert_eq!(cache.fill(addr), reference.fill(addr), "fill {ctx}"),
            11..=12 => assert_eq!(cache.probe(addr), reference.probe(addr), "probe {ctx}"),
            13..=14 => assert_eq!(
                cache.flush_line(addr),
                reference.flush_line(addr),
                "flush {ctx}"
            ),
            _ => {
                cache.flush_all();
                reference.flush_all();
            }
        }
    }

    #[test]
    fn flat_stamp_representation_matches_linear_reference() {
        // xorshift-driven op mix over a small address space so every set
        // sees hits, evictions, flushes and full flushes many times.
        let mut rng = xorshift(0x2545f4914f6cdd1d);
        for (sets, ways) in GEOMETRIES {
            let cfg = CacheConfig::new(sets, ways, 1);
            let mut cache = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            for step in 0..40_000 {
                let r = rng();
                let addr = spread_addr(cfg, r);
                step_both(
                    &mut cache,
                    &mut reference,
                    r,
                    addr,
                    &format!("step {step} ({sets}x{ways})"),
                );
                // Every step on small caches; a fingerprint walks all
                // 2048 chunks of the LLC, so sample it there.
                if sets <= 64 || step % 512 == 0 {
                    debug_assert_eq!(cache.fingerprint(), reference.fingerprint());
                }
            }
            assert_eq!(cache.fingerprint(), reference.fingerprint());
            assert_eq!(cache.stats(), (reference.hits, reference.misses));
        }
    }

    /// Copy-on-write isolation: a sealed cache and its clone, driven by
    /// interleaved random operations, each match their own copy of the
    /// linear reference, and neither moves the snapshot they share.
    #[test]
    fn cow_clones_stay_isolated_from_each_other_and_the_snapshot() {
        let mut rng = xorshift(0xd1b54a32d192ed03);
        for (sets, ways) in GEOMETRIES {
            let cfg = CacheConfig::new(sets, ways, 1);
            let mut a = Cache::new(cfg);
            let mut ref_a = RefCache::new(cfg);
            for _ in 0..4 * sets.min(64) * ways {
                let addr = spread_addr(cfg, rng());
                assert_eq!(a.fill(addr), ref_a.fill(addr));
            }
            a.seal();
            let snap = a.clone();
            let snap_fp = snap.fingerprint();
            let mut b = a.clone();
            let mut ref_b = ref_a.clone();
            for step in 0..20_000 {
                let r = rng();
                let addr = spread_addr(cfg, r >> 1);
                let (cache, reference, side) = if r & 1 == 0 {
                    (&mut a, &mut ref_a, "sealed")
                } else {
                    (&mut b, &mut ref_b, "clone")
                };
                step_both(
                    cache,
                    reference,
                    r >> 1,
                    addr,
                    &format!("{side} step {step} ({sets}x{ways})"),
                );
                if sets <= 64 || step % 512 == 0 {
                    assert_eq!(a.fingerprint(), ref_a.fingerprint(), "sealed step {step}");
                    assert_eq!(b.fingerprint(), ref_b.fingerprint(), "clone step {step}");
                    assert_eq!(snap.fingerprint(), snap_fp, "snapshot moved at step {step}");
                }
            }
            assert_eq!(a.stats(), (ref_a.hits, ref_a.misses));
            assert_eq!(b.stats(), (ref_b.hits, ref_b.misses));
            assert_eq!(snap.fingerprint(), snap_fp, "{sets}x{ways}");
            // Both sides still restore to the untouched snapshot.
            a.restore(&snap);
            b.restore(&snap);
            assert_eq!(a.fingerprint(), snap_fp);
            assert_eq!(b.fingerprint(), snap_fp);
        }
    }

    /// A journal-replay restore must leave the cache indistinguishable
    /// from a clone of the snapshot: same fingerprint, stats, and future
    /// behavior.
    #[test]
    fn delta_restore_matches_exhaustive_restore() {
        let mut rng = xorshift(0x9e3779b97f4a7c15);
        for (sets, ways) in [(1usize, 4usize), (2, 2), (8, 4), (16, 16), LLC] {
            let cfg = CacheConfig::new(sets, ways, 1);
            let mut c = Cache::new(cfg);
            for _ in 0..500 {
                let r = rng();
                let addr = spread_addr(cfg, r);
                if r.is_multiple_of(2) {
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
                let addr = spread_addr(cfg, r);
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
            // The exhaustive path: an unsealed cache restores by copying
            // the whole chunk table.
            let mut exhaustive = Cache::new(cfg);
            exhaustive.fill(spread_addr(cfg, rng()));
            exhaustive.restore(&snap);
            let mut reference = snap.clone();
            for other in [&exhaustive, &reference] {
                assert_eq!(c.fingerprint(), other.fingerprint(), "{sets}x{ways}");
                assert_eq!(c.stats(), other.stats());
                assert_eq!(c.array.tick, other.array.tick);
            }
            // Future behavior must also agree (LRU order fully restored).
            for step in 0..500 {
                let r = rng();
                let addr = spread_addr(cfg, r);
                let fill = c.fill(addr);
                assert_eq!(fill, reference.fill(addr), "post step {step}");
                assert_eq!(fill, exhaustive.fill(addr), "post step {step}");
                let hit = c.lookup(addr);
                assert_eq!(hit, reference.lookup(addr), "post step {step}");
                assert_eq!(hit, exhaustive.lookup(addr), "post step {step}");
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
        assert!(a.array.shares_seal(&b.array), "copy adopts the seal");
        assert_eq!(a.journal_len(), 0);
        // The next restore replays the journal.
        a.fill(128);
        assert_eq!(a.journal_len(), 1);
        a.restore(&b);
        assert_eq!(a.journal_len(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
