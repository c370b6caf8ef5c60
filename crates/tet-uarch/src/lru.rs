//! An exact-LRU index over small integer keys.
//!
//! The DSB ([`crate::frontend::Dsb`]) and the BTB ([`crate::Bpu`]) are
//! fully-associative MRU-first lists; the original implementations kept a
//! `VecDeque` and paid an O(n) position scan per fetch-time lookup. This
//! replaces the scan with a direct-mapped slot table (keys are small
//! instruction indices) and orders recency by a per-slot last-use
//! stamp drawn from a monotone clock. A hit is one stamp write; an
//! insert of a present key re-stamps it; a full insert evicts the slot
//! with the smallest stamp. Stamps are unique, so that slot is exactly
//! the back of the list the `VecDeque` version kept: replacement
//! decisions — and therefore every predicted target and every
//! DSB-vs-MITE fetch — are identical to the linear version. The
//! equivalence property tests here and in `frontend.rs` and `bpu.rs`
//! drive both representations with the same traces.
//!
//! Eviction scans the slots (O(capacity)). It only happens when a new
//! key arrives at a full index; keys are instruction indices and the
//! configured capacities (1536 DSB entries, 512 BTB entries) exceed the
//! attack programs' sizes, so the scan is off the hot path.
//!
//! For snapshot forks the index carries the same journal/epoch layer as
//! the caches (DESIGN.md §16): every slot or direct-map write journals
//! its position once per epoch, so [`LruIndex::restore`] repairs
//! O(entries touched) instead of re-cloning the arena.

use std::sync::Arc;

#[derive(Debug, Clone)]
struct LruSlot<V> {
    key: usize,
    val: V,
    /// Clock value at the slot's last use (larger = more recent).
    stamp: u64,
}

/// An exact-LRU map from small `usize` keys to values, with O(1)
/// refreshing lookup, deduplicating insert and least-recent eviction.
#[derive(Debug, Clone)]
pub(crate) struct LruIndex<V> {
    /// Live entries; a slot's index is stable until it is evicted and
    /// reused by the next insert.
    slots: Vec<LruSlot<V>>,
    /// Direct map: `key -> slot + 1` (0 = absent). Grows to the largest
    /// key seen; keys are instruction indices, so this stays small.
    index: Vec<u32>,
    /// The next stamp to hand out.
    clock: u64,
    capacity: usize,
    /// Seal identity shared with clones (delta restore trust anchor).
    seal: Option<Arc<()>>,
    /// Journal epoch: 0 = journaling off (never sealed).
    epoch: u32,
    /// Per-arena-slot journal stamps, parallel to `slots`.
    jslot: Vec<u32>,
    /// Per-key journal stamps, parallel to `index`.
    jkey: Vec<u32>,
    /// Arena slots written since the last seal/restore.
    journal_slots: Vec<u32>,
    /// Direct-map keys written since the last seal/restore.
    journal_keys: Vec<u32>,
}

impl<V: Copy> LruIndex<V> {
    /// Creates an empty index holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        LruIndex {
            slots: Vec::with_capacity(capacity),
            index: Vec::new(),
            clock: 0,
            capacity,
            seal: None,
            epoch: 0,
            jslot: Vec::with_capacity(capacity),
            jkey: Vec::new(),
            journal_slots: Vec::new(),
            journal_keys: Vec::new(),
        }
    }

    /// Records arena slot `s` in the journal (once per epoch).
    #[inline]
    fn touch_slot(&mut self, s: usize) {
        if self.epoch != 0 && self.jslot[s] != self.epoch {
            self.jslot[s] = self.epoch;
            self.journal_slots.push(s as u32);
        }
    }

    /// Records direct-map key `k` in the journal (once per epoch).
    #[inline]
    fn touch_key(&mut self, k: usize) {
        if self.epoch != 0 && self.jkey[k] != self.epoch {
            self.jkey[k] = self.epoch;
            self.journal_keys.push(k as u32);
        }
    }

    /// Starts a new journal epoch (wrap-safe).
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.jslot.fill(0);
            self.jkey.fill(0);
            self.epoch = 1;
        }
    }

    /// Live entry count.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot_of(&self, key: usize) -> Option<usize> {
        match self.index.get(key) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Marks slot `s` most recently used.
    #[inline]
    fn stamp(&mut self, s: usize) {
        self.touch_slot(s);
        self.slots[s].stamp = self.clock;
        self.clock += 1;
    }

    /// Looks `key` up; on a hit makes it the most recently used entry
    /// and returns its value.
    pub(crate) fn get_refresh(&mut self, key: usize) -> Option<V> {
        let s = self.slot_of(key)?;
        self.stamp(s);
        Some(self.slots[s].val)
    }

    /// Presence check without perturbing recency.
    pub(crate) fn probe(&self, key: usize) -> bool {
        self.slot_of(key).is_some()
    }

    /// Inserts `key` as the most recently used entry. A present key is
    /// re-stamped with the new value; at capacity the least recently
    /// used entry is evicted first — exactly the dedup-then-evict order
    /// of the `VecDeque` versions. Returns the value `key` held before,
    /// if it was present.
    pub(crate) fn insert(&mut self, key: usize, val: V) -> Option<V> {
        if let Some(s) = self.slot_of(key) {
            let old = std::mem::replace(&mut self.slots[s].val, val);
            self.stamp(s);
            return Some(old);
        }
        let slot = LruSlot {
            key,
            val,
            stamp: self.clock,
        };
        self.clock += 1;
        let s = if self.slots.len() == self.capacity {
            let (victim, old_key) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(s, slot)| (s, slot.key))
                .expect("non-zero capacity");
            self.touch_key(old_key);
            self.index[old_key] = 0;
            self.touch_slot(victim);
            self.slots[victim] = slot;
            victim
        } else {
            let s = self.slots.len();
            self.slots.push(slot);
            self.jslot.push(0);
            self.touch_slot(s);
            s
        };
        if key >= self.index.len() {
            self.index.resize(key + 1, 0);
            self.jkey.resize(key + 1, 0);
        }
        self.touch_key(key);
        self.index[key] = s as u32 + 1;
        None
    }

    /// Entries front (MRU) to back (LRU) — the same order the `VecDeque`
    /// representations exposed. Sorts a copy: for fingerprints and
    /// tests, never on the fetch path.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, V)> + '_ {
        let mut by_recency: Vec<&LruSlot<V>> = self.slots.iter().collect();
        by_recency.sort_unstable_by_key(|slot| std::cmp::Reverse(slot.stamp));
        by_recency.into_iter().map(|slot| (slot.key, slot.val))
    }

    /// Marks the current state as a snapshot point: clones share this
    /// seal and later writes journal themselves (DESIGN.md §16).
    pub(crate) fn seal(&mut self) {
        self.seal = Some(Arc::new(()));
        self.journal_slots.clear();
        self.journal_keys.clear();
        self.bump_epoch();
    }

    /// Whether this index and `src` share a snapshot seal, i.e. whether
    /// [`LruIndex::restore`] will replay the journal.
    pub(crate) fn shares_seal(&self, src: &LruIndex<V>) -> bool {
        tet_mem::same_seal(&self.seal, &src.seal)
    }

    /// Rolls this index back to the state of `src`, a sealed snapshot,
    /// reusing the arena and direct-map allocations. Across a shared
    /// seal the arena and direct map (which only grow within an epoch)
    /// truncate back to the source's lengths and only journaled
    /// positions below that boundary are repaired. Otherwise everything
    /// is copied and the source's seal is adopted, so the next restore
    /// replays the journal. The clock is copied either way, so restored
    /// stamps and future stamps order exactly as in `src`.
    pub(crate) fn restore(&mut self, src: &LruIndex<V>) {
        let LruIndex {
            slots,
            index,
            clock,
            capacity,
            seal,
            // Journal bookkeeping is this index's own; it restarts below.
            epoch: _,
            jslot: _,
            jkey: _,
            journal_slots,
            journal_keys,
        } = src;
        if self.shares_seal(src) {
            debug_assert!(
                journal_slots.is_empty() && journal_keys.is_empty(),
                "restore source must be a sealed, unmutated snapshot"
            );
            debug_assert!(self.slots.len() >= slots.len(), "arena never shrinks");
            self.slots.truncate(slots.len());
            self.jslot.truncate(slots.len());
            for i in 0..self.journal_slots.len() {
                let s = self.journal_slots[i] as usize;
                if s < slots.len() {
                    self.slots[s] = slots[s].clone();
                }
            }
            self.index.truncate(index.len());
            self.jkey.truncate(index.len());
            for i in 0..self.journal_keys.len() {
                let k = self.journal_keys[i] as usize;
                if k < index.len() {
                    self.index[k] = index[k];
                }
            }
        } else {
            self.slots.clone_from(slots);
            self.index.clear();
            self.index.extend_from_slice(index);
            self.seal.clone_from(seal);
            self.jslot.resize(slots.len(), 0);
            self.jkey.resize(index.len(), 0);
        }
        self.clock = *clock;
        self.capacity = *capacity;
        self.journal_slots.clear();
        self.journal_keys.clear();
        self.bump_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The original linear representation, kept as the test oracle.
    struct RefLru {
        list: VecDeque<(usize, u64)>,
        capacity: usize,
    }

    impl RefLru {
        fn get_refresh(&mut self, key: usize) -> Option<u64> {
            let i = self.list.iter().position(|&(k, _)| k == key)?;
            let e = self.list.remove(i).unwrap();
            self.list.push_front(e);
            Some(e.1)
        }

        fn insert(&mut self, key: usize, val: u64) {
            if let Some(i) = self.list.iter().position(|&(k, _)| k == key) {
                self.list.remove(i);
            } else if self.list.len() == self.capacity {
                self.list.pop_back();
            }
            self.list.push_front((key, val));
        }
    }

    /// One operation; keys are reduced modulo `capacity + 3` when
    /// applied, so an insert of an absent key at capacity (an eviction)
    /// comes every few operations.
    #[derive(Debug, Clone)]
    enum Op {
        Get(usize),
        Insert(usize, u64),
        Probe(usize),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                2 => (0usize..64).prop_map(Op::Get),
                3 => (0usize..64, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
                1 => (0usize..64).prop_map(Op::Probe),
            ],
            1..200,
        )
    }

    /// Applies `op` to both representations, checking every answer and
    /// the full recency order.
    fn step(lru: &mut LruIndex<u64>, reference: &mut RefLru, op: &Op) {
        let keys = reference.capacity + 3;
        match *op {
            Op::Get(k) => assert_eq!(lru.get_refresh(k % keys), reference.get_refresh(k % keys)),
            Op::Insert(k, v) => {
                lru.insert(k % keys, v);
                reference.insert(k % keys, v);
            }
            Op::Probe(k) => assert_eq!(
                lru.probe(k % keys),
                reference.list.iter().any(|&(r, _)| r == k % keys)
            ),
        }
        assert_eq!(lru.len(), reference.list.len());
        assert!(lru.iter().eq(reference.list.iter().copied()));
    }

    proptest! {
        /// Min-stamp eviction picks the linear list's tail, at
        /// capacities where most inserts evict.
        #[test]
        fn stamp_order_matches_reference_under_constant_eviction(
            capacity in 1usize..9,
            ops in ops(),
        ) {
            let mut lru = LruIndex::new(capacity);
            let mut reference = RefLru { list: VecDeque::new(), capacity };
            for op in &ops {
                step(&mut lru, &mut reference, op);
            }
        }

        /// seal → churn with evictions → journal-replay restore leaves
        /// the recency order *and* the stamp clock of a clone of the
        /// snapshot, and both then behave identically.
        #[test]
        fn seal_churn_restore_matches_snapshot_clone(
            capacity in 1usize..9,
            warm in ops(),
            churn in ops(),
            after in ops(),
        ) {
            let mut lru = LruIndex::new(capacity);
            let mut reference = RefLru { list: VecDeque::new(), capacity };
            for op in &warm {
                step(&mut lru, &mut reference, op);
            }
            lru.seal();
            let snap = lru.clone();
            let snap_list = reference.list.clone();
            for op in &churn {
                step(&mut lru, &mut reference, op);
            }
            // However the churn went, end it with a full turnover: keys
            // outside the op key space evict every sealed entry.
            for k in 1000..=1000 + capacity {
                lru.insert(k, 0);
                reference.insert(k, 0);
            }
            prop_assert!(lru.iter().eq(reference.list.iter().copied()));
            prop_assert!(lru.shares_seal(&snap));
            lru.restore(&snap);
            prop_assert!(lru.journal_slots.is_empty() && lru.journal_keys.is_empty());
            prop_assert_eq!(lru.clock, snap.clock);
            prop_assert!(lru.iter().eq(snap.iter()));
            prop_assert!(lru.iter().eq(snap_list.iter().copied()));
            let mut twin = snap.clone();
            for op in &after {
                match *op {
                    Op::Get(k) => prop_assert_eq!(lru.get_refresh(k), twin.get_refresh(k)),
                    Op::Insert(k, v) => {
                        lru.insert(k, v);
                        twin.insert(k, v);
                    }
                    Op::Probe(k) => prop_assert_eq!(lru.probe(k), twin.probe(k)),
                }
                prop_assert_eq!(lru.clock, twin.clock);
                prop_assert!(lru.iter().eq(twin.iter()));
            }
        }
    }

    #[test]
    fn matches_linear_reference_on_random_traces() {
        // xorshift-driven op mix over a small key space so capacity
        // eviction and re-fronting both trigger constantly.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 7, 32] {
            let mut lru = LruIndex::new(capacity);
            let mut reference = RefLru {
                list: VecDeque::new(),
                capacity,
            };
            for step in 0..20_000 {
                let r = rng();
                let key = (r >> 8) as usize % 48;
                match r % 3 {
                    0 => assert_eq!(
                        lru.get_refresh(key),
                        reference.get_refresh(key),
                        "step {step} cap {capacity}"
                    ),
                    1 => {
                        let val = r >> 32;
                        lru.insert(key, val);
                        reference.insert(key, val);
                    }
                    _ => assert_eq!(
                        lru.probe(key),
                        reference.list.iter().any(|&(k, _)| k == key)
                    ),
                }
                assert_eq!(lru.len(), reference.list.len());
            }
            let got: Vec<(usize, u64)> = lru.iter().collect();
            let want: Vec<(usize, u64)> = reference.list.iter().copied().collect();
            assert_eq!(got, want, "final order, cap {capacity}");
        }
    }

    /// A journal-replay restore must reproduce the exact recency order
    /// and future behavior of a clone of the snapshot.
    #[test]
    fn delta_restore_matches_exhaustive_restore() {
        let mut state = 0xc3a5c85c97cb3127u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 7, 32] {
            let mut lru = LruIndex::new(capacity);
            for _ in 0..200 {
                let r = rng();
                lru.insert((r >> 8) as usize % 48, r >> 32);
            }
            lru.seal();
            let snap = lru.clone();
            for _ in 0..3_000 {
                let r = rng();
                let key = (r >> 8) as usize % 48;
                match r % 3 {
                    0 => {
                        lru.get_refresh(key);
                    }
                    1 => {
                        lru.insert(key, r >> 32);
                    }
                    _ => {
                        lru.probe(key);
                    }
                }
            }
            assert!(lru.shares_seal(&snap));
            lru.restore(&snap);
            assert!(lru.journal_slots.is_empty() && lru.journal_keys.is_empty());
            let mut reference = snap.clone();
            let d: Vec<(usize, u64)> = lru.iter().collect();
            let s: Vec<(usize, u64)> = reference.iter().collect();
            assert_eq!(d, s, "cap {capacity}");
            assert_eq!(lru.len(), reference.len());
            // Future behavior must agree too (free list, arena reuse).
            for step in 0..1_000 {
                let r = rng();
                let key = (r >> 8) as usize % 48;
                if r % 2 == 0 {
                    lru.insert(key, r >> 32);
                    reference.insert(key, r >> 32);
                } else {
                    assert_eq!(
                        lru.get_refresh(key),
                        reference.get_refresh(key),
                        "post step {step}"
                    );
                }
            }
            let d: Vec<(usize, u64)> = lru.iter().collect();
            let s: Vec<(usize, u64)> = reference.iter().collect();
            assert_eq!(d, s, "post churn, cap {capacity}");
        }
    }

    #[test]
    fn delta_restore_refuses_foreign_seals() {
        let mut a = LruIndex::new(4);
        a.insert(1, 10u64);
        a.seal();
        let mut b = LruIndex::new(4);
        b.insert(2, 20u64);
        b.seal();
        a.insert(4, 40);
        // A foreign seal cannot be trusted: copy, and adopt the seal.
        assert!(!a.shares_seal(&b));
        a.restore(&b);
        assert!(a.shares_seal(&b), "copy adopts the seal");
        let got: Vec<(usize, u64)> = a.iter().collect();
        assert_eq!(got, vec![(2, 20)]);
        // The next restore replays the journal.
        a.insert(3, 30);
        assert!(!a.journal_slots.is_empty());
        a.restore(&b);
        assert!(a.journal_slots.is_empty() && a.journal_keys.is_empty());
        let got: Vec<(usize, u64)> = a.iter().collect();
        assert_eq!(got, vec![(2, 20)]);
    }

    #[test]
    fn capacity_one_always_holds_last_insert() {
        let mut lru = LruIndex::new(1);
        lru.insert(3, 30u64);
        lru.insert(4, 40);
        assert!(!lru.probe(3));
        assert_eq!(lru.get_refresh(4), Some(40));
        assert_eq!(lru.len(), 1);
    }
}
