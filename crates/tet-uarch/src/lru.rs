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
//! A snapshot restore copies the arena and the direct map into this
//! index's own allocations (DESIGN.md §16): both hold only the keys a
//! program has used, so a copy costs less than tracking each write.

#[derive(Debug, Clone, Copy)]
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
}

impl<V: Copy> LruIndex<V> {
    /// Creates an empty index holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        LruIndex {
            slots: Vec::new(),
            index: Vec::new(),
            clock: 0,
            capacity,
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

    /// `key`'s value without perturbing recency.
    pub(crate) fn peek(&self, key: usize) -> Option<V> {
        self.slot_of(key).map(|s| self.slots[s].val)
    }

    /// [`LruIndex::get_refresh`] that also says whether the hit
    /// reordered the entries: a hit on the most recently used entry
    /// leaves the order (and its stamp) as it is.
    pub(crate) fn get_refresh_reordering(&mut self, key: usize) -> Option<(V, bool)> {
        let s = self.slot_of(key)?;
        let reorders = self.slots[s].stamp + 1 != self.clock;
        if reorders {
            self.stamp(s);
        }
        Some((self.slots[s].val, reorders))
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
            self.index[old_key] = 0;
            self.slots[victim] = slot;
            victim
        } else {
            let s = self.slots.len();
            self.slots.push(slot);
            s
        };
        if key >= self.index.len() {
            self.index.resize(key + 1, 0);
        }
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

    /// Rolls this index back to the state of `src` by copying its
    /// arena, direct map and clock into this index's allocations. The
    /// clock travels with the stamps, so restored and future stamps
    /// order exactly as in `src`.
    pub(crate) fn restore(&mut self, src: &LruIndex<V>) {
        let LruIndex {
            slots,
            index,
            clock,
            capacity,
        } = src;
        self.slots.clear();
        self.slots.extend_from_slice(slots);
        self.index.clear();
        self.index.extend_from_slice(index);
        self.clock = *clock;
        self.capacity = *capacity;
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

        /// snapshot → churn with evictions → restore leaves the recency
        /// order *and* the stamp clock of a clone of the snapshot, and
        /// both then behave identically.
        #[test]
        fn restore_after_churn_reproduces_snapshot(
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
            let snap = lru.clone();
            let snap_list = reference.list.clone();
            for op in &churn {
                step(&mut lru, &mut reference, op);
            }
            // However the churn went, end it with a full turnover: keys
            // outside the op key space evict every snapshot entry.
            for k in 1000..=1000 + capacity {
                lru.insert(k, 0);
                reference.insert(k, 0);
            }
            prop_assert!(lru.iter().eq(reference.list.iter().copied()));
            lru.restore(&snap);
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

    /// A restore must reproduce the exact recency order and future
    /// behavior of a clone of the snapshot.
    #[test]
    fn restore_reproduces_snapshot_order_and_behavior() {
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
            lru.restore(&snap);
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

    /// Restoring from an index with an unrelated history copies it,
    /// and a second restore after more churn copies it again.
    #[test]
    fn restore_from_unrelated_index_copies_it() {
        let mut a = LruIndex::new(4);
        a.insert(1, 10u64);
        let mut b = LruIndex::new(4);
        b.insert(2, 20u64);
        a.insert(4, 40);
        a.restore(&b);
        let got: Vec<(usize, u64)> = a.iter().collect();
        assert_eq!(got, vec![(2, 20)]);
        a.insert(3, 30);
        a.insert(7, 70);
        a.restore(&b);
        let got: Vec<(usize, u64)> = a.iter().collect();
        assert_eq!(got, vec![(2, 20)]);
        assert_eq!(a.clock, b.clock);
        assert!(!a.probe(1) && !a.probe(3) && !a.probe(7));
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
