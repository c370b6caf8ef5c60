//! Frontend data structures: the decoded stream buffer (µop cache) and
//! the fetched-µop record. The DSB holds only the pcs a program fetched,
//! so a snapshot restore copies it (DESIGN.md §16).

use crate::lru::LruIndex;

/// The decoded stream buffer (DSB, a.k.a. µop cache): an LRU set of
/// instruction indices whose decoded µops are available without engaging
/// the legacy MITE decoder.
///
/// The paper's frontend analysis (Table 3, Figure 3) shows DSB delivery
/// dropping and MITE delivery rising when the in-window Jcc triggers a
/// resteer; this structure plus the fetch logic reproduce that shift.
///
/// The DSB is consulted once per fetched instruction, so recency is kept
/// in an [`LruIndex`] (O(1) lookups) rather than the original `VecDeque`
/// position scan; the recency/eviction order is exactly the same (see
/// the equivalence property test below).
#[derive(Debug, Clone)]
pub struct Dsb {
    lru: LruIndex<()>,
}

impl Dsb {
    /// Creates a DSB caching up to `capacity` decoded instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "DSB needs capacity");
        Dsb {
            lru: LruIndex::new(capacity),
        }
    }

    /// Looks up a decoded instruction, refreshing LRU on hit.
    pub fn lookup(&mut self, pc: usize) -> bool {
        self.lru.get_refresh(pc).is_some()
    }

    /// Inserts a freshly decoded instruction.
    pub fn insert(&mut self, pc: usize) {
        self.lru.insert(pc, ());
    }

    /// Number of cached decoded instructions.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the DSB is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// Rolls this DSB back to the state of `src` by copying it into
    /// this DSB's allocations.
    pub fn restore(&mut self, src: &Dsb) {
        let Dsb { lru } = src;
        self.lru.restore(lru);
    }
}

/// A µop sitting in the IDQ, as produced by fetch/decode. Rename reads
/// the instruction itself from the run's [`crate::ProgramTemplate`] by
/// `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedUop {
    /// Instruction index.
    pub pc: usize,
    /// Predicted next instruction index.
    pub pred_next: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = Dsb::new(0);
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut d = Dsb::new(4);
        assert!(!d.lookup(10));
        d.insert(10);
        assert!(d.lookup(10));
    }

    #[test]
    fn lru_eviction() {
        let mut d = Dsb::new(2);
        d.insert(1);
        d.insert(2);
        assert!(d.lookup(1)); // 2 becomes LRU
        d.insert(3);
        assert!(d.lookup(1));
        assert!(!d.lookup(2));
        assert!(d.lookup(3));
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut d = Dsb::new(2);
        d.insert(1);
        d.insert(1);
        assert_eq!(d.len(), 1);
    }

    /// The original `VecDeque` DSB, kept verbatim as the equivalence
    /// oracle for the indexed representation.
    struct RefDsb {
        lru: VecDeque<usize>,
        capacity: usize,
    }

    impl RefDsb {
        fn lookup(&mut self, pc: usize) -> bool {
            if let Some(i) = self.lru.iter().position(|&p| p == pc) {
                let p = self.lru.remove(i).expect("position was valid");
                self.lru.push_front(p);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, pc: usize) {
            if let Some(i) = self.lru.iter().position(|&p| p == pc) {
                self.lru.remove(i);
            } else if self.lru.len() == self.capacity {
                self.lru.pop_back();
            }
            self.lru.push_front(pc);
        }
    }

    #[test]
    fn indexed_dsb_matches_linear_reference() {
        let mut state = 0xd1342543de82ef95u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 8, 64] {
            let mut dsb = Dsb::new(capacity);
            let mut reference = RefDsb {
                lru: VecDeque::new(),
                capacity,
            };
            for step in 0..30_000 {
                let r = rng();
                let pc = (r >> 8) as usize % (capacity * 2 + 3);
                if r % 2 == 0 {
                    assert_eq!(
                        dsb.lookup(pc),
                        reference.lookup(pc),
                        "step {step} cap {capacity}"
                    );
                } else {
                    dsb.insert(pc);
                    reference.insert(pc);
                }
                assert_eq!(dsb.len(), reference.lru.len());
            }
        }
    }
}
