//! The branch prediction unit: BTB, gshare conditional predictor and the
//! return stack buffer (RSB).
//!
//! Two properties of this unit carry the paper's attacks:
//!
//! * A conditional branch that has never been *taken* predicts
//!   not-taken (it is absent from the BTB), so a transient Jcc whose
//!   condition is met **mispredicts** — the stall that the TET channel
//!   times (paper §3.2).
//! * `ret` is predicted from the RSB. When the architectural return
//!   address has been redirected (Listing 1), the stale RSB entry
//!   transiently "returns" into attacker-chosen code — Spectre-RSB.
//!
//! The whole unit is small (4096 2-bit PHT counters packed into 1 KiB,
//! a BTB holding only the pcs a program branched from, ≤16 RSB entries),
//! so a snapshot restore copies it into the existing allocations
//! (DESIGN.md §16).

use crate::lru::LruIndex;

/// Branch predictor geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpuConfig {
    /// log2 of the gshare pattern-history-table size.
    pub pht_bits: u32,
    /// Global-history length in branches.
    pub ghr_bits: u32,
    /// BTB capacity in entries.
    pub btb_entries: usize,
    /// Return stack buffer depth.
    pub rsb_entries: usize,
}

impl Default for BpuConfig {
    fn default() -> Self {
        BpuConfig {
            pht_bits: 12,
            ghr_bits: 12,
            btb_entries: 512,
            rsb_entries: 16,
        }
    }
}

/// The outcome of a fetch-time prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted next instruction index.
    pub next_pc: usize,
    /// Whether the branch was predicted taken (always `true` for
    /// unconditional control flow).
    pub taken: bool,
    /// Whether the BTB supplied the target (feeds `bp_l1_btb_correct`).
    pub from_btb: bool,
}

/// The branch prediction unit of one logical thread.
///
/// # Examples
///
/// A never-taken conditional predicts not-taken; after enough taken
/// resolutions it flips:
///
/// ```
/// use tet_uarch::{Bpu, BpuConfig};
///
/// let mut bpu = Bpu::new(BpuConfig::default());
/// assert!(!bpu.predict_cond(10, 11, 42).taken);
/// for _ in 0..16 {
///     // Training shifts the global history, so saturate it.
///     bpu.resolve_cond(10, true, 42);
/// }
/// assert!(bpu.predict_cond(10, 11, 42).taken);
/// ```
#[derive(Debug, Clone)]
pub struct Bpu {
    cfg: BpuConfig,
    /// 2-bit saturating counters (0..=3; >=2 predicts taken), four to
    /// a byte: every restore copies the table, and packed it is 1 KiB.
    pht: Vec<u8>,
    ghr: u64,
    /// MRU-first BTB (`pc -> target`), indexed for O(1) fetch-time
    /// lookups; recency and eviction order are exactly those of the
    /// original `VecDeque` list (see the equivalence property test).
    btb: LruIndex<usize>,
    rsb: Vec<usize>,
}

impl Bpu {
    /// Creates a predictor initialised to strongly-not-taken.
    pub fn new(cfg: BpuConfig) -> Self {
        Bpu {
            pht: vec![0; (1usize << cfg.pht_bits).div_ceil(4)],
            ghr: 0,
            btb: LruIndex::new(cfg.btb_entries),
            rsb: Vec::with_capacity(cfg.rsb_entries),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> BpuConfig {
        self.cfg
    }

    #[inline]
    fn pht_index(&self, pc: usize) -> usize {
        let mask = (1usize << self.cfg.pht_bits) - 1;
        (pc ^ (self.ghr as usize & ((1 << self.cfg.ghr_bits) - 1))) & mask
    }

    /// The 2-bit counter at PHT index `idx`.
    #[inline]
    fn counter(&self, idx: usize) -> u8 {
        (self.pht[idx / 4] >> (idx % 4 * 2)) & 3
    }

    fn btb_lookup(&mut self, pc: usize) -> Option<usize> {
        self.btb.get_refresh(pc)
    }

    /// Inserts (or refreshes) a BTB entry; returns whether the BTB's
    /// contents changed — a new entry or a new target — rather than
    /// only its recency.
    fn btb_insert(&mut self, pc: usize, target: usize) -> bool {
        self.btb.insert(pc, target) != Some(target)
    }

    /// Whether the BTB currently holds an entry for `pc` (non-perturbing;
    /// used by stealth fingerprinting).
    pub fn btb_probe(&self, pc: usize) -> bool {
        self.btb.probe(pc)
    }

    /// Sorted BTB fingerprint (pc, target) pairs, for Table 1's
    /// stateless-channel measurements.
    pub fn btb_fingerprint(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = self.btb.iter().collect();
        v.sort_unstable();
        v
    }

    // ----- fetch-time predictions ----------------------------------------

    /// Predicts a conditional branch at `pc` with the given fall-through
    /// and taken targets.
    pub fn predict_cond(&mut self, pc: usize, fallthrough: usize, target: usize) -> Prediction {
        let from_btb = self.btb_lookup(pc).is_some();
        let counter = self.counter(self.pht_index(pc));
        let taken = from_btb && counter >= 2;
        Prediction {
            next_pc: if taken { target } else { fallthrough },
            taken,
            from_btb,
        }
    }

    /// Predicts an indirect jump at `pc` (BTB target or fall-through).
    pub fn predict_indirect(&mut self, pc: usize, fallthrough: usize) -> Prediction {
        match self.btb_lookup(pc) {
            Some(target) => Prediction {
                next_pc: target,
                taken: true,
                from_btb: true,
            },
            None => Prediction {
                next_pc: fallthrough,
                taken: false,
                from_btb: false,
            },
        }
    }

    /// Handles a `call` at fetch: pushes the return address on the RSB
    /// and redirects to the callee.
    pub fn predict_call(&mut self, target: usize, return_pc: usize) -> Prediction {
        if self.rsb.len() == self.cfg.rsb_entries {
            self.rsb.remove(0);
        }
        self.rsb.push(return_pc);
        Prediction {
            next_pc: target,
            taken: true,
            from_btb: false,
        }
    }

    /// Predicts a `ret` at fetch from the RSB top; an empty RSB falls
    /// through (which will almost certainly resteer at resolution).
    pub fn predict_ret(&mut self, fallthrough: usize) -> Prediction {
        match self.rsb.pop() {
            Some(target) => Prediction {
                next_pc: target,
                taken: true,
                from_btb: true,
            },
            None => Prediction {
                next_pc: fallthrough,
                taken: false,
                from_btb: false,
            },
        }
    }

    /// Current RSB depth.
    pub fn rsb_depth(&self) -> usize {
        self.rsb.len()
    }

    /// The history the next prediction sees: the global-history window
    /// the PHT is indexed with, and the RSB depth. Unlike the counters
    /// and the BTB, these move on every resolution or call, so whether
    /// a run left the predictor where it found it is decided by
    /// comparing this before and after.
    pub fn history(&self) -> (u64, usize) {
        (self.ghr & ((1 << self.cfg.ghr_bits) - 1), self.rsb.len())
    }

    // ----- resolution-time updates ----------------------------------------
    //
    // Updates happen at branch *resolution*, i.e. transient branches train
    // the structures too — matching real cores, and required for the BTB
    // to ever learn the in-window Jcc of the TET gadget.

    /// Updates predictor state after a conditional branch resolves.
    /// Returns whether a pattern counter or a BTB target changed (the
    /// global history always shifts; see [`Bpu::history`]).
    pub fn resolve_cond(&mut self, pc: usize, taken: bool, target: usize) -> bool {
        let idx = self.pht_index(pc);
        let old = self.counter(idx);
        let new = if taken {
            (old + 1).min(3)
        } else {
            old.saturating_sub(1)
        };
        let shift = idx % 4 * 2;
        self.pht[idx / 4] = (self.pht[idx / 4] & !(3 << shift)) | (new << shift);
        let moved = taken && self.btb_insert(pc, target);
        self.ghr = (self.ghr << 1) | u64::from(taken);
        moved || new != old
    }

    /// Updates the BTB after an indirect branch or `ret` resolves.
    /// Returns whether the BTB target changed.
    pub fn resolve_indirect(&mut self, pc: usize, target: usize) -> bool {
        self.ghr = (self.ghr << 1) | 1;
        self.btb_insert(pc, target)
    }

    /// Rolls this predictor back to the state of `src` by copying the
    /// PHT, BTB, GHR and RSB into this predictor's allocations.
    pub fn restore(&mut self, src: &Bpu) {
        let Bpu {
            cfg,
            pht,
            ghr,
            btb,
            rsb,
        } = src;
        self.cfg = *cfg;
        self.pht.clear();
        self.pht.extend_from_slice(pht);
        self.ghr = *ghr;
        self.btb.restore(btb);
        self.rsb.clear();
        self.rsb.extend_from_slice(rsb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpu() -> Bpu {
        Bpu::new(BpuConfig::default())
    }

    #[test]
    fn cold_conditional_predicts_not_taken() {
        let mut b = bpu();
        let p = b.predict_cond(100, 101, 200);
        assert!(!p.taken);
        assert_eq!(p.next_pc, 101);
        assert!(!p.from_btb);
    }

    #[test]
    fn one_transient_taken_does_not_flip_prediction() {
        // The TET gadget relies on this: the rare in-window taken
        // resolution must not teach the predictor to predict taken.
        let mut b = bpu();
        b.resolve_cond(100, true, 200);
        let p = b.predict_cond(100, 101, 200);
        assert!(
            !p.taken,
            "single taken resolution must not flip a 2-bit counter"
        );
        assert!(p.from_btb, "but the BTB learns the target");
    }

    #[test]
    fn repeated_taken_trains_taken() {
        let mut b = bpu();
        for _ in 0..3 {
            b.resolve_cond(100, true, 200);
        }
        // GHR changed, so reset history influence by resolving with the
        // same history: predict directly.
        let p = b.predict_cond(100, 101, 200);
        // The counter at the *current* ghr index may differ; train across
        // histories to be sure.
        if !p.taken {
            for _ in 0..16 {
                b.resolve_cond(100, true, 200);
            }
            assert!(b.predict_cond(100, 101, 200).taken);
        }
    }

    #[test]
    fn not_taken_resolutions_decay() {
        let mut b = bpu();
        for _ in 0..8 {
            b.resolve_cond(100, true, 200);
        }
        for _ in 0..32 {
            b.resolve_cond(100, false, 200);
        }
        assert!(!b.predict_cond(100, 101, 200).taken);
    }

    /// Resolutions report whether they rewrote a counter or a BTB
    /// target; the history window moves on every resolution.
    #[test]
    fn resolutions_report_predictor_moves() {
        let mut b = bpu();
        assert!(!b.resolve_cond(10, false, 20), "a cold counter stays at 0");
        assert_eq!(b.history(), (0, 0));
        assert!(b.resolve_cond(10, true, 20), "counter and BTB entry move");
        assert_eq!(b.history().0, 1, "the taken bit enters the history");
        for _ in 0..12 {
            b.resolve_cond(10, false, 20);
        }
        assert_eq!(b.history().0, 0, "twelve not-taken bits shift it out");
        // Saturate the counter at the index a zero history selects: once
        // it is at 3 with the target known, a taken resolution rewrites
        // nothing.
        let mut moved = Vec::new();
        for _ in 0..4 {
            for _ in 0..12 {
                b.resolve_cond(99, false, 0);
            }
            moved.push(b.resolve_cond(10, true, 20));
        }
        assert_eq!(
            moved,
            [true, true, false, false],
            "1 → 2 → 3, then saturated"
        );
        assert!(b.resolve_indirect(30, 40), "new indirect target");
        assert!(!b.resolve_indirect(30, 40), "same target: recency only");
        assert!(b.resolve_indirect(30, 41), "retargeted");
    }

    #[test]
    fn rsb_predicts_last_call_site() {
        let mut b = bpu();
        b.predict_call(50, 11);
        b.predict_call(60, 21);
        assert_eq!(b.predict_ret(0).next_pc, 21);
        assert_eq!(b.predict_ret(0).next_pc, 11);
        // Underflow: fall through.
        let p = b.predict_ret(77);
        assert_eq!(p.next_pc, 77);
        assert!(!p.from_btb);
    }

    #[test]
    fn rsb_overflow_drops_oldest() {
        let mut b = Bpu::new(BpuConfig {
            rsb_entries: 2,
            ..BpuConfig::default()
        });
        b.predict_call(0, 1);
        b.predict_call(0, 2);
        b.predict_call(0, 3);
        assert_eq!(b.rsb_depth(), 2);
        assert_eq!(b.predict_ret(0).next_pc, 3);
        assert_eq!(b.predict_ret(0).next_pc, 2);
        assert_eq!(b.predict_ret(99).next_pc, 99);
    }

    #[test]
    fn indirect_uses_btb_after_resolution() {
        let mut b = bpu();
        assert_eq!(b.predict_indirect(5, 6).next_pc, 6);
        b.resolve_indirect(5, 123);
        let p = b.predict_indirect(5, 6);
        assert_eq!(p.next_pc, 123);
        assert!(p.from_btb);
    }

    #[test]
    fn btb_capacity_evicts_lru() {
        let mut b = Bpu::new(BpuConfig {
            btb_entries: 2,
            ..BpuConfig::default()
        });
        b.resolve_indirect(1, 10);
        b.resolve_indirect(2, 20);
        b.resolve_indirect(3, 30);
        assert!(!b.btb_probe(1));
        assert!(b.btb_probe(2) && b.btb_probe(3));
    }

    #[test]
    fn fingerprint_is_sorted_and_complete() {
        let mut b = bpu();
        b.resolve_indirect(9, 90);
        b.resolve_indirect(3, 30);
        assert_eq!(b.btb_fingerprint(), vec![(3, 30), (9, 90)]);
    }

    /// The original `VecDeque` BTB, kept verbatim as the equivalence
    /// oracle for the indexed representation. Driven through the public
    /// predict/resolve surface so the whole BTB-visible behaviour —
    /// targets, recency, eviction and fingerprints — is compared.
    struct RefBtb {
        list: std::collections::VecDeque<(usize, usize)>,
        capacity: usize,
    }

    impl RefBtb {
        fn lookup(&mut self, pc: usize) -> Option<usize> {
            let i = self.list.iter().position(|&(p, _)| p == pc)?;
            let e = self.list.remove(i).unwrap();
            self.list.push_front(e);
            Some(e.1)
        }

        fn insert(&mut self, pc: usize, target: usize) {
            if let Some(i) = self.list.iter().position(|&(p, _)| p == pc) {
                self.list.remove(i);
            } else if self.list.len() == self.capacity {
                self.list.pop_back();
            }
            self.list.push_front((pc, target));
        }
    }

    #[test]
    fn indexed_btb_matches_linear_reference() {
        let mut state = 0xa0761d6478bd642fu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 16] {
            let mut b = Bpu::new(BpuConfig {
                btb_entries: capacity,
                ..BpuConfig::default()
            });
            let mut reference = RefBtb {
                list: std::collections::VecDeque::new(),
                capacity,
            };
            for step in 0..30_000 {
                let r = rng();
                let pc = (r >> 8) as usize % (capacity * 2 + 3);
                match r % 4 {
                    0 => {
                        // predict_indirect is a pure BTB lookup.
                        let p = b.predict_indirect(pc, pc + 1);
                        let want = reference.lookup(pc);
                        assert_eq!(
                            p.from_btb.then_some(p.next_pc),
                            want,
                            "step {step} cap {capacity}"
                        );
                    }
                    1 => {
                        let target = pc + 100 + (r >> 40) as usize % 4;
                        b.resolve_indirect(pc, target);
                        reference.insert(pc, target);
                    }
                    2 => {
                        // Taken conditional resolutions insert too.
                        b.resolve_cond(pc, true, pc + 7);
                        reference.insert(pc, pc + 7);
                    }
                    _ => assert_eq!(
                        b.btb_probe(pc),
                        reference.list.iter().any(|&(p, _)| p == pc)
                    ),
                }
            }
            let want: Vec<(usize, usize)> = {
                let mut v: Vec<_> = reference.list.iter().copied().collect();
                v.sort_unstable();
                v
            };
            assert_eq!(b.btb_fingerprint(), want, "cap {capacity}");
        }
    }

    /// The packed PHT holds every 2-bit counter where a byte-per-counter
    /// gshare does, under random resolutions across every history.
    #[test]
    fn packed_pht_matches_byte_per_counter_reference() {
        let mut state = 0x8cb92ba72f3d8dd7u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cfg = BpuConfig {
            pht_bits: 6,
            ghr_bits: 6,
            ..BpuConfig::default()
        };
        let (mut b, mut pht, mut ghr) = (Bpu::new(cfg), [0u8; 64], 0usize);
        for step in 0..20_000 {
            let r = rng();
            let (pc, taken) = ((r >> 8) as usize % 96, r & 8 == 0);
            let c = &mut pht[(pc ^ ghr) & 63];
            *c = if taken {
                (*c + 1).min(3)
            } else {
                c.saturating_sub(1)
            };
            ghr = ((ghr << 1) | usize::from(taken)) & 63;
            b.resolve_cond(pc, taken, pc + 2);
            assert!((0..64).all(|i| b.counter(i) == pht[i]), "step {step}");
        }
    }

    /// A restore must reproduce the predictor state (PHT counters, BTB
    /// order, GHR, RSB) of a clone of the snapshot exactly.
    #[test]
    fn restore_reproduces_snapshot_state_and_behavior() {
        let mut state = 0xaf63bd4c8601b7efu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut bpu = Bpu::new(BpuConfig {
            pht_bits: 6,
            ghr_bits: 6,
            btb_entries: 8,
            rsb_entries: 4,
        });
        for _ in 0..200 {
            let r = rng();
            bpu.resolve_cond((r >> 8) as usize % 64, r & 1 == 0, (r >> 16) as usize % 64);
        }
        let snap = bpu.clone();
        let churn = |b: &mut Bpu, r: u64| match r % 6 {
            0 => {
                b.resolve_cond((r >> 8) as usize % 64, r & 2 == 0, (r >> 16) as usize % 64);
            }
            1 => {
                b.resolve_indirect((r >> 8) as usize % 64, (r >> 16) as usize % 64);
            }
            2 => {
                b.predict_cond((r >> 8) as usize % 64, 1, 2);
            }
            3 => {
                b.predict_indirect((r >> 8) as usize % 64, 1);
            }
            4 => {
                b.predict_call((r >> 8) as usize % 64, (r >> 16) as usize % 64);
            }
            _ => {
                b.predict_ret(7);
            }
        };
        // Short churn moves a few PHT counters; long churn (at 64 PHT
        // entries) rewrites most of the table and turns the BTB over.
        for rounds in [20, 2_000] {
            for _ in 0..rounds {
                churn(&mut bpu, rng());
            }
            bpu.restore(&snap);
            let mut reference = snap.clone();
            assert_eq!(bpu.pht, reference.pht);
            assert_eq!(bpu.ghr, reference.ghr);
            assert_eq!(bpu.rsb, reference.rsb);
            assert_eq!(bpu.btb_fingerprint(), reference.btb_fingerprint());
            // Future behavior must agree (recency order fully restored).
            let mut probe = bpu.clone();
            for _ in 0..500 {
                let r = rng();
                let pc = (r >> 8) as usize % 64;
                assert_eq!(
                    probe.predict_cond(pc, 1, 2),
                    reference.predict_cond(pc, 1, 2)
                );
                churn(&mut probe, r);
                churn(&mut reference, r);
            }
            assert_eq!(probe.pht, reference.pht);
            assert_eq!(probe.btb_fingerprint(), reference.btb_fingerprint());
        }
    }

    /// Restoring from a predictor with an unrelated history copies it,
    /// and a second restore after more training copies it again.
    #[test]
    fn restore_from_unrelated_predictor_copies_it() {
        let mut a = Bpu::new(BpuConfig::default());
        a.resolve_cond(1, true, 2);
        let mut b = Bpu::new(BpuConfig::default());
        b.resolve_cond(3, true, 4);
        a.resolve_cond(7, true, 8);
        a.predict_call(9, 10);
        a.restore(&b);
        assert_eq!(a.btb_fingerprint(), b.btb_fingerprint());
        assert_eq!(a.pht, b.pht);
        assert_eq!(a.history(), b.history());
        a.resolve_cond(5, true, 6);
        a.restore(&b);
        assert_eq!(a.btb_fingerprint(), b.btb_fingerprint());
        assert_eq!(a.pht, b.pht);
        assert_eq!(a.history(), b.history());
    }
}
