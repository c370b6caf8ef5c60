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
//!
//! Every operation — the four fetch-time predictions and the two
//! resolution-time updates — is logged with its arguments and its
//! answer into a fixed-capacity ring ([`BpuOp`],
//! [`crate::Machine::bpu_ops_since`]), and the unit counts every change
//! of its state ([`Bpu::version`]). Trial batching replays a recorded
//! probe's operations instead of simulating it: [`Bpu::dry_run`] checks
//! that each would get its logged answer from the current state, and
//! [`Bpu::replay`] issues them for real. Each operation is written once,
//! against the private `Tables` view, so the dry run over its small
//! overlay and the live unit cannot disagree on an answer.

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

/// Operations the log holds: a span that issued more has no log. A
/// warm attack probe issues two to six.
const LOG_CAP: usize = 16;

/// One predictor operation as a run issued it: its arguments and, for
/// a prediction, the answer the predictor gave (the [`Prediction`]'s
/// fields that its arguments do not fix; 32 bytes an entry, since every
/// operation of every run is logged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BpuOp {
    /// [`Bpu::predict_cond`].
    PredictCond {
        /// Branch pc.
        pc: usize,
        /// Not-taken successor.
        fallthrough: usize,
        /// Taken target.
        target: usize,
        /// Predicted taken.
        taken: bool,
        /// The BTB held the branch.
        from_btb: bool,
    },
    /// [`Bpu::predict_indirect`].
    PredictIndirect {
        /// Branch pc.
        pc: usize,
        /// Successor when the BTB has no target.
        fallthrough: usize,
        /// Predicted successor.
        next_pc: usize,
        /// The BTB supplied it.
        from_btb: bool,
    },
    /// [`Bpu::predict_call`]; the answer is always the callee.
    PredictCall {
        /// Callee.
        target: usize,
        /// Return address pushed on the RSB.
        return_pc: usize,
    },
    /// [`Bpu::predict_ret`].
    PredictRet {
        /// Successor when the RSB is empty.
        fallthrough: usize,
        /// Predicted successor.
        next_pc: usize,
        /// The RSB supplied it.
        from_btb: bool,
    },
    /// [`Bpu::resolve_cond`]. Resolutions answer nothing a run reads,
    /// so only their arguments are logged.
    ResolveCond {
        /// Branch pc.
        pc: usize,
        /// Resolved direction.
        taken: bool,
        /// Taken target.
        target: usize,
    },
    /// [`Bpu::resolve_indirect`].
    ResolveIndirect {
        /// Branch pc.
        pc: usize,
        /// Resolved target.
        target: usize,
    },
}

impl BpuOp {
    /// Issues this operation against `t`; whether it got the logged
    /// answer.
    fn issue(&self, t: &mut impl Tables) -> bool {
        match *self {
            BpuOp::PredictCond {
                pc,
                fallthrough,
                target,
                taken,
                from_btb,
            } => {
                let p = op::predict_cond(t, pc, fallthrough, target);
                (p.taken, p.from_btb) == (taken, from_btb)
            }
            BpuOp::PredictIndirect {
                pc,
                fallthrough,
                next_pc,
                from_btb,
            } => {
                let p = op::predict_indirect(t, pc, fallthrough);
                (p.next_pc, p.from_btb) == (next_pc, from_btb)
            }
            BpuOp::PredictCall { target, return_pc } => {
                op::predict_call(t, target, return_pc);
                true
            }
            BpuOp::PredictRet {
                fallthrough,
                next_pc,
                from_btb,
            } => {
                let p = op::predict_ret(t, fallthrough);
                (p.next_pc, p.from_btb) == (next_pc, from_btb)
            }
            BpuOp::ResolveCond { pc, taken, target } => {
                op::resolve_cond(t, pc, taken, target);
                true
            }
            BpuOp::ResolveIndirect { pc, target } => {
                op::resolve_indirect(t, pc, target);
                true
            }
        }
    }
}

/// The predictor state one operation reads and writes: the live unit,
/// or a dry run's overlay over it.
trait Tables {
    fn cfg(&self) -> &BpuConfig;
    /// The global-history window.
    fn ghr(&self) -> u64;
    fn set_ghr(&mut self, ghr: u64);
    /// The 2-bit counter at PHT index `idx`.
    fn counter(&self, idx: usize) -> u8;
    fn set_counter(&mut self, idx: usize, v: u8);
    /// Looks `pc` up in the BTB (a hit makes it most recently used).
    fn btb_get(&mut self, pc: usize) -> Option<usize>;
    /// Inserts (or refreshes) a BTB entry; returns whether the BTB's
    /// contents changed — a new entry or a new target — rather than
    /// only its recency.
    fn btb_insert(&mut self, pc: usize, target: usize) -> bool;
    fn rsb_push(&mut self, return_pc: usize);
    fn rsb_pop(&mut self) -> Option<usize>;
}

/// The six operations, each written once against [`Tables`].
mod op {
    use super::{Prediction, Tables};

    fn pht_index(t: &impl Tables, pc: usize) -> usize {
        (pc ^ t.ghr() as usize) & ((1usize << t.cfg().pht_bits) - 1)
    }

    /// Shifts one resolved direction into the global-history window.
    fn shift_history(t: &mut impl Tables, taken: bool) {
        let mask = 1u64
            .checked_shl(t.cfg().ghr_bits)
            .map_or(u64::MAX, |b| b - 1);
        t.set_ghr(((t.ghr() << 1) | u64::from(taken)) & mask);
    }

    #[inline]
    pub(super) fn predict_cond(
        t: &mut impl Tables,
        pc: usize,
        fallthrough: usize,
        target: usize,
    ) -> Prediction {
        let from_btb = t.btb_get(pc).is_some();
        let taken = from_btb && t.counter(pht_index(t, pc)) >= 2;
        Prediction {
            next_pc: if taken { target } else { fallthrough },
            taken,
            from_btb,
        }
    }

    #[inline]
    pub(super) fn predict_indirect(
        t: &mut impl Tables,
        pc: usize,
        fallthrough: usize,
    ) -> Prediction {
        match t.btb_get(pc) {
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

    #[inline]
    pub(super) fn predict_call(t: &mut impl Tables, target: usize, return_pc: usize) -> Prediction {
        t.rsb_push(return_pc);
        Prediction {
            next_pc: target,
            taken: true,
            from_btb: false,
        }
    }

    #[inline]
    pub(super) fn predict_ret(t: &mut impl Tables, fallthrough: usize) -> Prediction {
        match t.rsb_pop() {
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

    #[inline]
    pub(super) fn resolve_cond(t: &mut impl Tables, pc: usize, taken: bool, target: usize) -> bool {
        let idx = pht_index(t, pc);
        let old = t.counter(idx);
        let new = if taken {
            (old + 1).min(3)
        } else {
            old.saturating_sub(1)
        };
        t.set_counter(idx, new);
        let moved = taken && t.btb_insert(pc, target);
        shift_history(t, taken);
        moved || new != old
    }

    #[inline]
    pub(super) fn resolve_indirect(t: &mut impl Tables, pc: usize, target: usize) -> bool {
        shift_history(t, true);
        t.btb_insert(pc, target)
    }
}

/// A point in a predictor's operation log (see [`Bpu::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BpuMark {
    logged: u64,
    restores: u64,
    version: u64,
}

/// The ring the operations are logged into.
#[derive(Debug, Clone)]
struct OpLog {
    ops: [BpuOp; LOG_CAP],
    /// Operations ever logged; the next goes to `ops[logged % CAP]`.
    logged: u64,
    /// Restores applied: a span across one has no log.
    restores: u64,
}

impl OpLog {
    fn new() -> Self {
        OpLog {
            ops: [BpuOp::PredictCall {
                target: 0,
                return_pc: 0,
            }; LOG_CAP],
            logged: 0,
            restores: 0,
        }
    }

    #[inline]
    fn push(&mut self, op: BpuOp) {
        self.ops[self.logged as usize % LOG_CAP] = op;
        self.logged += 1;
    }
}

/// The operations a predictor issued over a span of runs, oldest first
/// ([`crate::Machine::bpu_ops_since`]).
#[derive(Debug, Clone, Copy)]
pub struct BpuSpan<'a> {
    log: &'a OpLog,
    from: u64,
    /// Whether the span changed the predictor.
    changed: bool,
}

impl<'a> BpuSpan<'a> {
    /// The operations, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = BpuOp> + 'a {
        let ops = &self.log.ops;
        (self.from..self.log.logged).map(move |i| ops[i as usize % LOG_CAP])
    }

    /// Whether the span changed the predictor ([`Bpu::version`]).
    pub fn changed(&self) -> bool {
        self.changed
    }
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
    /// The global-history window (`ghr_bits` wide).
    ghr: u64,
    /// MRU-first BTB (`pc -> target`), indexed for O(1) fetch-time
    /// lookups; recency and eviction order are exactly those of the
    /// original `VecDeque` list (see the equivalence property test).
    btb: LruIndex<usize>,
    rsb: Vec<usize>,
    /// [`Bpu::version`].
    version: u64,
    /// Every operation, with its answer. Like the lifetime counters it
    /// describes this unit, not a snapshot: restores do not copy it.
    log: OpLog,
}

impl Tables for Bpu {
    fn cfg(&self) -> &BpuConfig {
        &self.cfg
    }

    fn ghr(&self) -> u64 {
        self.ghr
    }

    fn set_ghr(&mut self, ghr: u64) {
        if ghr != self.ghr {
            self.ghr = ghr;
            self.version += 1;
        }
    }

    #[inline]
    fn counter(&self, idx: usize) -> u8 {
        (self.pht[idx / 4] >> (idx % 4 * 2)) & 3
    }

    fn set_counter(&mut self, idx: usize, v: u8) {
        if v != self.counter(idx) {
            let shift = idx % 4 * 2;
            self.pht[idx / 4] = (self.pht[idx / 4] & !(3 << shift)) | (v << shift);
            self.version += 1;
        }
    }

    fn btb_get(&mut self, pc: usize) -> Option<usize> {
        let (target, reorders) = self.btb.get_refresh_reordering(pc)?;
        self.version += u64::from(reorders);
        Some(target)
    }

    fn btb_insert(&mut self, pc: usize, target: usize) -> bool {
        if self.btb_get(pc) == Some(target) {
            return false;
        }
        self.btb.insert(pc, target);
        self.version += 1;
        true
    }

    fn rsb_push(&mut self, return_pc: usize) {
        if self.rsb.len() == self.cfg.rsb_entries {
            self.rsb.remove(0);
        }
        self.rsb.push(return_pc);
        self.version += 1;
    }

    fn rsb_pop(&mut self) -> Option<usize> {
        let top = self.rsb.pop();
        self.version += u64::from(top.is_some());
        top
    }
}

impl Bpu {
    /// Creates a predictor initialised to strongly-not-taken.
    pub fn new(cfg: BpuConfig) -> Self {
        Bpu {
            pht: vec![0; (1usize << cfg.pht_bits).div_ceil(4)],
            ghr: 0,
            btb: LruIndex::new(cfg.btb_entries),
            rsb: Vec::with_capacity(cfg.rsb_entries),
            version: 0,
            log: OpLog::new(),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> BpuConfig {
        self.cfg
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

    /// A 64-bit FNV-1a hash of every PHT counter: equal tables hash
    /// equal, and a single moved counter changes the hash.
    pub fn pht_fingerprint(&self) -> u64 {
        self.pht.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The global-history window the PHT is indexed with.
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// The RSB, oldest entry first.
    pub fn rsb(&self) -> &[usize] {
        &self.rsb
    }

    /// Current RSB depth.
    pub fn rsb_depth(&self) -> usize {
        self.rsb.len()
    }

    // ----- fetch-time predictions ----------------------------------------

    /// Predicts a conditional branch at `pc` with the given fall-through
    /// and taken targets.
    pub fn predict_cond(&mut self, pc: usize, fallthrough: usize, target: usize) -> Prediction {
        let answer = op::predict_cond(self, pc, fallthrough, target);
        self.log.push(BpuOp::PredictCond {
            pc,
            fallthrough,
            target,
            taken: answer.taken,
            from_btb: answer.from_btb,
        });
        answer
    }

    /// Predicts an indirect jump at `pc` (BTB target or fall-through).
    pub fn predict_indirect(&mut self, pc: usize, fallthrough: usize) -> Prediction {
        let answer = op::predict_indirect(self, pc, fallthrough);
        self.log.push(BpuOp::PredictIndirect {
            pc,
            fallthrough,
            next_pc: answer.next_pc,
            from_btb: answer.from_btb,
        });
        answer
    }

    /// Handles a `call` at fetch: pushes the return address on the RSB
    /// and redirects to the callee.
    pub fn predict_call(&mut self, target: usize, return_pc: usize) -> Prediction {
        let answer = op::predict_call(self, target, return_pc);
        self.log.push(BpuOp::PredictCall { target, return_pc });
        answer
    }

    /// Predicts a `ret` at fetch from the RSB top; an empty RSB falls
    /// through (which will almost certainly resteer at resolution).
    pub fn predict_ret(&mut self, fallthrough: usize) -> Prediction {
        let answer = op::predict_ret(self, fallthrough);
        self.log.push(BpuOp::PredictRet {
            fallthrough,
            next_pc: answer.next_pc,
            from_btb: answer.from_btb,
        });
        answer
    }

    // ----- resolution-time updates ----------------------------------------
    //
    // Updates happen at branch *resolution*, i.e. transient branches train
    // the structures too — matching real cores, and required for the BTB
    // to ever learn the in-window Jcc of the TET gadget.

    /// Updates predictor state after a conditional branch resolves.
    /// Returns whether a pattern counter or a BTB target changed (the
    /// global history always shifts).
    pub fn resolve_cond(&mut self, pc: usize, taken: bool, target: usize) -> bool {
        self.log.push(BpuOp::ResolveCond { pc, taken, target });
        op::resolve_cond(self, pc, taken, target)
    }

    /// Updates the BTB after an indirect branch or `ret` resolves.
    /// Returns whether the BTB target changed.
    pub fn resolve_indirect(&mut self, pc: usize, target: usize) -> bool {
        self.log.push(BpuOp::ResolveIndirect { pc, target });
        op::resolve_indirect(self, pc, target)
    }

    // ----- the operation log ----------------------------------------------

    /// How far this predictor's state has moved: a count that grows on
    /// every change of a PHT counter, a BTB entry, target or recency
    /// order, the global-history window or the RSB (and on a restore).
    /// An equal version means an unchanged predictor.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Marks the current point of the operation log; pair with
    /// [`Bpu::ops_since`].
    pub(crate) fn mark(&self) -> BpuMark {
        BpuMark {
            logged: self.log.logged,
            restores: self.log.restores,
            version: self.version,
        }
    }

    /// The operations issued since `mark`: `None` when more than the
    /// log holds were, or a restore came in between (the predictor then
    /// no longer follows from the operations).
    pub(crate) fn ops_since(&self, mark: &BpuMark) -> Option<BpuSpan<'_>> {
        (mark.restores == self.log.restores && self.log.logged - mark.logged <= LOG_CAP as u64)
            .then_some(BpuSpan {
                log: &self.log,
                from: mark.logged,
                changed: self.version != mark.version,
            })
    }

    /// Dry-runs `ops` against this predictor without changing it, on a
    /// small overlay of the state they write (the GHR window, the RSB,
    /// the PHT counters and BTB entries they touch). `None` if any
    /// operation would get another answer than its logged one (or
    /// would evict a BTB entry, which the overlay does not model);
    /// otherwise whether issuing them would leave every counter, BTB
    /// entry, the GHR window and the RSB as they are.
    pub fn dry_run(&self, ops: &[BpuOp]) -> Option<bool> {
        let mut overlay = Overlay::new(self);
        for op in ops {
            if !op.issue(&mut overlay) || overlay.unmodelled {
                return None;
            }
        }
        Some(overlay.unchanged())
    }

    /// Issues `ops` for real, in order, exactly as a run issuing them
    /// would (they are logged too). Only meaningful after a
    /// [`Bpu::dry_run`] of the same operations answered `Some`.
    pub fn replay(&mut self, ops: &[BpuOp]) {
        for op in ops {
            let answered = op.issue(self);
            debug_assert!(
                answered,
                "replayed {op:?} against a predictor it does not fit"
            );
            self.log.push(*op);
        }
    }

    /// Rolls this predictor back to the state of `src` by copying the
    /// PHT, BTB, GHR and RSB into this predictor's allocations. The
    /// version moves on (a restore is a change) and the log keeps its
    /// history but ends every open span.
    pub fn restore(&mut self, src: &Bpu) {
        let Bpu {
            cfg,
            pht,
            ghr,
            btb,
            rsb,
            version: _,
            log: _,
        } = src;
        self.cfg = *cfg;
        self.pht.clear();
        self.pht.extend_from_slice(pht);
        self.ghr = *ghr;
        self.btb.restore(btb);
        self.rsb.clear();
        self.rsb.extend_from_slice(rsb);
        self.version += 1;
        self.log.restores += 1;
    }
}

/// Most entries one overlay list holds; a dry run that needs more
/// answers "does not fit", and the probe runs live.
const OVERLAY_CAP: usize = 8;

/// A small fixed-capacity list (no allocation per dry run).
struct Small<T: Copy> {
    items: [T; OVERLAY_CAP],
    len: usize,
}

impl<T: Copy> Small<T> {
    fn new(fill: T) -> Self {
        Small {
            items: [fill; OVERLAY_CAP],
            len: 0,
        }
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    /// Appends `v`; `false` when full.
    fn push(&mut self, v: T) -> bool {
        if self.len == OVERLAY_CAP {
            return false;
        }
        self.items[self.len] = v;
        self.len += 1;
        true
    }
}

/// A dry run's view of a [`Bpu`]: reads fall through to the live unit
/// until the run writes, and writes land here. BTB recency is not
/// modelled: lookups only read it, and an insert that would evict an
/// entry marks the run unmodelled.
struct Overlay<'a> {
    bpu: &'a Bpu,
    ghr: u64,
    /// PHT counters written: `(index, value)`.
    pht: Small<(usize, u8)>,
    /// BTB entries written: `(pc, target)`.
    btb: Small<(usize, usize)>,
    /// Entries added to the BTB (each pushed to `btb` too).
    btb_added: usize,
    /// The live RSB's surviving entries are `bpu.rsb[rsb_lo..rsb_hi]`,
    /// with `pushed` on top.
    rsb_lo: usize,
    rsb_hi: usize,
    pushed: Small<usize>,
    /// The run needed a case the overlay does not model.
    unmodelled: bool,
}

impl<'a> Overlay<'a> {
    fn new(bpu: &'a Bpu) -> Self {
        Overlay {
            bpu,
            ghr: bpu.ghr,
            pht: Small::new((0, 0)),
            btb: Small::new((0, 0)),
            btb_added: 0,
            rsb_lo: 0,
            rsb_hi: bpu.rsb.len(),
            pushed: Small::new(0),
            unmodelled: false,
        }
    }

    fn btb_peek(&self, pc: usize) -> Option<usize> {
        match self.btb.as_slice().iter().find(|&&(p, _)| p == pc) {
            Some(&(_, target)) => Some(target),
            None => self.bpu.btb.peek(pc),
        }
    }

    /// Whether the run left everything a prediction can see as it
    /// found it.
    fn unchanged(&self) -> bool {
        let bpu = self.bpu;
        let base_rsb = &bpu.rsb[self.rsb_hi..];
        self.ghr == bpu.ghr
            && self.btb_added == 0
            && self
                .pht
                .as_slice()
                .iter()
                .all(|&(idx, v)| bpu.counter(idx) == v)
            && self
                .btb
                .as_slice()
                .iter()
                .all(|&(pc, target)| bpu.btb.peek(pc) == Some(target))
            && self.rsb_lo == 0
            && self.pushed.as_slice() == base_rsb
    }
}

impl Tables for Overlay<'_> {
    fn cfg(&self) -> &BpuConfig {
        &self.bpu.cfg
    }

    fn ghr(&self) -> u64 {
        self.ghr
    }

    fn set_ghr(&mut self, ghr: u64) {
        self.ghr = ghr;
    }

    fn counter(&self, idx: usize) -> u8 {
        match self.pht.as_slice().iter().find(|&&(i, _)| i == idx) {
            Some(&(_, v)) => v,
            None => self.bpu.counter(idx),
        }
    }

    fn set_counter(&mut self, idx: usize, v: u8) {
        if let Some(slot) = self.pht.items[..self.pht.len]
            .iter_mut()
            .find(|(i, _)| *i == idx)
        {
            slot.1 = v;
        } else if v != self.bpu.counter(idx) && !self.pht.push((idx, v)) {
            self.unmodelled = true;
        }
    }

    fn btb_get(&mut self, pc: usize) -> Option<usize> {
        self.btb_peek(pc)
    }

    fn btb_insert(&mut self, pc: usize, target: usize) -> bool {
        let old = self.btb_peek(pc);
        if old == Some(target) {
            return false;
        }
        if let Some(slot) = self.btb.items[..self.btb.len]
            .iter_mut()
            .find(|(p, _)| *p == pc)
        {
            slot.1 = target;
            return true;
        }
        if old.is_none() {
            if self.bpu.btb.len() + self.btb_added == self.bpu.cfg.btb_entries {
                self.unmodelled = true;
                return true;
            }
            self.btb_added += 1;
        }
        if !self.btb.push((pc, target)) {
            self.unmodelled = true;
        }
        true
    }

    fn rsb_push(&mut self, return_pc: usize) {
        let depth = self.rsb_hi - self.rsb_lo + self.pushed.len;
        if depth == self.bpu.cfg.rsb_entries {
            if self.rsb_lo < self.rsb_hi {
                self.rsb_lo += 1;
            } else {
                self.pushed.items.copy_within(1..self.pushed.len, 0);
                self.pushed.len -= 1;
            }
        }
        if !self.pushed.push(return_pc) {
            self.unmodelled = true;
        }
    }

    fn rsb_pop(&mut self) -> Option<usize> {
        if self.pushed.len > 0 {
            self.pushed.len -= 1;
            Some(self.pushed.items[self.pushed.len])
        } else if self.rsb_hi > self.rsb_lo {
            self.rsb_hi -= 1;
            Some(self.bpu.rsb[self.rsb_hi])
        } else {
            None
        }
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
        assert_eq!((b.ghr(), b.rsb_depth()), (0, 0));
        assert!(b.resolve_cond(10, true, 20), "counter and BTB entry move");
        assert_eq!(b.ghr(), 1, "the taken bit enters the history");
        for _ in 0..12 {
            b.resolve_cond(10, false, 20);
        }
        assert_eq!(b.ghr(), 0, "twelve not-taken bits shift it out");
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
        assert_eq!((a.ghr(), a.rsb()), (b.ghr(), b.rsb()));
        a.resolve_cond(5, true, 6);
        a.restore(&b);
        assert_eq!(a.btb_fingerprint(), b.btb_fingerprint());
        assert_eq!(a.pht, b.pht);
        assert_eq!((a.ghr(), a.rsb()), (b.ghr(), b.rsb()));
    }
}
