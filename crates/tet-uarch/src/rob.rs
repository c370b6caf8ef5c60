//! The reorder buffer: a [`Ring`] of [`RobEntry`] plus the scheduler
//! index that lets the per-cycle scheduler loops visit only the entries
//! that can act (DESIGN.md §20).
//!
//! The index is two slot-keyed bitsets over the ring's storage:
//!
//! * **pending** — unstarted entries not parked on a producer
//!   (`!started && wake_at != u64::MAX`): the reservation-station
//!   entries issue, the fast-forward bound and the fence arm look at;
//! * **branches** — executed but unresolved branches
//!   (`started && is_branch && !resolved`): the entries branch
//!   resolution looks at.
//!
//! Both are inline `[u64; 8]`, so a ROB of at most [`Rob::MAX_ENTRIES`]
//! entries costs no heap. Beside them sit two counts, the unstarted
//! entries (the reservation-station occupancy) and the unresolved
//! branches, kept as counters because a per-cycle popcount or
//! all-words test costs more than the walk saves on short runs.
//!
//! Each event that changes the index (rename, start — which also
//! enters a branch in the branch set —, park, wake-up and branch
//! resolution) is one method here that writes the entry's field and
//! its bits together. Everything that moves entries between slots —
//! ring growth, which rotates, and `clone_from`, which repacks from
//! slot 0 — or rewrites many entries at once (a squash) rebuilds the
//! index from the entries instead.

use std::ops::{Deref, Index, IndexMut};

use crate::ring::Ring;
use crate::uop::RobEntry;

/// A set of ring slots, one bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotSet([u64; 8]);

impl SlotSet {
    #[inline]
    fn insert(&mut self, s: usize) {
        self.0[s / 64] |= 1 << (s % 64);
    }

    #[inline]
    fn remove(&mut self, s: usize) {
        self.0[s / 64] &= !(1 << (s % 64));
    }

    #[inline]
    fn contains(&self, s: usize) -> bool {
        self.0[s / 64] >> (s % 64) & 1 != 0
    }
}

/// Whether `e` belongs in the pending set.
#[inline]
fn is_pending(e: &RobEntry) -> bool {
    !e.started && e.wake_at != u64::MAX
}

/// Whether `e` belongs in the branch set.
#[inline]
fn is_unresolved_branch(e: &RobEntry) -> bool {
    e.started && e.kind.is_branch() && !e.resolved
}

/// The scheduler index proper (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedIndex {
    pending: SlotSet,
    branches: SlotSet,
    /// Entries that have not started executing: the pending ones plus
    /// the ones parked on a producer's waiter list.
    unstarted: usize,
    /// Members of `branches`, so that the common cycle with none
    /// answers without a walk.
    unresolved: usize,
}

impl SchedIndex {
    const EMPTY: SchedIndex = SchedIndex {
        pending: SlotSet([0; 8]),
        branches: SlotSet([0; 8]),
        unstarted: 0,
        unresolved: 0,
    };

    /// Adds entry `e`, which sits in slot `s`, wherever it belongs.
    #[inline]
    fn add(&mut self, s: usize, e: &RobEntry) {
        if is_pending(e) {
            self.pending.insert(s);
        }
        if is_unresolved_branch(e) {
            self.branches.insert(s);
            self.unresolved += 1;
        }
        self.unstarted += usize::from(!e.started);
    }
}

/// The reorder buffer and its scheduler index. Reads go through
/// `Deref` to the ring; every structural change goes through a method
/// here so the index follows it.
#[derive(Debug)]
pub(crate) struct Rob {
    ring: Ring<RobEntry>,
    index: SchedIndex,
}

impl Rob {
    /// Largest ROB the inline bitsets can index.
    pub(crate) const MAX_ENTRIES: usize = 512;

    /// An empty ROB that owns no storage yet.
    pub(crate) const fn new() -> Self {
        Rob {
            ring: Ring::new(),
            index: SchedIndex::EMPTY,
        }
    }

    /// Appends a renamed µop built by `make`; it enters the pending set
    /// (rename sets `wake_at = 0`). A push that grows the ring rotates
    /// the live entries, so it rebuilds the index instead.
    #[inline]
    pub(crate) fn push_back_with(&mut self, make: impl FnOnce() -> RobEntry) -> &mut RobEntry {
        let grows = self.ring.len() == self.ring.capacity();
        let i = self.ring.len();
        self.ring.push_back_with(make);
        if grows {
            debug_assert!(self.ring.capacity() <= Self::MAX_ENTRIES);
            self.rebuild_with(|_| {});
        } else {
            self.index.pending.insert(self.ring.slot(i));
            self.index.unstarted += 1;
        }
        let e = &mut self.ring[i];
        debug_assert!(is_pending(e), "a renamed µop is pending");
        e
    }

    /// Removes the (retired) oldest entry, which is in neither set.
    #[inline]
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.ring.front().is_some_and(|e| {
            let s = self.ring.head();
            e.started && !self.index.pending.contains(s) && !self.index.branches.contains(s)
        }));
        self.ring.pop_front();
    }

    /// Drops every entry younger than the `len` oldest. The caller
    /// rebuilds the index ([`Rob::rebuild_with`]) before the next cycle.
    #[inline]
    pub(crate) fn truncate(&mut self, len: usize) {
        self.ring.truncate(len);
    }

    /// Drops every entry and empties the index.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
        self.index = SchedIndex::EMPTY;
    }

    /// Applies `f` to every entry, oldest first, and rebuilds the index
    /// from the updated entries in the same pass.
    pub(crate) fn rebuild_with(&mut self, mut f: impl FnMut(&mut RobEntry)) {
        self.index = SchedIndex::EMPTY;
        for i in 0..self.ring.len() {
            let s = self.ring.slot(i);
            let e = &mut self.ring[i];
            f(e);
            self.index.add(s, e);
        }
    }

    /// Entries that have not started executing (reservation-station
    /// occupancy).
    #[inline]
    pub(crate) fn unstarted(&self) -> usize {
        self.index.unstarted
    }

    /// Index of the oldest pending entry at or after index `from`.
    #[inline]
    pub(crate) fn next_pending(&self, from: usize) -> Option<usize> {
        self.next_in(&self.index.pending, from)
    }

    /// Index of the oldest unresolved branch at or after index `from`.
    #[inline]
    pub(crate) fn next_branch(&self, from: usize) -> Option<usize> {
        // Most cycles hold no executed-unresolved branch: answer those
        // without touching the ring.
        if self.index.unresolved == 0 {
            return None;
        }
        self.next_in(&self.index.branches, from)
    }

    /// Walks `set` a word at a time in age order from logical index
    /// `from`. Reading the live set on every call lets a caller that
    /// flips bits of younger entries mid-walk (a wake-up) see them.
    #[inline]
    fn next_in(&self, set: &SlotSet, from: usize) -> Option<usize> {
        let (len, cap) = (self.ring.len(), self.ring.capacity());
        let mut i = from;
        while i < len {
            let s = self.ring.slot(i);
            let w = set.0[s / 64] >> (s % 64);
            if w != 0 {
                // Set bits sit on live slots only, so a hit past `len`
                // is a slot at or after the head in the wrapped part
                // of the walk: no younger entry is left.
                let j = i + w.trailing_zeros() as usize;
                return (j < len).then_some(j);
            }
            // Skip to the next word, or wrap at the end of the storage.
            i += (64 - s % 64).min(cap - s);
        }
        None
    }

    /// The pending entry at `i` starts executing: sets `started`, takes
    /// it out of the pending set and, if it is a branch, puts it in the
    /// branch set. Returns the entry for the rest of the start.
    #[inline]
    pub(crate) fn start(&mut self, i: usize) -> &mut RobEntry {
        let s = self.ring.slot(i);
        debug_assert!(self.index.pending.contains(s));
        self.index.pending.remove(s);
        self.index.unstarted -= 1;
        let e = &mut self.ring[i];
        e.started = true;
        if e.kind.is_branch() {
            self.index.branches.insert(s);
            self.index.unresolved += 1;
        }
        e
    }

    /// The pending entry at `i` parks on a producer's waiter list
    /// (`wake_at = u64::MAX`) and leaves the pending set.
    #[inline]
    pub(crate) fn park(&mut self, i: usize) -> &mut RobEntry {
        let s = self.ring.slot(i);
        debug_assert!(self.index.pending.contains(s));
        self.index.pending.remove(s);
        let e = &mut self.ring[i];
        e.wake_at = u64::MAX;
        e
    }

    /// The parked entry at `i` is woken at `now`: it is pending again.
    #[inline]
    pub(crate) fn wake(&mut self, i: usize, now: u64) -> &mut RobEntry {
        let s = self.ring.slot(i);
        debug_assert!(!self.index.pending.contains(s));
        self.index.pending.insert(s);
        let e = &mut self.ring[i];
        e.wake_at = now;
        e
    }

    /// The branch at `i` resolves: sets `resolved` and takes it out of
    /// the branch set.
    #[inline]
    pub(crate) fn resolve(&mut self, i: usize) -> &mut RobEntry {
        let s = self.ring.slot(i);
        debug_assert!(self.index.branches.contains(s));
        self.index.branches.remove(s);
        self.index.unresolved -= 1;
        let e = &mut self.ring[i];
        e.resolved = true;
        e
    }

    /// Describes how the kept index differs from the one the entries
    /// define, if it does (the check-mode invariant).
    pub(crate) fn index_mismatch(&self) -> Option<String> {
        let mut fresh = SchedIndex::EMPTY;
        for (i, e) in self.ring.iter().enumerate() {
            fresh.add(self.ring.slot(i), e);
        }
        (fresh != self.index).then(|| format!("kept {:?}, entries say {fresh:?}", self.index))
    }
}

impl Clone for Rob {
    fn clone(&self) -> Self {
        let mut rob = Rob::new();
        rob.clone_from(self);
        rob
    }

    /// Repacks the live entries from slot 0 (see [`Ring::clone_from`])
    /// and rebuilds the index for their new slots.
    fn clone_from(&mut self, src: &Self) {
        self.ring.clone_from(&src.ring);
        self.rebuild_with(|_| {});
    }
}

impl Deref for Rob {
    type Target = Ring<RobEntry>;

    #[inline]
    fn deref(&self) -> &Ring<RobEntry> {
        &self.ring
    }
}

impl Index<usize> for Rob {
    type Output = RobEntry;

    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        &self.ring[i]
    }
}

impl IndexMut<usize> for Rob {
    /// Mutable access to one entry. `started`, `resolved` and a parking
    /// or waking `wake_at` change only through [`Rob::start`],
    /// [`Rob::resolve`], [`Rob::park`] and [`Rob::wake`]; a finite
    /// `wake_at` may be moved here (it keeps the entry pending).
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        &mut self.ring[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{DepList, RegList, ResultList, UopKind, NOT_EXECUTED};
    use tet_isa::{Inst, Opcode};

    fn entry(id: u64, branch: bool) -> RobEntry {
        let inst = if branch {
            Inst::Jmp { target: 0 }
        } else {
            Inst::Nop
        };
        RobEntry {
            id,
            pc: 0,
            pred_next: 0,
            deps: DepList::new(),
            started: false,
            forward_at: NOT_EXECUTED,
            done_at: NOT_EXECUTED,
            results: ResultList::new(),
            flags_out: None,
            fault: None,
            actual_next: None,
            resolved: false,
            mispredicted: false,
            store: None,
            txn_abort: None,
            txn_snapshot: 0,
            kind: UopKind::classify(&inst),
            dests: RegList::new(),
            op: if branch { Opcode::Jmp } else { Opcode::Nop },
            wake_at: 0,
            waiter_head: None,
            next_waiter: None,
        }
    }

    /// Indices of the live entries `pred` selects, oldest first.
    fn select(rob: &Rob, pred: fn(&RobEntry) -> bool) -> Vec<usize> {
        rob.iter()
            .enumerate()
            .filter(|(_, e)| pred(e))
            .map(|(i, _)| i)
            .collect()
    }

    /// Every `next_*(from)` answer equals a linear scan of the entries.
    fn assert_walks_match(rob: &Rob) {
        assert_eq!(rob.index_mismatch(), None);
        let pending = select(rob, is_pending);
        let branches = select(rob, is_unresolved_branch);
        for from in 0..=rob.len() + 1 {
            let first = |v: &[usize]| v.iter().copied().find(|&i| i >= from);
            assert_eq!(
                rob.next_pending(from),
                first(&pending),
                "pending from {from}"
            );
            assert_eq!(
                rob.next_branch(from),
                first(&branches),
                "branch from {from}"
            );
        }
    }

    /// Random rename / start / park / wake / resolve / retire / squash /
    /// fork sequences, at occupancy caps that keep the storage under one
    /// word, at exactly one word and across several words, so walks
    /// start in the wrapped part of the ring and wrap at its end.
    #[test]
    fn walks_match_a_linear_scan_under_random_events() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for cap in [5, 8, 64, 100, 512] {
            let mut rob = Rob::new();
            let mut next_id = 0;
            for _ in 0..6_000 {
                let pick = |rob: &Rob, pred: fn(&RobEntry) -> bool, r: usize| {
                    let v = select(rob, pred);
                    (!v.is_empty()).then(|| v[r % v.len()])
                };
                let r = rand(1 << 20);
                match rand(16) {
                    0..=4 if rob.len() < cap => {
                        rob.push_back_with(|| entry(next_id, r % 3 == 0));
                        next_id += 1;
                    }
                    5 | 6 => {
                        if let Some(i) = pick(&rob, is_pending, r) {
                            rob.start(i).done_at = 0;
                        }
                    }
                    7 => {
                        if let Some(i) = pick(&rob, is_pending, r) {
                            rob.park(i);
                        }
                    }
                    8 => {
                        if let Some(i) = pick(&rob, |e| !e.started && !is_pending(e), r) {
                            rob.wake(i, 0);
                        }
                    }
                    9 => {
                        if let Some(i) = pick(&rob, is_unresolved_branch, r) {
                            rob.resolve(i);
                        }
                    }
                    10..=12
                        if rob
                            .front()
                            .is_some_and(|e| e.started && !is_unresolved_branch(e)) =>
                    {
                        rob.pop_front();
                    }
                    13 => {
                        rob.truncate(r % (rob.len() + 1));
                        rob.rebuild_with(|e| {
                            if !e.started {
                                e.wake_at = 0;
                            }
                        });
                    }
                    14 => {
                        let mut other = Rob::new();
                        for k in 0..r % (cap + 1) {
                            other.push_back_with(|| entry(k as u64, false));
                        }
                        other.clone_from(&rob);
                        rob = if r % 2 == 0 { other } else { rob.clone() };
                    }
                    15 if r % 50 == 0 => rob.clear(),
                    _ => {}
                }
                assert_walks_match(&rob);
            }
        }
    }
}
