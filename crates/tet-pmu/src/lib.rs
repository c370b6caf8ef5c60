//! Performance monitor unit (PMU) model for the Whisper reproduction.
//!
//! The paper analyses the root cause of the TET side channel with an
//! automated PMU toolset (Figure 2): a *preparation* stage builds the list
//! of candidate events from the vendor catalogs, an *online collection*
//! stage records counter values while a scenario runs, and an *offline
//! analysis* stage differentially filters the events that react to the
//! scenario knob (e.g. "Jcc triggered" vs "Jcc not triggered").
//!
//! This crate provides all three pieces for the simulated CPU:
//!
//! * [`Event`] — the event catalog, covering every event in Table 3 of the
//!   paper (Intel Skylake/Kaby Lake/Comet Lake names and the AMD Zen 3
//!   names) plus a set of general pipeline/memory events, each with a
//!   vendor, a [`Unit`] (frontend / backend / memory / core) and a
//!   human-readable description.
//! * [`Pmu`] — the live counter bank the simulator increments, and
//!   [`PmuSnapshot`] — an immutable copy taken around a region of interest.
//! * [`toolset`] — the Figure 2 pipeline: multi-run collection, averaging,
//!   and differential filtering.
//!
//! # Examples
//!
//! ```
//! use tet_pmu::{Event, Pmu};
//!
//! let mut pmu = Pmu::new();
//! pmu.bump(Event::UopsIssuedAny, 4);
//! pmu.bump(Event::BrMispExecAllBranches, 1);
//! let snap = pmu.snapshot();
//! assert_eq!(snap.count(Event::UopsIssuedAny), 4);
//! assert_eq!(snap.count(Event::BrMispExecAllBranches), 1);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod toolset;

pub use event::{Event, EventDesc, Unit, Vendor};
pub use toolset::{Collector, DifferentialReport, EventDelta};

/// A live bank of performance counters.
///
/// The simulator owns one `Pmu` per logical thread and increments it from
/// every pipeline stage. Attack and analysis code never mutates a `Pmu`;
/// it works on [`PmuSnapshot`]s taken before/after a region of interest.
///
/// # Examples
///
/// ```
/// use tet_pmu::{Event, Pmu};
///
/// let mut pmu = Pmu::new();
/// let before = pmu.snapshot();
/// pmu.bump(Event::ResourceStallsAny, 21);
/// let after = pmu.snapshot();
/// assert_eq!(after.delta(&before).count(Event::ResourceStallsAny), 21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pmu {
    counts: Counts,
}

/// One counter per catalog event, inline: snapshots and deltas are
/// plain copies that never touch the heap.
type Counts = [u64; Event::ALL.len()];

impl Pmu {
    /// Creates a counter bank with every event zeroed.
    pub fn new() -> Self {
        Pmu {
            counts: [0; Event::ALL.len()],
        }
    }

    /// Increments `event` by `n`.
    #[inline]
    pub fn bump(&mut self, event: Event, n: u64) {
        self.counts[event as usize] += n;
    }

    /// Returns the current value of `event`.
    #[inline]
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.counts = [0; Event::ALL.len()];
    }

    /// Takes an immutable copy of all counters.
    pub fn snapshot(&self) -> PmuSnapshot {
        PmuSnapshot {
            counts: self.counts,
        }
    }

    /// Adds every counter of `delta` (one element-wise pass, no
    /// per-event dispatch) — how a replayed run credits the counts its
    /// recorded delta says it would have produced.
    pub fn add(&mut self, delta: &PmuSnapshot) {
        add_counts(&mut self.counts, &delta.counts);
    }
}

/// `a += b`, counter by counter.
fn add_counts(a: &mut Counts, b: &Counts) {
    for (a, b) in a.iter_mut().zip(b) {
        *a += b;
    }
}

impl Default for Pmu {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable copy of all counter values at one instant.
///
/// Snapshots support subtraction via [`PmuSnapshot::delta`], which is how
/// per-region counts are obtained (mirroring `perf`'s grouped reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuSnapshot {
    counts: Counts,
}

impl PmuSnapshot {
    /// A snapshot with every counter zero; useful as a subtraction base.
    pub fn zero() -> Self {
        PmuSnapshot {
            counts: [0; Event::ALL.len()],
        }
    }

    /// Returns the recorded value of `event`.
    #[inline]
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Returns `self - earlier`, saturating at zero per counter.
    ///
    /// Saturation (rather than panicking) keeps the toolset robust when a
    /// caller accidentally swaps the operands; counters are monotonic in
    /// normal use so the result is exact.
    pub fn delta(&self, earlier: &PmuSnapshot) -> PmuSnapshot {
        let mut counts = self.counts;
        for (a, b) in counts.iter_mut().zip(&earlier.counts) {
            *a = a.saturating_sub(*b);
        }
        PmuSnapshot { counts }
    }

    /// Adds every counter of `delta` into this snapshot — how lifetime
    /// accumulators (e.g. a machine's across-restore PMU totals) fold
    /// per-run deltas together.
    pub fn accumulate(&mut self, delta: &PmuSnapshot) {
        add_counts(&mut self.counts, &delta.counts);
    }

    /// Learns a 0/1 response mask from two observations of the same
    /// probe whose timing differed by `d0` cycles: every counter must
    /// have moved by exactly `0` (a pure event count) or exactly `d0`
    /// (a cycle-counting event that absorbed the whole shift — e.g.
    /// unhalted-cycle or stall-cycle events). Returns `None` if any
    /// counter moved by anything else; `d0` must be non-zero.
    pub fn unit_shift(&self, other: &PmuSnapshot, d0: i64) -> Option<PmuSnapshot> {
        debug_assert_ne!(d0, 0);
        let mut counts = [0; Event::ALL.len()];
        for ((u, a), b) in counts.iter_mut().zip(&self.counts).zip(&other.counts) {
            let diff = *b as i64 - *a as i64;
            if diff == d0 {
                *u = 1;
            } else if diff != 0 {
                return None;
            }
        }
        Some(PmuSnapshot { counts })
    }

    /// Returns `self + d * unit` per counter — reconstructs the
    /// snapshot a probe shifted by `d` cycles would have produced,
    /// given the 0/1 response mask [`PmuSnapshot::unit_shift`] learned.
    pub fn add_scaled(&self, unit: &PmuSnapshot, d: i64) -> PmuSnapshot {
        let mut counts = self.counts;
        for (a, u) in counts.iter_mut().zip(&unit.counts) {
            *a = a.wrapping_add_signed(d * *u as i64);
        }
        PmuSnapshot { counts }
    }

    /// Iterates over `(event, value)` pairs for all events.
    pub fn iter(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL
            .iter()
            .copied()
            .map(move |e| (e, self.counts[e as usize]))
    }

    /// Iterates over `(event, value)` pairs with non-zero values.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        self.iter().filter(|&(_, v)| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pmu_is_all_zero() {
        let pmu = Pmu::new();
        for e in Event::ALL {
            assert_eq!(pmu.count(*e), 0, "{e:?} should start at zero");
        }
    }

    #[test]
    fn bump_accumulates() {
        let mut pmu = Pmu::new();
        pmu.bump(Event::UopsIssuedAny, 3);
        pmu.bump(Event::UopsIssuedAny, 4);
        assert_eq!(pmu.count(Event::UopsIssuedAny), 7);
    }

    #[test]
    fn add_matches_bumping_every_nonzero_event() {
        let mut src = Pmu::new();
        for (k, e) in Event::ALL.iter().enumerate().step_by(3) {
            src.bump(*e, k as u64 + 1);
        }
        let delta = src.snapshot();
        let mut added = Pmu::new();
        added.bump(Event::UopsIssuedAny, 5);
        let mut bumped = added.clone();
        added.add(&delta);
        for (e, n) in delta.iter_nonzero() {
            bumped.bump(e, n);
        }
        assert_eq!(added, bumped);
    }

    #[test]
    fn reset_clears_all() {
        let mut pmu = Pmu::new();
        pmu.bump(Event::IdqDsbUops, 10);
        pmu.bump(Event::ItlbMissesWalkActive, 19);
        pmu.reset();
        assert_eq!(pmu.count(Event::IdqDsbUops), 0);
        assert_eq!(pmu.count(Event::ItlbMissesWalkActive), 0);
    }

    #[test]
    fn snapshot_delta_is_per_event() {
        let mut pmu = Pmu::new();
        pmu.bump(Event::DtlbLoadMissesWalkActive, 62);
        let before = pmu.snapshot();
        pmu.bump(Event::DtlbLoadMissesWalkActive, 8);
        pmu.bump(Event::MachineClearsCount, 1);
        let after = pmu.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.count(Event::DtlbLoadMissesWalkActive), 8);
        assert_eq!(d.count(Event::MachineClearsCount), 1);
        assert_eq!(d.count(Event::UopsIssuedAny), 0);
    }

    #[test]
    fn delta_saturates_when_operands_swapped() {
        let mut pmu = Pmu::new();
        let before = pmu.snapshot();
        pmu.bump(Event::RsEventsEmptyCycles, 5);
        let after = pmu.snapshot();
        assert_eq!(before.delta(&after).count(Event::RsEventsEmptyCycles), 0);
    }

    #[test]
    fn iter_nonzero_skips_zeroes() {
        let mut pmu = Pmu::new();
        pmu.bump(Event::IcFw32, 661);
        let nz: Vec<_> = pmu.snapshot().iter_nonzero().collect();
        assert_eq!(nz, vec![(Event::IcFw32, 661)]);
    }
}
