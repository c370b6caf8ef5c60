//! The automated PMU analysis toolset of Figure 2.
//!
//! The paper's workflow has three stages:
//!
//! 1. **Preparation** — enumerate candidate events from the vendor catalog
//!    (here: [`Event::ALL`](crate::Event::ALL), optionally filtered by
//!    vendor/unit).
//! 2. **Online collection** — run the scenario many times and record the
//!    counters for each run ([`Collector`]).
//! 3. **Offline analysis** — differentially filter events whose mean value
//!    differs between a baseline scenario and a variant scenario
//!    ([`DifferentialReport`]), which is how Table 3 was produced.

use crate::{Event, PmuSnapshot, Unit};

/// Averaged counter values over a set of collection runs.
///
/// Values are kept as `f64` means so that small per-run variations (e.g.
/// from the simulator's noise model) survive averaging, exactly as
/// repeated `perf stat` runs would be averaged.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedCounts {
    means: Vec<f64>,
    runs: usize,
}

impl AveragedCounts {
    /// Returns the mean value of `event` across the collected runs.
    pub fn mean(&self, event: Event) -> f64 {
        self.means[event as usize]
    }

    /// Number of runs that were averaged.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

/// Online collection stage: runs a scenario closure repeatedly and
/// averages the resulting per-run snapshots.
///
/// # Examples
///
/// ```
/// use tet_pmu::{Collector, Event, Pmu};
///
/// let avg = Collector::new(4).collect(|run| {
///     let mut pmu = Pmu::new();
///     pmu.bump(Event::UopsIssuedAny, 10 + run as u64);
///     pmu.snapshot()
/// });
/// assert_eq!(avg.mean(Event::UopsIssuedAny), 11.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collector {
    runs: usize,
}

impl Collector {
    /// Creates a collector that performs `runs` scenario executions.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn new(runs: usize) -> Self {
        assert!(runs > 0, "collector needs at least one run");
        Collector { runs }
    }

    /// Runs the scenario `runs` times and averages the snapshots.
    ///
    /// The closure receives the zero-based run index so scenarios can
    /// vary seeds per run.
    pub fn collect<F>(&self, mut scenario: F) -> AveragedCounts
    where
        F: FnMut(usize) -> PmuSnapshot,
    {
        let mut sums = vec![0.0f64; Event::ALL.len()];
        for run in 0..self.runs {
            let snap = scenario(run);
            for (e, v) in snap.iter() {
                sums[e as usize] += v as f64;
            }
        }
        for s in &mut sums {
            *s /= self.runs as f64;
        }
        AveragedCounts {
            means: sums,
            runs: self.runs,
        }
    }
}

/// One event that survived differential filtering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventDelta {
    /// The event that reacted to the scenario knob.
    pub event: Event,
    /// Mean value under the baseline scenario.
    pub baseline: f64,
    /// Mean value under the variant scenario.
    pub variant: f64,
}

impl EventDelta {
    /// Absolute difference between variant and baseline means.
    pub fn abs_delta(&self) -> f64 {
        (self.variant - self.baseline).abs()
    }

    /// Relative difference (`|v-b| / max(|b|, 1)`), robust near zero.
    pub fn rel_delta(&self) -> f64 {
        self.abs_delta() / self.baseline.abs().max(1.0)
    }
}

/// Offline analysis stage: differential filtering of two averaged runs.
///
/// This is the filter that produces Table 3: events whose counter value
/// changes between "Jcc not triggered" and "Jcc triggered" (or "unmapped"
/// and "mapped") are relevant to the side channel; everything else is
/// discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialReport {
    deltas: Vec<EventDelta>,
}

impl DifferentialReport {
    /// Compares the two averaged collections and keeps events whose
    /// absolute mean difference is at least `min_abs_delta`.
    ///
    /// Results are sorted by descending absolute delta, so the most
    /// reactive events (the ones worth a manual look) come first.
    pub fn compare(
        baseline: &AveragedCounts,
        variant: &AveragedCounts,
        min_abs_delta: f64,
    ) -> Self {
        let mut deltas: Vec<EventDelta> = Event::ALL
            .iter()
            .map(|&event| EventDelta {
                event,
                baseline: baseline.mean(event),
                variant: variant.mean(event),
            })
            .filter(|d| d.abs_delta() >= min_abs_delta)
            .collect();
        deltas.sort_by(|a, b| {
            b.abs_delta()
                .partial_cmp(&a.abs_delta())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        DifferentialReport { deltas }
    }

    /// All surviving deltas, most reactive first.
    pub fn deltas(&self) -> &[EventDelta] {
        &self.deltas
    }

    /// Surviving deltas restricted to one microarchitectural unit —
    /// used to answer the paper's RQ1/RQ2/RQ3 per-unit questions.
    pub fn deltas_for_unit(&self, unit: Unit) -> impl Iterator<Item = &EventDelta> {
        self.deltas
            .iter()
            .filter(move |d| d.event.desc().unit == unit)
    }

    /// Renders the report as an aligned text table (the "offline analysis"
    /// artifact of Figure 2).
    pub fn to_table(&self, baseline_label: &str, variant_label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<52} {:>14} {:>14} {:>10}\n",
            "Event", baseline_label, variant_label, "|delta|"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<52} {:>14.1} {:>14.1} {:>10.1}\n",
                d.event.name(),
                d.baseline,
                d.variant,
                d.abs_delta()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pmu;

    fn snap_with(pairs: &[(Event, u64)]) -> PmuSnapshot {
        let mut pmu = Pmu::new();
        for &(e, v) in pairs {
            pmu.bump(e, v);
        }
        pmu.snapshot()
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn collector_rejects_zero_runs() {
        let _ = Collector::new(0);
    }

    #[test]
    fn collector_averages_across_runs() {
        let avg = Collector::new(2).collect(|run| {
            snap_with(&[(Event::ResourceStallsAny, if run == 0 { 15 } else { 21 })])
        });
        assert_eq!(avg.mean(Event::ResourceStallsAny), 18.0);
        assert_eq!(avg.runs(), 2);
    }

    #[test]
    fn differential_filter_keeps_only_reactive_events() {
        let base = Collector::new(1)
            .collect(|_| snap_with(&[(Event::UopsIssuedAny, 334), (Event::InstRetiredAny, 100)]));
        let var = Collector::new(1)
            .collect(|_| snap_with(&[(Event::UopsIssuedAny, 319), (Event::InstRetiredAny, 100)]));
        let report = DifferentialReport::compare(&base, &var, 2.0);
        assert_eq!(report.deltas().len(), 1);
        assert_eq!(report.deltas()[0].event, Event::UopsIssuedAny);
        assert_eq!(report.deltas()[0].abs_delta(), 15.0);
    }

    #[test]
    fn deltas_sorted_by_magnitude() {
        let base = Collector::new(1).collect(|_| {
            snap_with(&[
                (Event::IdqMsMiteUops, 77),
                (Event::IntMiscClearResteerCycles, 27),
            ])
        });
        let var = Collector::new(1).collect(|_| {
            snap_with(&[
                (Event::IdqMsMiteUops, 97),
                (Event::IntMiscClearResteerCycles, 39),
            ])
        });
        let report = DifferentialReport::compare(&base, &var, 1.0);
        assert_eq!(report.deltas()[0].event, Event::IdqMsMiteUops);
        assert_eq!(report.deltas()[1].event, Event::IntMiscClearResteerCycles);
    }

    #[test]
    fn unit_filter_selects_frontend_events() {
        let base = Collector::new(1)
            .collect(|_| snap_with(&[(Event::IdqDsbUops, 119), (Event::ResourceStallsAny, 15)]));
        let var = Collector::new(1)
            .collect(|_| snap_with(&[(Event::IdqDsbUops, 115), (Event::ResourceStallsAny, 21)]));
        let report = DifferentialReport::compare(&base, &var, 1.0);
        let frontend: Vec<_> = report.deltas_for_unit(Unit::Frontend).collect();
        assert_eq!(frontend.len(), 1);
        assert_eq!(frontend[0].event, Event::IdqDsbUops);
    }

    #[test]
    fn table_rendering_contains_event_names() {
        let base =
            Collector::new(1).collect(|_| snap_with(&[(Event::DtlbLoadMissesWalkActive, 62)]));
        let var = Collector::new(1).collect(|_| snap_with(&[(Event::DtlbLoadMissesWalkActive, 0)]));
        let report = DifferentialReport::compare(&base, &var, 1.0);
        let table = report.to_table("unmapped", "mapped");
        assert!(table.contains("DTLB_LOAD_MISSES.WALK_ACTIVE"));
        assert!(table.contains("unmapped"));
    }

    #[test]
    fn rel_delta_is_robust_near_zero_baseline() {
        let d = EventDelta {
            event: Event::BrMispExecIndirect,
            baseline: 0.0,
            variant: 1.0,
        };
        assert_eq!(d.rel_delta(), 1.0);
    }
}
