//! The bench gate: a paired comparison of a baseline revision's
//! `bench_core` runs with the change's.
//!
//! The same binary varies up to ~2× from run to run on a shared host, so
//! `scripts/bench.sh --pair REV` runs [`PAIRS`] smoke pairs of REV's
//! binary (the parent) and the working tree's (the change), swapping
//! which side goes first each pair. [`compare`] reports, per key, both
//! medians, the parent's IQR relative to its median, the median paired
//! ratio and the pairs the change won. A key [`direction_for`] directs
//! fails when the change is worse in at least [`MIN_WORSE`] pairs *and*
//! its median is worse than the parent's by more than the parent's
//! relative IQR, or when the parent reports it and the change does not.
//! Every other key is informational.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use tet_obs::RunReport;

/// Smoke pairs per comparison.
pub const PAIRS: usize = 10;

/// Pairs a gated key must lose before its median gap is considered.
pub const MIN_WORSE: usize = 9;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-shaped: regressions are *drops* (cycles/sec, speedup).
    HigherIsBetter,
    /// Latency-shaped: regressions are *rises* (ns/trial, seconds).
    LowerIsBetter,
}

/// The host-performance direction of a metric key, if it has one.
///
/// Latency-shaped keys (`ns_per_iter`, `ns_per_trial`, `ns_per_uop`,
/// the Table 2 wall-clock seconds) regress *upward*; throughput-shaped
/// keys (`*_per_sec`, `speedup`) regress *downward*. Simulated-time
/// metrics (e.g. `tet_kaslr.mean_seconds`, deterministic simulated
/// seconds) and everything else return `None` and are never gated.
pub fn direction_for(key: &str) -> Option<Direction> {
    if key.ends_with("ns_per_iter") || key.ends_with("ns_per_trial") || key.ends_with("ns_per_uop")
    {
        return Some(Direction::LowerIsBetter);
    }
    if key.ends_with("threads1_seconds") || key.ends_with("threadsN_seconds") {
        return Some(Direction::LowerIsBetter);
    }
    // The split snapshot-fork legs. Deliberately *not* a generic `_ns`
    // rule: `snapshot_fork.warmup_ns` must stay undirected (sealing for
    // delta restore grows the snapshot clone, and warm-up is paid once
    // per campaign, not per trial), as must the `kernel.*`,
    // `structures.*` and `live_probe.*` legs.
    if key.ends_with("restore_ns") || key.ends_with("simulate_ns") {
        return Some(Direction::LowerIsBetter);
    }
    if key.ends_with("_per_sec") || key.ends_with("speedup") {
        return Some(Direction::HigherIsBetter);
    }
    None
}

/// Every finite metric of a report: `sim_cycles_per_sec`, the scalars
/// and the counters.
fn metrics(rep: &RunReport) -> BTreeMap<String, f64> {
    let mut out = rep.scalars.clone();
    out.extend(rep.counters.iter().map(|(k, &v)| (k.clone(), v as f64)));
    if let Some(v) = rep.sim_cycles_per_sec {
        out.insert("sim_cycles_per_sec".to_string(), v);
    }
    out.retain(|_, v| v.is_finite());
    out
}

/// Linear-interpolation quantile of non-empty values.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let h = (s.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    s[lo] + (h - lo as f64) * (s[(lo + 1).min(s.len() - 1)] - s[lo])
}

/// A key's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Gated key, not worse by the rule.
    Pass,
    /// Gated key, worse by the rule: fails the gate.
    Regressed,
    /// Gated key the parent reports and the change does not: fails.
    Missing,
    /// A key only the change reports.
    New,
    /// An ungated key.
    Info,
}

/// One key compared across the pairs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric key.
    pub key: String,
    /// Median over the parent's runs.
    pub parent: Option<f64>,
    /// Median over the change's runs.
    pub change: Option<f64>,
    /// The parent's interquartile range relative to its median, percent.
    pub parent_iqr_pct: f64,
    /// Median over the pairs of change / parent.
    pub ratio: Option<f64>,
    /// Pairs the change did better in (gated keys only).
    pub wins: usize,
    /// Pairs the change did worse in (gated keys only).
    pub worse: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// Whether this key fails the gate.
    pub fn fails(&self) -> bool {
        matches!(self.verdict, Verdict::Regressed | Verdict::Missing)
    }

    /// One diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{:?} {}: parent {} -> change {} (ratio {}, worse in {}/{} pairs, parent IQR {:.1}%)",
            self.verdict,
            self.key,
            num(self.parent),
            num(self.change),
            num(self.ratio),
            self.worse,
            self.pairs,
            self.parent_iqr_pct
        )
    }
}

/// Compares `parent[i]` with `change[i]` for every metric either side
/// reports, in key order.
///
/// # Panics
///
/// Panics unless both sides hold the same number of runs.
pub fn compare(parent: &[RunReport], change: &[RunReport]) -> Vec<Row> {
    assert_eq!(parent.len(), change.len(), "runs come in pairs");
    let parent: Vec<_> = parent.iter().map(metrics).collect();
    let change: Vec<_> = change.iter().map(metrics).collect();
    // One side's values of a key, or `None` unless every run reports it.
    let side = |runs: &[BTreeMap<String, f64>], key: &str| -> Option<Vec<f64>> {
        let values: Option<Vec<f64>> = runs.iter().map(|m| m.get(key).copied()).collect();
        values.filter(|v| !v.is_empty())
    };
    let keys: BTreeSet<_> = parent
        .iter()
        .chain(&change)
        .flat_map(|m| m.keys())
        .collect();
    keys.into_iter()
        .map(|key| row(key, side(&parent, key), side(&change, key)))
        .collect()
}

fn row(key: &str, parent: Option<Vec<f64>>, change: Option<Vec<f64>>) -> Row {
    let direction = direction_for(key);
    let median = |v: &Option<Vec<f64>>| v.as_deref().map(|v| quantile(v, 0.5));
    let mut row = Row {
        key: key.to_string(),
        parent: median(&parent),
        change: median(&change),
        parent_iqr_pct: 0.0,
        ratio: None,
        wins: 0,
        worse: 0,
        pairs: 0,
        verdict: match (&parent, &change, direction) {
            (None, _, _) => Verdict::New,
            (Some(_), None, Some(_)) => Verdict::Missing,
            _ => Verdict::Info,
        },
    };
    let (Some(p), Some(c), Some(p_med), Some(c_med)) = (parent, change, row.parent, row.change)
    else {
        return row;
    };
    // Relative figures need a positive parent median; a zero or negative
    // one (a skipped leg) yields zero spread and gap, never NaN.
    let relative = |x: f64| if p_med > 0.0 { x / p_med } else { 0.0 };
    let iqr = relative(quantile(&p, 0.75) - quantile(&p, 0.25));
    let pairs = p.iter().zip(&c);
    let ratios: Vec<f64> = pairs
        .clone()
        .filter(|(p, _)| **p > 0.0)
        .map(|(p, c)| c / p)
        .collect();
    row.ratio = (!ratios.is_empty()).then(|| quantile(&ratios, 0.5));
    row.parent_iqr_pct = iqr * 100.0;
    row.pairs = p.len();
    // Orient every difference so that positive means "the change is
    // worse".
    let sign = match direction {
        Some(Direction::LowerIsBetter) => 1.0,
        Some(Direction::HigherIsBetter) => -1.0,
        None => return row,
    };
    for (p, c) in pairs {
        row.worse += usize::from(sign * (c - p) > 0.0);
        row.wins += usize::from(sign * (c - p) < 0.0);
    }
    let gap = relative(sign * (c_med - p_med));
    row.verdict = if row.worse >= MIN_WORSE && gap > iqr {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    row
}

fn num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Renders the rows as an aligned table, gated keys first.
pub fn render_table(rows: &[Row]) -> String {
    let mut table = crate::Table::new(&[
        "metric",
        "parent",
        "change",
        "parent IQR",
        "ratio",
        "wins",
        "verdict",
    ]);
    let mut ordered: Vec<&Row> = rows.iter().collect();
    ordered.sort_by_key(|r| direction_for(&r.key).is_none());
    for r in ordered {
        let gated = direction_for(&r.key).is_some() && r.pairs > 0;
        table.row_owned(vec![
            r.key.clone(),
            num(r.parent),
            num(r.change),
            format!("{:.1}%", r.parent_iqr_pct),
            num(r.ratio),
            if gated {
                format!("{}/{}", r.wins, r.pairs)
            } else {
                "-".to_string()
            },
            format!("{:?}", r.verdict),
        ]);
    }
    table.render()
}

/// The paired report `scripts/bench.sh --pair` commits as
/// `BENCH_core.json`: per key, `pair.<key>.{parent,change,ratio}`
/// scalars and, for gated keys, a `pair.<key>.wins` counter.
pub fn paired_report(rows: &[Row], parent_rev: &str) -> RunReport {
    let mut rep = RunReport::new("bench_pair");
    let failed = rows.iter().any(Row::fails);
    rep.set_meta("parent", parent_rev);
    rep.set_meta("verdict", if failed { "fail" } else { "pass" });
    for r in rows {
        let legs = [
            ("parent", r.parent),
            ("change", r.change),
            ("ratio", r.ratio),
        ];
        for (leg, v) in legs {
            if let Some(v) = v {
                rep.scalar(&format!("pair.{}.{leg}", r.key), v);
            }
        }
        if direction_for(&r.key).is_some() && r.pairs > 0 {
            rep.counter(&format!("pair.{}.wins", r.key), r.wins as u64);
        }
    }
    rep
}

/// Loads the [`PAIRS`] pairs of one comparison from `dir`: every
/// `parent-<n>.json` with its `change-<n>.json`, in file-name order.
pub fn load_pairs(dir: &Path) -> Result<(Vec<RunReport>, Vec<RunReport>), String> {
    let err = |p: &Path, e: &dyn std::fmt::Display| format!("{}: {e}", p.display());
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| err(p, &e))?;
        RunReport::from_json(&text).map_err(|e| err(p, &e))
    };
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| err(dir, &e))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("parent-") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.len() != PAIRS {
        return Err(err(
            dir,
            &format!("{} pairs, expected {PAIRS}", names.len()),
        ));
    }
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    for name in names {
        parent.push(load(&dir.join(&name))?);
        change.push(load(&dir.join(name.replacen("parent", "change", 1)))?);
    }
    Ok((parent, change))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten parent values in run order: median 100, quartiles 95 and 105,
    /// so an IQR of 10 % of the median.
    const PARENT: [f64; PAIRS] = [100., 92., 105., 110., 95., 108., 90., 105., 100., 95.];

    fn runs(key: &str, values: &[f64]) -> Vec<RunReport> {
        let run = |v: f64| {
            let mut r = RunReport::new("bench_core");
            match key {
                "sim_cycles_per_sec" => r.sim_cycles_per_sec = Some(v),
                _ => _ = r.scalar(key, v),
            }
            r
        };
        values.iter().map(|&v| run(v)).collect()
    }

    fn scaled(f: f64) -> Vec<f64> {
        PARENT.iter().map(|v| v * f).collect()
    }

    fn verdict(key: &str, parent: &[f64], change: &[f64]) -> Verdict {
        compare(&runs(key, parent), &runs(key, change))[0].verdict
    }

    fn pair_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tet_pair_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes the runs the way `bench.sh --pair` leaves them, last pair
    /// first, so that only the file names can put them in order.
    fn write_pairs(dir: &Path, parent: &[RunReport], change: &[RunReport]) {
        for i in (0..parent.len()).rev() {
            for (side, r) in [("change", &change[i]), ("parent", &parent[i])] {
                std::fs::write(dir.join(format!("{side}-{:02}.json", i + 1)), r.to_json()).unwrap();
            }
        }
    }

    #[test]
    fn load_pairs_round_trips_files_in_name_order() {
        let dir = pair_dir("load");
        let parent = runs("x.ns_per_trial", &PARENT);
        let change = runs("x.ns_per_trial", &scaled(2.0));
        write_pairs(&dir, &parent, &change);
        std::fs::write(dir.join("notes.json"), "not a report").unwrap();
        let (p, c) = load_pairs(&dir).unwrap();
        let values = |rs: &[RunReport]| -> Vec<f64> {
            rs.iter().map(|r| r.scalars["x.ns_per_trial"]).collect()
        };
        assert_eq!(values(&p), PARENT);
        assert_eq!(values(&c), scaled(2.0));
        // Nine pairs are not a comparison.
        std::fs::remove_file(dir.join("parent-10.json")).unwrap();
        let e = load_pairs(&dir).unwrap_err();
        assert!(e.contains("9 pairs, expected 10"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctored_baseline_file_names_the_failing_metric() {
        // The change is 1.5x slower on one gated key in every pair. The
        // runs go through disk the way `bench.sh --pair` leaves them,
        // written out of order: pairs match by file name.
        let dir = pair_dir("doctored");
        let parent = runs("table2.ns_per_trial", &PARENT);
        write_pairs(&dir, &parent, &runs("table2.ns_per_trial", &scaled(1.5)));
        let (parent, change) = load_pairs(&dir).unwrap();
        assert_eq!(parent[3].scalars["table2.ns_per_trial"], PARENT[3]);
        let rows = compare(&parent, &change);
        let line = rows[0].render();
        assert!(rows[0].fails(), "{line}");
        assert!(line.starts_with("Regressed table2.ns_per_trial"), "{line}");
        assert!(line.contains("ratio 1.500, worse in 10/10 pairs"), "{line}");
        assert!(render_table(&rows).contains("0/10"));

        std::fs::remove_file(dir.join("change-02.json")).unwrap();
        assert!(load_pairs(&dir).is_err(), "a parent run without its change");
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_pairs(&dir).is_err(), "a missing directory");
    }

    #[test]
    fn within_tolerance_passes_both_directions() {
        // Identical sets pass, and so does a key 1.5x worse in only 8 of
        // the 10 pairs, whichever way it is gated.
        let (mut slow, mut fast) = (scaled(1.5), scaled(1.0 / 1.5));
        for i in [3, 7] {
            (slow[i], fast[i]) = (PARENT[i] * 0.5, PARENT[i] * 2.0);
        }
        for (key, change) in [("x.ns_per_trial", &slow), ("sim_cycles_per_sec", &fast)] {
            assert_eq!(verdict(key, &PARENT, &PARENT), Verdict::Pass, "{key}");
            assert_eq!(verdict(key, &PARENT, change), Verdict::Pass, "{key}");
        }
    }

    #[test]
    fn exact_floor_boundary_passes() {
        // Worse in every pair, with the median worse by exactly the
        // parent's IQR: passes. A hair more fails.
        let shifted = |d: f64| PARENT.iter().map(|v| v + d).collect::<Vec<_>>();
        assert_eq!(
            verdict("x.ns_per_iter", &PARENT, &shifted(10.0)),
            Verdict::Pass
        );
        let past = shifted(10.5);
        assert_eq!(verdict("x.ns_per_iter", &PARENT, &past), Verdict::Regressed);
        // Nine worse pairs are enough; eight are not.
        let mut nine = scaled(1.5);
        nine[0] = PARENT[0];
        assert_eq!(verdict("x.ns_per_iter", &PARENT, &nine), Verdict::Regressed);
        nine[1] = PARENT[1];
        assert_eq!(verdict("x.ns_per_iter", &PARENT, &nine), Verdict::Pass);
    }

    #[test]
    fn missing_metrics_skip_instead_of_failing() {
        // Ungated keys missing on either side are reported, never gated,
        // but a gated key the change lacks, even in one run, fails.
        let rows = compare(
            &runs("kernel.parked_window_ns", &PARENT),
            &runs("structures.machine_new_ns", &PARENT),
        );
        assert_eq!(rows[0].verdict, Verdict::Info);
        assert_eq!(rows[1].verdict, Verdict::New);
        assert!(!rows.iter().any(Row::fails));
        let parent = runs("snapshot_fork.restore_ns", &PARENT);
        let mut change = parent.clone();
        change[4].scalars.clear();
        let rows = compare(&parent, &change);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert!(rows[0].fails());
    }

    #[test]
    fn directions_are_classified() {
        use Direction::*;
        for (key, dir) in [
            ("fig1_probe.ns_per_iter", Some(LowerIsBetter)),
            ("decode_sweep.ns_per_uop", Some(LowerIsBetter)),
            ("table2.ns_per_trial", Some(LowerIsBetter)),
            ("table2.threadsN_seconds", Some(LowerIsBetter)),
            ("snapshot_fork.restore_ns", Some(LowerIsBetter)),
            ("snapshot_fork.simulate_ns", Some(LowerIsBetter)),
            ("sim_cycles_per_sec", Some(HigherIsBetter)),
            ("table2.speedup", Some(HigherIsBetter)),
            ("tet_kaslr.mean_seconds", None),
            ("kaslr_sweep.live_probes", None),
        ] {
            assert_eq!(direction_for(key), dir, "{key}");
        }
    }

    #[test]
    fn large_regressions_break_the_band_in_the_right_direction() {
        use Verdict::*;
        for (key, factor, expect) in [
            ("x.ns_per_trial", 1.5, Regressed),
            ("x.ns_per_trial", 0.5, Pass),
            // Throughput regresses downward.
            ("sim_cycles_per_sec", 0.5, Regressed),
            ("sim_cycles_per_sec", 1.5, Pass),
        ] {
            assert_eq!(
                verdict(key, &PARENT, &scaled(factor)),
                expect,
                "{key} x{factor}"
            );
        }
    }

    #[test]
    fn small_jitter_stays_inside_the_band() {
        // Each pair 3 % off the parent, alternating sides: neither
        // direction is worse in 9 of 10 pairs.
        let jitter: Vec<f64> = PARENT
            .iter()
            .enumerate()
            .map(|(i, v)| v * if i % 2 == 0 { 1.03 } else { 0.97 })
            .collect();
        for key in ["x.ns_per_trial", "sim_cycles_per_sec"] {
            let row = compare(&runs(key, &PARENT), &runs(key, &jitter)).remove(0);
            assert_eq!(row.verdict, Verdict::Pass, "{key}");
            assert_eq!(row.pairs, PAIRS, "{key}");
            assert_eq!(row.wins, PAIRS / 2, "{key}");
            assert_eq!(row.worse, PAIRS / 2, "{key}");
        }
    }

    #[test]
    fn noisy_parent_widens_the_band() {
        // 8 % worse in every pair is inside this parent's 10 % IQR.
        assert_eq!(
            verdict("x.ns_per_iter", &PARENT, &scaled(1.08)),
            Verdict::Pass
        );
        // The same 8 % is past a quiet parent's 0.1 % IQR.
        let quiet: Vec<f64> = PARENT.iter().map(|v| 1000.0 + v / 10.0).collect();
        let slower: Vec<f64> = quiet.iter().map(|v| v * 1.08).collect();
        assert_eq!(
            verdict("x.ns_per_iter", &quiet, &slower),
            Verdict::Regressed
        );
    }

    #[test]
    fn undirected_metrics_are_informational() {
        // The legs that stay ungated, 1.5x worse in every pair.
        for key in [
            "snapshot_fork.warmup_ns",
            "kernel.parked_window_ns",
            "structures.machine_new_ns",
            "live_probe.zbl_ns",
            "tet_cc.error_rate",
        ] {
            let rows = compare(&runs(key, &PARENT), &runs(key, &scaled(1.5)));
            assert_eq!(rows[0].verdict, Verdict::Info, "{key}");
            assert!(!rows.iter().any(Row::fails), "{key}");
        }
    }

    #[test]
    fn degenerate_sets_never_produce_nan_bands() {
        // Zero parents, NaN/inf values and empty sets: every row comes
        // back finite. A non-finite value drops its key from that side,
        // so only a broken change run fails, as a missing key.
        let (zeros, tens) = ([0.0; PAIRS], [10.0; PAIRS]);
        let (mut nan, mut inf) = (tens, tens);
        (nan[3], inf[5]) = (f64::NAN, f64::INFINITY);
        for (parent, change, expect) in [
            (&zeros, &tens, Verdict::Pass),
            (&zeros, &zeros, Verdict::Pass),
            (&nan, &tens, Verdict::New),
            (&tens, &inf, Verdict::Missing),
        ] {
            for key in ["x.ns_per_trial", "sim_cycles_per_sec"] {
                let r = compare(&runs(key, parent), &runs(key, change)).remove(0);
                assert!(r.parent_iqr_pct.is_finite(), "{key}: IQR NaN");
                assert!(r.ratio.is_none_or(f64::is_finite), "{key}: ratio NaN");
                assert_eq!(r.verdict, expect, "{key}");
            }
        }
        assert!(compare(&[], &[]).is_empty());
    }

    #[test]
    fn collect_unions_keys_across_reports() {
        let mut parent = runs("x.ns_per_iter", &PARENT);
        for r in &mut parent {
            r.counter("kaslr_sweep.live_probes", 54);
        }
        let mut change = parent.clone();
        for r in &mut change {
            r.scalar("only_change", 1.0);
        }
        let rows = compare(&parent, &change);
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(
            keys,
            ["kaslr_sweep.live_probes", "only_change", "x.ns_per_iter"]
        );
        assert_eq!(rows[0].change, Some(54.0));
        assert_eq!(rows[1].verdict, Verdict::New);
        let rep = paired_report(&rows, "abc123");
        assert_eq!(rep.meta["verdict"], "pass");
        assert_eq!(rep.scalars["pair.x.ns_per_iter.ratio"], 1.0);
        assert_eq!(rep.counters["pair.x.ns_per_iter.wins"], 0);
        assert!(!rep.counters.contains_key("pair.only_change.wins"));
    }
}
