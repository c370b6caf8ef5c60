//! Metric names, units, and the result line.
//!
//! The names here are the ones `BENCHMARK.json` declares; a test pins
//! the two lists together. End-to-end metrics have the same meaning on
//! every workload with a workload-specific unit of work (see README);
//! per-layer metrics a workload does not exercise read `0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use tet_pmu::Event;
use whisper::eval::CellStats;

use crate::inputs::Digest;
use crate::stats::{median, ratio, tail, Tail, Tally};
use crate::trace::LayerStat;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Outcome and reconciliation.
    ("failed_ratio", "ratio"),
    ("latency.samples", "count"),
    ("latency.tail_pct", "pct"),
    ("latency.tail_beyond", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_ratio", "ratio"),
    ("par.efficiency", "ratio"),
    ("output.digest32", "hash"),
    // whisper::scenario + tet-os.
    ("scenario.new_us", "us"),
    ("scenario.calls", "count"),
    // tet-isa via whisper::gadget.
    ("gadget.build_us", "us"),
    ("gadget.builds", "count"),
    // tet-uarch run.
    ("machine.run_us", "us"),
    ("machine.runs", "count"),
    ("sim.ns_per_uop", "ns"),
    // tet-uarch clone / snapshot / fork.
    ("machine.clone_us", "us"),
    ("machine.snapshot_us", "us"),
    ("machine.from_snapshot_us", "us"),
    ("machine.restore_ns", "ns"),
    ("machine.restores", "count"),
    // Simulated counts (tet-uarch / tet-mem / tet-pmu).
    ("sim.cycles", "count"),
    ("sim.retired_uops", "count"),
    ("sim.ff_skipped_cycles", "count"),
    ("sim.ff_skip_ratio", "ratio"),
    ("sim.l1_hit_ratio", "ratio"),
    ("sim.dtlb_walks", "count"),
    ("sim.br_mispredict_ratio", "ratio"),
    // whisper::batch.
    ("batch.probes", "count"),
    ("batch.replays", "count"),
    ("batch.replay_ratio", "ratio"),
    ("batch.live_probe_us", "us"),
    ("batch.replay_ns", "ns"),
    // whisper::analysis.
    ("analysis.decode_us", "us"),
    // whisper::attacks, per Table 2 cell.
    ("attack.cc_ms", "ms"),
    ("attack.md_ms", "ms"),
    ("attack.zbl_ms", "ms"),
    ("attack.rsb_ms", "ms"),
    ("attack.kaslr_ms", "ms"),
    // tet-serve client.
    ("serve.client.probe_us", "us"),
    ("serve.client.submit_us", "us"),
    ("serve.client.wait_ms", "ms"),
    ("serve.client.polls", "count"),
    ("serve.client.report_us", "us"),
    // tet-serve in-process functions.
    ("serve.http.parse_us", "us"),
    ("serve.spec.parse_us", "us"),
    ("serve.spec.key_us", "us"),
    ("serve.hot.get_ns", "ns"),
    ("serve.hot.hit_ratio", "ratio"),
    ("serve.disk.get_us", "us"),
    ("serve.disk.put_us", "us"),
    ("serve.sched.campaign_ms", "ms"),
    ("serve.report.json_us", "us"),
    // Server counters and per-class latency.
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cached_p50_us", "us"),
    ("serve.cached_tail_us", "us"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_tail_ms", "ms"),
];

/// How one benchmark run is configured.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Simulator threads / client connections.
    pub threads: usize,
    /// Where traces, reports and the service's temp cache go.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (output checks).
    pub tally: Tally,
    /// Determinism and mirror-check failures; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per mode).
    pub values: BTreeMap<&'static str, f64>,
    /// Extra figures for the report file and the stderr summary: the
    /// workload-specific names of the end-to-end metrics, sample counts,
    /// digests.
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a note.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    /// Records a determinism/mirror check; a failed one is kept.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of the mode with its unit. Panics if an end-to-end metric is missing
/// (a workload bug); missing per-layer metrics read `0`.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut s = String::new();
    let correct = out.tally.failed == 0 && out.mismatches.is_empty();
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted.max(1),
        out.tally.failed
    )
    .expect("write to String");
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = match out.values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(v)
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable. Recorded as a note (see [`crate::alloc`]).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets `metric` to the mean duration of `span` spans, in units of
/// `ns_per_unit` ns (1e3 for µs, 1e6 for ms).
pub fn set_mean(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, LayerStat>,
    span: &str,
    metric: &'static str,
    ns_per_unit: f64,
) {
    let mean = layers.get(span).map_or(0.0, LayerStat::mean_ns);
    out.set(metric, mean / ns_per_unit);
}

/// Sets `metric` to the number of `span` spans.
pub fn set_calls(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, LayerStat>,
    span: &str,
    metric: &'static str,
) {
    out.set(metric, layers.get(span).map_or(0, |l| l.calls) as f64);
}

/// Simulated counts of a set of machines: the `MachineStats` /
/// `pmu_lifetime` totals plus retired µops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Runs, cycles, fast-forward, restores and PMU-derived counts.
    pub cell: CellStats,
    /// Retired µops (`UOPS_RETIRED.ALL`).
    pub retired_uops: u64,
}

impl SimCounts {
    /// Adds one machine's lifetime counters.
    pub fn absorb(&mut self, m: &tet_uarch::Machine) {
        self.cell.absorb(m.stats());
        self.cell.absorb_pmu(m.pmu_lifetime());
        self.retired_uops += m.pmu_lifetime().count(Event::UopsRetiredAll);
    }

    /// Adds another total.
    pub fn merge(&mut self, other: &SimCounts) {
        self.cell.merge(&other.cell);
        self.retired_uops += other.retired_uops;
    }

    /// Absorbs every count into a digest.
    pub fn digest(&self, d: &mut Digest) {
        cell_digest(d, &self.cell);
        d.u64(self.retired_uops);
    }

    /// Sets the `machine.runs`, `machine.restores` and `sim.*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        let c = &self.cell;
        out.set("machine.runs", c.runs as f64);
        out.set("machine.restores", c.snapshot_restores as f64);
        out.set("sim.cycles", c.sim_cycles as f64);
        out.set("sim.retired_uops", self.retired_uops as f64);
        out.set("sim.ff_skipped_cycles", c.ff_skipped_cycles as f64);
        out.set(
            "sim.ff_skip_ratio",
            ratio(c.ff_skipped_cycles as f64, c.sim_cycles as f64),
        );
        out.set(
            "sim.l1_hit_ratio",
            ratio(c.l1_hits as f64, (c.l1_hits + c.l1_misses) as f64),
        );
        out.set("sim.dtlb_walks", c.dtlb_walks as f64);
        out.set(
            "sim.br_mispredict_ratio",
            ratio(c.br_mispredicts as f64, c.branches as f64),
        );
    }
}

/// Absorbs every counter of `c` into a digest.
fn cell_digest(d: &mut Digest, c: &CellStats) {
    for v in [
        c.runs,
        c.sim_cycles,
        c.ff_skipped_cycles,
        c.ff_sprints,
        c.snapshot_restores,
        c.l1_hits,
        c.l1_misses,
        c.dtlb_walks,
        c.branches,
        c.br_mispredicts,
    ] {
        d.u64(v);
    }
}

/// Retired µops so far on `m` (for per-run deltas).
pub fn retired_uops(m: &tet_uarch::Machine) -> u64 {
    m.pmu_lifetime().count(Event::UopsRetiredAll)
}

/// Sets `peak_heap_mb` and notes the peak resident set size.
pub fn set_memory(out: &mut Outcome) {
    out.set("peak_heap_mb", crate::alloc::peak_heap_mb());
    out.note("peak_rss_mb", peak_rss_mb());
}

/// Sets the latency-sample metrics and the end-to-end p50/tail from
/// per-operation latencies in ms.
pub fn set_latency(out: &mut Outcome, op_ms: &[f64]) -> Tail {
    let t = tail(op_ms);
    out.set("op_p50_ms", median(op_ms));
    out.set("op_tail_ms", t.value);
    out.set("latency.samples", t.samples as f64);
    out.set("latency.tail_pct", t.pct);
    out.set("latency.tail_beyond", t.beyond as f64);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.tally.record(true);
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = result_line(&out, true);
        assert!(traced.contains("\"batch.replays\": {\"value\": 0, \"unit\": \"count\"}"));
        out.tally.record(false);
        assert!(result_line(&out, false).starts_with("{\"correct\": false"));
    }
}
