//! Run reports: the metrics layer attached to every simulator run.
//!
//! A [`RunReport`] is a named bag of metadata strings, scalar metrics,
//! integer counters, per-stage cycle accounting, and latency histograms
//! with percentile summaries. It serializes to deterministic JSON (keys are
//! `BTreeMap`-sorted) via the crate's own [`crate::json`] layer and parses
//! back for round-trip tests.
//!
//! Every `whisper-bench` binary writes one of these to
//! `target/reports/<bin>.json` so experiment results are machine-readable
//! as well as human-readable.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Schema version stamped into every report.
///
/// v2 adds optional throughput/host fields on top of v1
/// ([`RunReport::wall_time_ms`], [`RunReport::host_threads`],
/// [`RunReport::sim_cycles_per_sec`],
/// [`RunReport::host_available_parallelism`]); v3 adds the optional
/// host-side [`RunReport::metrics`] section. Every earlier field is
/// unchanged and v1/v2 documents still parse.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// Oldest schema version [`RunReport::from_json`] accepts.
pub const REPORT_SCHEMA_MIN_VERSION: u64 = 1;

/// Sub-bucket precision of [`Histogram`]: values below
/// `1 << HIST_PRECISION_BITS` are recorded exactly; larger values land in
/// log buckets whose relative width is `2^-HIST_PRECISION_BITS` (0.78%),
/// so every reported percentile is within 1% of the exact nearest-rank
/// answer.
pub const HIST_PRECISION_BITS: u32 = 7;

const HIST_SUB_BUCKETS: usize = 1 << HIST_PRECISION_BITS;
/// Log groups: group 0 is the exact sub-`2^P` range; groups `1..` cover
/// one power-of-two exponent each up to the full `u64` range.
const HIST_GROUPS: usize = 64 - HIST_PRECISION_BITS as usize + 1;
/// Total fixed bucket count (7424 for 7 precision bits).
const HIST_BUCKETS: usize = HIST_GROUPS * HIST_SUB_BUCKETS;

/// An accumulating latency/value histogram over fixed log-spaced buckets
/// (HDR-histogram style).
///
/// Memory is bounded regardless of sample count: `record` is O(1) into a
/// flat bucket array (~58 KiB, allocated on first use) plus exact
/// count/sum/min/max registers. Values below `2^7 = 128` are exact;
/// larger values are quantized to within 0.78% — summaries therefore
/// report percentiles within 1% of the raw-sample answer, while `count`,
/// `min`, `max` and `mean` stay exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Lazily allocated to `HIST_BUCKETS` on first record, so an empty
    /// histogram costs nothing.
    buckets: Vec<u64>,
}

/// Bucket index of a value (exact below `2^P`, log-spaced above).
#[inline]
fn hist_index(v: u64) -> usize {
    let p = HIST_PRECISION_BITS;
    if v < HIST_SUB_BUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let group = (e - p + 1) as usize;
        let sub = ((v >> (e - p)) & (HIST_SUB_BUCKETS as u64 - 1)) as usize;
        (group << p) + sub
    }
}

/// The smallest value that maps to bucket `i` — the reported
/// representative, so quantization only ever rounds *down* (by less than
/// one part in `2^P`).
#[inline]
fn hist_bucket_low(i: usize) -> u64 {
    let p = HIST_PRECISION_BITS;
    let group = i >> p;
    let sub = (i & (HIST_SUB_BUCKETS - 1)) as u64;
    if group == 0 {
        sub
    } else {
        (HIST_SUB_BUCKETS as u64 + sub) << (group - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. O(1), never grows beyond the fixed bucket
    /// array.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
            self.min = u64::MAX;
        }
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[hist_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Merges another histogram's samples into this one (used when
    /// combining per-worker metric shards).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
            self.min = u64::MAX;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Collapses the buckets into a percentile summary. An empty
    /// histogram summarizes to all-zero (never NaN — the mean is defined
    /// as 0.0 when there are no samples).
    pub fn summarize(&self) -> HistogramSummary {
        if self.count == 0 {
            return HistogramSummary::default();
        }
        // Nearest-rank percentile over the cumulative bucket counts; the
        // representative is the bucket's low edge clamped into the exact
        // [min, max] envelope.
        let pct = |p: f64| -> u64 {
            let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
            let rank = rank.clamp(1, self.count);
            let mut seen = 0u64;
            for (i, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return hist_bucket_low(i).clamp(self.min, self.max);
                }
            }
            self.max
        };
        HistogramSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.sum as f64 / self.count as f64,
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            p999: pct(99.9),
        }
    }
}

/// The serialized form of a histogram: count, extrema, mean, percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// 99.9th percentile (nearest rank) — the tail the serve-layer
    /// latency SLOs watch.
    pub p999: u64,
}

impl HistogramSummary {
    fn to_value(&self) -> Value {
        let mut o = Value::obj();
        o.set("count", Value::from(self.count));
        o.set("min", Value::from(self.min));
        o.set("max", Value::from(self.max));
        o.set("mean", Value::Num(self.mean));
        o.set("p50", Value::from(self.p50));
        o.set("p90", Value::from(self.p90));
        o.set("p99", Value::from(self.p99));
        o.set("p999", Value::from(self.p999));
        o
    }

    fn from_value(v: &Value) -> Result<HistogramSummary, String> {
        let num = |k: &str| -> Result<u64, String> { field(v, k)?.as_u64().ok_or(bad(k)) };
        let p99 = num("p99")?;
        Ok(HistogramSummary {
            count: num("count")?,
            min: num("min")?,
            max: num("max")?,
            mean: field(v, "mean")?.as_num().ok_or(bad("mean"))?,
            p50: num("p50")?,
            p90: num("p90")?,
            p99,
            // Documents written before p999 existed (e.g. older
            // revisions' reports) parse with the best stand-in available.
            p999: v.get("p999").and_then(|x| x.as_u64()).unwrap_or(p99),
        })
    }
}

fn field<'v>(v: &'v Value, k: &str) -> Result<&'v Value, String> {
    v.get(k).ok_or_else(|| format!("missing field {k:?}"))
}

fn bad(k: &str) -> String {
    format!("field {k:?} has the wrong type")
}

/// Host-side metrics attached to a report (schema v3).
///
/// Everything in here measures the *host* — wall-nanosecond profiles,
/// registry counters, flight-recorder gauges — and is therefore excluded
/// from determinism comparisons alongside the v2 timing fields (see
/// [`RunReport::without_timing`]). The simulated result fields of the
/// report never depend on this section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSection {
    /// Monotonic counters (events, samples, bytes).
    pub counters: BTreeMap<String, u64>,
    /// Last-written point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries (host nanoseconds, batch sizes, ...).
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSection {
    /// True when no metric of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    fn to_value(&self) -> Value {
        let mut o = Value::obj();
        o.set(
            "counters",
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            ),
        );
        o.set(
            "gauges",
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        );
        o.set(
            "histograms",
            Value::Obj(
                self.histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        );
        o
    }

    fn from_value(v: &Value) -> Result<MetricsSection, String> {
        let pairs = |key: &str| -> Result<Vec<(String, Value)>, String> {
            match field(v, key)? {
                Value::Obj(pairs) => Ok(pairs.clone()),
                _ => Err(bad(key)),
            }
        };
        let mut m = MetricsSection::default();
        for (k, val) in pairs("counters")? {
            m.counters.insert(k.clone(), val.as_u64().ok_or(bad(&k))?);
        }
        for (k, val) in pairs("gauges")? {
            m.gauges.insert(k.clone(), val.as_num().ok_or(bad(&k))?);
        }
        for (k, val) in pairs("histograms")? {
            m.histograms.insert(k, HistogramSummary::from_value(&val)?);
        }
        Ok(m)
    }
}

/// Machine-readable summary of one simulator run or experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Report name — usually the binary or experiment id (`fig1_tote`).
    pub name: String,
    /// Free-form string metadata (CPU preset, scenario, commit, ...).
    pub meta: BTreeMap<String, String>,
    /// Floating-point metrics (accuracies, ratios, means).
    pub scalars: BTreeMap<String, f64>,
    /// Integer counters (PMU events, event counts).
    pub counters: BTreeMap<String, u64>,
    /// Per-pipeline-stage cycle accounting.
    pub stages: BTreeMap<String, u64>,
    /// Named latency/value distributions.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Wall-clock duration of the run in milliseconds (schema v2;
    /// intentionally excluded from determinism comparisons — see
    /// [`RunReport::without_timing`]).
    pub wall_time_ms: Option<f64>,
    /// Host worker threads the run used (schema v2).
    pub host_threads: Option<u64>,
    /// Simulated cycles per wall-clock second (schema v2).
    pub sim_cycles_per_sec: Option<f64>,
    /// `std::thread::available_parallelism` of the host that produced the
    /// report (schema v2). Written as a JSON number; older reports that
    /// stored it as a `meta` string still parse (see
    /// [`RunReport::from_json`]).
    pub host_available_parallelism: Option<u64>,
    /// Host-side metrics registry snapshot (schema v3). Like the v2
    /// timing fields, cleared by [`RunReport::without_timing`].
    pub metrics: Option<MetricsSection>,
}

impl RunReport {
    /// Creates an empty report with the given name.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            ..RunReport::default()
        }
    }

    /// Sets a metadata string.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.meta.insert(key.to_string(), value.into());
        self
    }

    /// Sets a scalar metric.
    pub fn scalar(&mut self, key: &str, value: f64) -> &mut Self {
        self.scalars.insert(key.to_string(), value);
        self
    }

    /// Sets a counter.
    pub fn counter(&mut self, key: &str, value: u64) -> &mut Self {
        self.counters.insert(key.to_string(), value);
        self
    }

    /// Adds to a counter (creating it at zero).
    pub fn add_counter(&mut self, key: &str, delta: u64) -> &mut Self {
        *self.counters.entry(key.to_string()).or_insert(0) += delta;
        self
    }

    /// Sets a per-stage cycle total.
    pub fn stage(&mut self, key: &str, cycles: u64) -> &mut Self {
        self.stages.insert(key.to_string(), cycles);
        self
    }

    /// Attaches a histogram's summary.
    pub fn histogram(&mut self, key: &str, hist: &Histogram) -> &mut Self {
        self.histograms.insert(key.to_string(), hist.summarize());
        self
    }

    /// Records the schema-v2 throughput fields in one call: wall time,
    /// host thread count, and — when `sim_cycles` is known — the derived
    /// simulated-cycles-per-second rate.
    pub fn set_throughput(
        &mut self,
        wall: std::time::Duration,
        host_threads: usize,
        sim_cycles: Option<u64>,
    ) -> &mut Self {
        let secs = wall.as_secs_f64();
        self.wall_time_ms = Some(secs * 1e3);
        self.host_threads = Some(host_threads as u64);
        self.sim_cycles_per_sec = sim_cycles.filter(|_| secs > 0.0).map(|c| c as f64 / secs);
        self
    }

    /// Returns a copy with the host-timing-dependent v2 fields cleared.
    ///
    /// Determinism checks compare `a.without_timing() == b.without_timing()`:
    /// everything the simulation computes must match bit-for-bit across
    /// thread counts, while wall time and throughput legitimately vary.
    pub fn without_timing(&self) -> RunReport {
        RunReport {
            wall_time_ms: None,
            host_threads: None,
            sim_cycles_per_sec: None,
            host_available_parallelism: None,
            metrics: None,
            ..self.clone()
        }
    }

    /// Attaches the host-side metrics section (schema v3). An empty
    /// section is normalized to `None` so metrics-off runs serialize
    /// identically to pre-v3 reports.
    pub fn set_metrics(&mut self, metrics: MetricsSection) -> &mut Self {
        self.metrics = (!metrics.is_empty()).then_some(metrics);
        self
    }

    /// Serializes to the JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut o = Value::obj();
        o.set("schema_version", Value::from(REPORT_SCHEMA_VERSION));
        o.set("name", Value::from(self.name.as_str()));
        let map_obj = |pairs: Vec<(String, Value)>| Value::Obj(pairs);
        o.set(
            "meta",
            map_obj(
                self.meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
                    .collect(),
            ),
        );
        o.set(
            "scalars",
            map_obj(
                self.scalars
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        );
        o.set(
            "counters",
            map_obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            ),
        );
        o.set(
            "stages",
            map_obj(
                self.stages
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            ),
        );
        o.set(
            "histograms",
            map_obj(
                self.histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        );
        if let Some(ms) = self.wall_time_ms {
            o.set("wall_time_ms", Value::Num(ms));
        }
        if let Some(ht) = self.host_threads {
            o.set("host_threads", Value::from(ht));
        }
        if let Some(rate) = self.sim_cycles_per_sec {
            o.set("sim_cycles_per_sec", Value::Num(rate));
        }
        if let Some(hap) = self.host_available_parallelism {
            o.set("host_available_parallelism", Value::from(hap));
        }
        if let Some(m) = &self.metrics {
            o.set("metrics", m.to_value());
        }
        o
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parses a report back from JSON (inverse of [`RunReport::to_json`]).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = json::parse(text)?;
        let version = field(&v, "schema_version")?
            .as_u64()
            .ok_or(bad("schema_version"))?;
        if !(REPORT_SCHEMA_MIN_VERSION..=REPORT_SCHEMA_VERSION).contains(&version) {
            return Err(format!("unsupported schema_version {version}"));
        }
        let name = field(&v, "name")?.as_str().ok_or(bad("name"))?.to_string();
        let obj_pairs = |key: &str| -> Result<Vec<(String, Value)>, String> {
            match field(&v, key)? {
                Value::Obj(pairs) => Ok(pairs.clone()),
                _ => Err(bad(key)),
            }
        };
        let mut report = RunReport::new(&name);
        for (k, val) in obj_pairs("meta")? {
            report
                .meta
                .insert(k.clone(), val.as_str().ok_or(bad(&k))?.to_string());
        }
        for (k, val) in obj_pairs("scalars")? {
            report
                .scalars
                .insert(k.clone(), val.as_num().ok_or(bad(&k))?);
        }
        for (k, val) in obj_pairs("counters")? {
            report
                .counters
                .insert(k.clone(), val.as_u64().ok_or(bad(&k))?);
        }
        for (k, val) in obj_pairs("stages")? {
            report
                .stages
                .insert(k.clone(), val.as_u64().ok_or(bad(&k))?);
        }
        for (k, val) in obj_pairs("histograms")? {
            report
                .histograms
                .insert(k, HistogramSummary::from_value(&val)?);
        }
        // v2 throughput fields: optional in v2, absent in v1.
        if let Some(val) = v.get("wall_time_ms") {
            report.wall_time_ms = Some(val.as_num().ok_or(bad("wall_time_ms"))?);
        }
        if let Some(val) = v.get("host_threads") {
            report.host_threads = Some(val.as_u64().ok_or(bad("host_threads"))?);
        }
        if let Some(val) = v.get("sim_cycles_per_sec") {
            report.sim_cycles_per_sec = Some(val.as_num().ok_or(bad("sim_cycles_per_sec"))?);
        }
        if let Some(val) = v.get("host_available_parallelism") {
            report.host_available_parallelism =
                Some(val.as_u64().ok_or(bad("host_available_parallelism"))?);
        } else if let Some(s) = report.meta.get("host_available_parallelism") {
            // Legacy reports carried the value as a meta string.
            report.host_available_parallelism = s.parse().ok();
        }
        // v3 metrics section: optional in v3, absent in v1/v2.
        if let Some(val) = v.get("metrics") {
            report.metrics = Some(MetricsSection::from_value(val)?);
        }
        Ok(report)
    }

    /// Writes the report to `target/reports/<name>.json`, creating the
    /// directory if needed. Returns the path written.
    ///
    /// The directory can be overridden with the `TET_REPORT_DIR`
    /// environment variable (used by `scripts/repro_all.sh --json`).
    pub fn write_default(&self) -> std::io::Result<std::path::PathBuf> {
        // Errors carry the offending path: callers surface them as
        // one-line diagnostics (a server answering live requests must
        // be able to say *which* directory was unwritable).
        let dir = std::env::var_os("TET_REPORT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target/reports"));
        std::fs::create_dir_all(&dir).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("create report dir {}: {e}", dir.display()),
            )
        })?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())
            .map_err(|e| std::io::Error::new(e.kind(), format!("write {}: {e}", path.display())))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.p999, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summaries_without_p999_parse_with_the_p99_stand_in() {
        // Reports from older revisions predate the p999 field; they
        // must keep parsing.
        let legacy = "{\"count\": 4, \"min\": 1, \"max\": 9, \"mean\": 4.0, \
                      \"p50\": 3, \"p90\": 8, \"p99\": 9}";
        let s = HistogramSummary::from_value(&crate::json::parse(legacy).unwrap()).unwrap();
        assert_eq!(s.p99, 9);
        assert_eq!(s.p999, 9, "absent p999 falls back to p99");
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = Histogram::new().summarize();
        assert_eq!(s, HistogramSummary::default());
        // Regression: the empty mean must be 0.0, never NaN (0/0).
        assert_eq!(s.mean, 0.0);
        assert!(!s.mean.is_nan());
        // ...and it must serialize/round-trip cleanly.
        let mut r = RunReport::new("empty");
        r.histogram("h", &Histogram::new());
        let back = RunReport::from_json(&r.to_json()).expect("round-trips");
        assert_eq!(back, r);
    }

    #[test]
    fn histogram_percentiles_within_one_percent_of_exact() {
        // Large values exercise the log-bucketed path; every percentile
        // must stay within 1% of the exact nearest-rank answer.
        let mut h = Histogram::new();
        let mut raw: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for i in 0..10_000u64 {
            // Deterministic spread over ~6 decades.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let v = 100 + (x % 1_000_000_000);
            raw.push(v);
            h.record(v);
        }
        raw.sort_unstable();
        let exact = |p: f64| -> u64 {
            let rank = ((p / 100.0) * raw.len() as f64).ceil() as usize;
            raw[rank.clamp(1, raw.len()) - 1]
        };
        let s = h.summarize();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, raw[0]);
        assert_eq!(s.max, *raw.last().unwrap());
        for (got, want) in [
            (s.p50, exact(50.0)),
            (s.p90, exact(90.0)),
            (s.p99, exact(99.0)),
            (s.p999, exact(99.9)),
        ] {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err <= 0.01, "got {got}, exact {want}, err {err}");
        }
        let exact_mean = raw.iter().map(|&v| v as f64).sum::<f64>() / raw.len() as f64;
        assert!((s.mean - exact_mean).abs() < 1e-6, "mean is exact");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [3u64, 900, 12_345, 1 << 40] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 77, 1 << 50] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, combined);
        // Merging an empty histogram is a no-op both ways.
        merged.merge(&Histogram::new());
        assert_eq!(merged, combined);
        let mut from_empty = Histogram::new();
        from_empty.merge(&combined);
        assert_eq!(from_empty.summarize(), combined.summarize());
    }

    #[test]
    fn histogram_extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.summarize();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // p99 representative is clamped into [min, max].
        assert!(s.p99 >= s.p50 && s.p99 <= s.max);
        let err = (u64::MAX as f64 - s.p99 as f64) / u64::MAX as f64;
        assert!(err <= 0.01, "p99 within 1% of max, err {err}");
    }

    #[test]
    fn metrics_section_round_trips_and_is_cleared_by_without_timing() {
        let mut m = MetricsSection::default();
        m.counters.insert("prof.samples".into(), 4096);
        m.gauges.insert("flight.trials_per_sec".into(), 123.5);
        let mut h = Histogram::new();
        h.record(250);
        h.record(990);
        m.histograms.insert("step_ns".into(), h.summarize());
        let mut r = RunReport::new("bench");
        r.set_metrics(m.clone());
        assert_eq!(r.metrics.as_ref(), Some(&m));
        let back = RunReport::from_json(&r.to_json()).expect("round-trips");
        assert_eq!(back, r);
        // Host-side metrics are timing: determinism comparisons drop them.
        assert_eq!(back.without_timing().metrics, None);
        // Empty sections normalize to None so metrics-off reports are
        // byte-identical to pre-v3 ones.
        let mut off = RunReport::new("bench");
        off.set_metrics(MetricsSection::default());
        assert_eq!(off.metrics, None);
        assert!(!off.to_json().contains("\"metrics\""));
    }

    #[test]
    fn v2_documents_without_metrics_still_parse() {
        let mut v = RunReport::new("older").to_value();
        v.set("schema_version", Value::from(2u64));
        let r = RunReport::from_json(&v.to_json()).expect("v2 parses");
        assert_eq!(r.name, "older");
        assert_eq!(r.metrics, None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut h = Histogram::new();
        for v in [12u64, 44, 44, 300] {
            h.record(v);
        }
        let mut r = RunReport::new("fig1_tote");
        r.set_meta("cpu", "intel-i7");
        r.set_meta("scenario", "meltdown");
        r.scalar("accuracy", 0.96875);
        r.counter("runs", 256);
        r.counter("int_misc.recovery_cycles", 4096);
        r.stage("frontend_stall", 120);
        r.stage("exec", 800);
        r.histogram("tote_cycles", &h);
        let text = r.to_json();
        let back = RunReport::from_json(&text).expect("round-trips");
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut r = RunReport::new("x").to_value();
        r.set("schema_version", Value::from(99u64));
        assert!(RunReport::from_json(&r.to_json()).is_err());
    }

    #[test]
    fn v2_throughput_fields_round_trip() {
        let mut r = RunReport::new("bench");
        r.set_throughput(std::time::Duration::from_millis(2500), 8, Some(5_000_000));
        assert_eq!(r.wall_time_ms, Some(2500.0));
        assert_eq!(r.host_threads, Some(8));
        assert_eq!(r.sim_cycles_per_sec, Some(2_000_000.0));
        let back = RunReport::from_json(&r.to_json()).expect("round-trips");
        assert_eq!(back, r);
    }

    #[test]
    fn v1_documents_still_parse() {
        // A v1 report has no throughput fields and schema_version 1.
        let mut v = RunReport::new("legacy").to_value();
        v.set("schema_version", Value::from(1u64));
        let r = RunReport::from_json(&v.to_json()).expect("v1 parses");
        assert_eq!(r.name, "legacy");
        assert_eq!(r.wall_time_ms, None);
        assert_eq!(r.host_threads, None);
        assert_eq!(r.sim_cycles_per_sec, None);
    }

    #[test]
    fn host_available_parallelism_round_trips_as_number() {
        let mut r = RunReport::new("bench");
        r.host_available_parallelism = Some(16);
        let text = r.to_json();
        assert!(
            text.contains("\"host_available_parallelism\": 16"),
            "must serialize as a JSON number, got: {text}"
        );
        let back = RunReport::from_json(&text).expect("round-trips");
        assert_eq!(back.host_available_parallelism, Some(16));
    }

    #[test]
    fn host_available_parallelism_accepts_legacy_meta_string() {
        let mut r = RunReport::new("legacy");
        r.set_meta("host_available_parallelism", "4");
        let back = RunReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.host_available_parallelism, Some(4));
        // The numeric field wins when both are present.
        let mut v = back.to_value();
        v.set("host_available_parallelism", Value::from(32u64));
        let both = RunReport::from_json(&v.to_json()).expect("parses");
        assert_eq!(both.host_available_parallelism, Some(32));
    }

    #[test]
    fn without_timing_masks_only_the_v2_fields() {
        let mut a = RunReport::new("run");
        a.scalar("accuracy", 1.0);
        let mut b = a.clone();
        a.set_throughput(std::time::Duration::from_millis(10), 1, Some(1000));
        b.set_throughput(std::time::Duration::from_millis(99), 8, Some(1000));
        assert_ne!(a, b);
        assert_eq!(a.without_timing(), b.without_timing());
        // A genuine result difference still shows through.
        b.scalar("accuracy", 0.5);
        assert_ne!(a.without_timing(), b.without_timing());
    }

    #[test]
    fn zero_wall_time_leaves_rate_unset() {
        let mut r = RunReport::new("instant");
        r.set_throughput(std::time::Duration::ZERO, 4, Some(123));
        assert_eq!(r.sim_cycles_per_sec, None);
        assert_eq!(r.host_threads, Some(4));
    }
}
