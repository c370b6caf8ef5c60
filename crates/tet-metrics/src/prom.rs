//! Prometheus text exposition (version 0.0.4) export and a tiny
//! validating parser.
//!
//! The exporter renders a [`MetricsSection`] — counters as `counter`,
//! gauges as `gauge`, histogram summaries as `summary` with
//! `quantile`-labelled samples plus `_sum`/`_count`. Metric names are
//! sanitized to the Prometheus charset (`[a-zA-Z_:][a-zA-Z0-9_:]*`);
//! dotted registry names like `snapshot_fork.restores` become
//! `snapshot_fork_restores`.
//!
//! The parser exists for the CI `metrics-smoke` step: it checks the
//! scraped file is well-formed (every sample line is `name{labels} value`
//! with a legal name and a finite float) and hands samples back for
//! assertions. It is not a full PromQL ingestion pipeline.

use tet_obs::MetricsSection;

/// Rewrites a registry metric name into the Prometheus charset.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a float the way Prometheus expects (no exponent surprises for
/// integral values).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a metrics section as Prometheus text exposition format.
pub fn to_prometheus(section: &MetricsSection) -> String {
    let mut out = String::new();
    for (name, v) in &section.counters {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &section.gauges {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_num(*v)));
    }
    for (name, s) in &section.histograms {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, val) in [
            ("0.5", s.p50),
            ("0.9", s.p90),
            ("0.99", s.p99),
            ("0.999", s.p999),
        ] {
            out.push_str(&format!("{n}{{quantile=\"{q}\"}} {val}\n"));
        }
        out.push_str(&format!("{n}_sum {}\n", fmt_num(s.mean * s.count as f64)));
        out.push_str(&format!("{n}_count {}\n", s.count));
        out.push_str(&format!("# TYPE {n}_min gauge\n{n}_min {}\n", s.min));
        out.push_str(&format!("# TYPE {n}_max gauge\n{n}_max {}\n", s.max));
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (sanitized charset).
    pub name: String,
    /// Raw label block without braces (`quantile="0.5"`), empty if none.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Parses/validates Prometheus text exposition output.
///
/// Returns every sample, or the first malformed line as an error.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let (ident, value) = line
            .rsplit_once(char::is_whitespace)
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = value.parse().map_err(|_| err("bad value"))?;
        if !value.is_finite() {
            return Err(err("non-finite value"));
        }
        let (name, labels) = match ident.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label block"))?;
                (n, labels.to_string())
            }
            None => (ident, String::new()),
        };
        if !valid_name(name) {
            return Err(err("illegal metric name"));
        }
        out.push(PromSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_obs::Histogram;

    fn sample_section() -> MetricsSection {
        let mut m = MetricsSection::default();
        m.counters.insert("prof.fetch.est_ns".into(), 1234);
        m.gauges.insert("flight.trials_per_sec".into(), 42.5);
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        m.histograms.insert("step.ns".into(), h.summarize());
        m
    }

    #[test]
    fn export_parses_back() {
        let text = to_prometheus(&sample_section());
        let samples = parse_prometheus(&text).expect("well-formed");
        let get = |name: &str, labels: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels == labels)
                .unwrap_or_else(|| panic!("missing {name}{{{labels}}} in:\n{text}"))
                .value
        };
        assert_eq!(get("prof_fetch_est_ns", ""), 1234.0);
        assert_eq!(get("flight_trials_per_sec", ""), 42.5);
        assert_eq!(get("step_ns", "quantile=\"0.5\""), 20.0);
        assert_eq!(get("step_ns_count", ""), 4.0);
        assert_eq!(get("step_ns_sum", ""), 100.0);
        assert_eq!(get("step_ns_min", ""), 10.0);
        assert_eq!(get("step_ns_max", ""), 40.0);
    }

    #[test]
    fn sanitize_rewrites_illegal_chars() {
        assert_eq!(sanitize_name("prof.fetch.est_ns"), "prof_fetch_est_ns");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("just_a_name\n").is_err());
        assert!(parse_prometheus("name not_a_number\n").is_err());
        assert!(parse_prometheus("name NaN\n").is_err());
        assert!(parse_prometheus("bad-name 1\n").is_err());
        assert!(parse_prometheus("name{quantile=\"0.5\" 1\n").is_err());
        // Comments and blanks are fine.
        assert_eq!(
            parse_prometheus("# HELP x\n\n# TYPE x counter\nx 3\n")
                .unwrap()
                .len(),
            1
        );
    }
}
