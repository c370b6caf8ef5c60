//! `perfbench` — the repository benchmark: four seeded workloads over
//! the Whisper TET simulator (`whisper`, `tet-uarch`) and the campaign
//! service (`tet-serve`), end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run. See `README.md`.
//!
//! The benchmark only calls the program's public functions. Traced runs
//! record spans in this crate, around those calls ([`trace`]); the
//! traced passes re-walk the program's procedures through the same
//! public calls and must reproduce the untraced outputs exactly.

pub mod alloc;
pub mod covert;
pub mod inputs;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod table2;
pub mod trace;

use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["table2", "covert-noisy", "covert-quiet", "serve-mixed"];

/// Runs one workload.
pub fn run_workload(name: &str, cfg: &metrics::RunCfg) -> Result<metrics::Outcome, String> {
    match name {
        "table2" => Ok(table2::run(cfg)),
        "covert-noisy" => Ok(covert::run(cfg, true)),
        "covert-quiet" => Ok(covert::run(cfg, false)),
        "serve-mixed" => serve::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// One timed operation of a sequential loop.
#[derive(Debug)]
pub struct Timed<T> {
    /// Host wall time of the operation, ms.
    pub ms: f64,
    /// What the operation returned.
    pub value: T,
}

/// Runs `op(0), op(1), ...` back to back until `seconds` have elapsed
/// and at least `min_ops` operations are done. Returns each operation's
/// timing and the loop's wall time in seconds.
pub fn timed_loop<T>(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> T,
) -> (Vec<Timed<T>>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds || i < min_ops {
        let t = Instant::now();
        let value = op(i);
        out.push(Timed {
            ms: t.elapsed().as_secs_f64() * 1e3,
            value,
        });
        i += 1;
    }
    (out, start.elapsed().as_secs_f64())
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Writes a traced run's spans as a Chrome/Perfetto trace under the
/// output directory. A failure to write is reported, not fatal.
pub fn write_trace(cfg: &metrics::RunCfg, workload: &str, spans: &[Vec<trace::Span>]) {
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", cfg.seed));
    if let Err(e) = trace::write_chrome(&path, spans) {
        eprintln!("perfbench: warning: cannot write {}: {e}", path.display());
    }
}
