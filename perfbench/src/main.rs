//! `perfbench` command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2|covert-noisy|covert-quiet|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). Exits 1 if a determinism or mirror check fails, 2 on a
//! usage error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{result_line, Outcome, RunCfg};

#[global_allocator]
static HEAP: perfbench::alloc::Counting = perfbench::alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <table2|covert-noisy|covert-quiet|serve-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

/// Reports, traces and the service's temp cache live under the build
/// directory: `$CARGO_TARGET_DIR/perfbench-out`, or
/// `perfbench/target/perfbench-out` from the repository root.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-out")
}

/// The benchmark measures the default configuration: the program's
/// `TET_*` switches (fast paths, check mode, cache budgets) are cleared
/// before anything reads them, and progress output is silenced.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TET_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("TET_QUIET", "1");
}

fn report_json(workload: &str, cfg: &RunCfg, out: &Outcome, line: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"result\": {line},\n  \"values\": {{",
        cfg.seed, cfg.seconds, cfg.trace
    );
    let all = out.values.iter().map(|(k, v)| (k.to_string(), *v));
    let notes = out.notes.iter().map(|(k, v)| (format!("note.{k}"), *v));
    for (i, (k, v)) in all.chain(notes).enumerate() {
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(s, "{}\n    \"{k}\": {v}", if i == 0 { "" } else { "," });
    }
    s.push_str("\n  },\n  \"mismatches\": [");
    for (i, m) in out.mismatches.iter().enumerate() {
        let m = m.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(s, "{}\n    \"{m}\"", if i == 0 { "" } else { "," });
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    scrub_environment();
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let out = match perfbench::run_workload(&workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = result_line(&out, cfg.trace);

    eprintln!(
        "perfbench {workload} seed={} seconds={} trace={} threads={}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.threads
    );
    eprintln!(
        "  attempted {}  failed {}",
        out.tally.attempted, out.tally.failed
    );
    for (k, v) in &out.values {
        eprintln!("  {k:<28} {v}");
    }
    for (k, v) in &out.notes {
        eprintln!("  ({k:<26} {v})");
    }
    let path = cfg.out_dir.join(format!(
        "report-{workload}-seed{}-trace{}.json",
        cfg.seed, cfg.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, report_json(&workload, &cfg, &out, &line)) {
        eprintln!("perfbench: warning: cannot write {}: {e}", path.display());
    }

    for m in &out.mismatches {
        eprintln!("perfbench: DETERMINISM CHECK FAILED: {m}");
    }
    println!("{line}");
    if out.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
