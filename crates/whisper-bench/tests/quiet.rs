//! `TET_QUIET=1` must silence *all* stderr chatter uniformly across the
//! experiment binaries: progress lines, `report:`/`export:` notes, the
//! `whisper-top` dashboard. Stderr is the status channel (results go to
//! stdout), so "quiet" means an empty stderr on a successful run.
//!
//! Running all 15 binaries end-to-end is minutes of work; this test
//! runs a representative cheap subset through the real binaries (via
//! `CARGO_BIN_EXE`) — one plain table bin, one with a live dashboard
//! (`table2_matrix` would take too long, so `sec41_throughput` with a
//! tiny payload covers the `whisper-top` path), and `bench_pair`. The
//! shared helpers (`write_report`, `Progress`, `Top`) are the only
//! stderr writers the binaries use, so covering each helper here covers
//! the rest of the fleet.

use std::process::Command;

fn run_quiet(exe: &str, args: &[&str], extra_env: &[(&str, &str)]) -> (String, String) {
    let dir = std::env::temp_dir().join(format!(
        "tet_quiet_{}_{}",
        std::process::id(),
        exe.rsplit('/').next().unwrap_or("bin")
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env("TET_QUIET", "1")
        // Reports land in a scratch dir so the test never touches the
        // repo's target/reports.
        .env("TET_REPORT_DIR", &dir)
        .current_dir(&dir);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{exe} failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    std::fs::remove_dir_all(&dir).ok();
    (stdout, stderr)
}

#[test]
fn table1_stateless_is_silent_on_stderr_under_tet_quiet() {
    let (stdout, stderr) = run_quiet(env!("CARGO_BIN_EXE_table1_stateless"), &[], &[]);
    assert!(!stdout.is_empty(), "results still go to stdout");
    assert_eq!(stderr, "", "stderr must be empty under TET_QUIET=1");
}

#[test]
fn sec41_dashboard_is_silent_on_stderr_under_tet_quiet() {
    // A 1-byte payload keeps the run cheap while still exercising the
    // whisper-top dashboard wiring under the retirement oracle.
    let (stdout, stderr) = run_quiet(
        env!("CARGO_BIN_EXE_sec41_throughput"),
        &["1", "--threads", "2"],
        &[("TET_CHECK", "1")],
    );
    assert!(!stdout.is_empty(), "results still go to stdout");
    assert_eq!(stderr, "", "stderr must be empty under TET_QUIET=1");
}

#[test]
fn bench_pair_is_silent_on_stderr_under_tet_quiet() {
    // Ten identical pairs; the metrics-level assertions live in
    // whisper_bench::baseline. This only checks the stderr contract.
    let dir = std::env::temp_dir().join(format!("tet_quiet_pairs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rep = tet_obs::RunReport::new("bench_core");
    rep.scalar("table2.ns_per_trial", 100.0);
    for n in 1..=whisper_bench::baseline::PAIRS {
        for side in ["parent", "change"] {
            std::fs::write(dir.join(format!("{side}-{n:02}.json")), rep.to_json()).unwrap();
        }
    }
    let (stdout, stderr) = run_quiet(
        env!("CARGO_BIN_EXE_bench_pair"),
        &[dir.to_str().unwrap(), "HEAD"],
        &[],
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(stdout.contains("ns_per_trial"), "pair table on stdout");
    assert_eq!(stderr, "", "stderr must be empty under TET_QUIET=1");
}
