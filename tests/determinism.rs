//! Cross-thread-count determinism: every `tet-par` fan-out must be
//! byte-identical to its serial run (DESIGN.md §8).
//!
//! These tests are valid on any host, including single-CPU machines —
//! with more threads than cores the OS still interleaves workers in a
//! schedule the result must not depend on.

use tet_obs::RunReport;
use tet_uarch::CpuConfig;
use whisper::channel::TetCovertChannel;
use whisper::eval::{run_table2_cell, run_table2_matrix, AttackStatus, TABLE2_ATTACKS};
use whisper::scenario::{Scenario, ScenarioOptions};

const SEEDS: [u64; 3] = [1, 42, 1337];

/// One preset's five Table 2 cells, fanned out on `threads` workers —
/// the per-cell unit `run_table2_matrix` is built from, cheap enough to
/// sweep across seeds in a debug-build test run.
fn row_cells(cfg: &CpuConfig, seed: u64, threads: usize) -> Vec<AttackStatus> {
    tet_par::run_indexed(threads, TABLE2_ATTACKS.len(), |k| {
        run_table2_cell(cfg, seed, k)
    })
}

#[test]
fn table2_cells_identical_at_threads_1_and_8_across_seeds() {
    let cfg = CpuConfig::kaby_lake_i7_7700();
    for seed in SEEDS {
        let serial = row_cells(&cfg, seed, 1);
        let parallel = row_cells(&cfg, seed, 8);
        assert_eq!(serial, parallel, "seed {seed}");
    }
}

#[test]
fn argmax_decode_identical_at_threads_1_and_8_across_seeds() {
    for seed in SEEDS {
        let sc = Scenario::new(
            CpuConfig::kaby_lake_i7_7700(),
            &ScenarioOptions {
                seed,
                ..ScenarioOptions::default()
            },
        );
        // 33 snapshot-forked byte trials, decoded with the plain argmax.
        let payload: Vec<u8> = (0..33u8)
            .map(|i| i.wrapping_mul(31).wrapping_add(seed as u8))
            .collect();
        let ch = TetCovertChannel::new(1);
        let serial = ch.transmit_chunked(&sc, &payload, 1);
        assert_eq!(serial.received, payload, "noise-free decode (seed {seed})");
        let parallel = ch.transmit_chunked(&sc, &payload, 8);
        assert_eq!(serial, parallel, "seed {seed}");
    }
}

/// Builds the report a bench binary would write from one matrix result.
fn matrix_report(rows: &[whisper::eval::Table2Row], threads: usize) -> RunReport {
    let mut rep = RunReport::new("determinism_probe");
    for row in rows {
        let ok = row
            .cells()
            .iter()
            .filter(|s| matches!(s, AttackStatus::Success))
            .count();
        rep.counter(&format!("attacks_ok.{}", row.cpu), ok as u64);
        rep.scalar(
            &format!("matches_paper.{}", row.cpu),
            f64::from(row.matches_paper()),
        );
    }
    // Timing fields differ across runs/threads by construction.
    rep.set_throughput(
        std::time::Duration::from_millis(threads as u64),
        threads,
        None,
    );
    rep
}

#[test]
fn matrix_with_telemetry_identical_to_plain_serial_matrix() {
    use whisper::eval::{run_table2_matrix_detailed, run_table2_matrix_observed};
    // Telemetry off, serial — the reference leg.
    let (plain_rows, plain_stats) = run_table2_matrix_detailed(7, 1);
    // Telemetry on (completion-order observer), 8 threads — covers both
    // "observer on vs off" and "threads 1 vs 8" in one comparison. The
    // observer sees every cell exactly once.
    let seen = std::sync::atomic::AtomicU64::new(0);
    let (rows, stats) = run_table2_matrix_observed(7, 8, |_, cs| {
        seen.fetch_add(cs.runs, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(rows, plain_rows);
    assert_eq!(stats, plain_stats, "PMU-derived counters included");
    assert_eq!(
        seen.load(std::sync::atomic::Ordering::Relaxed),
        stats.runs,
        "observer saw every cell's trials exactly once"
    );
}

#[test]
fn full_matrix_and_report_identical_at_threads_1_and_8() {
    let serial = run_table2_matrix(42, 1);
    let parallel = run_table2_matrix(42, 8);
    assert_eq!(serial, parallel);

    let serial_rep = matrix_report(&serial, 1);
    let parallel_rep = matrix_report(&parallel, 8);
    // The timing fields legitimately differ...
    assert_ne!(serial_rep.host_threads, parallel_rep.host_threads);
    // ...and everything else must be byte-identical, down to the JSON.
    assert_eq!(serial_rep.without_timing(), parallel_rep.without_timing());
    assert_eq!(
        serial_rep.without_timing().to_json(),
        parallel_rep.without_timing().to_json()
    );
}
