//! The traced passes re-walk the program through public calls; they must
//! reproduce the untraced results exactly, and repeat exactly.

use std::time::Instant;

use perfbench::covert::{self, traced_transmit};
use perfbench::table2::{self, traced_matrix};
use perfbench::trace::{self, Tracer};
use tet_uarch::CpuConfig;
use whisper::eval::run_table2_matrix_detailed;
use whisper::scenario::Scenario;

#[test]
fn traced_table2_matrix_reproduces_rows_and_counts() {
    let seed = table2::matrix_seed(5, 0);
    let (rows, stats) = run_table2_matrix_detailed(seed, 2);
    let mut tr = Tracer::new(Instant::now());
    let traced = traced_matrix(&mut tr, seed);
    assert_eq!(traced.rows, rows);
    assert_eq!(traced.sim.cell, stats);
    assert_eq!(stats.snapshot_restores, 0, "table2 never restores");
    assert_eq!(table2::paper_check(&rows).failed, 0);

    // Every cell got its scenario and attack spans; KASLR got its
    // per-slot gadget builds and runs.
    let layers = trace::layers(&[tr.into_spans()]);
    let cells = table2::cells_per_matrix() as u64;
    assert_eq!(layers["scenario.new"].calls, cells);
    let attacks: u64 = [
        "attack.cc",
        "attack.md",
        "attack.zbl",
        "attack.rsb",
        "attack.kaslr",
    ]
    .iter()
    .map(|a| layers[a].calls)
    .sum();
    assert_eq!(attacks, cells);
    assert!(layers["gadget.build"].calls >= 5 * 512);

    let mut again = Tracer::new(Instant::now());
    assert_eq!(
        traced_matrix(&mut again, seed),
        traced,
        "the re-walk repeats exactly"
    );
}

fn check_covert(noisy: bool) {
    let sc = Scenario::new(
        CpuConfig::kaby_lake_i7_7700(),
        &covert::scenario_options(noisy),
    );
    let ch = covert::channel();
    let msg = &covert::message(9, 0)[..4];
    let mut tr = Tracer::new(Instant::now());
    let traced = traced_transmit(&mut tr, &sc, msg, &ch);
    for threads in [1, 2] {
        let rep = ch.transmit_chunked(&sc, msg, threads);
        assert_eq!(traced.received, rep.received, "threads={threads}");
        assert_eq!(traced.cycles, rep.cycles, "threads={threads}");
    }
    assert_eq!(traced.received, msg, "the channel decodes the message");
    assert_eq!(traced.probes, 4 * 256 * u64::from(ch.batches));
    if noisy {
        assert_eq!(traced.replays, 0, "interrupt noise disables batching");
    } else {
        assert!(
            traced.replays > 0,
            "the quiet channel replays from the memo"
        );
    }
    assert_eq!(traced.sim.cell.snapshot_restores, 4, "one restore per byte");
    let mut again = Tracer::new(Instant::now());
    assert_eq!(
        traced_transmit(&mut again, &sc, msg, &ch),
        traced,
        "the re-walk repeats exactly"
    );
}

#[test]
fn traced_noisy_transmit_reproduces_received_and_cycles() {
    check_covert(true);
}

#[test]
fn traced_quiet_transmit_reproduces_received_and_cycles() {
    check_covert(false);
}
