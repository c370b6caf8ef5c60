//! `bench_pair`: the bench gate's comparison step.
//!
//! Reads the `parent-<n>.json` / `change-<n>.json` smoke reports that
//! `scripts/bench.sh --pair REV` leaves in `DIR`, prints the per-key
//! comparison of `whisper_bench::baseline`, writes it to
//! `BENCH_core.json` as the paired report against `REV`, and exits
//! non-zero when a gated key regresses or goes missing.
//!
//! Run: `cargo run --release -p whisper-bench --bin bench_pair -- DIR REV`

use whisper_bench::baseline::{self, PAIRS};
use whisper_bench::section;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir, rev] = args.as_slice() else {
        eprintln!("usage: bench_pair DIR REV");
        std::process::exit(2);
    };
    let (parent, change) = baseline::load_pairs(dir.as_ref()).unwrap_or_else(|e| {
        eprintln!("bench_pair: {e}");
        std::process::exit(2);
    });
    section(&format!(
        "bench pair: {rev} (parent) vs this tree (change), {PAIRS} smoke pairs"
    ));
    let rows = baseline::compare(&parent, &change);
    print!("{}", baseline::render_table(&rows));
    let mut report = baseline::paired_report(&rows, rev);
    report.host_available_parallelism = change[0].host_available_parallelism;
    std::fs::write("BENCH_core.json", report.to_json()).expect("write BENCH_core.json");
    println!("\nwrote BENCH_core.json");
    let failed: Vec<&baseline::Row> = rows.iter().filter(|r| r.fails()).collect();
    for r in &failed {
        eprintln!("{}", r.render());
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
