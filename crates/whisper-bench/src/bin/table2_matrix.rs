//! Table 2 — environment and experiments: the attack success matrix over
//! the five evaluated CPU models, compared cell-by-cell against the
//! paper's reported results.
//!
//! The matrix fans out one worker task per (CPU, attack) cell via
//! `tet-par`; results are committed in submission order, so the table is
//! byte-identical for any `--threads` setting. While it runs, a
//! `whisper-top` dashboard on stderr tracks trials/sec, fast-forward
//! coverage, cache/TLB/BPU hit rates and the ETA (`TET_QUIET=1`
//! silences it; `TET_FLIGHT=path` appends the telemetry as JSONL).
//!
//! With `TET_METRICS=1` the run also exports a metrics section in the
//! JSON report plus a Prometheus text file next to it. All of that is
//! host-side observation — stdout is byte-identical with every
//! combination of those switches.
//!
//! With `--server URL` the binary becomes a thin client of the
//! `whisper-serve` campaign service: it submits the same matrix
//! campaign (`kind=table2_matrix, seed=42`), lets the server compute it
//! (or serve it from the content-addressed result cache), and rebuilds
//! the table from the returned RunReport. stdout is byte-identical to
//! the local mode — server/cache notes go to stderr — so CI can diff
//! the two paths.
//!
//! Run: `cargo run -p whisper-bench --bin table2_matrix [--threads N] [--check]
//!       [--server URL]`

use tet_metrics::{to_prometheus, Registry};
use tet_obs::MetricsSection;
use tet_uarch::CpuConfig;
use whisper::eval::{
    paper_table2_row, run_table2_matrix_observed, AttackStatus, CellStats, Table2Row,
};
use whisper_bench::telemetry::Campaign;
use whisper_bench::{check_from_args, section, write_report, write_sidecar, RunReport, Table};

/// Pops `--server URL` from the argument list, if present.
fn server_from_args(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--server")?;
    if i + 1 < args.len() {
        let url = args.remove(i + 1);
        args.remove(i);
        Some(url)
    } else {
        args.remove(i);
        eprintln!("table2_matrix: --server needs a URL (e.g. 127.0.0.1:8044)");
        std::process::exit(2);
    }
}

/// Runs the matrix campaign through a `whisper-serve` instance and
/// reconstructs the per-CPU rows from the served report's
/// `row.<cpu-slug>` meta entries (space-joined `ok`/`FAIL` cells in
/// attack order).
fn matrix_via_server(url: &str) -> Result<(Vec<Table2Row>, CellStats), String> {
    let client = tet_serve::Client::new(url);
    let spec = "{\"kind\": \"table2_matrix\", \"seed\": 42}";
    let (body, was_cached) = client.run_to_report(spec)?;
    eprintln!(
        "  server {url}: {}",
        if was_cached { "cache hit" } else { "cold run" }
    );
    let rep = RunReport::from_json(&body).map_err(|e| format!("parse served report: {e}"))?;
    let mut rows = Vec::new();
    for cfg in CpuConfig::table2_presets() {
        let key = format!("row.{}", CpuConfig::slug_of(cfg.name));
        let line = rep
            .meta
            .get(&key)
            .ok_or_else(|| format!("served report missing {key}"))?;
        let cells: Vec<AttackStatus> = line
            .split_whitespace()
            .map(|tok| {
                if tok == "ok" {
                    AttackStatus::Success
                } else {
                    AttackStatus::Fail
                }
            })
            .collect();
        let [cc, md, zbl, rsb, kaslr] = cells[..]
            .try_into()
            .map_err(|_| format!("served report {key} has {} cells, want 5", cells.len()))?;
        rows.push(Table2Row {
            cpu: cfg.name,
            uarch: cfg.uarch,
            cc,
            md,
            zbl,
            rsb,
            kaslr,
        });
    }
    let counter = |name: &str| rep.counters.get(name).copied().unwrap_or(0);
    let stats = CellStats {
        runs: counter("runs"),
        sim_cycles: counter("sim_cycles"),
        ff_skipped_cycles: counter("ff_skipped_cycles"),
        ..CellStats::default()
    };
    Ok((rows, stats))
}

fn cell(ours: AttackStatus, paper: Option<AttackStatus>) -> String {
    let o = match ours {
        AttackStatus::Success => "Y",
        AttackStatus::Fail => "x",
    };
    match paper {
        None => format!("{o} (paper ?)"),
        Some(p) if p == ours => format!("{o} (= paper)"),
        Some(_) => format!("{o} (DIFFERS)"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = tet_par::threads_from_args(&mut args);
    let checked = check_from_args(&mut args);
    let server = server_from_args(&mut args);
    section("Table 2: attack matrix (ours vs paper)");
    println!("  threads: {threads}");
    let mut table = Table::new(&[
        "CPU",
        "uarch",
        "TET-CC",
        "TET-MD",
        "TET-ZBL",
        "TET-RSB",
        "TET-KASLR",
    ]);
    let mut all_match = true;
    let mut rep = RunReport::new("table2_matrix");
    let registry = Registry::from_env(); // TET_METRICS=1
    let cells_total =
        (CpuConfig::table2_presets().len() * whisper::eval::TABLE2_ATTACKS.len()) as u64;
    let campaign = Campaign::with_metrics(
        "table2",
        cells_total,
        registry
            .as_ref()
            .map_or_else(tet_metrics::MetricsHandle::disabled, |r| r.handle()),
    );
    let started = std::time::Instant::now();
    let (rows, stats) = if let Some(url) = &server {
        matrix_via_server(url).unwrap_or_else(|e| {
            eprintln!("table2_matrix: --server {url}: {e}");
            std::process::exit(1);
        })
    } else {
        run_table2_matrix_observed(42, threads, |_, cs| campaign.on_cell(cs))
    };
    let wall = started.elapsed();
    for row in &rows {
        let paper = paper_table2_row(row.cpu);
        let cells = row.cells();
        table.row_owned(vec![
            row.cpu.to_string(),
            row.uarch.to_string(),
            cell(cells[0], paper[0]),
            cell(cells[1], paper[1]),
            cell(cells[2], paper[2]),
            cell(cells[3], paper[3]),
            cell(cells[4], paper[4]),
        ]);
        all_match &= row.matches_paper();
        let successes = cells
            .iter()
            .filter(|s| matches!(s, AttackStatus::Success))
            .count();
        rep.counter(&format!("attacks_ok.{}", row.cpu), successes as u64);
    }
    print!("{}", table.render());
    println!(
        "\nAll paper-verified cells match: {}",
        whisper_bench::tick(all_match)
    );
    rep.set_meta("table", "2");
    rep.set_meta("checked", if checked { "yes" } else { "no" });
    rep.set_meta("served", if server.is_some() { "yes" } else { "no" });
    rep.scalar("all_match", f64::from(all_match));
    rep.counter("trials", stats.runs);
    rep.counter("sim_cycles", stats.sim_cycles);
    rep.counter("ff_skipped_cycles", stats.ff_skipped_cycles);
    rep.set_throughput(wall, threads, None);

    // Host-side telemetry exports: the dashboard always closes (stderr,
    // quiet-gated); the metrics section and sidecar file only exist
    // when TET_METRICS=1 opted in.
    let mut metrics = MetricsSection::default();
    campaign.finish(&mut metrics);
    if let Some(r) = &registry {
        let shards = r.snapshot();
        metrics.counters.extend(shards.counters);
        metrics.gauges.extend(shards.gauges);
        metrics.histograms.extend(shards.histograms);
        write_sidecar("table2_matrix.prom", &to_prometheus(&metrics));
        rep.set_metrics(metrics);
    }

    write_report(&rep);
    assert!(all_match, "Table 2 reproduction must match the paper");
}
