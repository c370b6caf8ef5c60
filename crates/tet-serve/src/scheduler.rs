//! The scheduling core: one validated [`CampaignSpec`] in, one
//! deterministic [`RunReport`] out.
//!
//! Trials fan out across the worker-thread pool via
//! [`tet_par::run_indexed_observed`] (results committed in submission
//! order, so the report is byte-identical at any thread count), with a
//! per-unit observer hook for live progress/telemetry. The report
//! deliberately carries **no host-timing fields** — no `wall_time_ms`,
//! no `host_threads` — because the report *is* the cache value: a
//! cached hit must be byte-identical to the cold run that produced it,
//! and wall time is the one thing a deterministic simulator does not
//! reproduce. Latency lives in the transport layer (job status,
//! `BENCH_serve.json`), not in the result.

use tet_obs::{Histogram, RunReport};
use tet_uarch::CpuConfig;
use whisper::eval::{self, AttackStatus, CellStats, Table2Row, TABLE2_ATTACKS};
use whisper::scenario::ScenarioOptions;

use crate::spec::{CampaignKind, CampaignSpec};

/// Runs `spec` on up to `threads` workers. `observe(done_units)` is
/// called from worker threads as units complete (completion order, for
/// progress only — it cannot affect the result).
pub fn run_campaign<O>(spec: &CampaignSpec, threads: usize, observe: O) -> Result<RunReport, String>
where
    O: Fn(usize) + Sync,
{
    match spec.kind {
        CampaignKind::Table2Cell => run_cell_campaign(spec, threads, observe),
        CampaignKind::Table2Matrix => run_matrix_campaign(spec, threads, observe),
    }
}

/// Shared report skeleton: the spec's canonical identity.
fn base_report(spec: &CampaignSpec) -> RunReport {
    let mut rep = RunReport::new("serve_campaign");
    rep.set_meta("kind", spec.kind.name());
    rep.set_meta("spec", spec.canonical_json());
    rep.set_meta("key", spec.cache_key());
    rep
}

fn absorb_cell_stats(rep: &mut RunReport, total: &CellStats) {
    rep.counter("runs", total.runs);
    rep.counter("sim_cycles", total.sim_cycles);
    rep.counter("ff_skipped_cycles", total.ff_skipped_cycles);
    rep.counter("ff_sprints", total.ff_sprints);
    rep.counter("snapshot_restores", total.snapshot_restores);
    rep.counter("l1_hits", total.l1_hits);
    rep.counter("l1_misses", total.l1_misses);
    rep.counter("dtlb_walks", total.dtlb_walks);
    rep.counter("branches", total.branches);
    rep.counter("br_mispredicts", total.br_mispredicts);
}

/// One Table 2 cell, `trials` seeds (`seed .. seed + trials`), each an
/// independent scenario — the embarrassingly-parallel unit.
fn run_cell_campaign<O>(
    spec: &CampaignSpec,
    threads: usize,
    observe: O,
) -> Result<RunReport, String>
where
    O: Fn(usize) + Sync,
{
    let cfg = CpuConfig::by_name(&spec.preset)
        .ok_or_else(|| format!("unknown preset {:?}", spec.preset))?;
    let attack = TABLE2_ATTACKS
        .iter()
        .position(|a| *a == spec.attack)
        .ok_or_else(|| format!("unknown attack {:?}", spec.attack))?;
    let trials = spec.trials as usize;
    let done = std::sync::atomic::AtomicUsize::new(0);
    let outcomes: Vec<(AttackStatus, CellStats)> = tet_par::run_indexed_observed(
        threads,
        trials,
        || (),
        |(), i| {
            let opts = ScenarioOptions {
                seed: spec.seed.wrapping_add(i as u64),
                kpti: spec.kpti,
                flare: spec.flare,
                interrupt_period: spec.interrupt_period,
                ..ScenarioOptions::default()
            };
            eval::run_table2_cell_opts(&cfg, &opts, attack)
        },
        |_, _| observe(1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed)),
    );

    let mut total = CellStats::default();
    let mut successes = 0u64;
    let mut cycles_hist = Histogram::new();
    let mut statuses = String::with_capacity(trials);
    for (st, cs) in &outcomes {
        total.merge(cs);
        if *st == AttackStatus::Success {
            successes += 1;
        }
        statuses.push(if *st == AttackStatus::Success {
            'Y'
        } else {
            'n'
        });
        cycles_hist.record(cs.sim_cycles);
    }
    let mut rep = base_report(spec);
    rep.set_meta("preset", cfg.name);
    rep.set_meta("attack", TABLE2_ATTACKS[attack]);
    // The per-seed outcome string ('Y' success / 'n' fail, seed order):
    // compact, deterministic, and enough to reconstruct any cell.
    rep.set_meta("statuses", statuses);
    rep.counter("trials", trials as u64);
    rep.counter("successes", successes);
    rep.scalar("success_rate", successes as f64 / trials as f64);
    absorb_cell_stats(&mut rep, &total);
    rep.histogram("sim_cycles_per_trial", &cycles_hist);
    Ok(rep)
}

/// The full Table 2 matrix at one seed — the `table2_matrix` experiment
/// as a service.
fn run_matrix_campaign<O>(
    spec: &CampaignSpec,
    threads: usize,
    observe: O,
) -> Result<RunReport, String>
where
    O: Fn(usize) + Sync,
{
    let done = std::sync::atomic::AtomicUsize::new(0);
    let (rows, total): (Vec<Table2Row>, CellStats) =
        eval::run_table2_matrix_observed(spec.seed, threads, |_, _| {
            observe(1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        });
    let mut rep = base_report(spec);
    let mut all_match = true;
    for row in &rows {
        let cells: Vec<String> = row.cells().iter().map(|c| c.to_string()).collect();
        rep.set_meta(
            &format!("row.{}", CpuConfig::slug_of(row.cpu)),
            cells.join(" "),
        );
        all_match &= row.matches_paper();
    }
    rep.counter("rows", rows.len() as u64);
    rep.counter("all_match", all_match as u64);
    absorb_cell_stats(&mut rep, &total);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_campaign_is_thread_count_invariant() {
        let spec = CampaignSpec {
            trials: 4,
            seed: 7,
            ..CampaignSpec::default()
        };
        let a = run_campaign(&spec, 1, |_| {}).unwrap();
        let b = run_campaign(&spec, 8, |_| {}).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "threads must not change bytes");
        assert_eq!(a.counters["trials"], 4);
        assert!(a.counters["successes"] <= 4);
        assert!(a.wall_time_ms.is_none(), "reports must carry no wall time");
    }

    #[test]
    fn observer_sees_every_unit() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = CampaignSpec {
            trials: 5,
            ..CampaignSpec::default()
        };
        let seen = AtomicUsize::new(0);
        let max = AtomicUsize::new(0);
        run_campaign(&spec, 2, |done| {
            seen.fetch_add(1, Ordering::Relaxed);
            max.fetch_max(done, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert_eq!(max.load(Ordering::Relaxed), 5);
    }
}
