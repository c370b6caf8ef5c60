//! `table2`: full Table 2 matrices, one per seed of a seeded sequence,
//! each fanned out by `tet_par` over the benchmark's threads.
//!
//! Every cell builds a fresh `Scenario` and simulates cold, so scenario
//! construction, fast-forward and live simulation carry the cost; there
//! are no snapshot restores. An operation is one matrix; the unit of
//! work is one cell.

use tet_os::{slot_base, NUM_SLOTS};
use tet_uarch::CpuConfig;
use whisper::attacks::{TetKaslr, TetMeltdown, TetSpectreRsb, TetZombieload};
use whisper::channel::TetCovertChannel;
use whisper::eval::{
    paper_table2_row, run_table2_matrix_detailed, AttackStatus, Table2Row, TABLE2_ATTACKS,
};
use whisper::gadget::{TetGadget, TetGadgetSpec};
use whisper::scenario::{Scenario, ScenarioOptions};

use crate::inputs::{mix, Digest};
use crate::metrics::{self, retired_uops, set_calls, set_mean, Outcome, RunCfg, SimCounts};
use crate::stats::{median, ratio, Tally};
use crate::trace::{self, Tracer};
use crate::{timed, timed_loop};

/// Matrices the traced run re-walks (and the untraced run must cover).
pub const TRACE_ITEMS: u64 = 3;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: u64 = 5;

/// Span name and per-layer metric of each attack column, in
/// [`TABLE2_ATTACKS`] order.
const ATTACK_SPANS: [(&str, &str); 5] = [
    ("attack.cc", "attack.cc_ms"),
    ("attack.md", "attack.md_ms"),
    ("attack.zbl", "attack.zbl_ms"),
    ("attack.rsb", "attack.rsb_ms"),
    ("attack.kaslr", "attack.kaslr_ms"),
];

/// Cells per matrix.
pub fn cells_per_matrix() -> usize {
    CpuConfig::table2_presets().len() * TABLE2_ATTACKS.len()
}

/// Scenario seed of matrix `i`.
pub fn matrix_seed(seed: u64, i: u64) -> u64 {
    mix(seed, "table2.matrix", i) >> 32
}

/// Scenario seed of set-up (warm-up) matrix `r`.
fn warmup_seed(seed: u64, r: u64) -> u64 {
    mix(seed, "table2.warmup", r) >> 32
}

/// Counts each cell against the paper's Table 2 (the reference): a cell
/// the paper verified and we disagree with is a failure.
pub fn paper_check(rows: &[Table2Row]) -> Tally {
    let mut t = Tally::default();
    for row in rows {
        for (ours, paper) in row.cells().iter().zip(paper_table2_row(row.cpu)) {
            t.record(paper.is_none_or(|p| p == *ours));
        }
    }
    t
}

/// Absorbs a matrix's cell outcomes into a digest.
fn digest_rows(d: &mut Digest, rows: &[Table2Row]) {
    for row in rows {
        d.bytes(row.cpu.as_bytes());
        for c in row.cells() {
            d.u64((c == AttackStatus::Success) as u64);
        }
    }
}

/// What the traced re-walk of one matrix produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedMatrix {
    /// The rows, preset order.
    pub rows: Vec<Table2Row>,
    /// Simulated counts over all cells.
    pub sim: SimCounts,
    /// µops retired inside the bracketed `machine.run` spans.
    pub run_uops: u64,
}

fn status(ok: bool) -> AttackStatus {
    if ok {
        AttackStatus::Success
    } else {
        AttackStatus::Fail
    }
}

/// The KASLR cell through public calls, so gadget builds and simulator
/// runs get their own spans: the `TetKaslr::default()` sweep (warm-up
/// probe, then every slot: build, flush the TLBs, measure) and its
/// below-the-median classification.
fn kaslr_cell(tr: &mut Tracer, sc: &mut Scenario, run_uops: &mut u64) -> AttackStatus {
    let attack = TetKaslr::default();
    assert!(!attack.assume_kpti, "the Table 2 cell probes without KPTI");
    let m = &mut sc.machine;
    let warm = tr.time("gadget.build", || {
        TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(0)))
    });
    let u0 = retired_uops(m);
    tr.time("machine.run", || warm.measure(m, 0));
    *run_uops += retired_uops(m) - u0;
    let mut totes = Vec::with_capacity(NUM_SLOTS as usize);
    for slot in 0..NUM_SLOTS {
        let gadget = tr.time("gadget.build", || {
            TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(slot)))
        });
        let mut best = u64::MAX;
        for _ in 0..attack.samples_per_slot {
            m.flush_tlbs();
            let u0 = retired_uops(m);
            let r = tr.time("machine.run", || gadget.measure_detailed(m, 0));
            *run_uops += retired_uops(m) - u0;
            if let Some((tote, _)) = r {
                best = best.min(tote);
            }
        }
        totes.push(if best == u64::MAX { 0 } else { best });
    }
    // Mapped slots sit measurably below the median (most slots are
    // unmapped); the first of them is the base.
    let mut valid: Vec<u64> = totes.iter().copied().filter(|&t| t > 0).collect();
    valid.sort_unstable();
    let found = valid.get(valid.len() / 2).and_then(|&median| {
        let threshold = median.saturating_sub(attack.min_gap);
        if valid[0] >= threshold {
            return None;
        }
        let first = totes.iter().position(|&t| t > 0 && t < threshold)?;
        Some(slot_base(first as u64))
    });
    status(found == Some(sc.kernel.base))
}

/// One cell as `eval::run_table2_cell_detailed` runs it, with spans
/// around scenario construction and the attack.
fn traced_cell(
    tr: &mut Tracer,
    cfg: &CpuConfig,
    seed: u64,
    attack: usize,
    run_uops: &mut u64,
) -> (AttackStatus, SimCounts) {
    let opts = ScenarioOptions {
        seed,
        ..ScenarioOptions::default()
    };
    let mut sc = tr.time("scenario.new", || Scenario::new(cfg.clone(), &opts));
    tr.begin(ATTACK_SPANS[attack].0);
    let st = match attack {
        0 => {
            sc.sender_write(0xa5);
            let (got, _) = TetCovertChannel::new(2).receive_byte(&mut sc);
            status(got == 0xa5)
        }
        1 => {
            let r = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
            status(r.recovered == b"WHIS")
        }
        2 => {
            for (i, b) in b"LFB!".iter().enumerate() {
                sc.set_victim_byte(i as u64, *b);
            }
            status(TetZombieload::default().sample(&mut sc, 4).recovered == b"LFB!")
        }
        3 => {
            let r = TetSpectreRsb::default().leak(&mut sc.machine, sc.user_secret_va, 2);
            status(r.recovered == b"rs")
        }
        _ => kaslr_cell(tr, &mut sc, run_uops),
    };
    tr.end();
    let mut sim = SimCounts::default();
    sim.absorb(&sc.machine);
    (st, sim)
}

/// Re-walks one matrix serially through public calls, with spans. Must
/// reproduce `run_table2_matrix_detailed(seed, _)` exactly.
pub fn traced_matrix(tr: &mut Tracer, seed: u64) -> TracedMatrix {
    let mut sim = SimCounts::default();
    let mut run_uops = 0;
    let rows = CpuConfig::table2_presets()
        .iter()
        .map(|cfg| {
            let mut cells = [AttackStatus::Fail; 5];
            for (k, cell) in cells.iter_mut().enumerate() {
                let (st, s) = traced_cell(tr, cfg, seed, k, &mut run_uops);
                *cell = st;
                sim.merge(&s);
            }
            Table2Row {
                cpu: cfg.name,
                uarch: cfg.uarch,
                cc: cells[0],
                md: cells[1],
                zbl: cells[2],
                rsb: cells[3],
                kaslr: cells[4],
            }
        })
        .collect();
    TracedMatrix {
        rows,
        sim,
        run_uops,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let threads = cfg.threads;

    // Set-up: warm-up matrices (first-touch allocations, thread start-up)
    // on seeds outside the measured sequence.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let setup: Vec<f64> = (0..reps)
        .map(|r| timed(|| run_table2_matrix_detailed(warmup_seed(cfg.seed, r), threads)).0)
        .collect();

    let min_ops = if cfg.trace { TRACE_ITEMS } else { 1 };
    let (runs, wall_s) = timed_loop(cfg.seconds, min_ops, |i| {
        run_table2_matrix_detailed(matrix_seed(cfg.seed, i), threads)
    });
    let cells = cells_per_matrix();
    for r in &runs {
        out.tally.merge(paper_check(&r.value.0));
    }
    let op_ms: Vec<f64> = runs.iter().map(|r| r.ms).collect();
    let work = (runs.len() * cells) as f64 / wall_s;
    out.set("work_per_s", work);
    let tail = metrics::set_latency(&mut out, &op_ms);
    metrics::set_memory(&mut out);
    out.set("setup_s", median(&setup));
    out.set("failed_ratio", out.tally.failed_ratio());
    out.note("table2.cells_per_s", work);
    out.note("table2.matrix_p50_ms", median(&op_ms));
    out.note("table2.matrix_tail_ms", tail.value);
    out.note("threads", threads as f64);
    if !cfg.trace {
        return out;
    }

    // Untraced passes over the first matrices on one thread and on every
    // thread: thread-count invariance, parallel efficiency, and the base
    // for tracing overhead.
    let k = TRACE_ITEMS as usize;
    let mut pass = |t: usize| -> f64 {
        let mut secs = 0.0;
        for (i, r) in runs.iter().take(k).enumerate() {
            let (s, m) = timed(|| run_table2_matrix_detailed(matrix_seed(cfg.seed, i as u64), t));
            secs += s;
            out.check(m == r.value, || {
                format!("table2 matrix {i}: threads={t} differs from the timed run")
            });
        }
        secs
    };
    let serial_s = pass(1);
    let par_s = pass(threads);

    // Traced serial pass.
    let origin = std::time::Instant::now();
    let mut tr = Tracer::new(origin);
    let mut sim = SimCounts::default();
    let mut run_uops = 0;
    let mut d = Digest::new();
    for (i, r) in runs.iter().take(k).enumerate() {
        tr.set_op(i as u64);
        tr.begin("op.matrix");
        let t = traced_matrix(&mut tr, matrix_seed(cfg.seed, i as u64));
        tr.end();
        let (rows, stats) = &r.value;
        out.check(t.rows == *rows, || {
            format!("table2 matrix {i}: traced rows differ from the untraced run")
        });
        out.check(t.sim.cell == *stats, || {
            format!(
                "table2 matrix {i}: traced counts {:?} differ from untraced {:?}",
                t.sim.cell, stats
            )
        });
        digest_rows(&mut d, &t.rows);
        t.sim.digest(&mut d);
        sim.merge(&t.sim);
        run_uops += t.run_uops;
    }
    let traced_s = origin.elapsed().as_secs_f64();
    let spans = vec![tr.into_spans()];
    let layers = trace::layers(&spans);

    out.set("par.efficiency", ratio(serial_s, threads as f64 * par_s));
    out.set("trace.overhead_ratio", traced_s / serial_s - 1.0);
    out.set(
        "unattributed_ratio",
        trace::unattributed_ratio(&layers, (traced_s * 1e9) as u64),
    );
    out.set("output.digest32", (d.finish() & 0xffff_ffff) as f64);
    set_mean(&mut out, &layers, "scenario.new", "scenario.new_us", 1e3);
    set_calls(&mut out, &layers, "scenario.new", "scenario.calls");
    set_mean(&mut out, &layers, "gadget.build", "gadget.build_us", 1e3);
    set_calls(&mut out, &layers, "gadget.build", "gadget.builds");
    set_mean(&mut out, &layers, "machine.run", "machine.run_us", 1e3);
    let run_ns = layers.get("machine.run").map_or(0, |l| l.total_ns);
    out.set("sim.ns_per_uop", ratio(run_ns as f64, run_uops as f64));
    sim.report(&mut out);
    for (span, metric) in ATTACK_SPANS {
        set_mean(&mut out, &layers, span, metric, 1e6);
    }
    crate::write_trace(cfg, "table2", &spans);
    out
}
