//! `covert-noisy` / `covert-quiet`: a stream of seeded 16-byte random
//! messages through `TetCovertChannel::transmit_chunked` on the
//! i7-7700, with OS timer-interrupt noise (period 7919, the §4.1
//! configuration of `sec41_throughput`) or without.
//!
//! Under noise `ProbeMemo` batching disables itself, so every probe is
//! simulated live after a snapshot fork; without noise most probes
//! replay from the memo and each byte costs one `Machine::restore`. An
//! operation is one message; the unit of work is one payload byte.

use tet_uarch::{CpuConfig, Machine};
use whisper::analysis::{ArgmaxDecoder, Polarity};
use whisper::batch::{FixedRec, ProbeMemo};
use whisper::channel::TetCovertChannel;
use whisper::gadget::{TetGadget, TetGadgetSpec};
use whisper::scenario::{Scenario, ScenarioOptions, SHARED_PAGE};

use crate::inputs::{mix, Digest, Rng};
use crate::metrics::{self, retired_uops, set_calls, set_mean, Outcome, RunCfg, SimCounts};
use crate::stats::{median, ratio, Tally};
use crate::trace::{self, Tracer};
use crate::{timed, timed_loop};

/// Payload bytes per message.
pub const MSG_BYTES: usize = 16;

/// Timer-interrupt period of the noisy variant, in cycles.
pub const NOISE_PERIOD: u64 = 7919;

/// Messages the traced run re-walks (and the untraced run must cover).
pub const TRACE_ITEMS: u64 = 4;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: u64 = 5;

/// The scenario options: the §4.1 configuration (i7-7700 defaults,
/// scenario seed 1) with or without noise. The scenario is fixed; the
/// workload seed varies the message stream.
pub fn scenario_options(noisy: bool) -> ScenarioOptions {
    ScenarioOptions {
        interrupt_period: if noisy { NOISE_PERIOD } else { 0 },
        ..ScenarioOptions::default()
    }
}

/// Simulator threads of the timed loop: every thread for the noisy
/// variant, one for the quiet one. Quiet messages cost ~10 ms, and on a
/// 2-vCPU host the per-call fan-out (thread start, per-worker
/// `from_snapshot`) made their run-to-run spread 0.15–0.25 at two
/// threads against ~0.05 at one, with no throughput gained. The traced
/// run still times the fan-out (`par.efficiency`).
pub fn loop_threads(noisy: bool, nproc: usize) -> usize {
    if noisy {
        nproc
    } else {
        1
    }
}

/// The channel under test: the §4.1 default (3 argmax batches), with
/// snapshot-forked trials pinned on so the environment cannot switch
/// the benchmark to the legacy path.
pub fn channel() -> TetCovertChannel {
    TetCovertChannel::default().with_snapshot_trials(true)
}

/// Message `i` of the seeded stream.
pub fn message(seed: u64, i: u64) -> Vec<u8> {
    Rng::new(mix(seed, "covert.msg", i), "bytes").bytes(MSG_BYTES)
}

/// Digest of a transmission's simulated outputs: decoded bytes and
/// simulated cycles.
pub fn digest(received: &[u8], cycles: u64) -> u64 {
    Digest::new().bytes(received).u64(cycles).finish()
}

/// Counts each payload byte: decoded wrong (or missing) is a failure.
pub fn byte_check(sent: &[u8], received: &[u8]) -> Tally {
    let mut t = Tally::default();
    for (i, &b) in sent.iter().enumerate() {
        t.record(received.get(i) == Some(&b));
    }
    t
}

/// What the traced re-walk of one transmission produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedTransmit {
    /// Decoded bytes.
    pub received: Vec<u8>,
    /// Simulated receive cycles (warm-up once, plus every probe).
    pub cycles: u64,
    /// Simulated counts of the warm-up machine and the forked worker.
    pub sim: SimCounts,
    /// µops retired inside the bracketed (live) `machine.run` spans.
    pub run_uops: u64,
    /// Probes the decoder issued.
    pub probes: u64,
    /// Probes the memo replayed instead of simulating.
    pub replays: u64,
}

/// One live simulator run, bracketed.
fn live_run<R>(
    tr: &mut Tracer,
    m: &mut Machine,
    run_uops: &mut u64,
    f: impl FnOnce(&mut Machine) -> R,
) -> R {
    let u0 = retired_uops(m);
    tr.begin("machine.run");
    let r = f(m);
    tr.end();
    *run_uops += retired_uops(m) - u0;
    r
}

/// Re-walks `transmit_chunked`'s per-byte procedure single-threaded
/// through public calls, with spans: warm a clone once, snapshot it,
/// fork one worker machine, and per byte restore, re-seed the interrupt
/// phase from the byte index, write the byte, seed a `ProbeMemo` from
/// the first established fixed point and decode by argmax, replaying
/// proven-fixed probes (`try_skip`) and recording live ones (`record`).
/// Must reproduce `ChannelReport.received` and `.cycles` exactly.
pub fn traced_transmit(
    tr: &mut Tracer,
    sc: &Scenario,
    payload: &[u8],
    ch: &TetCovertChannel,
) -> TracedTransmit {
    let cfg: CpuConfig = sc.machine.config().clone();
    let gadget = tr.time("gadget.build", || {
        TetGadget::build(TetGadgetSpec::covert_channel(SHARED_PAGE, &cfg))
    });
    let mut run_uops = 0;
    let mut warm = tr.time("machine.clone", || sc.machine.clone());
    let mut cycles = 0u64;
    if let Some((_, c)) = live_run(tr, &mut warm, &mut run_uops, |m| {
        gadget.measure_detailed(m, 0)
    }) {
        cycles += c;
    }
    let snap = tr.time("machine.snapshot", || warm.snapshot());
    let decoder = ArgmaxDecoder::new(ch.batches, Polarity::MaxWins);
    let mut fixed: Option<FixedRec<Option<(u64, u64)>>> = None;
    let mut m = tr.time("machine.from_snapshot", || Machine::from_snapshot(&snap));
    let (mut probes, mut replays) = (0u64, 0u64);
    let mut received = Vec::with_capacity(payload.len());
    for (i, &byte) in payload.iter().enumerate() {
        tr.time("machine.restore", || m.restore(&snap));
        m.cpu_mut().reseed_interrupt_phase(i as u64);
        let pa = m
            .aspace()
            .translate(SHARED_PAGE)
            .expect("shared page is mapped");
        m.phys_mut().write_u8(pa, byte);
        let mut memo = ProbeMemo::seeded(&m, gadget.match_hint(&m), fixed.clone());
        tr.begin("analysis.decode");
        let out = decoder.decode(|test, _| {
            probes += 1;
            tr.begin("batch.lookup");
            if let Some(r) = memo.try_skip(&mut m, test as u64) {
                tr.end_as("batch.replay");
                replays += 1;
                let (tote, c) = r?;
                cycles += c;
                return Some(tote);
            }
            tr.end();
            tr.begin("batch.live_probe");
            let marker = m.delta_marker();
            let r = live_run(tr, &mut m, &mut run_uops, |m| {
                gadget.measure_detailed(m, test as u64)
            });
            tr.time("batch.record", || memo.record(&m, &marker, test as u64, &r));
            tr.end();
            let (tote, c) = r?;
            cycles += c;
            Some(tote)
        });
        tr.end();
        if fixed.is_none() {
            fixed = memo.fixed().cloned();
        }
        received.push(out.value);
    }
    let mut sim = SimCounts::default();
    sim.absorb(&warm);
    sim.absorb(&m);
    TracedTransmit {
        received,
        cycles,
        sim,
        run_uops,
        probes,
        replays,
    }
}

/// Runs the workload (`noisy` picks the variant).
pub fn run(cfg: &RunCfg, noisy: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = loop_threads(noisy, cfg.threads);
    let ch = channel();
    let opts = scenario_options(noisy);

    // Set-up: build the scenario and push one warm-up message (outside
    // the measured stream) through the channel.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut scenario_s = Vec::new();
    let mut sc = None;
    for r in 0..reps {
        let (s, (new_s, built)) = timed(|| {
            let (new_s, built) = timed(|| Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts));
            let warm = Rng::new(mix(cfg.seed, "covert.warmup", r), "bytes").bytes(MSG_BYTES);
            ch.transmit_chunked(&built, &warm, threads);
            (new_s, built)
        });
        setup.push(s);
        scenario_s.push(new_s);
        sc = Some(built);
    }
    let sc = sc.expect("at least one set-up repetition");

    let min_ops = if cfg.trace { TRACE_ITEMS } else { 1 };
    let (runs, wall_s) = timed_loop(cfg.seconds, min_ops, |i| {
        let msg = message(cfg.seed, i);
        ch.transmit_chunked(&sc, &msg, threads)
    });
    for (i, r) in runs.iter().enumerate() {
        out.tally
            .merge(byte_check(&message(cfg.seed, i as u64), &r.value.received));
    }
    let op_ms: Vec<f64> = runs.iter().map(|r| r.ms).collect();
    let work = (runs.len() * MSG_BYTES) as f64 / wall_s;
    out.set("work_per_s", work);
    let tail = metrics::set_latency(&mut out, &op_ms);
    metrics::set_memory(&mut out);
    out.set("setup_s", median(&setup));
    out.set("failed_ratio", out.tally.failed_ratio());
    out.set("scenario.new_us", median(&scenario_s) * 1e6);
    out.set("scenario.calls", reps as f64);
    out.note("covert.bytes_per_s", work);
    out.note("covert.msg_p50_ms", median(&op_ms));
    out.note("covert.msg_tail_ms", tail.value);
    out.note("threads", threads as f64);
    if !cfg.trace {
        return out;
    }

    let k = TRACE_ITEMS as usize;
    // Untraced passes over the first messages on one thread and on every
    // thread: thread-count invariance, parallel efficiency, and the base
    // for tracing overhead.
    let mut pass = |t: usize| -> f64 {
        let mut secs = 0.0;
        for (i, r) in runs.iter().take(k).enumerate() {
            let msg = message(cfg.seed, i as u64);
            let (s, rep) = timed(|| ch.transmit_chunked(&sc, &msg, t));
            secs += s;
            out.check(
                rep.received == r.value.received && rep.cycles == r.value.cycles,
                || format!("covert message {i}: threads={t} differs from the timed run"),
            );
        }
        secs
    };
    let serial_s = pass(1);
    let par_s = pass(cfg.threads);

    // Traced serial pass.
    let origin = std::time::Instant::now();
    let mut tr = Tracer::new(origin);
    let mut sim = SimCounts::default();
    let (mut run_uops, mut probes, mut replays) = (0, 0, 0);
    let mut d = Digest::new();
    for (i, r) in runs.iter().take(k).enumerate() {
        let msg = message(cfg.seed, i as u64);
        tr.set_op(i as u64);
        tr.begin("op.message");
        let t = traced_transmit(&mut tr, &sc, &msg, &ch);
        tr.end();
        out.check(
            t.received == r.value.received && t.cycles == r.value.cycles,
            || format!("covert message {i}: traced re-walk differs from transmit_chunked"),
        );
        d.u64(digest(&t.received, t.cycles));
        t.sim.digest(&mut d);
        sim.merge(&t.sim);
        run_uops += t.run_uops;
        probes += t.probes;
        replays += t.replays;
    }
    let traced_s = origin.elapsed().as_secs_f64();
    let spans = vec![tr.into_spans()];
    let layers = trace::layers(&spans);

    out.set(
        "par.efficiency",
        ratio(serial_s, cfg.threads as f64 * par_s),
    );
    out.set("trace.overhead_ratio", traced_s / serial_s - 1.0);
    out.set(
        "unattributed_ratio",
        trace::unattributed_ratio(&layers, (traced_s * 1e9) as u64),
    );
    out.set("output.digest32", (d.finish() & 0xffff_ffff) as f64);
    set_calls(&mut out, &layers, "gadget.build", "gadget.builds");
    for (span, metric, ns_per_unit) in [
        ("gadget.build", "gadget.build_us", 1e3),
        ("machine.run", "machine.run_us", 1e3),
        ("machine.clone", "machine.clone_us", 1e3),
        ("machine.snapshot", "machine.snapshot_us", 1e3),
        ("machine.from_snapshot", "machine.from_snapshot_us", 1e3),
        ("machine.restore", "machine.restore_ns", 1.0),
        ("batch.live_probe", "batch.live_probe_us", 1e3),
        ("batch.replay", "batch.replay_ns", 1.0),
        ("analysis.decode", "analysis.decode_us", 1e3),
    ] {
        set_mean(&mut out, &layers, span, metric, ns_per_unit);
    }
    let run_ns = layers.get("machine.run").map_or(0, |l| l.total_ns);
    out.set("sim.ns_per_uop", ratio(run_ns as f64, run_uops as f64));
    sim.report(&mut out);
    out.set("batch.probes", probes as f64);
    out.set("batch.replays", replays as f64);
    out.set("batch.replay_ratio", ratio(replays as f64, probes as f64));
    crate::write_trace(
        cfg,
        if noisy {
            "covert-noisy"
        } else {
            "covert-quiet"
        },
        &spans,
    );
    out
}
