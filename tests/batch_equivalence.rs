//! Property tests: batched (memoized/replayed) trials are byte-and-cycle
//! identical to unbatched (all-live) trials, serially and under the
//! thread pool at 1 and 8 workers (DESIGN.md §13).
//!
//! The noisy arm repeats the comparison for TET-CC, TET-MD and TET-RSB
//! under timer-interrupt noise (periods 7919 and 601), where replays
//! are limited to the interrupt window.
//!
//! The unbatched arm is a hintless [`ProbeMemo`]: by construction it
//! never skips, so every probe simulates live.
//!
//! "Byte-and-cycle identical" is asserted on the strongest observable
//! surface the machine exposes: every per-probe `(ToTE, cycles)` result,
//! plus the full [`tet_uarch::RunDelta`] over the sweep — run count,
//! cycle total, fast-forward stats, snapshot restores, DRAM-jitter draw
//! count/sum and all PMU lifetime counters — and the branch predictor
//! the sweep leaves behind: the global-history window, the RSB, the
//! PHT and the BTB ([`PredictorState`]). Replays re-issue their
//! record's predictor operations, so the predictor must match too.

use std::sync::{Arc, OnceLock};

use tet_os::layout::{slot_base, NUM_SLOTS};
use tet_os::Kernel;
use tet_pmu::PmuSnapshot;
use tet_uarch::{CpuConfig, Machine, MachineSnapshot, MachineStats, RunDelta};
use whisper::attacks::{KaslrBreak, TetKaslr};
use whisper::batch::{batch_enabled, FixedRec, ProbeMemo, ProbeResult, VERIFY_EVERY};
use whisper::gadget::{RsbGadget, TetGadget, TetGadgetSpec};
use whisper::scenario::{Scenario, ScenarioOptions, SHARED_PAGE, STACK_TOP};

/// One trial's observable surface: every probe result, the machine's
/// counter movement over the whole sweep, and the predictor it left.
type TrialOutcome = (Vec<ProbeResult>, RunDelta, PredictorState);

/// The branch predictor as any later run sees it: the global-history
/// window, the RSB, a fingerprint of every PHT counter and the BTB's
/// `(pc, target)` entries.
type PredictorState = (u64, Vec<usize>, u64, Vec<(usize, usize)>);

fn predictor_state(machine: &Machine) -> PredictorState {
    let bpu = machine.cpu().bpu();
    (
        bpu.ghr(),
        bpu.rsb().to_vec(),
        bpu.pht_fingerprint(),
        bpu.btb_fingerprint(),
    )
}

/// One full 0..=255 sweep (×`batches`) through a probe memo. Returns
/// every probe result, the machine's counter movement over the sweep,
/// how many probes ran live, and whether a fixed point was established.
fn sweep<F>(
    machine: &mut Machine,
    hint: Option<u64>,
    batches: u32,
    f: F,
) -> (Vec<ProbeResult>, RunDelta, u32, bool)
where
    F: Fn(&mut Machine, u64) -> ProbeResult,
{
    let marker = machine.delta_marker();
    let mut memo = ProbeMemo::new(machine, hint);
    let mut live = 0u32;
    let mut out = Vec::with_capacity(256 * batches as usize);
    for _ in 0..batches {
        for test in 0..=255u64 {
            out.push(memo.probe(machine, test, |m| {
                live += 1;
                f(m, test)
            }));
        }
    }
    let delta = machine.delta_since(&marker);
    let established = memo.fixed().is_some();
    (out, delta, live, established)
}

/// Runs the batched-vs-unbatched comparison for one gadget closure on
/// twin warmed machines. `hint` must be the gadget's match hint on the
/// (shared) warmed state.
fn assert_batched_equals_unbatched<F>(
    label: &str,
    batched_machine: &mut Machine,
    live_machine: &mut Machine,
    hint: Option<u64>,
    f: F,
) where
    F: Fn(&mut Machine, u64) -> ProbeResult,
{
    assert!(hint.is_some(), "{label}: gadget must predict a match hint");
    let total = 2 * 256u32;
    let (fast, fast_delta, fast_live, established) = sweep(batched_machine, hint, 2, &f);
    let (slow, slow_delta, slow_live, _) = sweep(live_machine, None, 2, &f);
    assert_eq!(slow_live, total, "{label}: hintless memo must never skip");
    assert_eq!(fast, slow, "{label}: per-probe results must be identical");
    assert_eq!(
        fast_delta, slow_delta,
        "{label}: cycle/ff/jitter/PMU movement must be identical"
    );
    assert_eq!(
        batched_machine.stats(),
        live_machine.stats(),
        "{label}: lifetime machine stats must be identical"
    );
    assert_eq!(
        batched_machine.pmu_lifetime(),
        live_machine.pmu_lifetime(),
        "{label}: lifetime PMU counters must be identical"
    );
    assert_eq!(
        predictor_state(batched_machine),
        predictor_state(live_machine),
        "{label}: GHR, RSB, PHT and BTB must be identical"
    );
    if batch_enabled(batched_machine) {
        assert!(established, "{label}: fixed point must establish");
        assert!(
            fast_live < total / 2,
            "{label}: batching must actually skip — {fast_live}/{total} ran live"
        );
    }
}

/// Twin scenarios: identical config, options and seed, so the two
/// machines are bit-for-bit the same starting state.
fn twins(cfg: CpuConfig) -> (Scenario, Scenario) {
    let opts = ScenarioOptions::default();
    (Scenario::new(cfg.clone(), &opts), Scenario::new(cfg, &opts))
}

/// TET-MD shape: jitter-free fixed point (the probed line is cache
/// resident after warm-up, so non-matching probes replay verbatim).
#[test]
fn meltdown_sweep_batched_equals_unbatched() {
    for cfg in [
        CpuConfig::kaby_lake_i7_7700(),
        CpuConfig::raptor_lake_i9_13900k(),
    ] {
        let label = format!("md/{}", cfg.name);
        let (mut a, mut b) = twins(cfg.clone());
        let gadget = TetGadget::build(TetGadgetSpec::meltdown(a.kernel_secret_va, &cfg));
        for _ in 0..4 {
            gadget.measure(&mut a.machine, 0);
            gadget.measure(&mut b.machine, 0);
        }
        let hint = gadget.match_hint(&a.machine);
        assert_eq!(hint, gadget.match_hint(&b.machine), "{label}: twin hints");
        assert_batched_equals_unbatched(&label, &mut a.machine, &mut b.machine, hint, |m, t| {
            gadget.measure_detailed(m, t)
        });
    }
}

/// TET-RSB shape: the clflushed return slot costs one DRAM-jitter draw
/// per probe, so replays go through the jitter-normalised path (draw
/// from the live stream, shift every responsive counter) — the arm that
/// must still be cycle-exact against all-live simulation.
#[test]
fn rsb_sweep_batched_equals_unbatched() {
    for cfg in [
        CpuConfig::kaby_lake_i7_7700(),
        CpuConfig::raptor_lake_i9_13900k(),
    ] {
        let label = format!("rsb/{}", cfg.name);
        let (mut a, mut b) = twins(cfg);
        let gadget = RsbGadget::build(a.user_secret_va, STACK_TOP, 96);
        for _ in 0..4 {
            gadget.measure(&mut a.machine, 0);
            gadget.measure(&mut b.machine, 0);
        }
        let hint = gadget.match_hint(&a.machine);
        assert_eq!(hint, gadget.match_hint(&b.machine), "{label}: twin hints");
        assert_batched_equals_unbatched(&label, &mut a.machine, &mut b.machine, hint, |m, t| {
            gadget.measure_detailed(m, t)
        });
    }
}

/// The fan-out case: every (batched, threads) × (unbatched, threads)
/// combination at 1 and 8 workers produces identical per-trial results
/// and identical per-trial counter movement. Each trial restores one
/// shared warmed snapshot (the `transmit_chunked` decomposition), so
/// worker assignment must not matter either.
#[test]
fn batched_fanout_equals_unbatched_at_threads_1_and_8() {
    const TRIALS: usize = 6;
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
    let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
    let mut warm = sc.machine.clone();
    for _ in 0..4 {
        gadget.measure(&mut warm, 0);
    }
    let hint = gadget.match_hint(&warm);
    assert!(hint.is_some(), "warmed gadget must predict a hint");
    let snap = warm.snapshot();

    let run = |threads: usize, batched: bool| -> Vec<TrialOutcome> {
        tet_par::run_indexed_with(
            threads,
            TRIALS,
            || Machine::from_snapshot(&snap),
            |m, _i| {
                m.restore(&snap);
                let (out, delta, live, _) =
                    sweep(m, if batched { hint } else { None }, 1, |m, t| {
                        gadget.measure_detailed(m, t)
                    });
                if !batched {
                    assert_eq!(live, 256, "hintless trial must run fully live");
                }
                (out, delta, predictor_state(m))
            },
        )
    };

    let reference = run(1, false);
    for (threads, batched) in [(1, true), (8, false), (8, true)] {
        let got = run(threads, batched);
        assert_eq!(
            got, reference,
            "threads={threads} batched={batched}: per-trial results and \
             counter movement must match the serial unbatched reference"
        );
    }
}

/// The seeded-sibling fan-out (the `transmit_chunked`
/// decomposition): trials share one established `FixedRec` through an
/// `Arc<OnceLock<..>>` and seed their memos from it. The every-16th
/// live-verification counter ([`VERIFY_EVERY`]) is per-memo state — each
/// trial constructs its own [`ProbeMemo::seeded`] with `skips = 0` — so
/// the sampled-verification cadence must not depend on how `tet_par`
/// interleaves trials across workers. Pinned by byte-equality of every
/// per-probe result and every per-trial counter delta at threads 1 vs 8
/// against the all-live serial reference.
#[test]
fn seeded_sibling_fanout_equals_unbatched_at_threads_1_and_8() {
    const TRIALS: usize = 8;
    // 3 × 256 probes per trial: enough would-be skips that each trial
    // crosses several sampled-verification boundaries on its own.
    const BATCHES: u32 = 3;
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
    let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
    let mut warm = sc.machine.clone();
    for _ in 0..4 {
        gadget.measure(&mut warm, 0);
    }
    let hint = gadget.match_hint(&warm);
    assert!(hint.is_some(), "warmed gadget must predict a hint");
    let snap = warm.snapshot();

    let run_seeded = |threads: usize| -> Vec<TrialOutcome> {
        let fixed: Arc<OnceLock<FixedRec<ProbeResult>>> = Arc::new(OnceLock::new());
        tet_par::run_indexed_with(
            threads,
            TRIALS,
            || (Machine::from_snapshot(&snap), Arc::clone(&fixed)),
            |(m, fixed), _i| {
                m.restore(&snap);
                let marker = m.delta_marker();
                let mut memo = ProbeMemo::seeded(m, hint, fixed.get().cloned());
                let mut out = Vec::with_capacity(256 * BATCHES as usize);
                let mut live = 0u32;
                for _ in 0..BATCHES {
                    for test in 0..=255u64 {
                        out.push(memo.probe(m, test, |m| {
                            live += 1;
                            gadget.measure_detailed(m, test)
                        }));
                    }
                }
                let delta = m.delta_since(&marker);
                if batch_enabled(m) {
                    let rec = memo.fixed().expect("sweep must establish a fixed point");
                    let _ = fixed.set(rec.clone());
                    // Sampled verifications still fire inside each trial:
                    // a seeded memo must not skip everything forever.
                    let total = 256 * BATCHES;
                    let floor = (total - 256) / VERIFY_EVERY;
                    assert!(
                        live < total && live >= floor.min(1),
                        "seeded trial live probes out of range: {live}/{total}"
                    );
                }
                (out, delta, predictor_state(m))
            },
        )
    };

    // Serial all-live reference (hintless memos never skip).
    let reference: Vec<TrialOutcome> = tet_par::run_indexed_with(
        1,
        TRIALS,
        || Machine::from_snapshot(&snap),
        |m, _i| {
            m.restore(&snap);
            let (out, delta, live, _) =
                sweep(m, None, BATCHES, |m, t| gadget.measure_detailed(m, t));
            assert_eq!(live, 256 * BATCHES, "hintless trial must run fully live");
            (out, delta, predictor_state(m))
        },
    );

    for threads in [1, 8] {
        let got = run_seeded(threads);
        assert_eq!(
            got, reference,
            "threads={threads}: seeded-sibling trials must be byte-and-cycle \
             identical to the all-live serial reference"
        );
    }
}

/// The restore differential on the seeded-sibling fan-out: worker
/// machines that restore the shared snapshot in place (journal replay,
/// DESIGN.md §16) must produce byte-and-cycle identical per-probe
/// results and counter movement to workers that rebuild a fresh machine
/// with [`Machine::from_snapshot`] for every trial, at 1 and 8 threads.
/// Restores are the hot edge of this decomposition — every trial forks
/// from the snapshot — so this is where a restore state leak would show.
#[test]
fn seeded_sibling_fanout_is_delta_restore_invariant() {
    const TRIALS: usize = 8;
    const BATCHES: u32 = 2;
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
    let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
    let mut warm = sc.machine.clone();
    for _ in 0..4 {
        gadget.measure(&mut warm, 0);
    }
    let hint = gadget.match_hint(&warm);
    assert!(hint.is_some(), "warmed gadget must predict a hint");
    let snap = warm.snapshot();

    let run_seeded = |threads: usize, rebuild: bool| -> Vec<TrialOutcome> {
        let fixed: Arc<OnceLock<FixedRec<ProbeResult>>> = Arc::new(OnceLock::new());
        tet_par::run_indexed_with(
            threads,
            TRIALS,
            || (Machine::from_snapshot(&snap), Arc::clone(&fixed)),
            |(m, fixed), _i| {
                if rebuild {
                    *m = Machine::from_snapshot(&snap);
                } else {
                    m.restore(&snap);
                }
                let marker = m.delta_marker();
                let mut memo = ProbeMemo::seeded(m, hint, fixed.get().cloned());
                let mut out = Vec::with_capacity(256 * BATCHES as usize);
                for _ in 0..BATCHES {
                    for test in 0..=255u64 {
                        out.push(memo.probe(m, test, |m| gadget.measure_detailed(m, test)));
                    }
                }
                let delta = m.delta_since(&marker);
                if batch_enabled(m) {
                    if let Some(rec) = memo.fixed() {
                        let _ = fixed.set(rec.clone());
                    }
                }
                (out, delta, predictor_state(m))
            },
        )
    };

    let reference = run_seeded(1, true);
    for (threads, rebuild) in [(1, false), (8, true), (8, false)] {
        let got = run_seeded(threads, rebuild);
        assert_eq!(
            got, reference,
            "threads={threads} rebuild={rebuild}: in-place restores must be \
             byte-and-cycle identical to fresh machines"
        );
    }
}

// ---------------------------------------------------------------------
// The noisy arm: timer-interrupt noise (DESIGN.md §13). The memo
// replays only probes that end before the next interrupt is due, and
// treats probes that took an interrupt as disturbed. Trials follow the
// `transmit_chunked` decomposition — restore the shared snapshot,
// re-seed the interrupt phase from the trial index, sweep through a
// memo (fresh, or seeded from the first established record) — and
// must be byte-and-cycle identical to hintless all-live trials.
// ---------------------------------------------------------------------

/// Trials per noisy arm.
const NOISY_TRIALS: usize = 3;
/// 0..=255 sweeps per noisy trial.
const NOISY_BATCHES: u32 = 2;

/// One noisy trial's outcome plus how many of its probes ran live and
/// how many of those took a timer interrupt.
type NoisyTrial = (TrialOutcome, u32, u32);

/// Runs noisy trial `i` on `m`, sweeping `probe` through a memo whose
/// hint `hint` reads from the restored machine: batched trials seed
/// their memo from (and publish to) `fixed`; all-live trials use a
/// hintless memo. `payload`, when given, supplies the byte written into
/// the shared page before the hint is read (the TET-CC sender).
fn noisy_trial<H, P>(
    m: &mut Machine,
    snap: &MachineSnapshot,
    i: usize,
    hint: &H,
    probe: &P,
    payload: Option<&[u8]>,
    fixed: Option<&OnceLock<FixedRec<ProbeResult>>>,
) -> NoisyTrial
where
    H: Fn(&Machine) -> Option<u64>,
    P: Fn(&mut Machine, u64) -> ProbeResult,
{
    m.restore(snap);
    m.cpu_mut().reseed_interrupt_phase(i as u64);
    if let Some(payload) = payload {
        let pa = m.aspace().translate(SHARED_PAGE).expect("shared page");
        m.phys_mut().write_u8(pa, payload[i]);
    }
    let hint = fixed.and_then(|_| hint(m));
    let seed = fixed.and_then(|f| f.get().cloned());
    let marker = m.delta_marker();
    let mut memo = ProbeMemo::seeded(m, hint, seed);
    let (mut live, mut disturbed) = (0u32, 0u32);
    let mut out = Vec::with_capacity(256 * NOISY_BATCHES as usize);
    for _ in 0..NOISY_BATCHES {
        for test in 0..=255u64 {
            out.push(memo.probe(m, test, |m| {
                live += 1;
                let before = m.delta_marker();
                let r = probe(m, test);
                if m.delta_since(&before).interrupts > 0 {
                    disturbed += 1;
                }
                r
            }));
        }
    }
    let delta = m.delta_since(&marker);
    if let (Some(fixed), Some(rec)) = (fixed, memo.fixed()) {
        let _ = fixed.set(rec.clone());
    }
    ((out, delta, predictor_state(m)), live, disturbed)
}

/// The noisy comparison for one warmed snapshot and one gadget's
/// `(hint, probe)` pair: batched trials — serial on one machine with
/// and without a shared seed, and on the pool at 1 and 8 workers —
/// against serial hintless all-live trials. Returns the batched arms'
/// summed (live, disturbed) probe counts.
fn assert_noisy_batched_equals_unbatched<H, P>(
    label: &str,
    snap: &MachineSnapshot,
    hint: H,
    probe: P,
    payload: Option<&[u8]>,
) -> (u32, u32)
where
    H: Fn(&Machine) -> Option<u64> + Sync,
    P: Fn(&mut Machine, u64) -> ProbeResult + Sync,
{
    let total = 256 * NOISY_BATCHES;
    let mut m = Machine::from_snapshot(snap);
    let reference: Vec<TrialOutcome> = (0..NOISY_TRIALS)
        .map(|i| {
            let (outcome, live, _) = noisy_trial(&mut m, snap, i, &hint, &probe, payload, None);
            assert_eq!(live, total, "{label}: hintless trial must run fully live");
            outcome
        })
        .collect();

    let (mut live, mut disturbed) = (0, 0);
    let mut check = |arm: &str, trials: Vec<NoisyTrial>| {
        for (t, ((got, l, d), want)) in trials.into_iter().zip(&reference).enumerate() {
            live += l;
            disturbed += d;
            let first = (0..want.0.len()).find(|&k| got.0[k] != want.0[k]);
            assert!(
                &got == want,
                "{label} {arm} trial {t}: per-probe results, counter movement and \
                 predictor must match the all-live reference (first differing probe \
                 {first:?}, deltas equal: {}, predictors equal: {})",
                got.1 == want.1,
                got.2 == want.2
            );
        }
    };
    let mut m = Machine::from_snapshot(snap);
    // Every trial establishes its own fixed point from an empty memo...
    let unseeded = (0..NOISY_TRIALS)
        .map(|i| {
            noisy_trial(
                &mut m,
                snap,
                i,
                &hint,
                &probe,
                payload,
                Some(&OnceLock::new()),
            )
        })
        .collect();
    check("serial unseeded", unseeded);
    // ...or seeds from the first trial's, serially and on the pool.
    let fixed = OnceLock::new();
    let seeded = (0..NOISY_TRIALS)
        .map(|i| noisy_trial(&mut m, snap, i, &hint, &probe, payload, Some(&fixed)))
        .collect();
    check("serial seeded", seeded);
    for threads in [1, 8] {
        let fixed = OnceLock::new();
        let pooled = tet_par::run_indexed_with(
            threads,
            NOISY_TRIALS,
            || Machine::from_snapshot(snap),
            |m, i| noisy_trial(m, snap, i, &hint, &probe, payload, Some(&fixed)),
        );
        check(&format!("threads={threads}"), pooled);
    }
    (live, disturbed)
}

/// A warmed i7-7700 scenario with timer-interrupt noise at `period`.
fn noisy_scenario(period: u64) -> Scenario {
    let opts = ScenarioOptions {
        interrupt_period: period,
        ..ScenarioOptions::default()
    };
    Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts)
}

/// Asserts the noisy arm was not vacuous at the §4.1 period: some live
/// probe took an interrupt, and (for jitter-free gadgets) some probe
/// replayed. At period 601 nearly every window holds an interrupt, so
/// only equality is asserted there.
fn assert_noisy_coverage(
    label: &str,
    period: u64,
    warm: &Machine,
    (live, disturbed): (u32, u32),
    replays_expected: bool,
) {
    if period != 7919 || !batch_enabled(warm) {
        return;
    }
    // Four batched arms: serial unseeded and seeded, and the pool at 1
    // and 8 workers.
    let probes = 4 * NOISY_TRIALS as u32 * 256 * NOISY_BATCHES;
    assert!(disturbed > 0, "{label}: no live probe took an interrupt");
    if replays_expected {
        assert!(
            live < probes,
            "{label}: no probe replayed ({live}/{probes} live)"
        );
    }
}

/// TET-CC under noise: the §4.1 covert channel, one payload byte per
/// trial written by the sender after the fork.
#[test]
fn noisy_cc_sweep_batched_equals_unbatched() {
    let payload = [0x5a, 0xc3, 0x01];
    for period in [7919, 601] {
        let label = format!("noisy cc/{period}");
        let sc = noisy_scenario(period);
        let cfg = sc.machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(SHARED_PAGE, &cfg));
        let mut warm = sc.machine.clone();
        gadget.measure_detailed(&mut warm, 0);
        let snap = warm.snapshot();
        let counts = assert_noisy_batched_equals_unbatched(
            &label,
            &snap,
            |m| gadget.match_hint(m),
            |m, t| gadget.measure_detailed(m, t),
            Some(&payload),
        );
        assert_noisy_coverage(&label, period, &warm, counts, true);
    }
}

/// TET-MD under noise: jitter-free records, replayed inside the
/// interrupt window.
#[test]
fn noisy_meltdown_sweep_batched_equals_unbatched() {
    for period in [7919, 601] {
        let label = format!("noisy md/{period}");
        let sc = noisy_scenario(period);
        let cfg = sc.machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
        let mut warm = sc.machine.clone();
        for _ in 0..4 {
            gadget.measure(&mut warm, 0);
        }
        let snap = warm.snapshot();
        let counts = assert_noisy_batched_equals_unbatched(
            &label,
            &snap,
            |m| gadget.match_hint(m),
            |m, t| gadget.measure_detailed(m, t),
            None,
        );
        assert_noisy_coverage(&label, period, &warm, counts, true);
    }
}

/// TET-RSB under noise: single-jitter-draw records, which always run
/// live under noise — the memo must still establish, demote and verify
/// without changing a single result.
#[test]
fn noisy_rsb_sweep_batched_equals_unbatched() {
    for period in [7919, 601] {
        let label = format!("noisy rsb/{period}");
        let sc = noisy_scenario(period);
        let gadget = RsbGadget::build(sc.user_secret_va, STACK_TOP, 96);
        let mut warm = sc.machine.clone();
        for _ in 0..4 {
            gadget.measure(&mut warm, 0);
        }
        let snap = warm.snapshot();
        let counts = assert_noisy_batched_equals_unbatched(
            &label,
            &snap,
            |m| gadget.match_hint(m),
            |m, t| gadget.measure_detailed(m, t),
            None,
        );
        assert_noisy_coverage(&label, period, &warm, counts, false);
    }
}

/// The all-live TET-KASLR reference: warm up on slot 0, then for every
/// slot build its gadget and, per sample, flush the TLBs and measure —
/// what `TetKaslr::break_kaslr` must reproduce with its replays.
fn kaslr_all_live(attack: &TetKaslr, machine: &mut Machine, kernel: &Kernel) -> KaslrBreak {
    let freq = machine.config().freq_ghz;
    TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(0))).measure(machine, 0);
    let (mut cycles, mut probes) = (0u64, 0u64);
    let mut slot_totes = Vec::with_capacity(NUM_SLOTS as usize);
    for slot in 0..NUM_SLOTS {
        let gadget = TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(slot)));
        let mut best = u64::MAX;
        for _ in 0..attack.samples_per_slot {
            machine.flush_tlbs();
            if let Some((tote, c)) = gadget.measure_detailed(machine, 0) {
                best = best.min(tote);
                cycles += c;
                probes += 1;
            }
        }
        slot_totes.push(if best == u64::MAX { 0 } else { best });
    }
    let found_base = attack.classify(&slot_totes);
    KaslrBreak {
        found_base,
        success: found_base == Some(kernel.base),
        probes,
        cycles,
        seconds: cycles as f64 / (freq * 1e9),
        slot_totes,
    }
}

/// Everything a KASLR sweep leaves observable on its machine: the
/// lifetime stats and PMU totals, the interrupt phase, the predictor,
/// and what two follow-up probes without a TLB flush return and add to
/// the counters (a replayed last slot would leave the ITLB without the
/// code page).
fn kaslr_aftermath(
    machine: &mut Machine,
    kernel: &Kernel,
) -> (
    MachineStats,
    PmuSnapshot,
    Option<u64>,
    PredictorState,
    Vec<(ProbeResult, RunDelta)>,
) {
    let stats = machine.stats();
    let pmu = machine.pmu_lifetime().clone();
    let phase = machine.cycles_to_interrupt();
    let predictor = predictor_state(machine);
    let follow_ups = [kernel.base, slot_base(NUM_SLOTS - 1)]
        .into_iter()
        .map(|va| {
            let marker = machine.delta_marker();
            let r = TetGadget::build(TetGadgetSpec::kaslr_probe(va)).measure_detailed(machine, 0);
            (r, machine.delta_since(&marker))
        })
        .collect();
    (stats, pmu, phase, predictor, follow_ups)
}

/// Live slot probes of one `break_kaslr` sweep: simulated runs minus
/// the warm-up probe.
fn kaslr_live_probes(machine: &mut Machine, kernel: &Kernel, attack: &TetKaslr) -> u64 {
    let (runs, replayed) = (machine.stats().runs, machine.replayed_runs());
    attack.break_kaslr(machine, kernel);
    let live = (machine.stats().runs - runs) - (machine.replayed_runs() - replayed);
    live - 1
}

/// `break_kaslr` (slot probes replayed through the probe memo) against
/// the all-live reference on every Table 2 preset, for one scenario
/// shape: the same `KaslrBreak`, machine stats, PMU lifetime and
/// follow-up probes, at 1 and 3 samples per slot.
fn assert_kaslr_batched_equals_all_live(label: &str, opts: ScenarioOptions, assume_kpti: bool) {
    for cfg in CpuConfig::table2_presets() {
        for (seed, samples_per_slot) in [(3, 1), (3, 3), (11, 1), (11, 3)] {
            let opts = ScenarioOptions {
                seed,
                ..opts.clone()
            };
            let attack = TetKaslr {
                samples_per_slot,
                assume_kpti,
                ..TetKaslr::default()
            };
            let case = format!(
                "{label}/{}/seed {seed}/samples {samples_per_slot}",
                cfg.name
            );
            let mut batched = Scenario::new(cfg.clone(), &opts);
            let mut live = Scenario::new(cfg.clone(), &opts);
            let got = attack.break_kaslr(&mut batched.machine, &batched.kernel);
            let want = kaslr_all_live(&attack, &mut live.machine, &live.kernel);
            assert_eq!(got, want, "{case}: KaslrBreak");
            assert_eq!(
                kaslr_aftermath(&mut batched.machine, &batched.kernel),
                kaslr_aftermath(&mut live.machine, &live.kernel),
                "{case}: stats, PMU lifetime, interrupt phase, predictor and follow-up probes"
            );
        }
    }
}

#[test]
fn kaslr_sweep_batched_equals_all_live() {
    assert_kaslr_batched_equals_all_live("plain", ScenarioOptions::default(), false);
}

#[test]
fn kpti_kaslr_sweep_batched_equals_all_live() {
    let opts = ScenarioOptions {
        kpti: true,
        ..ScenarioOptions::default()
    };
    assert_kaslr_batched_equals_all_live("kpti", opts, true);
}

#[test]
fn flare_kaslr_sweep_batched_equals_all_live() {
    let opts = ScenarioOptions {
        flare: true,
        ..ScenarioOptions::default()
    };
    assert_kaslr_batched_equals_all_live("flare", opts, false);
}

#[test]
fn noisy_kaslr_sweep_batched_equals_all_live() {
    let opts = ScenarioOptions {
        interrupt_period: 7919,
        ..ScenarioOptions::default()
    };
    assert_kaslr_batched_equals_all_live("noise 7919", opts, false);
}

/// The replay is real and bounded: a plain i7-7700 sweep simulates at
/// most 80 of its 512 slot probes, while under FLARE every slot has a
/// reserved-bit leaf and runs live.
#[test]
fn kaslr_sweep_live_probes_are_pinned() {
    let attack = TetKaslr::default();
    let plain = ScenarioOptions::default();
    let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &plain);
    if !batch_enabled(&sc.machine) {
        return;
    }
    let live = kaslr_live_probes(&mut sc.machine, &sc.kernel, &attack);
    assert!(live <= 80, "plain sweep ran {live}/512 slot probes live");
    let flare = ScenarioOptions {
        flare: true,
        ..plain
    };
    let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &flare);
    let live = kaslr_live_probes(&mut sc.machine, &sc.kernel, &attack);
    assert_eq!(live, NUM_SLOTS, "FLARE sweep runs every slot live");
}
