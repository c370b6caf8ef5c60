//! Property tests for the snapshot/fork layer and event-driven
//! fast-forward (DESIGN.md §11).
//!
//! Two equivalences are pinned over random gadget-shaped programs on
//! every Table 2 preset:
//!
//! * **snapshot → restore → run ≡ run**: restoring a warmed machine's
//!   snapshot into a *different, polluted* machine and running must
//!   reproduce the live machine's run bit-for-bit (exit, cycles,
//!   registers, flags, retired count, PMU deltas, exceptions) — both
//!   through an in-place [`Machine::restore`] and a fresh
//!   [`Machine::from_snapshot`];
//! * **fast-forward on ≡ off**: skipping idle cycles must leave every
//!   observable of the run unchanged, including on timer-interrupt-noisy
//!   configurations and the structured-event stream of a traced run.
//!
//! Deterministic: fixed RNG seeds, `TET_SNAPSHOT_CASES` scales the
//! per-preset program count (default 200).

use std::sync::Arc;

use proptest::test_runner::TestRng;
use tet_check::gen::{self, layout, GenConfig};
use tet_isa::{Inst, Reg};
use tet_obs::{EventKind, MemorySink, SinkHandle, TraceEvent};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunResult};

const MAX_CYCLES: u64 = 5_000;

fn cases_per_preset() -> usize {
    std::env::var("TET_SNAPSHOT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// A machine with the generator's layout mapped: data + stack pages
/// (user) and one kernel page holding a secret.
fn machine_for(cfg: CpuConfig, seed: u64) -> Machine {
    let mut m = Machine::new(cfg, seed);
    m.map_user_page(layout::DATA_PAGE);
    m.map_user_page(layout::STACK_PAGE);
    let kpa = m.map_kernel_page(layout::KERNEL_PAGE);
    m.phys_mut().write_u64(kpa, 0x5ec2e7_5ec2e7);
    m
}

fn run_cfg() -> RunConfig {
    RunConfig {
        max_cycles: MAX_CYCLES,
        init_regs: vec![(Reg::Rsp, layout::STACK_TOP)],
        ..RunConfig::default()
    }
}

/// Runs `program` with a [`MemorySink`] attached; returns the run's
/// fingerprint, its event stream and the cycles fast-forward skipped.
fn traced_run(m: &mut Machine, program: &tet_isa::Program) -> (String, Vec<TraceEvent>, u64) {
    let rec = Arc::new(MemorySink::new());
    let cfg = RunConfig {
        sink: SinkHandle::attached(rec.clone()),
        ..run_cfg()
    };
    let skipped_before = m.stats().ff_skipped_cycles;
    let r = m.run(program, &cfg);
    let skipped = m.stats().ff_skipped_cycles - skipped_before;
    (fingerprint(&r), rec.drain(), skipped)
}

/// Every observable of a run, as one comparable value. `RunResult`
/// carries all of them in `Debug` form (registers, flags, PMU deltas,
/// exception records), so a string compare is a full-state compare with
/// a readable diff on failure.
fn fingerprint(r: &RunResult) -> String {
    format!("{r:?}")
}

/// Presets with and without timer-interrupt noise, so the fast-forward
/// timer bound and the snapshot of the interrupt phase both get
/// exercised.
fn preset_variants() -> Vec<CpuConfig> {
    let mut out = Vec::new();
    for cfg in CpuConfig::table2_presets() {
        out.push(cfg.clone());
        let mut noisy = cfg.clone();
        noisy.timing.interrupt_period = 700;
        out.push(noisy);
    }
    out
}

#[test]
fn snapshot_restore_run_matches_live_run() {
    let gen_cfg = GenConfig::default();
    let cases = cases_per_preset();
    for (pi, preset) in preset_variants().into_iter().enumerate() {
        let mut rng = TestRng::deterministic(&format!("snapshot-equiv-{pi}"));
        // One long-lived "polluted" machine: restores land on whatever
        // allocations/state the previous case left behind, which is
        // exactly the reuse pattern trial loops hit.
        let mut polluted = machine_for(preset.clone(), 0xbad + pi as u64);
        for case in 0..cases {
            let insts = gen::gen_program(&mut rng, &gen_cfg);
            let program = gen::to_program(&insts);
            let seed = (pi as u64) << 32 | case as u64;

            let mut live = machine_for(preset.clone(), seed);
            // Warm-up run: BPU/DSB/TLB/cache/PMU state is non-trivial at
            // the snapshot point.
            live.run(&program, &run_cfg());
            let snap = live.snapshot();
            let want = fingerprint(&live.run(&program, &run_cfg()));

            // In-place restore into the polluted machine.
            polluted.restore(&snap);
            let got = fingerprint(&polluted.run(&program, &run_cfg()));
            assert_eq!(
                got,
                want,
                "restore-then-run diverged from live run \
                 (preset {pi} case {case}):\n{}",
                gen::render(&insts)
            );

            // Fresh machine from the same snapshot.
            if case % 16 == 0 {
                let mut fresh = Machine::from_snapshot(&snap);
                let got = fingerprint(&fresh.run(&program, &run_cfg()));
                assert_eq!(got, want, "from_snapshot run diverged (case {case})");
            }
        }
    }
}

/// **restore ≡ from_snapshot**: an in-place [`Machine::restore`] into a
/// long-lived machine must rebuild the same state as a fresh
/// [`Machine::from_snapshot`], pinned by bit-identical re-runs of the
/// snapshotted program. The long-lived machine restores *twice* per
/// case: the first restore comes from a foreign snapshot, so the
/// journaled copy-on-write tables (TLBs, caches, physical memory) clone
/// the snapshot's and adopt its seal; the second replays their chunk
/// journals, copying the snapshot's contents into the chunks the
/// machine holds alone in place (DESIGN.md §16). The predictor, µop
/// cache and every other core structure are copied on both restores.
#[test]
fn delta_full_and_fresh_restores_are_equivalent() {
    let gen_cfg = GenConfig::default();
    let cases = cases_per_preset();
    for (pi, preset) in preset_variants().into_iter().enumerate() {
        let mut rng = TestRng::deterministic(&format!("delta-three-way-{pi}"));
        // A long-lived machine, like a trial loop: every restore lands
        // on the previous case's leftover state and journals.
        let mut m = machine_for(preset.clone(), 0xde17a + pi as u64);
        for case in 0..cases {
            let insts = gen::gen_program(&mut rng, &gen_cfg);
            let program = gen::to_program(&insts);
            let seed = (pi as u64) << 32 | case as u64;

            let mut live = machine_for(preset.clone(), seed);
            live.run(&program, &run_cfg());
            let snap = live.snapshot();
            let want = fingerprint(&Machine::from_snapshot(&snap).run(&program, &run_cfg()));

            // A foreign seal: the journaled tables clone and adopt it.
            m.restore(&snap);
            // Dirty-set spot checks: a restore leaves physical memory
            // clean relative to the seal, and the run's dirtying is
            // fully undone by the next restore (same resident set).
            assert_eq!(
                m.phys().dirty_pages(),
                0,
                "restore must clear the dirty set (preset {pi} case {case})"
            );
            let resident = m.phys().resident_pages();
            let got = fingerprint(&m.run(&program, &run_cfg()));
            assert_eq!(
                got,
                want,
                "first restore (journaled tables clone) diverged (preset {pi} case {case}):\n{}",
                gen::render(&insts)
            );
            // Now the seal is shared: the journaled tables replay their
            // journals, restoring their own chunks in place.
            m.restore(&snap);
            assert_eq!(m.phys().dirty_pages(), 0);
            assert_eq!(
                m.phys().resident_pages(),
                resident,
                "restore must drop pages allocated since the seal \
                 (preset {pi} case {case})"
            );
            let got = fingerprint(&m.run(&program, &run_cfg()));
            assert_eq!(
                got,
                want,
                "second restore (journaled tables replay) diverged (preset {pi} case {case}):\n{}",
                gen::render(&insts)
            );
        }
    }
}

/// Restoring from a snapshot taken under a different configuration
/// (here only the timer-interrupt period differs) must adopt the
/// snapshot's configuration: the next run then matches a fresh
/// [`Machine::from_snapshot`], interrupts included.
#[test]
fn restore_adopts_the_snapshot_configuration() {
    use tet_isa::{inst::AluOp, Cond, Src};
    let mut noisy_cfg = CpuConfig::kaby_lake_i7_7700();
    noisy_cfg.timing.interrupt_period = 7919;
    // A counted loop long enough to cross several timer interrupts.
    let program = gen::to_program(&[
        Inst::MovImm {
            dst: Reg::Rcx,
            imm: 20_000,
        },
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            src: Src::Imm(1),
        },
        Inst::Jcc {
            cond: Cond::Ne,
            target: 1,
        },
        Inst::Halt,
    ]);
    let run = RunConfig {
        max_cycles: 200_000,
        ..run_cfg()
    };
    let mut noisy = machine_for(noisy_cfg.clone(), 1);
    noisy.run(&program, &run);
    let snap = noisy.snapshot();
    let mut fresh = Machine::from_snapshot(&snap);
    let want = fresh.run(&program, &run);

    let mut m = machine_for(CpuConfig::kaby_lake_i7_7700(), 2);
    m.restore(&snap);
    assert_eq!(*m.config(), noisy_cfg);
    assert_eq!(m.config(), fresh.config());
    assert_eq!(fingerprint(&m.run(&program, &run)), fingerprint(&want));
}

#[test]
fn fast_forward_is_cycle_exact() {
    let gen_cfg = GenConfig::default();
    let cases = cases_per_preset();
    let mut total_skipped = 0u64;
    let mut traced_skipped = 0u64;
    for (pi, preset) in preset_variants().into_iter().enumerate() {
        let mut rng = TestRng::deterministic(&format!("ff-differential-{pi}"));
        for case in 0..cases {
            let insts = gen::gen_program(&mut rng, &gen_cfg);
            let program = gen::to_program(&insts);
            let seed = (pi as u64) << 32 | case as u64;

            let mut slow = machine_for(preset.clone(), seed);
            slow.set_fast_forward(false);
            let want = fingerprint(&slow.run(&program, &run_cfg()));

            let mut fast = machine_for(preset.clone(), seed);
            fast.set_fast_forward(true);
            let got = fingerprint(&fast.run(&program, &run_cfg()));
            assert_eq!(
                got,
                want,
                "fast-forward changed an observable \
                 (preset {pi} case {case}):\n{}",
                gen::render(&insts)
            );
            total_skipped += fast.stats().ff_skipped_cycles;

            // Once more with a sink attached: the skipped cycles must
            // emit exactly the events stepping them would.
            let (want, want_events, _) = traced_run(&mut slow, &program);
            let (got, got_events, skipped) = traced_run(&mut fast, &program);
            assert_eq!(got, want, "traced fast-forward changed an observable");
            assert_eq!(
                got_events,
                want_events,
                "traced fast-forward changed the event stream \
                 (preset {pi} case {case}):\n{}",
                gen::render(&insts)
            );
            traced_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "fast-forward never engaged across the whole sweep — \
         the optimization is silently dead"
    );
    assert!(
        traced_skipped > 0,
        "traced runs never fast-forwarded across the whole sweep"
    );
}

/// Idle cycles whose fetch is *not* stalled: a load of a flushed line
/// holds retirement while 400 `nop`s fill the ROB and the IDQ, so fetch
/// sits with a full queue. Fast-forward skips those cycles and must
/// emit them as `FrontendCycle { 0, 0, stalled: false }`, exactly as
/// stepping does. (The gadget probes never have such cycles.)
#[test]
fn traced_fast_forward_keeps_unstalled_idle_cycles() {
    let mut insts = vec![Inst::Load {
        dst: Reg::Rax,
        addr: tet_isa::Addr::abs(layout::DATA_PAGE),
    }];
    insts.extend(std::iter::repeat_n(Inst::Nop, 400));
    insts.push(Inst::Halt);
    let program = gen::to_program(&insts);

    let traced = |ff: bool| {
        let mut m = machine_for(CpuConfig::kaby_lake_i7_7700(), 5);
        m.set_fast_forward(ff);
        // Warm the DSB: the cold run decodes every instruction through
        // MITE, so give it the budget to reach the halt.
        let warm = RunConfig {
            max_cycles: 10 * MAX_CYCLES,
            ..run_cfg()
        };
        assert_eq!(m.run(&program, &warm).exit, tet_uarch::RunExit::Halted);
        m.clflush_virt(layout::DATA_PAGE);
        traced_run(&mut m, &program)
    };
    let (want, want_events, _) = traced(false);
    let (got, got_events, skipped) = traced(true);
    assert_eq!(got, want);
    assert_eq!(got_events, want_events);
    assert!(skipped > 0, "fast-forward never engaged");

    let unstalled_idle = want_events
        .iter()
        .filter(|e| {
            e.kind
                == EventKind::FrontendCycle {
                    dsb_uops: 0,
                    mite_uops: 0,
                    stalled: false,
                }
        })
        .count();
    assert!(
        unstalled_idle > 100,
        "the case must have idle cycles with fetch unstalled, got {unstalled_idle}"
    );
}

/// Restoring must also reproduce *memory* state exactly: a run that
/// stores to the data page, snapshotted and restored elsewhere, sees
/// the same bytes.
#[test]
fn restore_carries_physical_memory_and_mappings() {
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let mut m = machine_for(cfg.clone(), 42);
    let insts = vec![
        Inst::MovImm {
            dst: Reg::Rax,
            imm: 0x77,
        },
        Inst::Store {
            src: Reg::Rax,
            addr: tet_isa::Addr::abs(layout::DATA_PAGE + 0x40),
        },
        Inst::Halt,
    ];
    let program = gen::to_program(&insts);
    m.run(&program, &run_cfg());
    let snap = m.snapshot();

    // Pollute a victim machine's memory at the same virtual address.
    let mut victim = machine_for(cfg, 43);
    let pa = victim.aspace().translate(layout::DATA_PAGE + 0x40).unwrap();
    victim.phys_mut().write_u64(pa, 0xdead_beef);
    victim.restore(&snap);
    let pa = victim.aspace().translate(layout::DATA_PAGE + 0x40).unwrap();
    assert_eq!(victim.phys().read_u64(pa), 0x77);
    assert_eq!(victim.stats().snapshot_restores, 1);
}

/// The ROB and IDQ are power-of-two rings whose head stays wherever the
/// last retirement left it. `restore` copies the live entries to the
/// front of the restoring machine's own (polluted, differently sized)
/// buffer, `from_snapshot` into a fresh one. A snapshot taken mid-loop
/// (cycle cap), with the head mid-buffer after several wraps and live
/// entries in flight, must run identically either way.
#[test]
fn restore_of_a_wrapped_ring_matches_from_snapshot() {
    use tet_isa::{inst::AluOp, Cond, Src};
    let counted_loop = |n: u64| {
        gen::to_program(&[
            Inst::MovImm {
                dst: Reg::Rcx,
                imm: n,
            },
            Inst::Alu {
                op: AluOp::Sub,
                dst: Reg::Rcx,
                src: Src::Imm(1),
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: 1,
            },
            Inst::Halt,
        ])
    };
    // The i7-7700's 224-entry ROB lives in a 256-slot ring; only
    // retirement moves the head, one slot per retired instruction.
    const RING: u64 = 256;
    let mut noisy = CpuConfig::kaby_lake_i7_7700();
    noisy.timing.interrupt_period = 1_500;
    for (vi, cfg) in [CpuConfig::kaby_lake_i7_7700(), noisy]
        .into_iter()
        .enumerate()
    {
        let mut m = machine_for(cfg.clone(), 11 + vi as u64);
        let capped = RunConfig {
            max_cycles: 4_321,
            ..run_cfg()
        };
        let r = m.run(&counted_loop(1_000_000), &capped);
        assert_eq!(r.exit, tet_uarch::RunExit::CycleLimit);
        assert!(
            r.retired >= 4 * RING && !r.retired.is_multiple_of(RING),
            "want a wrapped ring with its head mid-buffer (variant {vi}): {} retired",
            r.retired
        );
        let snap = m.snapshot();

        let next = counted_loop(700);
        let run = RunConfig {
            max_cycles: 100_000,
            ..run_cfg()
        };
        let want = fingerprint(&Machine::from_snapshot(&snap).run(&next, &run));

        // A polluted machine restores twice: once with the journaled
        // tables cloning (foreign seal), once with them replaying.
        let mut polluted = machine_for(cfg, 99);
        polluted.run(&counted_loop(333), &run);
        for pass in 0..2 {
            polluted.restore(&snap);
            assert_eq!(
                fingerprint(&polluted.run(&next, &run)),
                want,
                "restore diverged from from_snapshot (variant {vi}, pass {pass})"
            );
        }
    }
}

/// [`Machine::cycles_to_interrupt`] is part of the snapshotted state:
/// it survives `snapshot` → `restore` / `from_snapshot` and moves in
/// lockstep under `reseed_interrupt_phase`; and it is exact — a span of
/// that many cycles takes no interrupt, one cycle more takes one.
#[test]
fn cycles_to_interrupt_survives_snapshot_restore_and_reseed() {
    use tet_isa::{inst::AluOp, Cond, Src};
    assert_eq!(
        machine_for(CpuConfig::kaby_lake_i7_7700(), 1).cycles_to_interrupt(),
        None,
        "no noise configured: no interrupt is ever due"
    );
    const PERIOD: u64 = 7919;
    let mut noisy_cfg = CpuConfig::kaby_lake_i7_7700();
    noisy_cfg.timing.interrupt_period = PERIOD;
    // A counted loop far longer than any span below.
    let program = gen::to_program(&[
        Inst::MovImm {
            dst: Reg::Rcx,
            imm: 1_000_000,
        },
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            src: Src::Imm(1),
        },
        Inst::Jcc {
            cond: Cond::Ne,
            target: 1,
        },
        Inst::Halt,
    ]);
    let span = |m: &mut Machine, cycles: u64| {
        let marker = m.delta_marker();
        m.run(
            &program,
            &RunConfig {
                max_cycles: cycles,
                ..run_cfg()
            },
        );
        m.delta_since(&marker)
    };
    let mut warm = machine_for(noisy_cfg, 1);
    span(&mut warm, 20_000);
    let snap = warm.snapshot();
    let due = warm.cycles_to_interrupt().expect("noise is configured");
    let mut fresh = Machine::from_snapshot(&snap);
    let mut polluted = machine_for(CpuConfig::kaby_lake_i7_7700(), 2);
    span(&mut polluted, 3_000);
    polluted.restore(&snap);
    assert_eq!(fresh.cycles_to_interrupt(), Some(due));
    assert_eq!(polluted.cycles_to_interrupt(), Some(due));

    for salt in [0, 1, 77] {
        fresh.restore(&snap);
        polluted.restore(&snap);
        fresh.cpu_mut().reseed_interrupt_phase(salt);
        polluted.cpu_mut().reseed_interrupt_phase(salt);
        let due = fresh.cycles_to_interrupt().expect("noise is configured");
        assert_eq!(polluted.cycles_to_interrupt(), Some(due), "salt {salt}");
        assert!(
            (PERIOD / 2..PERIOD / 2 + PERIOD).contains(&due),
            "salt {salt}: re-seeded phase {due} outside [period/2, 3·period/2)"
        );
        let quiet = span(&mut fresh, due);
        assert_eq!(quiet.cycles, due);
        assert_eq!(quiet.interrupts, 0, "salt {salt}: {due} cycles must fit");
        let hit = span(&mut polluted, due + 1);
        assert_eq!(
            hit.interrupts, 1,
            "salt {salt}: cycle {due} takes the interrupt"
        );
    }
}
