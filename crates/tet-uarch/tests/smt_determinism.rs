//! SMT co-execution determinism and isolation properties.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use tet_isa::{Asm, Cond, Program, Reg};
use tet_obs::{uop_spans, EventKind, MemorySink, SinkHandle};
use tet_uarch::{CpuConfig, RunConfig, RunExit, RunResult, SmtMachine};

fn worker(iters: u64, stride: u64) -> Program {
    let mut a = Asm::new();
    let top = a.fresh_label();
    a.mov_imm(Reg::Rcx, iters).mov_imm(Reg::Rax, 0);
    a.bind(top)
        .add(Reg::Rax, stride)
        .nops(3)
        .sub(Reg::Rcx, 1u64)
        .jcc(Cond::Ne, top)
        .halt();
    a.assemble().expect("worker is closed")
}

#[test]
fn co_runs_are_bit_for_bit_deterministic() {
    let run = || {
        let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 1234);
        let r = smt.run(
            &worker(50, 3),
            &worker(70, 7),
            &RunConfig::default(),
            &RunConfig::default(),
        );
        (
            r.t0.cycles,
            r.t1.cycles,
            r.t0.regs.get(Reg::Rax),
            r.t1.regs.get(Reg::Rax),
            r.t0.pmu.count(tet_pmu::Event::CpuClkUnhalted),
            r.t1.pmu.count(tet_pmu::Event::CpuClkUnhalted),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn threads_compute_independent_results() {
    let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    let r = smt.run(
        &worker(50, 3),
        &worker(70, 7),
        &RunConfig::default(),
        &RunConfig::default(),
    );
    assert_eq!(r.t0.exit, RunExit::Halted);
    assert_eq!(r.t1.exit, RunExit::Halted);
    assert_eq!(r.t0.regs.get(Reg::Rax), 150);
    assert_eq!(r.t1.regs.get(Reg::Rax), 490);
}

#[test]
fn address_spaces_are_isolated() {
    // Same virtual address, different physical frames per thread.
    let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    let va = 0x33_0000u64;
    let pa0 = smt.map_user_page(0, va);
    let pa1 = smt.map_user_page(1, va);
    assert_ne!(pa0, pa1);
    smt.phys_mut().write_u64(pa0, 111);
    smt.phys_mut().write_u64(pa1, 222);

    let mut a = Asm::new();
    a.load_abs(Reg::Rax, va).halt();
    let p = a.assemble().unwrap();
    let r = smt.run(&p, &p, &RunConfig::default(), &RunConfig::default());
    assert_eq!(r.t0.regs.get(Reg::Rax), 111);
    assert_eq!(r.t1.regs.get(Reg::Rax), 222);
}

#[test]
fn one_sided_runs_still_terminate() {
    // Thread 1 finishes immediately; thread 0 keeps going.
    let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    let mut b = Asm::new();
    b.halt();
    let r = smt.run(
        &worker(100, 1),
        &b.assemble().unwrap(),
        &RunConfig::default(),
        &RunConfig::default(),
    );
    assert_eq!(r.t0.exit, RunExit::Halted);
    assert_eq!(r.t1.exit, RunExit::Halted);
    assert_eq!(r.t0.regs.get(Reg::Rax), 100);
}

/// Thread 1's fault storm: 50 faulting loads, each suppressed by a
/// handler that resumes at the decrement. Returns the program and its
/// handler pc.
fn fault_storm() -> (Program, usize) {
    let mut t = Asm::new();
    let top = t.fresh_label();
    t.mov_imm(Reg::Rcx, 50);
    let resume = t.here();
    t.bind(top)
        .load_abs(Reg::Rax, 0xdead_0000)
        .sub(Reg::Rcx, 1u64)
        .jcc(Cond::Ne, top)
        .halt();
    (t.assemble().unwrap(), resume + 1)
}

#[test]
fn traced_co_runs_match_untraced_and_tag_both_threads() {
    let (storm, handler) = fault_storm();
    let co_run = |sink: SinkHandle| {
        let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
        let cfg1 = RunConfig {
            handler_pc: Some(handler),
            sink: sink.clone(),
            ..RunConfig::default()
        };
        let cfg0 = RunConfig {
            sink,
            ..RunConfig::default()
        };
        smt.run(&worker(100, 13), &storm, &cfg0, &cfg1)
    };
    let untraced = co_run(SinkHandle::disabled());
    // One recorder attached to both threads' configs.
    let recorder = Arc::new(MemorySink::new());
    let traced = co_run(SinkHandle::attached(recorder.clone()));

    let outcome = |r: &RunResult| (r.exit.clone(), r.cycles, r.retired, r.regs);
    assert_eq!(outcome(&traced.t0), outcome(&untraced.t0));
    assert_eq!(outcome(&traced.t1), outcome(&untraced.t1));

    let events = recorder.drain();
    let threads: BTreeSet<u8> = events.iter().map(|e| e.thread).collect();
    assert_eq!(threads, BTreeSet::from([0, 1]));
    // Each thread's µop is renamed before it retires or is squashed.
    let mut renamed = HashSet::new();
    for ev in &events {
        match ev.kind {
            EventKind::UopRenamed { id, .. } => {
                renamed.insert((ev.thread, id));
            }
            EventKind::UopRetired { id } | EventKind::UopSquashed { id, .. } => {
                assert!(renamed.contains(&(ev.thread, id)), "{ev:?} before rename");
            }
            _ => {}
        }
    }
    // The fold keeps the threads' µops apart although their ids overlap.
    let spans = uop_spans(&events);
    assert_eq!(spans.len(), renamed.len());
    for t in [0, 1] {
        assert!(spans
            .iter()
            .any(|s| (s.thread, s.id) == (t, 0) && s.end.is_some()));
    }
}

#[test]
fn sibling_noise_perturbs_timing_but_never_results() {
    // A fault-storm neighbour slows the worker without corrupting it.
    let mut quiet = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    let mut qb = Asm::new();
    qb.halt();
    let baseline = quiet.run(
        &worker(100, 13),
        &qb.assemble().unwrap(),
        &RunConfig::default(),
        &RunConfig::default(),
    );

    let mut noisy = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    let (storm, handler) = fault_storm();
    let r = noisy.run(
        &worker(100, 13),
        &storm,
        &RunConfig::default(),
        &RunConfig {
            handler_pc: Some(handler),
            ..RunConfig::default()
        },
    );
    assert_eq!(r.t0.regs.get(Reg::Rax), baseline.t0.regs.get(Reg::Rax));
    assert!(
        r.t0.cycles > baseline.t0.cycles,
        "the fault storm must cost the worker time ({} vs {})",
        r.t0.cycles,
        baseline.t0.cycles
    );
}
