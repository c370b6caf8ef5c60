//! Tests of the per-µop lifecycle fold over a run's event stream:
//! retired vs squashed ends, and the visibility of transient execution.

use std::sync::Arc;

use tet_isa::{Asm, Cond, Inst, Reg};
use tet_obs::{uop_spans, MemorySink, SinkHandle, SquashCause, UopEnd, UopSpan};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit};

/// Runs `a` with a recorder attached; returns the exit and each µop's
/// span paired with its instruction.
fn traced_run(m: &mut Machine, a: &Asm, handler: Option<usize>) -> (RunExit, Vec<(UopSpan, Inst)>) {
    let program = a.assemble().expect("assembles");
    let recorder = Arc::new(MemorySink::new());
    let r = m.run(
        &program,
        &RunConfig {
            handler_pc: handler,
            sink: SinkHandle::attached(recorder.clone()),
            ..RunConfig::default()
        },
    );
    let spans = uop_spans(&recorder.drain())
        .into_iter()
        .filter_map(|s| Some((s, program.fetch(s.pc as usize)?)))
        .collect();
    (r.exit, spans)
}

#[test]
fn straight_line_uops_all_retire_in_order() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    let mut a = Asm::new();
    a.mov_imm(Reg::Rax, 1).add(Reg::Rax, 2u64).nop().halt();
    let (exit, trace) = traced_run(&mut m, &a, None);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(trace.len(), 4);
    let mut last_retire = 0;
    for (t, inst) in &trace {
        match t.end {
            Some((at, UopEnd::Retired)) => {
                assert!(at >= last_retire, "in-order retirement");
                last_retire = at;
            }
            other => panic!("{inst:?} did not retire: {other:?}"),
        }
        assert!(t.started_at.is_some());
        assert!(t.done_at.unwrap() >= t.started_at.unwrap());
        assert!(t.renamed_at <= t.started_at.unwrap());
        assert!(!t.transient());
    }
}

#[test]
fn transient_uops_are_visible_in_the_trace() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let mut a = Asm::new();
    a.load_abs(Reg::Rax, 0xffff_ffff_8000_0000) // faults at retire
        .add(Reg::Rax, 1u64) // transient dependents
        .add(Reg::Rax, 2u64);
    let handler = a.here();
    a.halt();
    // Warm the code path so the shadow µops get fetched in the window.
    traced_run(&mut m, &a, Some(handler));
    let (exit, trace) = traced_run(&mut m, &a, Some(handler));
    assert_eq!(exit, RunExit::Halted);

    let transient: Vec<_> = trace.iter().filter(|(t, _)| t.transient()).collect();
    assert!(
        transient.len() >= 2,
        "the dependent adds must show as transient: {trace:#?}"
    );
    for (t, _) in &transient {
        assert!(
            matches!(t.end, Some((_, UopEnd::Squashed(SquashCause::Fault)))),
            "fault squash cause: {t:?}"
        );
    }
    // The halt retired architecturally.
    assert!(trace
        .iter()
        .any(|(t, inst)| matches!(t.end, Some((_, UopEnd::Retired))) && *inst == Inst::Halt));
}

#[test]
fn mispredict_squashes_carry_the_branch_reason() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_user_page(0x20_0000);
    let mut a = Asm::new();
    let skip = a.fresh_label();
    // The branch depends on a cold DRAM load, so it resolves long after
    // the wrong path has been fetched and renamed.
    a.load_abs(Reg::Rax, 0x20_0000) // 0 from fresh memory
        .cmp_imm(Reg::Rax, 0)
        .jcc(Cond::E, skip) // taken, predicted not-taken when cold
        .mov_imm(Reg::Rbx, 0xbad) // wrong path
        .mov_imm(Reg::Rcx, 0xbad)
        .bind(skip)
        .halt();
    let (exit, trace) = traced_run(&mut m, &a, None);
    assert_eq!(exit, RunExit::Halted);
    let squashed: Vec<_> = trace
        .iter()
        .filter(|(t, _)| {
            matches!(
                t.end,
                Some((_, UopEnd::Squashed(SquashCause::BranchMispredict)))
            )
        })
        .collect();
    assert!(
        !squashed.is_empty(),
        "the wrong path must be traced as mispredict-squashed"
    );
    assert!(squashed
        .iter()
        .all(|(_, inst)| matches!(inst, Inst::MovImm { imm: 0xbad, .. } | Inst::Halt)));
}

#[test]
fn tsx_abort_reason_is_recorded() {
    let mut m = Machine::new(CpuConfig::skylake_i7_6700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let mut a = Asm::new();
    let abort = a.fresh_label();
    a.xbegin(abort)
        .load_abs(Reg::Rax, 0xffff_ffff_8000_0000)
        .xend()
        .bind(abort)
        .halt();
    // Warm then trace.
    traced_run(&mut m, &a, None);
    let (exit, trace) = traced_run(&mut m, &a, None);
    assert_eq!(exit, RunExit::Halted);
    assert!(trace
        .iter()
        .any(|(t, _)| matches!(t.end, Some((_, UopEnd::Squashed(SquashCause::TxnAbort))))));
}
