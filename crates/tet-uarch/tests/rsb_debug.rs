//! DESIGN §1's Spectre-RSB polarity on `raptor_lake_i9_13900k`: when the
//! transient Jcc in the RSB-predicted return path matches the secret
//! ("hit"), its mispredict flushes the younger transient µops early, the
//! terminal squash when the `ret` resolves is cheaper, and the ToTE comes
//! out *shorter* than on a miss (mechanism 2).

use std::sync::Arc;

use tet_isa::{Asm, Cond, Program, Reg};
use tet_obs::{EventKind, MemorySink, SinkHandle};
use tet_pmu::Event;
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit, RunResult};

fn rsb_gadget(secret_addr: u64, sea: usize) -> Program {
    let build = |done_pc: u64| -> (Asm, usize) {
        let mut a = Asm::new();
        let f = a.fresh_label();
        let matched = a.fresh_label();
        a.rdtsc().mov_reg(Reg::R8, Reg::Rax).lfence().call(f);
        a.load_byte_abs(Reg::Rax, secret_addr)
            .cmp(Reg::Rax, Reg::Rbx)
            .jcc(Cond::E, matched)
            .nops(sea);
        a.bind(f);
        a.mov_imm(Reg::R9, done_pc)
            .store(Reg::R9, Reg::Rsp, 0)
            .clflush(Reg::Rsp, 0)
            .ret();
        let done = a.here();
        a.bind(matched);
        a.lfence().rdtsc().sub(Reg::Rax, Reg::R8).halt();
        (a, done)
    };
    let (_, done_pc) = build(0);
    let (a, _) = build(done_pc as u64);
    a.assemble().unwrap()
}

const MISS: u64 = 1;
const HIT: u64 = b'R' as u64;

/// A Raptor Lake machine holding the secret `'R'`, a stack page, and
/// the gadget with `sea` nops of padding, warmed with four miss runs.
fn warmed(sea: usize) -> (Machine, Program) {
    let mut m = Machine::new(CpuConfig::raptor_lake_i9_13900k(), 23);
    let pa = m.map_user_page(0x50_0000);
    m.phys_mut().write_u8(pa, b'R');
    m.map_user_page(0x60_0000);
    let prog = rsb_gadget(0x50_0000, sea);
    for _ in 0..4 {
        run(&mut m, &prog, MISS, SinkHandle::disabled());
    }
    (m, prog)
}

fn run(m: &mut Machine, prog: &Program, test: u64, sink: SinkHandle) -> RunResult {
    let r = m.run(
        prog,
        &RunConfig {
            init_regs: vec![(Reg::Rbx, test), (Reg::Rsp, 0x60_0800)],
            sink,
            ..RunConfig::default()
        },
    );
    assert_eq!(r.exit, RunExit::Halted);
    r
}

#[test]
fn dump_components() {
    let (mut m, prog) = warmed(48);
    for round in 0..2 {
        let miss = run(&mut m, &prog, MISS, SinkHandle::disabled());
        let hit = run(&mut m, &prog, HIT, SinkHandle::disabled());
        let misp = |r: &RunResult| r.pmu.count(Event::BrMispExecAllBranches);
        assert!(
            misp(&hit) > misp(&miss),
            "round {round}: the matching Jcc adds a mispredict (hit {}, miss {})",
            misp(&hit),
            misp(&miss)
        );
    }
}

#[test]
fn sweep_sea() {
    for sea in [0usize, 8, 16, 32, 48, 96] {
        let (mut m, prog) = warmed(sea);
        let miss = run(&mut m, &prog, MISS, SinkHandle::disabled())
            .regs
            .get(Reg::Rax);
        let hit = run(&mut m, &prog, HIT, SinkHandle::disabled())
            .regs
            .get(Reg::Rax);
        assert!(
            hit < miss,
            "sea={sea}: hit ToTE {hit} must be below miss {miss}"
        );
    }
}

#[test]
fn trace_windows() {
    let (mut m, prog) = warmed(48);
    for test in [MISS, HIT] {
        let recorder = Arc::new(MemorySink::new());
        let r = run(&mut m, &prog, test, SinkHandle::attached(recorder.clone()));
        let frontend_cycles = recorder
            .drain()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FrontendCycle { .. }))
            .count() as u64;
        assert_eq!(
            frontend_cycles, r.cycles,
            "one FrontendCycle per cycle (test={test})"
        );
    }
}
