//! The scheduler index against recorded timing (DESIGN.md §20).
//!
//! The reservation-station index (`pending` and `branches` bitsets over
//! the ROB slots) changes only at a handful of pipeline events. Each
//! scenario below drives some of them and pins the run's cycles, its PMU
//! delta and its `UopExecuted` stream to values recorded from the
//! full-ROB-walk scheduler the index replaced:
//!
//! * a forwarding-blocked load (`clflush` between store and load, the
//!   Listing 1 trick): start, re-pend on the block, retry;
//! * an `lfence` behind a slow load: the fence waits unstarted, then
//!   starts in the fence arm;
//! * a mispredicted branch whose condition waits on a slow load: park,
//!   wake-up, branch start and resolution, squash rebuild;
//! * a faulting kernel load under a signal handler: fault-delivery
//!   rebuild;
//! * a slow-load window past 256 in-flight µops on the 512-entry preset:
//!   ROB ring growth (with a non-zero head) rebuilds the index;
//! * a core cloned and restored mid-run (`Clone` and `Cpu::restore`,
//!   the halves of `Machine::snapshot`/`Machine::restore`): the copies
//!   repack the ROB from slot 0 and must rebuild the index.
//!
//! Every machine-level scenario runs twice from one snapshot: stepping
//! every cycle with a recording sink, and with fast-forward on and no
//! sink; both runs must agree.

use std::sync::Arc;

use tet_isa::{Asm, Cond, Program, Reg};
use tet_mem::{AddressSpace, MemorySystem, PhysMem};
use tet_obs::{EventKind, MemorySink, SinkHandle, TraceEvent};
use tet_pmu::{Event, PmuSnapshot};
use tet_uarch::core::Env;
use tet_uarch::{Cpu, CpuConfig, Machine, ProgramTemplate, RunConfig, RunExit, RunResult};

const DATA: u64 = 0x20_0000;
const KERNEL: u64 = 0xffff_ffff_8000_0000;
/// Cycle budget of every run: a core whose index lost a µop stalls
/// until here (and fails its pins) instead of recording events forever.
const STEP_LIMIT: u64 = 20_000;

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pmu_hash(p: &PmuSnapshot) -> u64 {
    fnv(p.iter().map(|(_, n)| n))
}

/// The `UopExecuted` stream as `(id, started_at, done_at)` triples.
fn executed(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::UopExecuted {
                id,
                started_at,
                done_at,
            } => Some([id, started_at, done_at]),
            _ => None,
        })
        .flatten()
        .collect()
}

/// What a scenario pins: cycles, PMU-delta hash, executed-µop count and
/// the hash of the `UopExecuted` stream.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    pmu: u64,
    executed: usize,
    stream: u64,
}

fn machine(cfg: CpuConfig) -> Machine {
    let mut m = Machine::new(cfg, 11);
    m.map_user_page(DATA);
    m.map_user_page(DATA + 0x1000);
    let kpa = m.map_kernel_page(KERNEL);
    m.phys_mut().write_u64(kpa, 0x5ec2e7);
    m
}

/// Runs `prog` on two fresh machines forked from `m` (each with an
/// empty, unallocated ROB ring), one stepping every cycle with a
/// recording sink and one with fast-forward; asserts they agree and
/// returns the traced run.
fn run_pinned(m: &mut Machine, prog: &Program, handler: Option<usize>) -> (RunResult, Pin) {
    let snap = m.snapshot();
    let rec = Arc::new(MemorySink::new());
    let mut stepped = Machine::from_snapshot(&snap);
    stepped.set_fast_forward(false);
    let traced = stepped.run(
        prog,
        &RunConfig {
            handler_pc: handler,
            max_cycles: STEP_LIMIT,
            sink: SinkHandle::attached(rec.clone()),
            ..RunConfig::default()
        },
    );
    let fast = Machine::from_snapshot(&snap).run(
        prog,
        &RunConfig {
            handler_pc: handler,
            max_cycles: STEP_LIMIT,
            ..RunConfig::default()
        },
    );
    assert_eq!(
        traced.cycles, fast.cycles,
        "fast-forward changed the cycles"
    );
    assert_eq!(traced.pmu, fast.pmu, "fast-forward changed the PMU delta");
    assert_eq!(traced.regs, fast.regs);
    let stream = executed(&rec.drain());
    let pin = Pin {
        cycles: traced.cycles,
        pmu: pmu_hash(&traced.pmu),
        executed: stream.len() / 3,
        stream: fnv(stream),
    };
    (traced, pin)
}

#[test]
fn forwarding_blocked_load() {
    let mut m = machine(CpuConfig::kaby_lake_i7_7700());
    let mut a = Asm::new();
    a.mov_imm(Reg::Rax, 0x55)
        .store_abs(Reg::Rax, DATA + 0x40)
        .clflush_abs(DATA + 0x40)
        .load_abs(Reg::Rbx, DATA + 0x40)
        .add(Reg::Rbx, 1u64)
        .add(Reg::Rbx, Reg::Rbx)
        .halt();
    let (r, pin) = run_pinned(&mut m, &a.assemble().unwrap(), None);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(r.regs.get(Reg::Rbx), 0xac);
    assert!(r.pmu.count(Event::LdBlocksStoreForward) > 0, "no block");
    assert_eq!(
        pin,
        Pin {
            cycles: 651,
            pmu: 12721344007819383665,
            executed: 7,
            stream: 16860994384540581521,
        }
    );
}

#[test]
fn lfence_behind_a_slow_load() {
    let mut m = machine(CpuConfig::kaby_lake_i7_7700());
    let mut a = Asm::new();
    a.load_abs(Reg::Rax, DATA + 0x80)
        .mov_imm(Reg::Rcx, 3)
        .lfence()
        .add(Reg::Rcx, Reg::Rax)
        .mov_imm(Reg::Rdx, 9)
        .rdtsc()
        .halt();
    let (r, pin) = run_pinned(&mut m, &a.assemble().unwrap(), None);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(r.regs.get(Reg::Rcx), 3);
    assert_eq!(
        pin,
        Pin {
            cycles: 392,
            pmu: 1958575859905772145,
            executed: 7,
            stream: 2598574395272702203,
        }
    );
}

/// A Jcc whose condition waits on a flushed load: the compare parks on
/// the load, the branch on the compare; both wake when the load starts.
/// A warm-up run trains the branch not-taken and fills the µop cache,
/// then the loaded value flips, so the branch resolves taken and
/// squashes the 48 transient µops fetched behind it.
#[test]
fn mispredict_squash() {
    let mut a = Asm::new();
    let out = a.fresh_label();
    a.load_abs(Reg::Rcx, DATA + 0x100)
        .cmp_imm(Reg::Rcx, 0)
        .jcc(Cond::E, out);
    for i in 0..24u64 {
        a.load_abs(Reg::Rdx, DATA + 0x1000 + i * 64)
            .add(Reg::Rsi, Reg::Rdx);
    }
    a.bind(out).mov_imm(Reg::Rbx, 1).halt();
    let prog = a.assemble().unwrap();

    let mut m = machine(CpuConfig::kaby_lake_i7_7700());
    m.write_virt_u64(DATA + 0x100, 1);
    m.run(&prog, &RunConfig::default());
    m.write_virt_u64(DATA + 0x100, 0);
    m.clflush_virt(DATA + 0x100);
    let (r, pin) = run_pinned(&mut m, &prog, None);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(r.regs.get(Reg::Rbx), 1);
    assert!(
        r.pmu.count(Event::BrMispExecAllBranches) > 0,
        "no mispredict"
    );
    assert_eq!(
        pin,
        Pin {
            cycles: 328,
            pmu: 256349832344648860,
            executed: 55,
            stream: 9407507431025289676,
        }
    );
}

#[test]
fn fault_delivery_clear() {
    let mut m = machine(CpuConfig::kaby_lake_i7_7700());
    let mut a = Asm::new();
    a.load_abs(Reg::Rax, KERNEL) // faults at retirement
        .add(Reg::Rax, 1u64)
        .load_abs(Reg::Rdx, DATA + 0x200)
        .add(Reg::Rax, Reg::Rdx);
    let handler = a.here();
    a.mov_imm(Reg::Rbx, 2).halt();
    let (r, pin) = run_pinned(&mut m, &a.assemble().unwrap(), Some(handler));
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(r.exceptions.len(), 1, "one delivered fault");
    assert_eq!(
        pin,
        Pin {
            cycles: 234,
            pmu: 14058410396697300521,
            executed: 3,
            stream: 3882746512117306942,
        }
    );
}

/// A few µops that retire at once (moving the ROB head off slot 0),
/// then two loads with 300 µops behind them: 100 copies of the second
/// load's value wait pending on its forward time, a 100-long chain on
/// the first load waits parked, and 100 independent moves execute.
/// Nothing retires until the first load does, so on a machine whose
/// loads miss and whose frontend is warm ([`wide_window_machine`]) the
/// ROB ring grows 128 → 256 → 512 under a non-zero head.
fn wide_window_program() -> Program {
    let mut a = Asm::new();
    for i in 0..10u64 {
        a.mov_imm(Reg::R8, i);
    }
    a.load_abs(Reg::Rax, DATA + 0x300)
        .load_abs(Reg::Rdx, DATA + 0x1300);
    for i in 0..100u64 {
        a.mov_reg(Reg::R9, Reg::Rdx)
            .mov_imm(Reg::Rbx, i)
            .add(Reg::Rax, 1u64);
    }
    a.halt();
    a.assemble().unwrap()
}

/// The 512-entry preset with [`wide_window_program`] in its µop cache,
/// I-cache and TLBs, and both of its data lines flushed.
fn wide_window_machine() -> Machine {
    let cfg = CpuConfig::raptor_lake_i9_13900k();
    assert_eq!(cfg.rob_size, 512);
    let mut m = machine(cfg);
    m.run(&wide_window_program(), &RunConfig::default());
    m.clflush_virt(DATA + 0x300);
    m.clflush_virt(DATA + 0x1300);
    m
}

#[test]
fn rob_ring_growth_on_the_512_entry_preset() {
    let mut m = wide_window_machine();
    let (r, pin) = run_pinned(&mut m, &wide_window_program(), None);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(r.regs.get(Reg::Rax), 100);
    assert_eq!(
        pin,
        Pin {
            cycles: 370,
            pmu: 18035240122687648470,
            executed: 313,
            stream: 13948123372556912084,
        }
    );
}

/// A core stepped by hand against its own copy of a machine's memory.
struct Stepper {
    cpu: Cpu,
    mem: MemorySystem,
    phys: PhysMem,
    aspace: AddressSpace,
}

impl Stepper {
    fn step_until(&mut self, t: &ProgramTemplate, stop: u64) {
        while !self.cpu.halted() && self.cpu.cycle() < stop {
            let mut env = Env {
                mem: &mut self.mem,
                phys: &mut self.phys,
                aspace: &self.aspace,
                check: None,
                template: t,
            };
            self.cpu.step(&mut env);
        }
    }

    fn fork(&self, cpu: Cpu) -> Stepper {
        Stepper {
            cpu,
            mem: self.mem.clone(),
            phys: self.phys.clone(),
            aspace: self.aspace.clone(),
        }
    }

    fn observables(&self) -> (u64, u64, u64, PmuSnapshot) {
        (
            self.cpu.cycle(),
            self.cpu.retired_insts(),
            self.cpu.regs().get(Reg::Rax),
            self.cpu.pmu.snapshot(),
        )
    }
}

#[test]
fn mid_run_clone_and_restore() {
    let prog = wide_window_program();
    let t = ProgramTemplate::build(&prog);
    let m = wide_window_machine();
    let rec = Arc::new(MemorySink::new());
    let start = Stepper {
        cpu: m.cpu().clone(),
        mem: m.mem().clone(),
        phys: m.phys().clone(),
        aspace: m.aspace().clone(),
    };
    let mut base = start.fork(start.cpu.clone());
    base.cpu
        .reset_run(&[], None, SinkHandle::attached(rec.clone()));
    let origin = base.fork(base.cpu.clone());
    base.step_until(&t, STEP_LIMIT);
    let full = executed(&rec.drain());
    let end = base.observables();
    assert!(base.cpu.halted());

    // A core whose ROB ring is already grown, with its head elsewhere.
    let polluted = {
        let mut p = start.fork(start.cpu.clone());
        p.cpu.reset_run(&[], None, SinkHandle::disabled());
        p.step_until(&t, 90);
        p.cpu
    };

    let mut forks = 0;
    for at in (3..end.0).step_by(23) {
        let mut live = origin.fork(origin.cpu.clone());
        live.step_until(&t, at);
        if live.cpu.halted() {
            break;
        }
        rec.drain();
        let mut cloned = live.fork(live.cpu.clone());
        let mut restored = live.fork(polluted.clone());
        restored.cpu.restore(&live.cpu);
        for s in [&mut live, &mut cloned, &mut restored] {
            s.step_until(&t, STEP_LIMIT);
            assert_eq!(s.observables(), end, "fork at cycle {at} diverged");
        }
        // The three continuations emitted into one sink, one after
        // another: each must be the uninterrupted stream's suffix.
        let tail = executed(&rec.drain());
        assert_eq!(tail.len() % 3, 0);
        let one = tail.len() / 3;
        let suffix = &full[full.len() - one..];
        for part in tail.chunks(one) {
            assert_eq!(part, suffix, "fork at cycle {at}: stream diverged");
        }
        forks += 1;
    }
    assert!(forks >= 10, "only {forks} forks inside the window");
    assert_eq!(
        Pin {
            cycles: end.0,
            pmu: pmu_hash(&end.3),
            executed: full.len() / 3,
            stream: fnv(full),
        },
        Pin {
            cycles: 370,
            pmu: 17869886882027087277,
            executed: 313,
            stream: 13948123372556912084,
        }
    );
}
