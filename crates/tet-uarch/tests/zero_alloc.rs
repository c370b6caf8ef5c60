//! Allocation budgets of the simulator's hot calls.
//!
//! A warmed `Machine::run` of a non-faulting program makes no heap
//! allocation: PMU snapshots are inline arrays, ROB entries are plain
//! `Copy` data, and every per-run buffer is reused — including the ROB
//! and IDQ rings, which grow only until they reach their steady size.
//! Building a machine or forking one from a snapshot costs a bounded
//! number of bytes, not the size of its caches: cache slots live in
//! lazily allocated, copy-on-write chunks (DESIGN.md §19). A restore
//! from a snapshot in a trial loop allocates nothing, and because it
//! copies the snapshot into the machine's own chunks in place, neither
//! does a warm trial that writes memory and the caches.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Only allocations made by the test's own thread are
//! counted, so the harness's bookkeeping on other threads cannot leak
//! into the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tet_isa::{Asm, Cond, Reg};
use tet_uarch::{CpuConfig, Machine, MachineSnapshot, RunConfig, RunExit};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` (a reallocation counts its new size).
fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counters are const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Runs `f` and returns its value with the bytes it allocated.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = bytes();
    let value = f();
    (value, bytes() - before)
}

/// ROADMAP's budget for building or forking a whole machine.
const MACHINE_BUDGET: u64 = 256 * 1024;

const SHARED_PAGE: u64 = 0x20_0000;

/// The Figure 1a covert-channel gadget: a timed transient block that
/// loads the shared byte and branches on its comparison with `rbx`.
fn covert_gadget() -> (tet_isa::Program, usize) {
    let mut a = Asm::new();
    let matched = a.fresh_label();
    a.rdtsc()
        .mov_reg(Reg::R8, Reg::Rax)
        .lfence()
        .load_byte_abs(Reg::Rax, SHARED_PAGE)
        .cmp(Reg::Rax, Reg::Rbx)
        .jcc(Cond::E, matched)
        .nops(1)
        .bind(matched)
        .nop();
    let handler_pc = a.here();
    a.lfence().rdtsc().sub(Reg::Rax, Reg::R8).halt();
    (a.assemble().expect("assembles"), handler_pc)
}

fn probe_cfg(handler_pc: usize, test: u64) -> RunConfig {
    RunConfig {
        handler_pc: Some(handler_pc),
        init_regs: vec![(Reg::Rbx, test)],
        ..RunConfig::default()
    }
}

/// An i7-7700 in the §4.1 covert-channel set-up (timer interrupts every
/// 7919 cycles, a shared page holding the sent byte), warmed by a probe
/// sweep and sealed into a snapshot.
fn warmed_covert_machine() -> (Machine, MachineSnapshot) {
    let mut cfg = CpuConfig::kaby_lake_i7_7700();
    cfg.timing.interrupt_period = 7919;
    let mut m = Machine::new(cfg, 41);
    let pa = m.map_user_page(SHARED_PAGE);
    m.phys_mut().write_u8(pa, 0xa5);
    let (program, handler_pc) = covert_gadget();
    for test in 0..16 {
        let r = m.run(&program, &probe_cfg(handler_pc, test));
        assert_eq!(r.exit, RunExit::Halted);
    }
    let snap = m.snapshot();
    (m, snap)
}

#[test]
fn warmed_straight_line_runs_do_not_allocate() {
    if tet_check::enabled() {
        // Check mode builds a reference interpreter for every run; the
        // property is about the default configuration.
        eprintln!("skipped: check mode allocates an oracle per run");
        return;
    }
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_user_page(0x20_0000);
    let mut a = Asm::new();
    a.mov_imm(Reg::Rax, 0x1234)
        .store_abs(Reg::Rax, 0x20_0040)
        .load_abs(Reg::Rbx, 0x20_0040)
        .add(Reg::Rbx, Reg::Rax)
        .mov_imm(Reg::Rcx, 3)
        .rdtsc()
        .load_abs(Reg::Rdx, 0x20_0080)
        .halt();
    let program = a.assemble().expect("assembles");
    let cfg = RunConfig {
        init_regs: vec![(Reg::Rsi, 9)],
        ..RunConfig::default()
    };
    // Warm-up: maps code pages, caches the µop template, dirties the
    // data page and grows every per-run buffer to its steady size.
    for _ in 0..4 {
        let r = m.run(&program, &cfg);
        assert_eq!(r.exit, RunExit::Halted);
    }

    const RUNS: u64 = 32;
    let before = allocs();
    for _ in 0..RUNS {
        let r = m.run(&program, &cfg);
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rbx), 0x2468);
    }
    let per_run = (allocs() - before) as f64 / RUNS as f64;
    assert_eq!(per_run, 0.0, "allocations per warmed Machine::run");
}

#[test]
fn warmed_loop_runs_that_wrap_the_rings_do_not_allocate() {
    if tet_check::enabled() {
        eprintln!("skipped: check mode allocates an oracle per run");
        return;
    }
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 5);
    // A counted loop: 3 × 600 + 2 retired instructions per run, over
    // 4× the i7-7700's 256-slot ROB ring (224 entries rounded up), with
    // a mispredicted exit that squashes the wrong-path µops in flight.
    let mut a = Asm::new();
    let top = a.fresh_label();
    a.mov_imm(Reg::Rcx, 600)
        .bind(top)
        .add(Reg::Rax, Reg::Rcx)
        .sub(Reg::Rcx, 1)
        .jcc(Cond::Ne, top)
        .halt();
    let program = a.assemble().expect("assembles");
    let cfg = RunConfig::default();
    for _ in 0..4 {
        let r = m.run(&program, &cfg);
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.retired, 3 * 600 + 2);
    }

    const RUNS: u64 = 16;
    let before = allocs();
    for _ in 0..RUNS {
        let r = m.run(&program, &cfg);
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rax), 600 * 601 / 2);
    }
    let per_run = (allocs() - before) as f64 / RUNS as f64;
    assert_eq!(per_run, 0.0, "allocations per warmed looping Machine::run");
}

#[test]
fn new_machine_allocates_a_bounded_budget() {
    let (m, bytes) = bytes_allocated(|| Machine::new(CpuConfig::kaby_lake_i7_7700(), 1));
    drop(m);
    assert!(
        bytes <= MACHINE_BUDGET,
        "Machine::new allocated {bytes} bytes (budget {MACHINE_BUDGET})"
    );
}

#[test]
fn forking_a_warmed_machine_allocates_a_bounded_budget() {
    let (_warm, snap) = warmed_covert_machine();
    let (fork, bytes) = bytes_allocated(|| Machine::from_snapshot(&snap));
    drop(fork);
    assert!(
        bytes <= MACHINE_BUDGET,
        "Machine::from_snapshot allocated {bytes} bytes (budget {MACHINE_BUDGET})"
    );
}

#[test]
fn steady_state_restores_do_not_allocate() {
    let (_warm, snap) = warmed_covert_machine();
    let mut m = Machine::from_snapshot(&snap);
    let (program, handler_pc) = covert_gadget();
    // Warm-up trials grow the journals to their steady size.
    for test in 0..4 {
        m.restore(&snap);
        m.run(&program, &probe_cfg(handler_pc, test));
    }

    const TRIALS: u64 = 16;
    let mut restore_allocs = 0;
    for test in 0..TRIALS {
        let before = allocs();
        m.restore(&snap);
        restore_allocs += allocs() - before;
        let r = m.run(&program, &probe_cfg(handler_pc, 0xa5 ^ test));
        assert_eq!(r.exit, RunExit::Halted);
    }
    assert_eq!(
        restore_allocs, 0,
        "allocations in {TRIALS} steady-state restores"
    );
}

/// A trial that writes both journaled kinds of state: it stores to the
/// shared page, `clflush`es the line and reloads it, so the restore
/// repairs a dirtied physical page and the cache chunks the flush and
/// the refill wrote. Restoring copies the snapshot's bytes into the
/// machine's own chunks in place, so neither the restore nor the next
/// trial's writes allocate.
#[test]
fn store_flush_reload_trials_do_not_allocate() {
    if tet_check::enabled() {
        eprintln!("skipped: check mode allocates an oracle per run");
        return;
    }
    const LINE: u64 = SHARED_PAGE + 0x40;
    let mut a = Asm::new();
    a.store_abs(Reg::Rbx, LINE)
        .mfence()
        .clflush_abs(LINE)
        .mfence()
        .load_abs(Reg::Rcx, LINE)
        .halt();
    let program = a.assemble().expect("assembles");
    let cfgs: Vec<RunConfig> = (0..16u64)
        .map(|v| RunConfig {
            init_regs: vec![(Reg::Rbx, 0x5a00 + v)],
            ..RunConfig::default()
        })
        .collect();

    let mut warm = Machine::new(CpuConfig::kaby_lake_i7_7700(), 7);
    let pa = warm.map_user_page(SHARED_PAGE);
    for cfg in &cfgs[..4] {
        assert_eq!(warm.run(&program, cfg).exit, RunExit::Halted);
    }
    let sealed = warm.phys().read_u64(pa + 0x40);
    let snap = warm.snapshot();
    let mut m = Machine::from_snapshot(&snap);
    // Warm-up trials fork the chunks the snapshot shares and grow the
    // journals to their steady size.
    for cfg in &cfgs[..4] {
        m.restore(&snap);
        assert_eq!(m.run(&program, cfg).exit, RunExit::Halted);
    }

    let before = bytes();
    for (v, cfg) in (0..).zip(&cfgs) {
        m.restore(&snap);
        let r = m.run(&program, cfg);
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rcx), 0x5a00 + v);
    }
    let per_trial = (bytes() - before) as f64 / cfgs.len() as f64;
    assert_eq!(per_trial, 0.0, "bytes allocated per restore + trial");
    m.restore(&snap);
    assert_eq!(
        m.phys().read_u64(pa + 0x40),
        sealed,
        "restore undid the store"
    );
}
