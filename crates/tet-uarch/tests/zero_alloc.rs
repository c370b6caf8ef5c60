//! A warmed `Machine::run` of a non-faulting program makes no heap
//! allocation: PMU snapshots are inline arrays, ROB entries are plain
//! `Copy` data, and every per-run buffer is reused — including the ROB
//! and IDQ rings, which grow only until they reach their steady size.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Only allocations made by the test's own thread are
//! counted, so the harness's bookkeeping on other threads cannot leak
//! into the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tet_isa::{Asm, Cond, Reg};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
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
