//! Two-thread SMT co-execution on one physical core.
//!
//! The paper's §4.4 covert channel works because an exception on one SMT
//! thread flushes the shared pipeline and the sibling observes the bubble
//! in its `nop`-loop timing. [`SmtMachine`] runs two [`Cpu`]s in lockstep
//! sharing one [`MemorySystem`] (so the line fill buffer leaks across
//! threads, the Zombieload substrate) and broadcasts each thread's
//! pipeline-flush horizons to its sibling.

use tet_isa::Program;
use tet_mem::{AddressSpace, FrameAlloc, MemorySystem, PhysMem, Pte, PAGE_SIZE};

use crate::core::{Cpu, Env, RunExit};
use crate::machine::{RunConfig, RunResult};
use crate::{code_vaddr, CpuConfig};

/// The outcome of an SMT co-run.
#[derive(Debug, Clone)]
pub struct SmtRunResult {
    /// Thread 0's result.
    pub t0: RunResult,
    /// Thread 1's result.
    pub t1: RunResult,
}

/// Two logical threads sharing one core's memory subsystem and pipeline
/// flushes.
///
/// # Examples
///
/// ```
/// use tet_isa::{Asm, Reg};
/// use tet_uarch::{CpuConfig, SmtMachine, RunConfig};
///
/// # fn main() -> Result<(), tet_isa::AssembleError> {
/// let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 3);
/// let mut a = Asm::new();
/// a.mov_imm(Reg::Rax, 1).halt();
/// let p = a.assemble()?;
/// let r = smt.run(&p, &p, &RunConfig::default(), &RunConfig::default());
/// assert_eq!(r.t0.regs.get(Reg::Rax), 1);
/// assert_eq!(r.t1.regs.get(Reg::Rax), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SmtMachine {
    cpu0: Cpu,
    cpu1: Cpu,
    mem: MemorySystem,
    phys: PhysMem,
    aspace0: AddressSpace,
    aspace1: AddressSpace,
    frames: FrameAlloc,
}

impl SmtMachine {
    /// Creates an SMT pair of the given CPU model.
    pub fn new(cfg: CpuConfig, seed: u64) -> Self {
        SmtMachine {
            cpu0: Cpu::new(cfg.clone()),
            cpu1: Cpu::new(cfg.clone()),
            mem: MemorySystem::new(cfg.mem, seed),
            phys: PhysMem::new(),
            aspace0: AddressSpace::new(),
            aspace1: AddressSpace::new(),
            frames: FrameAlloc::starting_at(0x2000),
        }
    }

    /// Thread 0's core.
    pub fn cpu0(&self) -> &Cpu {
        &self.cpu0
    }

    /// Thread 1's core.
    pub fn cpu1(&self) -> &Cpu {
        &self.cpu1
    }

    /// The shared memory hierarchy (and its line fill buffer).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable shared memory hierarchy.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Shared physical memory.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// One thread's address space (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `thread > 1`.
    pub fn aspace(&self, thread: usize) -> &AddressSpace {
        match thread {
            0 => &self.aspace0,
            1 => &self.aspace1,
            _ => panic!("SMT core has two threads"),
        }
    }

    /// Maps a user page in one thread's address space; returns the
    /// physical base.
    pub fn map_user_page(&mut self, thread: usize, vaddr: u64) -> u64 {
        let frame = self.frames.alloc();
        let aspace = if thread == 0 {
            &mut self.aspace0
        } else {
            &mut self.aspace1
        };
        aspace.map_page(vaddr, Pte::user_data(frame));
        frame * PAGE_SIZE
    }

    fn map_code(&mut self, thread: usize, n: usize) {
        let pages = (n as u64 * crate::INST_BYTES).div_ceil(PAGE_SIZE) as usize + 1;
        for p in 0..pages {
            let vaddr = code_vaddr(0) + p as u64 * PAGE_SIZE;
            let frame = self.frames.alloc();
            let aspace = if thread == 0 {
                &mut self.aspace0
            } else {
                &mut self.aspace1
            };
            aspace.map_page(vaddr, Pte::user_data(frame));
        }
    }

    /// Runs both programs to completion (or the max of both cycle
    /// budgets), broadcasting pipeline flushes between the threads.
    pub fn run(
        &mut self,
        prog0: &Program,
        prog1: &Program,
        cfg0: &RunConfig,
        cfg1: &RunConfig,
    ) -> SmtRunResult {
        self.map_code(0, prog0.len());
        self.map_code(1, prog1.len());
        // SMT runs are rare and long, so templates are built per run
        // rather than cached (the build is O(program length)).
        let tpl0 = crate::template::ProgramTemplate::build(prog0);
        let tpl1 = crate::template::ProgramTemplate::build(prog1);
        // Each thread gets its own handle (tagged 0 / 1); the shared
        // memory hierarchy is re-pointed at the stepping thread's handle
        // so cache events carry the right thread id.
        let h0 = cfg0.run_sink();
        let h1 = cfg1.run_sink().for_thread(1);
        let trace_mem = h0.enabled() || h1.enabled();
        self.mem.set_sink(h0.clone());
        self.cpu0
            .reset_run(&cfg0.init_regs, cfg0.handler_pc, h0.clone());
        self.cpu1
            .reset_run(&cfg1.init_regs, cfg1.handler_pc, h1.clone());
        let pmu0_before = self.cpu0.pmu.snapshot();
        let pmu1_before = self.cpu1.pmu.snapshot();
        let max_cycles = cfg0.max_cycles.max(cfg1.max_cycles);
        // `step` validates the scheduler index only in debug builds when
        // no oracle rides along; check mode extends that to release runs.
        let check_index = !cfg!(debug_assertions) && tet_check::enabled();

        let mut cycle = 0u64;
        while cycle < max_cycles {
            let done0 = self.cpu0.run_end(prog0).is_some();
            let done1 = self.cpu1.run_end(prog1).is_some();
            if done0 && done1 {
                break;
            }
            if !done0 {
                if trace_mem {
                    self.mem.set_sink(h0.clone());
                }
                let mut env = Env {
                    mem: &mut self.mem,
                    phys: &mut self.phys,
                    aspace: &self.aspace0,
                    // SMT runs are not oracle-checked (DESIGN.md §9).
                    check: None,
                    template: &tpl0,
                };
                let ev = self.cpu0.step(&mut env);
                if check_index {
                    self.cpu0.validate_sched_index();
                }
                if let Some(until) = ev.flush_until {
                    self.cpu1.impose_external_stall(until);
                }
            }
            if !done1 {
                if trace_mem {
                    self.mem.set_sink(h1.clone());
                }
                let mut env = Env {
                    mem: &mut self.mem,
                    phys: &mut self.phys,
                    aspace: &self.aspace1,
                    check: None,
                    template: &tpl1,
                };
                let ev = self.cpu1.step(&mut env);
                if check_index {
                    self.cpu1.validate_sched_index();
                }
                if let Some(until) = ev.flush_until {
                    self.cpu0.impose_external_stall(until);
                }
            }
            cycle += 1;
        }

        let exit0 = self.cpu0.run_end(prog0).unwrap_or(RunExit::CycleLimit);
        let exit1 = self.cpu1.run_end(prog1).unwrap_or(RunExit::CycleLimit);
        let t0 = self.cpu0.run_result(exit0, &pmu0_before);
        let t1 = self.cpu1.run_result(exit1, &pmu1_before);
        SmtRunResult { t0, t1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_isa::{Asm, Reg};

    fn nop_loop(iters: u64) -> Program {
        let mut a = Asm::new();
        let top = a.fresh_label();
        a.mov_imm(Reg::Rcx, iters);
        a.bind(top)
            .nops(8)
            .sub(Reg::Rcx, 1u64)
            .jcc(tet_isa::Cond::Ne, top)
            .halt();
        a.assemble().unwrap()
    }

    #[test]
    fn independent_threads_complete() {
        let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 5);
        let p = nop_loop(20);
        let r = smt.run(&p, &p, &RunConfig::default(), &RunConfig::default());
        assert_eq!(r.t0.exit, RunExit::Halted);
        assert_eq!(r.t1.exit, RunExit::Halted);
    }

    #[test]
    fn sibling_fault_slows_the_spy() {
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let spy = nop_loop(200);

        // Trojan A: tight loop of faulting loads, suppressed by handler.
        let mut a = Asm::new();
        let top = a.fresh_label();
        a.mov_imm(Reg::Rcx, 40);
        let topi = a.here();
        a.bind(top)
            .load_abs(Reg::Rax, 0xdead_0000)
            .sub(Reg::Rcx, 1u64)
            .jcc(tet_isa::Cond::Ne, top)
            .halt();
        let trojan = a.assemble().unwrap();
        let trojan_cfg = RunConfig {
            // Faults resume at the decrement (skip the faulting load).
            handler_pc: Some(topi + 1),
            ..RunConfig::default()
        };

        // Trojan B: same structure, harmless loads.
        let mut b = Asm::new();
        let topb = b.fresh_label();
        b.mov_imm(Reg::Rcx, 40);
        b.bind(topb)
            .mov_imm(Reg::Rax, 0)
            .sub(Reg::Rcx, 1u64)
            .jcc(tet_isa::Cond::Ne, topb)
            .halt();
        let quiet = b.assemble().unwrap();

        let spy_cycles_with_faults = {
            let mut smt = SmtMachine::new(cfg.clone(), 5);
            let r = smt.run(&trojan, &spy, &trojan_cfg, &RunConfig::default());
            assert_eq!(r.t1.exit, RunExit::Halted);
            r.t1.cycles
        };
        let spy_cycles_quiet = {
            let mut smt = SmtMachine::new(cfg, 5);
            let r = smt.run(&quiet, &spy, &RunConfig::default(), &RunConfig::default());
            assert_eq!(r.t1.exit, RunExit::Halted);
            r.t1.cycles
        };
        assert!(
            spy_cycles_with_faults > spy_cycles_quiet,
            "sibling faults must slow the spy: {spy_cycles_with_faults} vs {spy_cycles_quiet}"
        );
    }

    #[test]
    fn lfb_leaks_across_threads() {
        // Thread 0 (victim) loads its secret; thread 1 sees it in the LFB.
        let mut smt = SmtMachine::new(CpuConfig::kaby_lake_i7_7700(), 9);
        let secret_va = 0x40_0000_0000u64;
        let pa = smt.map_user_page(0, secret_va);
        smt.phys_mut().write_u8(pa, b'K');

        let mut v = Asm::new();
        v.load_byte_abs(Reg::Rax, secret_va).halt();
        let victim = v.assemble().unwrap();
        let mut s = Asm::new();
        s.nops(4).halt();
        let spy = s.assemble().unwrap();
        let r = smt.run(&victim, &spy, &RunConfig::default(), &RunConfig::default());
        assert_eq!(r.t0.regs.get(Reg::Rax), b'K' as u64);
        assert_eq!(smt.mem().lfb().stale_byte(0), Some(b'K'));
    }
}
