//! The execute step and its per-opcode handlers.

use tet_isa::{Flags, Inst, Opcode, Reg};
use tet_obs::{EventKind, TlbKind};
use tet_pmu::Event;

use crate::uop::{Fault, ResultList, StoreInfo};

use super::{Cpu, Env};

/// Architectural result of one µop's execute step, produced by a
/// dispatch-table handler and applied by `Cpu::execute_uop`'s shared
/// tail (forward/done timing, ROB bookkeeping, waiter wakeup, events).
struct ExecOut {
    latency: u64,
    results: ResultList,
    flags_out: Option<Flags>,
    fault: Option<Fault>,
    store: Option<StoreInfo>,
    actual_next: Option<usize>,
}

impl ExecOut {
    fn new(latency: u64) -> ExecOut {
        ExecOut {
            latency,
            results: ResultList::new(),
            flags_out: None,
            fault: None,
            store: None,
            actual_next: None,
        }
    }
}

/// One execute handler. `None` means the µop could not start (blocked
/// store-to-load forwarding) and the handler re-parked it.
type ExecFn = fn(&mut Cpu, usize, u64, &mut Env<'_>) -> Option<ExecOut>;

/// Threaded-code execute dispatch: one handler per opcode, indexed by
/// `RobEntry::op`. Slot order must match `Opcode`'s declaration order.
/// `None` marks the µops that produce nothing at execute (Nop, XBegin,
/// XEnd, Halt): `Cpu::execute_uop` finishes them itself, after the
/// ALU latency.
static EXEC_TABLE: [Option<ExecFn>; Opcode::COUNT] = [
    None,                     // Nop
    Some(Cpu::exec_mov_imm),  // MovImm
    Some(Cpu::exec_mov_reg),  // MovReg
    Some(Cpu::exec_load),     // Load
    Some(Cpu::exec_load),     // LoadByte
    Some(Cpu::exec_store),    // Store
    Some(Cpu::exec_store),    // StoreByte
    Some(Cpu::exec_lea),      // Lea
    Some(Cpu::exec_alu),      // Alu
    Some(Cpu::exec_cmp),      // Cmp
    Some(Cpu::exec_test),     // Test
    Some(Cpu::exec_jcc),      // Jcc
    Some(Cpu::exec_jmp),      // Jmp
    Some(Cpu::exec_jmp_reg),  // JmpReg
    Some(Cpu::exec_call),     // Call
    Some(Cpu::exec_ret),      // Ret
    Some(Cpu::exec_push),     // Push
    Some(Cpu::exec_pop),      // Pop
    Some(Cpu::exec_clflush),  // Clflush
    Some(Cpu::exec_prefetch), // Prefetch
    Some(Cpu::exec_fence),    // Lfence
    Some(Cpu::exec_fence),    // Mfence
    Some(Cpu::exec_fence),    // Sfence
    Some(Cpu::exec_rdtsc),    // Rdtsc
    None,                     // XBegin
    None,                     // XEnd
    Some(Cpu::exec_syscall),  // Syscall
    None,                     // Halt
];

impl Cpu {
    pub(super) fn execute_uop(&mut self, i: usize, now: u64, env: &mut Env<'_>) {
        tet_invariant!(
            self.invariants,
            self.deps_ready(&self.rob[i], now),
            "scheduler issued µop {} (pc {}) with unready sources",
            self.rob[i].id,
            self.rob[i].pc
        );
        let t = self.cfg.timing;
        // Threaded-code dispatch: the opcode was resolved once at
        // template build, so the execute step is a single indexed call.
        // µops without a handler produce nothing: their record keeps
        // the empty results rename gave it, and only the timing is set.
        let (done_at, fault_info, has_store) = match EXEC_TABLE[self.rob[i].op as usize] {
            None => {
                let e = self.rob.start(i);
                let done_at = now + t.alu_latency;
                e.forward_at = done_at;
                e.done_at = done_at;
                (done_at, None, false)
            }
            Some(handler) => {
                let Some(out) = handler(self, i, now, env) else {
                    return; // blocked store-to-load forwarding, re-parked
                };
                let ExecOut {
                    latency,
                    results,
                    flags_out,
                    fault,
                    store,
                    actual_next,
                } = out;
                let fault_info = fault.as_ref().map(|f| (f.kind, f.vaddr));
                let has_store = store.is_some();
                let e = self.rob.start(i);
                let forward_at = now + latency;
                e.forward_at = forward_at;
                let done_at = if fault.is_some() {
                    forward_at + t.fault_confirm_cycles
                } else {
                    forward_at
                };
                e.done_at = done_at;
                e.results = results;
                e.flags_out = flags_out;
                e.fault = fault;
                e.store = store;
                e.actual_next = actual_next;
                (done_at, fault_info, has_store)
            }
        };
        let e = &self.rob[i];
        let id = e.id;
        let pc = e.pc;
        let kind = e.kind;
        let is_mem = kind.is_memory();

        // Scheduler bookkeeping for the start of execution.
        if kind.is_store_kind() {
            self.unstarted_store_count -= 1;
        }
        if has_store {
            self.inflight_store_data += 1;
        }
        self.exec_max_done = self.exec_max_done.max(done_at);
        if is_mem {
            self.mem_max_done = self.mem_max_done.max(done_at);
        }
        // Wake everything parked on this µop: dependents re-evaluate
        // this same cycle (they sit later in the age-ordered sweep) and
        // either issue or compute their exact forward-time wake-up.
        let mut waiter = self.rob[i].waiter_head.take();
        while let Some(wid) = waiter {
            let widx = self
                .rob_index(wid.get())
                .expect("waiters die with their producer");
            waiter = self.rob.wake(widx, now).next_waiter.take();
        }

        self.sink.emit_at(
            now,
            EventKind::UopExecuted {
                id,
                started_at: now,
                done_at,
            },
        );
        if let Some((kind, vaddr)) = fault_info {
            self.sink.emit_at(
                now,
                EventKind::FaultRaised {
                    pc: pc as u64,
                    vaddr,
                    class: kind.to_obs(),
                },
            );
        }
    }

    // ----- execute handlers (one per opcode, see EXEC_TABLE) ----------------

    /// Store-to-load forwarding blocked: retry next cycle unless the
    /// store has drained; model as a stalled start.
    fn block_forwarding(&mut self, i: usize, now: u64) -> Option<ExecOut> {
        self.pmu.bump(Event::LdBlocksStoreForward, 1);
        self.rob[i].wake_at = now + 1;
        None
    }

    fn exec_mov_imm(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::MovImm { dst, imm } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.results.push(dst, imm);
        Some(out)
    }

    fn exec_mov_reg(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::MovReg { dst, src } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let v = self.dep_reg_value(&self.rob[i], src);
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.results.push(dst, v);
        Some(out)
    }

    fn exec_lea(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Lea { dst, addr } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let v = self.eff_addr(&self.rob[i], &addr);
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.results.push(dst, v);
        Some(out)
    }

    fn exec_alu(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Alu { op, dst, src } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let entry = &self.rob[i];
        let a = self.dep_reg_value(entry, dst);
        let b = self.src_value(entry, &src);
        let r = op.apply(a, b);
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.results.push(dst, r);
        out.flags_out = Some(match op {
            tet_isa::inst::AluOp::Add => Flags::from_add(a, b),
            tet_isa::inst::AluOp::Sub => Flags::from_sub(a, b),
            _ => Flags::from_logic(r),
        });
        Some(out)
    }

    fn exec_cmp(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Cmp { a, b } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let entry = &self.rob[i];
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.flags_out = Some(Flags::from_sub(
            self.dep_reg_value(entry, a),
            self.src_value(entry, &b),
        ));
        Some(out)
    }

    fn exec_test(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Test { a, b } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let entry = &self.rob[i];
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.flags_out = Some(Flags::from_and(
            self.dep_reg_value(entry, a),
            self.src_value(entry, &b),
        ));
        Some(out)
    }

    fn exec_rdtsc(&mut self, _i: usize, now: u64, _env: &mut Env<'_>) -> Option<ExecOut> {
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.results.push(Reg::Rax, now);
        Some(out)
    }

    /// Load and LoadByte share a handler (width from the opcode).
    fn exec_load(&mut self, i: usize, now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let (dst, addr, byte) = match *env.template.inst(self.rob[i].pc) {
            Inst::Load { dst, addr } => (dst, addr, false),
            Inst::LoadByte { dst, addr } => (dst, addr, true),
            _ => unreachable!(),
        };
        let vaddr = self.eff_addr(&self.rob[i], &addr);
        match self.forwarding(i, vaddr, byte, env.template) {
            Some(Ok(v)) => {
                let mut out = ExecOut::new(self.cfg.timing.store_forward_cycles);
                out.results.push(dst, if byte { v & 0xff } else { v });
                Some(out)
            }
            Some(Err(())) => self.block_forwarding(i, now),
            None => {
                let lr = self.do_load(env, vaddr, byte);
                let mut out = ExecOut::new(lr.latency);
                out.fault = lr.fault;
                out.results.push(dst, lr.value);
                Some(out)
            }
        }
    }

    /// Store and StoreByte share a handler (width from the opcode).
    fn exec_store(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let (src, addr, byte) = match *env.template.inst(self.rob[i].pc) {
            Inst::Store { src, addr } => (src, addr, false),
            Inst::StoreByte { src, addr } => (src, addr, true),
            _ => unreachable!(),
        };
        let entry = &self.rob[i];
        let vaddr = self.eff_addr(entry, &addr);
        let value = self.dep_reg_value(entry, src);
        let (lat, pa, f) = self.do_store(env, vaddr);
        let mut out = ExecOut::new(lat);
        out.fault = f;
        out.store = Some(StoreInfo {
            vaddr,
            pa,
            value,
            byte,
        });
        Some(out)
    }

    fn exec_push(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Push { src } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let entry = &self.rob[i];
        let rsp = self.dep_reg_value(entry, Reg::Rsp).wrapping_sub(8);
        let value = self.dep_reg_value(entry, src);
        let (lat, pa, f) = self.do_store(env, rsp);
        let mut out = ExecOut::new(lat);
        out.fault = f;
        out.results.push(Reg::Rsp, rsp);
        out.store = Some(StoreInfo {
            vaddr: rsp,
            pa,
            value,
            byte: false,
        });
        Some(out)
    }

    fn exec_pop(&mut self, i: usize, now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Pop { dst } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let rsp = self.dep_reg_value(&self.rob[i], Reg::Rsp);
        let mut out;
        match self.forwarding(i, rsp, false, env.template) {
            Some(Ok(v)) => {
                out = ExecOut::new(self.cfg.timing.store_forward_cycles);
                out.results.push(dst, v);
            }
            Some(Err(())) => return self.block_forwarding(i, now),
            None => {
                let lr = self.do_load(env, rsp, false);
                out = ExecOut::new(lr.latency);
                out.fault = lr.fault;
                out.results.push(dst, lr.value);
            }
        }
        out.results.push(Reg::Rsp, rsp.wrapping_add(8));
        Some(out)
    }

    fn exec_call(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Call { target } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let rsp = self.dep_reg_value(&self.rob[i], Reg::Rsp).wrapping_sub(8);
        let (lat, pa, f) = self.do_store(env, rsp);
        let mut out = ExecOut::new(lat);
        out.fault = f;
        out.results.push(Reg::Rsp, rsp);
        out.store = Some(StoreInfo {
            vaddr: rsp,
            pa,
            value: (self.rob[i].pc + 1) as u64,
            byte: false,
        });
        out.actual_next = Some(target);
        Some(out)
    }

    fn exec_ret(&mut self, i: usize, now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let rsp = self.dep_reg_value(&self.rob[i], Reg::Rsp);
        let mut out;
        let ret_target;
        match self.forwarding(i, rsp, false, env.template) {
            Some(Ok(v)) => {
                out = ExecOut::new(self.cfg.timing.store_forward_cycles);
                ret_target = v;
            }
            Some(Err(())) => return self.block_forwarding(i, now),
            None => {
                let lr = self.do_load(env, rsp, false);
                out = ExecOut::new(lr.latency);
                out.fault = lr.fault;
                ret_target = lr.value;
            }
        }
        out.results.push(Reg::Rsp, rsp.wrapping_add(8));
        out.actual_next = Some(ret_target as usize);
        Some(out)
    }

    fn exec_jmp(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Jmp { target } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.actual_next = Some(target);
        Some(out)
    }

    fn exec_jmp_reg(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::JmpReg { reg } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.actual_next = Some(self.dep_reg_value(&self.rob[i], reg) as usize);
        Some(out)
    }

    fn exec_jcc(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Jcc { cond, target } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let entry = &self.rob[i];
        let f = self.dep_flags_value(entry);
        let taken = cond.eval(f);
        let mut out = ExecOut::new(self.cfg.timing.alu_latency);
        out.actual_next = Some(if taken { target } else { entry.pc + 1 });
        Some(out)
    }

    fn exec_clflush(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Clflush { addr } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let vaddr = self.eff_addr(&self.rob[i], &addr);
        if let Some(pa) = env.aspace.translate(vaddr) {
            env.mem.clflush(pa);
        }
        self.pmu.bump(Event::ClflushExecuted, 1);
        Some(ExecOut::new(2))
    }

    fn exec_prefetch(&mut self, i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let Inst::Prefetch { addr } = *env.template.inst(self.rob[i].pc) else {
            unreachable!()
        };
        let vaddr = self.eff_addr(&self.rob[i], &addr);
        let lat = self.do_prefetch(env, vaddr);
        Some(ExecOut::new(lat))
    }

    fn exec_fence(&mut self, _i: usize, _now: u64, _env: &mut Env<'_>) -> Option<ExecOut> {
        unreachable!("fences handled earlier")
    }

    fn exec_syscall(&mut self, _i: usize, _now: u64, env: &mut Env<'_>) -> Option<ExecOut> {
        let t = self.cfg.timing;
        for k in 0..self.syscall_pages.len() {
            let page = self.syscall_pages[k];
            if let Some(pte) = env.aspace.pte(page) {
                if !pte.reserved && pte.present {
                    self.dtlb.fill(page, pte);
                    self.itlb.fill(page, pte);
                    self.pmu.bump(Event::DtlbFills, 1);
                    self.sink.emit(EventKind::TlbFill {
                        kind: TlbKind::Data,
                        vaddr: page,
                    });
                }
            }
        }
        Some(ExecOut::new(t.syscall_cycles))
    }
}
