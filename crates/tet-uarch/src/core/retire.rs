//! Retirement: in-order commit, the check-mode oracle hooks and fault
//! delivery.

use tet_isa::Opcode;
use tet_obs::{EventKind, SquashCause};
use tet_pmu::Event;

use crate::uop::{Fault, FaultKind, FaultRoute, RobEntry};

use super::{check_fault_kind, Cpu, Env, ExceptionRecord};

impl Cpu {
    /// Retires up to `retire_width` µops; returns a flush horizon when a
    /// fault was delivered this cycle.
    pub(super) fn retire_cycle(&mut self, now: u64, env: &mut Env<'_>) -> Option<u64> {
        if now < self.pipeline_flush_until || now < self.external_stall_until || self.halted {
            return None;
        }
        let mut flush = None;
        for _ in 0..self.cfg.retire_width {
            let Some(front) = self.rob.front() else { break };
            if !front.retire_ready(now) {
                break;
            }
            if front.fault.is_some() {
                flush = Some(self.deliver_fault(now, env));
                break;
            }
            self.commit_head(env, now);
            self.rob.pop_front();
            if self.halted {
                break;
            }
        }
        flush
    }

    /// Commits the ROB head in place; the caller pops it afterwards.
    fn commit_head(&mut self, env: &mut Env<'_>, _now_retire: u64) {
        let entry = self.rob.front().expect("retire-ready head exists");
        tet_invariant!(
            self.invariants,
            entry.fault.is_none(),
            "µop {} (pc {}) carries an unresolved fault {:?} but reached commit",
            entry.id,
            entry.pc,
            entry.fault
        );
        tet_invariant!(
            self.invariants,
            self.last_retired_id.is_none_or(|last| entry.id > last),
            "retire ids must be monotone: µop {} after {:?}",
            entry.id,
            self.last_retired_id
        );
        self.last_retired_id = Some(entry.id);
        if entry.store.is_some() {
            self.inflight_store_data -= 1;
        }
        for &(r, v) in entry.results.iter() {
            let v = if self.mutate_retire { v ^ 1 } else { v };
            self.regs.set(r, v);
        }
        if let Some(f) = entry.flags_out {
            self.flags = f;
        }
        // The oracle observes the commit between the register update and
        // the store write: registers already reflect this µop, memory
        // does not yet (the reference logs pre-store bytes for TSX undo).
        if env.check.is_some() {
            self.oracle_check_retire(entry, env);
        }
        if let Some(store) = entry.store {
            if let Some(pa) = store.pa {
                // The architectural write happens at commit; inside a
                // transaction the old value is logged for abort undo.
                if self.txn_checkpoint.is_some() {
                    let old = if store.byte {
                        env.phys.read_u8(pa) as u64
                    } else {
                        env.phys.read_u64(pa)
                    };
                    self.txn_undo.push((pa, old, store.byte));
                }
                if store.byte {
                    env.phys.write_u8(pa, store.value as u8);
                } else {
                    env.phys.write_u64(pa, store.value);
                }
            }
        }
        // TSX boundaries: checkpoint at the outermost xbegin's
        // retirement, release at the matching xend's.
        match entry.op {
            Opcode::XBegin if self.cfg.vuln.has_tsx => {
                if self.txn_depth == 0 {
                    self.txn_checkpoint = Some((self.regs, self.flags));
                    self.txn_undo.clear();
                }
                self.txn_depth += 1;
            }
            Opcode::XEnd => {
                self.txn_depth = self.txn_depth.saturating_sub(1);
                if self.txn_depth == 0 {
                    self.txn_checkpoint = None;
                    self.txn_undo.clear();
                }
            }
            _ => {}
        }
        // Free the RAT mapping if this µop was still the newest producer.
        for r in entry.dests {
            if self.rat[r as usize] == Some(entry.id) {
                self.rat[r as usize] = None;
            }
        }
        if self.flags_rat == Some(entry.id) {
            self.flags_rat = None;
        }

        self.sink
            .emit_at(_now_retire, EventKind::UopRetired { id: entry.id });
        self.retired_insts += 1;
        self.pmu.bump(Event::InstRetiredAny, 1);
        self.pmu.bump(Event::UopsRetiredAll, 1);
        if entry.kind.is_branch() {
            self.pmu.bump(Event::BrInstRetiredAll, 1);
            if entry.mispredicted {
                self.pmu.bump(Event::BrMispRetiredAll, 1);
            }
        }
        if entry.kind.is_halt() {
            self.halted = true;
        }
    }

    /// Feeds one committed µop to the retirement oracle (check mode).
    fn oracle_check_retire(&self, entry: &RobEntry, env: &mut Env<'_>) {
        let Env {
            check,
            phys,
            aspace,
            ..
        } = env;
        if let Some(oracle) = check.as_deref_mut() {
            let store = entry.store.map(|s| tet_check::CommittedStore {
                vaddr: s.vaddr,
                pa: s.pa,
                value: s.value,
                byte: s.byte,
            });
            oracle.on_retire(
                &tet_check::RetiredUop {
                    pc: entry.pc,
                    regs: &self.regs,
                    flags: self.flags,
                    store,
                },
                aspace,
                phys,
            );
        }
    }

    /// Feeds one delivered fault to the retirement oracle (check mode).
    /// Called after any transaction rollback, so registers and physical
    /// memory are already in their post-delivery state.
    fn oracle_check_fault(
        &self,
        pc: usize,
        fault: Fault,
        resume: Option<usize>,
        env: &mut Env<'_>,
    ) {
        let Env {
            check,
            phys,
            aspace,
            ..
        } = env;
        if let Some(oracle) = check.as_deref_mut() {
            oracle.on_fault(
                &tet_check::DeliveredFault {
                    pc,
                    vaddr: fault.vaddr,
                    kind: check_fault_kind(fault.kind),
                    resume,
                    regs: &self.regs,
                    flags: self.flags,
                },
                aspace,
                phys,
            );
        }
    }

    fn deliver_fault(&mut self, now: u64, env: &mut Env<'_>) -> u64 {
        // Only three Copy fields of the faulting entry matter here — no
        // need to clone the whole ROB entry.
        let front = self.rob.front().expect("caller checked");
        let entry_pc = front.pc;
        let entry_txn_abort = front.txn_abort;
        let fault = front.fault.expect("caller checked");
        let occupancy = self.rob.len() as u64;
        let t = &self.cfg.timing;

        // Mechanism 1: fault delivery serialises behind an in-progress
        // branch-misprediction recovery window on every route, so an
        // in-window triggered Jcc delays delivery and lengthens ToTE.
        let start = now.max(self.recovery_busy_until);

        // Route selection. Non-present / reserved-bit faults go through a
        // microcode assist (machine clear) on the Intel models; the AMD
        // model detected the fault early and raises a plain exception for
        // every kind, which is what removes the mapped/unmapped timing
        // differential of TET-KASLR on Zen 3.
        let assist = !self.cfg.vuln.early_fault_abort
            && matches!(fault.kind, FaultKind::NotPresent | FaultKind::ReservedBit)
            && entry_txn_abort.is_none();

        // Mechanism 2: squash cost scales with in-flight occupancy — an
        // inner squash that already emptied the transient window makes
        // this terminal flush cheaper.
        let (route, cost, target) = if let Some(abort_target) = entry_txn_abort {
            (
                FaultRoute::TxnAbort,
                t.txn_abort_cycles + t.fault_squash_cost_per_uop * occupancy,
                Some(abort_target),
            )
        } else if assist {
            self.pmu.bump(Event::MachineClearsCount, 1);
            (
                FaultRoute::MachineClear,
                t.machine_clear_base + t.clear_cost_per_uop * occupancy,
                self.handler_pc,
            )
        } else {
            (
                FaultRoute::Exception,
                t.exception_entry_cycles + t.fault_squash_cost_per_uop * occupancy,
                self.handler_pc,
            )
        };
        let delivered_at = start + cost;

        let Some(target) = target else {
            let record = ExceptionRecord {
                pc: entry_pc,
                vaddr: fault.vaddr,
                kind: fault.kind,
                route,
                detected_at: now,
                delivered_at,
            };
            self.unhandled = Some(record);
            self.halted = true;
            self.sink.emit_at(
                now,
                EventKind::FaultDelivered {
                    pc: entry_pc as u64,
                    class: fault.kind.to_obs(),
                    route: route.to_obs(),
                    squashed_uops: occupancy as u32,
                },
            );
            if env.check.is_some() {
                self.oracle_check_fault(entry_pc, fault, None, env);
            }
            return delivered_at;
        };

        self.exceptions.push(ExceptionRecord {
            pc: entry_pc,
            vaddr: fault.vaddr,
            kind: fault.kind,
            route,
            detected_at: now,
            delivered_at,
        });

        // A transaction abort rolls architectural state back to the
        // xbegin checkpoint: registers, flags, and committed stores.
        if route == FaultRoute::TxnAbort {
            if let Some((regs, flags)) = self.txn_checkpoint.take() {
                self.regs = regs;
                self.flags = flags;
                for (pa, old, byte) in self.txn_undo.drain(..).rev() {
                    if byte {
                        env.phys.write_u8(pa, old as u8);
                    } else {
                        env.phys.write_u64(pa, old);
                    }
                }
            }
            self.txn_depth = 0;
        }

        // Check mode: the oracle sees the fault after rollback, with
        // registers and memory in their post-delivery state.
        if env.check.is_some() {
            self.oracle_check_fault(entry_pc, fault, Some(target), env);
        }

        // Full pipeline flush; architectural state stays at the last
        // commit (the faulting µop and everything younger vanish).
        let squash_cause = match route {
            FaultRoute::TxnAbort => SquashCause::TxnAbort,
            _ => SquashCause::Fault,
        };
        self.emit_squash_from(0, now, squash_cause);
        self.sink.emit_at(
            now,
            EventKind::FaultDelivered {
                pc: entry_pc as u64,
                class: fault.kind.to_obs(),
                route: route.to_obs(),
                squashed_uops: occupancy as u32,
            },
        );
        self.rob.clear();
        self.idq.clear();
        self.rebuild_rename_state();
        self.fetch_pc = target;
        self.fetch_enabled = true;
        self.last_fetch_page = None;
        self.fetch_stall_until = delivered_at;
        self.pipeline_flush_until = delivered_at;
        self.recovery_busy_until = self.recovery_busy_until.max(delivered_at);
        delivered_at
    }
}
