//! Branch resolution, squash, and the rename/scheduler state rebuilt
//! after one.

use tet_isa::{Inst, Opcode};
use tet_obs::{EventKind, SquashCause};
use tet_pmu::Event;

use crate::template::ProgramTemplate;
use crate::uop::UopId;

use super::Cpu;

impl Cpu {
    pub(super) fn resolve_branches(&mut self, now: u64, template: &ProgramTemplate) {
        // Resolve in age order; stop after the first mispredict (it
        // squashes everything younger).
        let mut mispredict_at: Option<usize> = None;
        let mut from = 0;
        while let Some(i) = self.rob.next_branch(from) {
            from = i + 1;
            let e = &self.rob[i];
            if !e.retire_ready(now) {
                continue;
            }
            let actual = e
                .actual_next
                .expect("executed branch must have a resolved target");
            let pc = e.pc;
            let pred_next = e.pred_next;

            // Train the predictor at resolution (transient included).
            match *template.inst(pc) {
                Inst::Jcc { target, .. } => {
                    self.bpu.resolve_cond(pc, actual == target, target);
                }
                Inst::Ret | Inst::JmpReg { .. } => {
                    self.bpu.resolve_indirect(pc, actual);
                }
                _ => {}
            }

            self.pmu.bump(Event::BrInstExecAll, 1);
            let mispredicted = actual != pred_next;
            self.sink.emit_at(
                now,
                EventKind::BranchResolved {
                    pc: pc as u64,
                    mispredicted,
                },
            );
            let entry = self.rob.resolve(i);
            if mispredicted {
                entry.mispredicted = true;
                mispredict_at = Some(i);
                break;
            }
        }

        if let Some(i) = mispredict_at {
            let actual = self.rob[i].actual_next.expect("resolved");
            self.pmu.bump(Event::BrMispExecAllBranches, 1);
            if matches!(self.rob[i].op, Opcode::Ret | Opcode::JmpReg) {
                self.pmu.bump(Event::BrMispExecIndirect, 1);
            }
            self.pmu.bump(Event::BpL1BtbCorrect, 1);

            let flushed = self.rob.len() - (i + 1);
            self.squash_younger_than(i, now, SquashCause::BranchMispredict);
            self.sink.emit_at(
                now,
                EventKind::Resteer {
                    target_pc: actual as u64,
                    flushed_uops: flushed as u32,
                },
            );
            self.idq.clear();

            // Mechanism 2: the resteer penalty scales with the number of
            // in-flight µops the squash had to clear.
            let stall = self.cfg.timing.resteer_cycles
                + self.cfg.timing.resteer_cost_per_uop * flushed as u64;
            self.fetch_pc = actual;
            self.fetch_enabled = true;
            self.last_fetch_page = None;
            self.fetch_stall_until = self.fetch_stall_until.max(now + stall);
            self.pmu.bump(Event::IntMiscClearResteerCycles, stall);

            // Mechanism 1: open a recovery window that exception entry
            // must serialise behind.
            self.recovery_busy_until = self
                .recovery_busy_until
                .max(now + self.cfg.timing.recovery_cycles);
        }
    }

    /// Removes all ROB entries younger than index `keep` (emitting their
    /// squash events) and rebuilds the rename state from the survivors.
    fn squash_younger_than(&mut self, keep: usize, now: u64, cause: SquashCause) {
        self.emit_squash_from(keep + 1, now, cause);
        self.rob.truncate(keep + 1);
        self.rebuild_rename_state();
    }

    pub(super) fn rebuild_rename_state(&mut self) {
        self.rat = [None; 16];
        self.flags_rat = None;
        self.txn_top = self.rob.back().map_or(0, |e| e.txn_snapshot);
        // `dests` is an inline Copy list, so the survivors can be walked
        // by index without buffering (or allocating) anything.
        for k in 0..self.rob.len() {
            let (id, dests, wf) = (
                self.rob[k].id,
                self.rob[k].dests,
                self.rob[k].kind.writes_flags(),
            );
            for r in dests {
                self.rat[r as usize] = Some(id);
            }
            if wf {
                self.flags_rat = Some(id);
            }
        }
        self.recompute_sched_state();
        if tet_check::enabled() {
            self.validate_rename_state();
        }
    }

    /// Rebuilds every derived scheduler counter, wake/waiter field and
    /// the ROB's scheduler index from the ROB contents. Called after any
    /// squash and at `reset_run`; surviving unstarted entries are
    /// re-evaluated from scratch next cycle (all pending, none parked).
    pub(super) fn recompute_sched_state(&mut self) {
        self.unstarted_store_count = 0;
        self.inflight_store_data = 0;
        self.exec_max_done = 0;
        self.mem_max_done = 0;
        self.rob.rebuild_with(|e| {
            e.waiter_head = None;
            e.next_waiter = None;
            if e.started {
                let done = e.done_at;
                self.exec_max_done = self.exec_max_done.max(done);
                if e.kind.is_memory() {
                    self.mem_max_done = self.mem_max_done.max(done);
                }
                if e.store.is_some() {
                    self.inflight_store_data += 1;
                }
            } else {
                e.wake_at = 0;
                if e.kind.is_store_kind() {
                    self.unstarted_store_count += 1;
                }
            }
        });
    }

    /// Expensive post-squash consistency sweep, run only in check mode:
    /// a squash must leave no dangling dependency edges or stale rename
    /// entries behind.
    fn validate_rename_state(&self) {
        let mut prev: Option<u64> = None;
        for e in self.rob.iter() {
            assert!(
                prev.is_none_or(|p| e.id > p),
                "ROB ids must be strictly ascending: {} after {:?}",
                e.id,
                prev
            );
            prev = Some(e.id);
        }
        let in_rob = |id: u64| self.rob.iter().any(|e| e.id == id);
        for (r, slot) in self.rat.iter().enumerate() {
            if let Some(id) = *slot {
                assert!(
                    in_rob(id),
                    "RAT[{r}] names µop {id} which is no longer in the ROB"
                );
            }
        }
        if let Some(id) = self.flags_rat {
            assert!(
                in_rob(id),
                "flags RAT names µop {id} which is no longer in the ROB"
            );
        }
        let front_id = self.rob.front().map(|e| e.id);
        for e in self.rob.iter() {
            for d in &e.deps {
                let Some(p) = d.producer.map(UopId::get) else {
                    continue;
                };
                assert!(
                    p < e.id,
                    "µop {} depends on younger/equal producer {p}",
                    e.id
                );
                assert!(
                    in_rob(p) || front_id.is_none_or(|f| p < f),
                    "µop {} has dangling dependency on squashed µop {p}",
                    e.id
                );
            }
        }
    }

    /// Per-cycle sweep in debug builds and check mode: the ROB's
    /// scheduler index must equal the one its entries define. `step`
    /// runs it when it carries the oracle; the SMT loop, which steps
    /// without one, calls it itself in check mode.
    pub(crate) fn validate_sched_index(&self) {
        if let Some(diff) = self.rob.index_mismatch() {
            panic!("cycle {}: scheduler index out of date: {diff}", self.cycle);
        }
    }
}
