//! Rename / issue.

use tet_isa::Inst;
use tet_obs::EventKind;
use tet_pmu::Event;

use crate::template::ProgramTemplate;
use crate::uop::{Dep, DepKind, DepList, ResultList, RobEntry, UopId, NOT_EXECUTED};

use super::{Cpu, TxnFrame};

/// What held rename on a cycle, as the per-cycle PMU events see it.
#[derive(Debug, Clone, Copy)]
pub(super) enum RenameHold {
    /// A pipeline flush or the sibling thread's stall; no event counts it.
    Stalled,
    /// A branch-recovery window (`INT_MISC.RECOVERY_CYCLES`).
    Recovery,
    /// A full ROB or RS with µops waiting in the IDQ
    /// (`RESOURCE_STALLS.ANY`).
    Resources,
}

impl Cpu {
    /// The window that holds rename at `now` whatever the IDQ holds.
    pub(super) fn rename_window(&self, now: u64) -> Option<RenameHold> {
        if now < self.pipeline_flush_until || now < self.external_stall_until {
            Some(RenameHold::Stalled)
        } else if now < self.recovery_busy_until {
            Some(RenameHold::Recovery)
        } else {
            None
        }
    }

    /// Whether the ROB or the reservation station has no room for
    /// another µop.
    pub(super) fn rename_full(&self) -> bool {
        self.rob.len() >= self.cfg.rob_size || self.rob.unstarted() >= self.cfg.rs_size
    }

    /// Renames up to `issue_width` µops from the IDQ; returns how many
    /// issued and what held rename, if anything did.
    pub(super) fn rename_cycle(
        &mut self,
        now: u64,
        template: &ProgramTemplate,
    ) -> (usize, Option<RenameHold>) {
        if let Some(window) = self.rename_window(now) {
            return (0, Some(window));
        }
        let mut issued = 0usize;
        for _ in 0..self.cfg.issue_width {
            if self.idq.is_empty() {
                break;
            }
            // Every µop renamed enters the reservation station.
            if self.rename_full() {
                return (issued, Some(RenameHold::Resources));
            }
            let f = self.idq.pop_front().expect("checked non-empty");
            let meta = template.meta(f.pc).expect("fetched pc within program");

            let top = self.txn_frames[self.txn_top as usize];
            let txn_abort = (self.txn_top != 0).then_some(top.abort_target);
            match meta.inst {
                Inst::XBegin { abort_target } if self.cfg.vuln.has_tsx => {
                    self.txn_frames.push(TxnFrame {
                        abort_target,
                        parent: self.txn_top,
                    });
                    self.txn_top = (self.txn_frames.len() - 1) as u32;
                }
                Inst::XEnd => self.txn_top = top.parent,
                _ => {}
            }

            let id = self.next_uop_id;
            self.next_uop_id += 1;
            self.sink.emit_at(
                now,
                EventKind::UopRenamed {
                    id,
                    pc: f.pc as u64,
                    op: meta.mnemonic,
                },
            );
            let e = self.rob.push_back_with(|| RobEntry {
                id,
                pc: f.pc,
                pred_next: f.pred_next,
                deps: DepList::new(),
                started: false,
                forward_at: NOT_EXECUTED,
                done_at: NOT_EXECUTED,
                results: ResultList::new(),
                flags_out: None,
                fault: None,
                actual_next: None,
                resolved: false,
                mispredicted: false,
                store: None,
                txn_abort,
                txn_snapshot: self.txn_top,
                kind: meta.kind,
                dests: meta.dests,
                op: meta.op,
                wake_at: 0,
                waiter_head: None,
                next_waiter: None,
            });
            // Dependencies go straight into the ROB slot, from the RAT
            // before this µop's own destinations update it, using the
            // pre-cracked source list (no per-rename re-matching).
            for r in meta.srcs {
                e.deps.push(Dep {
                    kind: DepKind::Reg(r),
                    producer: self.rat[r as usize].map(UopId::new),
                });
            }
            if meta.kind.reads_flags() {
                e.deps.push(Dep {
                    kind: DepKind::Flags,
                    producer: self.flags_rat.map(UopId::new),
                });
            }
            for r in meta.dests {
                self.rat[r as usize] = Some(id);
            }
            if meta.kind.writes_flags() {
                self.flags_rat = Some(id);
            }
            if meta.kind.is_store_kind() {
                self.unstarted_store_count += 1;
            }
            self.pmu.bump(Event::UopsIssuedAny, 1);
            issued += 1;
        }
        (issued, None)
    }
}
