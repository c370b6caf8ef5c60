//! Fetch: DSB / MITE delivery, ITLB walks and next-pc prediction.

use tet_isa::Inst;
use tet_mem::{HitLevel, WalkOutcome};
use tet_obs::{EventKind, TlbKind};
use tet_pmu::Event;

use crate::frontend::FetchedUop;

use super::{Cpu, Env};

impl Cpu {
    /// Whether fetch is stalled or disabled at `now`.
    pub(super) fn fetch_stalled(&self, now: u64) -> bool {
        now < self.fetch_stall_until || !self.fetch_enabled
    }

    /// Fetches up to `fetch_width` µops into the IDQ; returns the µops
    /// delivered from the DSB and through MITE, and whether fetch was
    /// stalled.
    pub(super) fn fetch_cycle(&mut self, now: u64, env: &mut Env<'_>) -> (usize, usize, bool) {
        if self.fetch_stalled(now) {
            return (0, 0, true);
        }
        let mut dsb_uops = 0usize;
        let mut mite_uops = 0usize;
        let mut budget = self.cfg.fetch_width;

        while budget > 0 && self.idq.len() < self.cfg.idq_size {
            let pc = self.fetch_pc;
            let Some(meta) = env.template.meta(pc) else {
                // Ran past the end: stop fetching until redirected.
                self.fetch_enabled = false;
                break;
            };
            let vaddr = meta.vaddr;

            // ITLB check when crossing into a new code page.
            let page = meta.page;
            if self.last_fetch_page != Some(page) {
                self.last_fetch_page = Some(page);
                if self.itlb.lookup(vaddr).is_none() {
                    self.sink.emit_at(
                        now,
                        EventKind::TlbLookup {
                            kind: TlbKind::Inst,
                            vaddr,
                            hit: false,
                        },
                    );
                    let wr = self.walker.walk(env.aspace, vaddr);
                    self.pmu
                        .bump(Event::ItlbMissesMissCausesAWalk, wr.walks as u64);
                    self.pmu.bump(Event::ItlbMissesWalkActive, wr.cycles);
                    let mapped = matches!(wr.outcome, WalkOutcome::Mapped(_));
                    self.sink.emit_at(
                        now,
                        EventKind::PageWalk {
                            vaddr,
                            cycles: wr.cycles,
                            mapped,
                        },
                    );
                    if let WalkOutcome::Mapped(pte) = wr.outcome {
                        self.itlb.fill(vaddr, pte);
                        self.sink.emit_at(
                            now,
                            EventKind::TlbFill {
                                kind: TlbKind::Inst,
                                vaddr,
                            },
                        );
                    }
                    self.fetch_stall_until = now + wr.cycles;
                    break;
                } else {
                    self.pmu.bump(Event::BpL1TlbFetchHit, 1);
                    self.sink.emit_at(
                        now,
                        EventKind::TlbLookup {
                            kind: TlbKind::Inst,
                            vaddr,
                            hit: true,
                        },
                    );
                }
            }

            let from_dsb = self.dsb.lookup(pc);
            if self.last_fetch_from_dsb && !from_dsb {
                self.pmu.bump(Event::Dsb2MiteSwitches, 1);
            }
            self.last_fetch_from_dsb = from_dsb;
            if !from_dsb {
                // Legacy MITE decode: timed I-cache fetch plus decode
                // penalty; ends this cycle's fetch group.
                self.pmu.bump(Event::IcFw32, 1);
                if let Some(pa) = env.aspace.translate(vaddr) {
                    let da = env.mem.inst_fetch(pa, env.phys);
                    if da.level != HitLevel::L1 {
                        let extra = da.latency - self.cfg.mem.l1i.latency;
                        self.pmu.bump(Event::Icache16bIfdataStall, extra);
                        self.fetch_stall_until = now + extra;
                    }
                }
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(now + self.cfg.timing.mite_penalty);
                self.dsb.insert(pc);
            }

            // Predict next pc.
            let (pred_next, pred_taken) = match meta.inst {
                Inst::Jcc { target, .. } => {
                    let p = self.bpu.predict_cond(pc, pc + 1, target);
                    if p.from_btb {
                        self.pmu.bump(Event::BtbHits, 1);
                    }
                    (p.next_pc, p.taken)
                }
                Inst::Jmp { target } => (target, true),
                Inst::JmpReg { .. } => {
                    let p = self.bpu.predict_indirect(pc, pc + 1);
                    (p.next_pc, p.taken)
                }
                Inst::Call { target } => {
                    let p = self.bpu.predict_call(target, pc + 1);
                    (p.next_pc, true)
                }
                Inst::Ret => {
                    let p = self.bpu.predict_ret(pc + 1);
                    (p.next_pc, p.taken)
                }
                _ => (pc + 1, false),
            };
            if meta.kind.is_branch() {
                self.sink.emit_at(
                    now,
                    EventKind::BranchPredicted {
                        pc: pc as u64,
                        taken: pred_taken,
                    },
                );
            }

            self.idq.push_back(FetchedUop { pc, pred_next });
            if from_dsb {
                dsb_uops += 1;
                self.pmu.bump(Event::IdqDsbUops, 1);
            } else {
                mite_uops += 1;
                self.pmu.bump(Event::IdqMsMiteUops, 1);
                self.pmu.bump(Event::IdqMsUops, 1);
            }

            self.fetch_pc = pred_next;
            budget -= 1;

            if meta.kind.is_halt() {
                // Stop fetching past a halt on the predicted path.
                self.fetch_enabled = false;
                break;
            }
            if !from_dsb {
                break; // MITE group ends the cycle.
            }
        }

        if dsb_uops > 0 {
            self.pmu.bump(Event::IdqDsbCyclesAny, 1);
            if dsb_uops == self.cfg.fetch_width {
                self.pmu.bump(Event::IdqDsbCyclesOk, 1);
            }
            if mite_uops > 0 {
                self.pmu.bump(Event::IdqMsDsbCycles, 1);
            }
        }
        if mite_uops > 0 {
            self.pmu.bump(Event::IdqAllMiteCyclesAnyUops, 1);
        }
        (dsb_uops, mite_uops, false)
    }
}
