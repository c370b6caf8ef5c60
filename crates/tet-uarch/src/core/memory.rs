//! Memory access paths: translation, loads, stores and prefetches.

use tet_mem::{HitLevel, Pte, WalkOutcome};
use tet_obs::{EventKind, TlbKind};
use tet_pmu::Event;

use crate::config::ForwardPolicy;
use crate::uop::{Fault, FaultKind};

use super::{Cpu, Env, LoadResult};

impl Cpu {
    /// Translates `vaddr` for a demand access: TLB → page walk with the
    /// configured retry/fill/abort policies. Returns the latency, the
    /// leaf PTE if the walk succeeded, and the fault, if any.
    fn mem_translate(&mut self, env: &Env<'_>, vaddr: u64) -> (u64, Option<Pte>, Option<Fault>) {
        if let Some(e) = self.dtlb.lookup(vaddr) {
            self.sink.emit(EventKind::TlbLookup {
                kind: TlbKind::Data,
                vaddr,
                hit: true,
            });
            let pte = e.pte;
            let fault = (!pte.user).then_some(Fault {
                kind: FaultKind::Permission,
                vaddr,
            });
            return (1, Some(pte), fault);
        }
        self.sink.emit(EventKind::TlbLookup {
            kind: TlbKind::Data,
            vaddr,
            hit: false,
        });

        if self.cfg.vuln.early_fault_abort {
            // AMD model: accesses that will fault abort before the walk
            // completes — no forwarding, no TLB fill, flat cost.
            return match env.aspace.walk(vaddr).0 {
                WalkOutcome::Mapped(pte) if pte.user => {
                    let wr = self.walker.walk(env.aspace, vaddr);
                    self.pmu
                        .bump(Event::DtlbLoadMissesMissCausesAWalk, wr.walks as u64);
                    self.pmu.bump(Event::DtlbLoadMissesWalkActive, wr.cycles);
                    self.pmu.bump(Event::DtlbLoadMissesWalkCompleted, 1);
                    self.sink.emit(EventKind::PageWalk {
                        vaddr,
                        cycles: wr.cycles,
                        mapped: true,
                    });
                    self.dtlb.fill(vaddr, pte);
                    self.sink.emit(EventKind::TlbFill {
                        kind: TlbKind::Data,
                        vaddr,
                    });
                    self.pmu.bump(Event::DtlbFills, 1);
                    (wr.cycles, Some(pte), None)
                }
                outcome => {
                    let kind = match outcome {
                        WalkOutcome::Mapped(_) => FaultKind::Permission,
                        WalkOutcome::NotPresent { .. } => FaultKind::NotPresent,
                        WalkOutcome::ReservedBit => FaultKind::ReservedBit,
                    };
                    self.pmu.bump(Event::DtlbLoadMissesMissCausesAWalk, 1);
                    self.sink.emit(EventKind::PageWalk {
                        vaddr,
                        cycles: self.cfg.walk.abort_cost,
                        mapped: matches!(outcome, WalkOutcome::Mapped(_)),
                    });
                    (self.cfg.walk.abort_cost, None, Some(Fault { kind, vaddr }))
                }
            };
        }

        let wr = self.walker.walk(env.aspace, vaddr);
        self.pmu
            .bump(Event::DtlbLoadMissesMissCausesAWalk, wr.walks as u64);
        self.pmu.bump(Event::DtlbLoadMissesWalkActive, wr.cycles);
        self.sink.emit(EventKind::PageWalk {
            vaddr,
            cycles: wr.cycles,
            mapped: matches!(wr.outcome, WalkOutcome::Mapped(_)),
        });
        match wr.outcome {
            WalkOutcome::Mapped(pte) => {
                self.pmu.bump(Event::DtlbLoadMissesWalkCompleted, 1);
                // Intel behaviour: the completed walk installs a TLB entry
                // even when the access itself will fault (TET-KASLR root
                // cause, paper §4.5 / §6.3).
                if pte.user || self.cfg.vuln.tlb_fill_on_fault {
                    self.dtlb.fill(vaddr, pte);
                    self.sink.emit(EventKind::TlbFill {
                        kind: TlbKind::Data,
                        vaddr,
                    });
                    self.pmu.bump(Event::DtlbFills, 1);
                }
                let fault = (!pte.user).then_some(Fault {
                    kind: FaultKind::Permission,
                    vaddr,
                });
                (wr.cycles, Some(pte), fault)
            }
            WalkOutcome::NotPresent { .. } => (
                wr.cycles,
                None,
                Some(Fault {
                    kind: FaultKind::NotPresent,
                    vaddr,
                }),
            ),
            WalkOutcome::ReservedBit => (
                wr.cycles,
                None,
                Some(Fault {
                    kind: FaultKind::ReservedBit,
                    vaddr,
                }),
            ),
        }
    }

    pub(super) fn do_load(&mut self, env: &mut Env<'_>, vaddr: u64, byte: bool) -> LoadResult {
        let (tlat, pte, fault) = self.mem_translate(env, vaddr);
        match (&fault, pte) {
            (None, Some(pte)) => {
                let pa = pte.frame * tet_mem::PAGE_SIZE + (vaddr % tet_mem::PAGE_SIZE);
                let da = env.mem.data_load(pa, env.phys);
                self.bump_hit_level(da.level);
                let value = if byte {
                    env.phys.read_u8(pa) as u64
                } else {
                    env.phys.read_u64(pa)
                };
                LoadResult {
                    latency: tlat + da.latency,
                    value,
                    fault: None,
                }
            }
            (Some(f), pte_opt) if f.kind == FaultKind::Permission => {
                // Meltdown path: data may be transiently forwarded — but
                // only when the line is already resident in the cache
                // hierarchy, as on real silicon (the fault microcode has
                // no time to wait for DRAM). An uncached target forwards
                // zero; the access still *initiates* a fill, so a later
                // retry succeeds once the kernel's data is resident.
                match (self.cfg.vuln.meltdown_forward, pte_opt) {
                    (ForwardPolicy::Data, Some(pte)) => {
                        let pa = pte.frame * tet_mem::PAGE_SIZE + (vaddr % tet_mem::PAGE_SIZE);
                        let cached = env.mem.probe_level(pa).is_some();
                        let da = env.mem.data_load(pa, env.phys);
                        if cached {
                            let value = if byte {
                                env.phys.read_u8(pa) as u64
                            } else {
                                env.phys.read_u64(pa)
                            };
                            LoadResult {
                                latency: tlat + da.latency,
                                value,
                                fault,
                            }
                        } else {
                            LoadResult {
                                latency: tlat + self.cfg.mem.l1d.latency,
                                value: 0,
                                fault,
                            }
                        }
                    }
                    _ => LoadResult {
                        latency: tlat + self.cfg.mem.l1d.latency,
                        value: 0,
                        fault,
                    },
                }
            }
            (Some(_), _) => {
                // NotPresent / ReservedBit: the Zombieload path — a
                // microcode-assisted load may forward stale LFB data.
                let value = if self.cfg.vuln.lfb_forward {
                    let off = (vaddr % tet_mem::LINE_SIZE) as usize;
                    if byte {
                        env.mem.lfb().stale_byte(off).unwrap_or(0) as u64
                    } else {
                        env.mem.lfb().stale_u64(off).unwrap_or(0)
                    }
                } else {
                    0
                };
                LoadResult {
                    latency: tlat + self.cfg.mem.l1d.latency,
                    value,
                    fault,
                }
            }
            (None, None) => unreachable!("no fault implies a PTE"),
        }
    }

    pub(super) fn do_store(
        &mut self,
        env: &mut Env<'_>,
        vaddr: u64,
    ) -> (u64, Option<u64>, Option<Fault>) {
        let (tlat, pte, fault) = self.mem_translate(env, vaddr);
        match (&fault, pte) {
            (None, Some(pte)) => {
                let pa = pte.frame * tet_mem::PAGE_SIZE + (vaddr % tet_mem::PAGE_SIZE);
                // The write-allocate fill proceeds in the background; the
                // store itself completes into the store buffer without
                // waiting for it (so fences don't absorb DRAM latency).
                let _ = env.mem.data_store(pa, env.phys);
                (tlat + 1, Some(pa), None)
            }
            _ => (tlat + 1, None, fault),
        }
    }

    pub(super) fn do_prefetch(&mut self, env: &mut Env<'_>, vaddr: u64) -> u64 {
        // Prefetches never fault and never retry failing walks: they are
        // dropped at the first irregularity. That walk-depth-only timing
        // is what FLARE's dummy mappings flatten (DESIGN.md §1).
        if let Some(e) = self.dtlb.lookup(vaddr) {
            self.sink.emit(EventKind::TlbLookup {
                kind: TlbKind::Data,
                vaddr,
                hit: true,
            });
            if e.pte.user {
                if let Some(pa) = env.aspace.translate(vaddr) {
                    let da = env.mem.data_load(pa, env.phys);
                    return 1 + da.latency;
                }
            }
            return 1;
        }
        self.sink.emit(EventKind::TlbLookup {
            kind: TlbKind::Data,
            vaddr,
            hit: false,
        });
        let (outcome, levels) = env.aspace.walk(vaddr);
        let walk_cost = levels as u64 * self.cfg.walk.level_cost;
        self.pmu.bump(Event::DtlbLoadMissesMissCausesAWalk, 1);
        self.pmu.bump(Event::DtlbLoadMissesWalkActive, walk_cost);
        self.sink.emit(EventKind::PageWalk {
            vaddr,
            cycles: walk_cost,
            mapped: matches!(outcome, WalkOutcome::Mapped(_)),
        });
        match outcome {
            WalkOutcome::Mapped(pte) if pte.user => {
                self.dtlb.fill(vaddr, pte);
                self.pmu.bump(Event::DtlbFills, 1);
                let pa = pte.frame * tet_mem::PAGE_SIZE + (vaddr % tet_mem::PAGE_SIZE);
                let da = env.mem.data_load(pa, env.phys);
                walk_cost + da.latency
            }
            _ => walk_cost,
        }
    }

    fn bump_hit_level(&mut self, level: HitLevel) {
        match level {
            HitLevel::L1 => self.pmu.bump(Event::MemLoadRetiredL1Hit, 1),
            HitLevel::L2 => {
                self.pmu.bump(Event::MemLoadRetiredL1Miss, 1);
                self.pmu.bump(Event::MemLoadRetiredL2Hit, 1);
            }
            HitLevel::Llc => {
                self.pmu.bump(Event::MemLoadRetiredL1Miss, 1);
                self.pmu.bump(Event::MemLoadRetiredL3Hit, 1);
            }
            HitLevel::Dram => {
                self.pmu.bump(Event::MemLoadRetiredL1Miss, 1);
                self.pmu.bump(Event::MemLoadRetiredL3Miss, 1);
            }
        }
    }
}
