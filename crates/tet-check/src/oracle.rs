//! The retirement differential oracle.
//!
//! The out-of-order core drives an [`Oracle`] in lockstep with its own
//! retirement stream: one [`Oracle::on_retire`] per committed µop, one
//! [`Oracle::on_fault`] per delivered fault, one [`Oracle::on_run_end`]
//! when the run exits. The oracle steps the in-order [`RefInterp`] the
//! same distance and compares the *complete* architectural state —
//! program counter, all sixteen registers, flags, memory effects and
//! fault identity — panicking with a readable diff on the first
//! divergence (the `try_*` variants return it instead, for tests that
//! assert a divergence *is* caught).

use tet_isa::reg::RegFile;
use tet_isa::{Flags, Program, Reg};
use tet_mem::{AddressSpace, PhysMem};

use crate::interp::{ArchFault, ArchFaultKind, InterpConfig, InterpState, RefInterp, StepOutcome};

/// What the machine reports for one committed µop.
#[derive(Debug, Clone, Copy)]
pub struct RetiredUop<'a> {
    /// Instruction index of the retired µop.
    pub pc: usize,
    /// The machine's committed registers *after* this commit (but before
    /// its store reaches memory — the oracle is called in between).
    pub regs: &'a RegFile,
    /// The machine's committed flags after this commit.
    pub flags: Flags,
    /// The store this µop performs at commit, if any.
    pub store: Option<CommittedStore>,
}

/// A store as the machine commits it (`tet_uarch::StoreInfo` shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedStore {
    /// Virtual address.
    pub vaddr: u64,
    /// Translated physical address (`None` never reaches commit).
    pub pa: Option<u64>,
    /// Full register value (byte stores write its low byte).
    pub value: u64,
    /// Whether this is a 1-byte store.
    pub byte: bool,
}

/// What the machine reports for one delivered fault.
#[derive(Debug, Clone, Copy)]
pub struct DeliveredFault<'a> {
    /// Instruction index of the faulting µop.
    pub pc: usize,
    /// Faulting virtual address.
    pub vaddr: u64,
    /// Fault class.
    pub kind: ArchFaultKind,
    /// Where execution resumes (`None`: the run terminates). Reported
    /// *after* any transaction rollback.
    pub resume: Option<usize>,
    /// Committed registers after delivery (post-rollback for aborts).
    pub regs: &'a RegFile,
    /// Committed flags after delivery.
    pub flags: Flags,
}

/// How the machine says the run ended (mirror of `tet_uarch::RunExit`
/// without the record payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitClass {
    /// A `Halt` retired.
    Halted,
    /// The cycle budget ran out mid-program (no final-state check — the
    /// per-retire checks already covered everything that committed).
    CycleLimit,
    /// A fault with no handler and no transaction.
    UnhandledFault {
        /// Faulting instruction index.
        pc: usize,
        /// Faulting virtual address.
        vaddr: u64,
        /// Fault class.
        kind: ArchFaultKind,
    },
    /// Control flow ran past the last instruction.
    RanOffEnd,
}

/// A divergence between the machine and the reference interpreter.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Instruction index the machine reported.
    pub pc: usize,
    /// Retired µops successfully checked before this one.
    pub checked: u64,
    /// Human-readable diff.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retirement oracle divergence at pc {} (after {} verified retirements):\n{}",
            self.pc, self.checked, self.detail
        )
    }
}

impl std::error::Error for Divergence {}

/// The retirement differential oracle (see module docs).
#[derive(Debug, Clone)]
pub struct Oracle {
    interp: RefInterp,
    checked: u64,
}

/// Diffs the full register/flag state between machine and reference;
/// `None` means they agree.
fn state_diff(m_regs: &RegFile, m_flags: Flags, r: &RefInterp) -> Option<String> {
    let mut out = String::new();
    for &reg in Reg::ALL {
        let (mv, rv) = (m_regs.get(reg), r.regs().get(reg));
        if mv != rv {
            out.push_str(&format!(
                "  {reg:?}: machine {mv:#x} != reference {rv:#x}\n"
            ));
        }
    }
    if m_flags != r.flags() {
        out.push_str(&format!(
            "  flags: machine {:?} != reference {:?}\n",
            m_flags,
            r.flags()
        ));
    }
    (!out.is_empty()).then_some(out)
}

impl Oracle {
    /// Creates an oracle for one run of `program`. Accepts an owned
    /// [`Program`] or a shared `Arc<Program>`; check-mode callers that
    /// re-run the same program pass the `Arc` to avoid a per-run clone.
    pub fn new(
        program: impl Into<std::sync::Arc<Program>>,
        cfg: InterpConfig,
        init_regs: &[(Reg, u64)],
    ) -> Self {
        Oracle {
            interp: RefInterp::new(program, cfg, init_regs),
            checked: 0,
        }
    }

    /// Retired µops verified so far.
    pub fn checked_uops(&self) -> u64 {
        self.checked
    }

    /// The reference interpreter (for post-run inspection in tests).
    pub fn interp(&self) -> &RefInterp {
        &self.interp
    }

    fn diverge(&self, pc: usize, detail: String) -> Divergence {
        Divergence {
            pc,
            checked: self.checked,
            detail,
        }
    }

    /// Checks one committed µop; returns the divergence instead of
    /// panicking.
    pub fn try_retire(
        &mut self,
        u: &RetiredUop<'_>,
        aspace: &AddressSpace,
        phys: &PhysMem,
    ) -> Result<(), Divergence> {
        if self.interp.state() != InterpState::Running {
            return Err(self.diverge(
                u.pc,
                format!(
                    "machine retired pc {} but the reference already ended: {:?}\n",
                    u.pc,
                    self.interp.state()
                ),
            ));
        }
        let exp_pc = self.interp.pc();
        if u.pc != exp_pc {
            return Err(self.diverge(
                u.pc,
                format!(
                    "machine retired pc {}, reference expects pc {exp_pc}\n",
                    u.pc
                ),
            ));
        }
        let inst = self.interp.program().fetch(exp_pc);
        // `rdtsc` value adoption: time is not architectural, so the
        // reference takes the machine's committed rax as the tsc.
        let tsc = u.regs.get(Reg::Rax);
        match self.interp.step(aspace, phys, tsc) {
            StepOutcome::Retired(eff) => {
                let ref_store = eff.store.map(|w| CommittedStore {
                    vaddr: w.vaddr,
                    pa: Some(w.pa),
                    value: w.value,
                    byte: w.byte,
                });
                if u.store != ref_store {
                    return Err(self.diverge(
                        u.pc,
                        format!(
                            "store effect mismatch at pc {} ({inst:?}):\n  machine   {:?}\n  reference {:?}\n",
                            u.pc, u.store, ref_store
                        ),
                    ));
                }
                if let Some(diff) = state_diff(u.regs, u.flags, &self.interp) {
                    return Err(self.diverge(
                        u.pc,
                        format!("state mismatch after pc {} ({inst:?}):\n{diff}", u.pc),
                    ));
                }
            }
            StepOutcome::Faulted(f) => {
                return Err(self.diverge(
                    u.pc,
                    format!(
                        "machine retired pc {} ({inst:?}) but the reference faults there: {:?}\n",
                        u.pc, f.fault
                    ),
                ));
            }
            StepOutcome::OffEnd | StepOutcome::Ended => {
                return Err(self.diverge(
                    u.pc,
                    format!(
                        "machine retired pc {} past the reference program end\n",
                        u.pc
                    ),
                ));
            }
        }
        self.checked += 1;
        Ok(())
    }

    /// Checks one committed µop, panicking with a diff on divergence.
    ///
    /// # Panics
    ///
    /// Panics if the machine's commit diverges from the reference.
    pub fn on_retire(&mut self, u: &RetiredUop<'_>, aspace: &AddressSpace, phys: &PhysMem) {
        if let Err(d) = self.try_retire(u, aspace, phys) {
            panic!("{d}");
        }
    }

    /// Checks one delivered fault; returns the divergence instead of
    /// panicking.
    pub fn try_fault(
        &mut self,
        f: &DeliveredFault<'_>,
        aspace: &AddressSpace,
        phys: &PhysMem,
    ) -> Result<(), Divergence> {
        if self.interp.state() != InterpState::Running {
            return Err(self.diverge(
                f.pc,
                format!(
                    "machine delivered a fault at pc {} but the reference already ended: {:?}\n",
                    f.pc,
                    self.interp.state()
                ),
            ));
        }
        let exp_pc = self.interp.pc();
        if f.pc != exp_pc {
            return Err(self.diverge(
                f.pc,
                format!(
                    "machine faulted at pc {}, reference expects pc {exp_pc}\n",
                    f.pc
                ),
            ));
        }
        match self.interp.step(aspace, phys, 0) {
            StepOutcome::Faulted(rf) => {
                let machine_fault = ArchFault {
                    kind: f.kind,
                    vaddr: f.vaddr,
                };
                if machine_fault != rf.fault {
                    return Err(self.diverge(
                        f.pc,
                        format!(
                            "fault identity mismatch at pc {}:\n  machine   {machine_fault:?}\n  reference {:?}\n",
                            f.pc, rf.fault
                        ),
                    ));
                }
                if f.resume != rf.resume {
                    return Err(self.diverge(
                        f.pc,
                        format!(
                            "fault resume mismatch at pc {}: machine {:?}, reference {:?}\n",
                            f.pc, f.resume, rf.resume
                        ),
                    ));
                }
                if let Some(diff) = state_diff(f.regs, f.flags, &self.interp) {
                    return Err(self.diverge(
                        f.pc,
                        format!(
                            "state mismatch after fault delivery at pc {}:\n{diff}",
                            f.pc
                        ),
                    ));
                }
            }
            StepOutcome::Retired(_) => {
                return Err(self.diverge(
                    f.pc,
                    format!(
                        "machine faulted at pc {} but the reference retires that instruction\n",
                        f.pc
                    ),
                ));
            }
            StepOutcome::OffEnd | StepOutcome::Ended => {
                return Err(self.diverge(
                    f.pc,
                    format!(
                        "machine faulted at pc {} past the reference program end\n",
                        f.pc
                    ),
                ));
            }
        }
        self.checked += 1;
        Ok(())
    }

    /// Checks one delivered fault, panicking with a diff on divergence.
    ///
    /// # Panics
    ///
    /// Panics if the machine's fault delivery diverges from the
    /// reference.
    pub fn on_fault(&mut self, f: &DeliveredFault<'_>, aspace: &AddressSpace, phys: &PhysMem) {
        if let Err(d) = self.try_fault(f, aspace, phys) {
            panic!("{d}");
        }
    }

    /// Checks the run exit; returns the divergence instead of panicking.
    pub fn try_run_end(
        &mut self,
        exit: ExitClass,
        regs: &RegFile,
        flags: Flags,
    ) -> Result<(), Divergence> {
        let pc = self.interp.pc();
        match exit {
            // A cycle-limited run stops mid-program; every retirement up
            // to the cut was already checked individually.
            ExitClass::CycleLimit => return Ok(()),
            ExitClass::Halted => {
                if self.interp.state() != InterpState::Halted {
                    return Err(self.diverge(
                        pc,
                        format!(
                            "machine halted but the reference is {:?} at pc {pc}\n",
                            self.interp.state()
                        ),
                    ));
                }
            }
            ExitClass::UnhandledFault {
                pc: fpc,
                vaddr,
                kind,
            } => {
                let expect = InterpState::UnhandledFault(ArchFault { kind, vaddr });
                if self.interp.state() != expect {
                    return Err(self.diverge(
                        fpc,
                        format!(
                            "machine exited on an unhandled fault {kind:?}@{vaddr:#x} (pc {fpc}) but the reference is {:?}\n",
                            self.interp.state()
                        ),
                    ));
                }
            }
            ExitClass::RanOffEnd => {
                let off_end = self.interp.state() == InterpState::Running
                    && self.interp.program().fetch(pc).is_none();
                if !off_end {
                    return Err(self.diverge(
                        pc,
                        format!(
                            "machine ran off the program end but the reference is {:?} at pc {pc}\n",
                            self.interp.state()
                        ),
                    ));
                }
            }
        }
        if let Some(diff) = state_diff(regs, flags, &self.interp) {
            return Err(self.diverge(pc, format!("final state mismatch ({exit:?}):\n{diff}")));
        }
        Ok(())
    }

    /// Checks the run exit, panicking with a diff on divergence.
    ///
    /// # Panics
    ///
    /// Panics if the machine's exit state diverges from the reference.
    pub fn on_run_end(&mut self, exit: ExitClass, regs: &RegFile, flags: Flags) {
        if let Err(d) = self.try_run_end(exit, regs, flags) {
            panic!("{d}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_isa::Asm;

    #[test]
    fn oracle_accepts_a_matching_retirement_stream() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 7).add(Reg::Rax, 1u64).halt();
        let program = a.assemble().unwrap();
        let aspace = AddressSpace::new();
        let phys = PhysMem::new();
        let mut oracle = Oracle::new(program, InterpConfig::default(), &[]);

        // Simulate the machine's commit stream by hand.
        let mut regs = RegFile::new();
        let mut flags = Flags::default();
        regs.set(Reg::Rax, 7);
        oracle.on_retire(
            &RetiredUop {
                pc: 0,
                regs: &regs,
                flags,
                store: None,
            },
            &aspace,
            &phys,
        );
        regs.set(Reg::Rax, 8);
        flags = Flags::from_add(7, 1);
        oracle.on_retire(
            &RetiredUop {
                pc: 1,
                regs: &regs,
                flags,
                store: None,
            },
            &aspace,
            &phys,
        );
        oracle.on_retire(
            &RetiredUop {
                pc: 2,
                regs: &regs,
                flags,
                store: None,
            },
            &aspace,
            &phys,
        );
        oracle.on_run_end(ExitClass::Halted, &regs, flags);
        assert_eq!(oracle.checked_uops(), 3);
    }

    #[test]
    fn oracle_flags_a_wrong_register_value() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 7).halt();
        let program = a.assemble().unwrap();
        let aspace = AddressSpace::new();
        let phys = PhysMem::new();
        let mut oracle = Oracle::new(program, InterpConfig::default(), &[]);
        let mut regs = RegFile::new();
        regs.set(Reg::Rax, 8); // wrong: should be 7
        let err = oracle
            .try_retire(
                &RetiredUop {
                    pc: 0,
                    regs: &regs,
                    flags: Flags::default(),
                    store: None,
                },
                &aspace,
                &phys,
            )
            .unwrap_err();
        assert!(err.detail.contains("Rax"), "diff names the register: {err}");
    }

    #[test]
    fn oracle_flags_a_skipped_instruction() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 7).mov_imm(Reg::Rbx, 8).halt();
        let program = a.assemble().unwrap();
        let aspace = AddressSpace::new();
        let phys = PhysMem::new();
        let mut oracle = Oracle::new(program, InterpConfig::default(), &[]);
        let regs = RegFile::new();
        let err = oracle
            .try_retire(
                &RetiredUop {
                    pc: 1, // skipped pc 0
                    regs: &regs,
                    flags: Flags::default(),
                    store: None,
                },
                &aspace,
                &phys,
            )
            .unwrap_err();
        assert!(err.detail.contains("expects pc 0"), "{err}");
    }
}
