//! Pre-decoded µop templates.
//!
//! A [`ProgramTemplate`] cracks every instruction of a [`Program`] once —
//! source/destination register lists, classification bits, the dense
//! opcode used by the execute dispatch table, the code virtual address
//! and its page — so the per-cycle fetch and rename stages instantiate
//! µops by indexing an immutable table instead of re-matching on the
//! instruction shape every trial. In-flight µops (`FetchedUop`,
//! `RobEntry`) carry only their pc: every stage that needs the decoded
//! instruction reads it here (`ProgramTemplate::inst`), so no µop
//! record copies it. Only the *work* of cracking moves out
//! of the hot path: the DSB/MITE front-end still models delivery
//! *timing* (hit/miss latency, DSB↔MITE switches) exactly as before, so
//! cycle-level behaviour is unchanged.
//!
//! Templates are pure functions of the program, so they are safely
//! shared across runs and threads behind an `Arc` (see
//! `RunCtx::template`).

use tet_isa::{Inst, Opcode, Program};

use crate::code_vaddr;
use crate::uop::{dest_regs, src_regs, RegList, UopKind};

/// One instruction's pre-cracked µop metadata.
#[derive(Debug, Clone)]
pub struct UopMeta {
    /// The decoded instruction.
    pub inst: Inst,
    /// Dense opcode — the execute dispatch-table index.
    pub op: Opcode,
    /// Classification bits (branch / memory / fence / …).
    pub kind: UopKind,
    /// Architectural source registers.
    pub srcs: RegList,
    /// Architectural destination registers.
    pub dests: RegList,
    /// Static mnemonic (for observability sinks).
    pub mnemonic: &'static str,
    /// Code virtual address of this instruction.
    pub vaddr: u64,
    /// Code page (`vaddr / PAGE_SIZE`) for ITLB/DSB indexing.
    pub page: u64,
}

/// An immutable pre-decoded program: the program itself plus one
/// [`UopMeta`] per instruction, indexed by pc.
#[derive(Debug)]
pub struct ProgramTemplate {
    program: Program,
    uops: Box<[UopMeta]>,
}

impl ProgramTemplate {
    /// Cracks `program` into a template.
    pub fn build(program: &Program) -> ProgramTemplate {
        let uops = (0..program.len())
            .map(|pc| {
                let inst = program.fetch(pc).expect("pc < program.len()");
                let vaddr = code_vaddr(pc);
                UopMeta {
                    inst,
                    op: inst.opcode(),
                    kind: UopKind::classify(&inst),
                    srcs: src_regs(&inst),
                    dests: dest_regs(&inst),
                    mnemonic: inst.mnemonic(),
                    vaddr,
                    page: vaddr / tet_mem::PAGE_SIZE,
                }
            })
            .collect();
        ProgramTemplate {
            program: program.clone(),
            uops,
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The pre-cracked metadata for `pc`, if within the program.
    #[inline]
    pub fn meta(&self, pc: usize) -> Option<&UopMeta> {
        self.uops.get(pc)
    }

    /// The decoded instruction at `pc`, which must be within the
    /// program (every in-flight µop's pc is: fetch stops at the end).
    #[inline]
    pub(crate) fn inst(&self, pc: usize) -> &Inst {
        &self.uops[pc].inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_isa::{Asm, Reg};

    #[test]
    fn template_matches_legacy_cracking() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 1);
        a.push(Reg::Rax);
        a.pop(Reg::Rbx);
        a.halt();
        let p = a.assemble().unwrap();
        let tpl = ProgramTemplate::build(&p);
        assert_eq!(tpl.len(), p.len());
        for pc in 0..p.len() {
            let inst = p.fetch(pc).unwrap();
            let m = tpl.meta(pc).unwrap();
            assert_eq!(m.inst, inst);
            assert_eq!(*tpl.inst(pc), inst);
            assert_eq!(m.op, inst.opcode());
            assert_eq!(m.kind, UopKind::classify(&inst));
            assert_eq!(m.srcs.as_slice(), src_regs(&inst).as_slice());
            assert_eq!(m.dests.as_slice(), dest_regs(&inst).as_slice());
            assert_eq!(m.mnemonic, inst.mnemonic());
            assert_eq!(m.vaddr, code_vaddr(pc));
            assert_eq!(m.page, code_vaddr(pc) / tet_mem::PAGE_SIZE);
        }
        assert!(tpl.meta(p.len()).is_none());
    }
}
