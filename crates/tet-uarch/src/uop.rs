//! µop / reorder-buffer entry definitions and dataflow metadata.

use std::num::NonZeroU64;

use tet_isa::{Flags, Inst, Opcode, Reg, Src};

/// Does this instruction occupy a store-buffer-style slot (writes memory
/// at retire)?
pub fn is_store_kind(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Store { .. } | Inst::StoreByte { .. } | Inst::Push { .. } | Inst::Call { .. }
    )
}

/// Does this instruction read memory through the load path?
pub fn is_load_kind(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Load { .. } | Inst::LoadByte { .. } | Inst::Pop { .. } | Inst::Ret
    )
}

/// Packed µop classification bits, computed once per instruction when a
/// [`ProgramTemplate`](crate::template::ProgramTemplate) is built so the
/// per-cycle pipeline stages test a bit instead of re-matching on the
/// instruction shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UopKind(u16);

impl UopKind {
    const BRANCH: u16 = 1 << 0;
    const MEMORY: u16 = 1 << 1;
    const FENCE: u16 = 1 << 2;
    const STORE_KIND: u16 = 1 << 3;
    const LOAD_KIND: u16 = 1 << 4;
    const HALT: u16 = 1 << 5;
    const CLFLUSH: u16 = 1 << 6;
    const READS_FLAGS: u16 = 1 << 7;
    const WRITES_FLAGS: u16 = 1 << 8;

    /// Classifies an instruction into its µop kind bits.
    pub fn classify(inst: &Inst) -> UopKind {
        let mut bits = 0u16;
        if inst.is_branch() {
            bits |= Self::BRANCH;
        }
        if inst.is_memory() {
            bits |= Self::MEMORY;
        }
        if inst.is_fence() {
            bits |= Self::FENCE;
        }
        if is_store_kind(inst) {
            bits |= Self::STORE_KIND;
        }
        if is_load_kind(inst) {
            bits |= Self::LOAD_KIND;
        }
        if matches!(inst, Inst::Halt) {
            bits |= Self::HALT;
        }
        if matches!(inst, Inst::Clflush { .. }) {
            bits |= Self::CLFLUSH;
        }
        if inst.reads_flags() {
            bits |= Self::READS_FLAGS;
        }
        if inst.writes_flags() {
            bits |= Self::WRITES_FLAGS;
        }
        UopKind(bits)
    }

    /// Control-flow instruction (mirrors [`Inst::is_branch`]).
    #[inline]
    pub fn is_branch(self) -> bool {
        self.0 & Self::BRANCH != 0
    }

    /// Memory access (mirrors [`Inst::is_memory`]).
    #[inline]
    pub fn is_memory(self) -> bool {
        self.0 & Self::MEMORY != 0
    }

    /// Fence (mirrors [`Inst::is_fence`]).
    #[inline]
    pub fn is_fence(self) -> bool {
        self.0 & Self::FENCE != 0
    }

    /// Occupies a store-buffer slot (mirrors [`is_store_kind`]).
    #[inline]
    pub fn is_store_kind(self) -> bool {
        self.0 & Self::STORE_KIND != 0
    }

    /// Reads memory through the load path (mirrors [`is_load_kind`]).
    #[inline]
    pub fn is_load_kind(self) -> bool {
        self.0 & Self::LOAD_KIND != 0
    }

    /// The halt instruction.
    #[inline]
    pub fn is_halt(self) -> bool {
        self.0 & Self::HALT != 0
    }

    /// A cache-line flush.
    #[inline]
    pub fn is_clflush(self) -> bool {
        self.0 & Self::CLFLUSH != 0
    }

    /// Reads the arithmetic flags (mirrors [`Inst::reads_flags`]).
    #[inline]
    pub fn reads_flags(self) -> bool {
        self.0 & Self::READS_FLAGS != 0
    }

    /// Writes the arithmetic flags (mirrors [`Inst::writes_flags`]).
    #[inline]
    pub fn writes_flags(self) -> bool {
        self.0 & Self::WRITES_FLAGS != 0
    }
}

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Translation exists but the access mode is not permitted
    /// (user-mode access to a supervisor page) — the Meltdown path,
    /// handled by the exception microcode at retirement.
    Permission,
    /// No translation — the Zombieload / unmapped-probe path, handled by
    /// a microcode assist (machine clear) at retirement.
    NotPresent,
    /// A reserved-bit PTE terminated the walk (FLARE dummy pages);
    /// handled like [`FaultKind::NotPresent`].
    ReservedBit,
}

impl FaultKind {
    /// The observability-crate spelling of this fault class.
    pub fn to_obs(self) -> tet_obs::FaultClass {
        match self {
            FaultKind::Permission => tet_obs::FaultClass::Permission,
            FaultKind::NotPresent => tet_obs::FaultClass::NotPresent,
            FaultKind::ReservedBit => tet_obs::FaultClass::ReservedBit,
        }
    }
}

/// A fault recorded on a µop during execution, delivered at retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The fault class.
    pub kind: FaultKind,
    /// Faulting virtual address.
    pub vaddr: u64,
}

/// How a fault left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRoute {
    /// Architectural exception → signal handler (or run termination).
    Exception,
    /// Microcode assist / machine clear, then the exception.
    MachineClear,
    /// TSX abort → transaction fallback path, no exception.
    TxnAbort,
}

impl FaultRoute {
    /// The observability-crate spelling of this delivery route.
    pub fn to_obs(self) -> tet_obs::DeliveryRoute {
        match self {
            FaultRoute::Exception => tet_obs::DeliveryRoute::Exception,
            FaultRoute::MachineClear => tet_obs::DeliveryRoute::MachineClear,
            FaultRoute::TxnAbort => tet_obs::DeliveryRoute::TxnAbort,
        }
    }
}

/// One source operand dependency, resolved at rename time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Depends on an architectural register.
    Reg(Reg),
    /// Depends on the arithmetic flags.
    Flags,
}

/// A µop id stored as `id + 1` in a `NonZeroU64`, so `Option<UopId>`
/// takes 8 bytes instead of 16. ROB entries carry several optional ids
/// (every dependency's producer, both waiter-list links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopId(NonZeroU64);

impl UopId {
    /// Packs the µop id `id`.
    #[inline]
    pub fn new(id: u64) -> UopId {
        UopId(NonZeroU64::MIN.saturating_add(id))
    }

    /// The µop id.
    #[inline]
    pub fn get(self) -> u64 {
        self.0.get() - 1
    }
}

/// `RobEntry::forward_at`/`done_at` before the µop executes: a cycle no
/// run reaches, so "ready at `now`" is a plain `<=` comparison.
pub const NOT_EXECUTED: u64 = u64::MAX;

/// A renamed dependency: which operand, and (if in flight at rename time)
/// the producing µop's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Operand kind.
    pub kind: DepKind,
    /// Producing µop id, or `None` if the committed state was current at
    /// rename time.
    pub producer: Option<UopId>,
}

/// Inline, allocation-free dependency list. An instruction has at most
/// three register sources plus the flags, so four slots always suffice —
/// renaming a µop never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepList {
    len: u8,
    items: [Dep; 4],
}

impl Default for DepList {
    fn default() -> Self {
        DepList {
            len: 0,
            items: [Dep {
                kind: DepKind::Flags,
                producer: None,
            }; 4],
        }
    }
}

impl DepList {
    /// Creates an empty list.
    pub fn new() -> DepList {
        DepList::default()
    }

    /// Appends a dependency.
    ///
    /// # Panics
    ///
    /// Panics if the fixed capacity (4) is exceeded — impossible for any
    /// instruction in the ISA.
    pub fn push(&mut self, d: Dep) {
        self.items[self.len as usize] = d;
        self.len += 1;
    }

    /// The dependencies as a slice.
    pub fn as_slice(&self) -> &[Dep] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the dependencies.
    pub fn iter(&self) -> std::slice::Iter<'_, Dep> {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a DepList {
    type Item = &'a Dep;
    type IntoIter = std::slice::Iter<'a, Dep>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Inline, allocation-free register-result list. A µop writes at most
/// two registers (`pop` writes the destination and `rsp`), so two slots
/// suffice — recording execution results never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultList {
    len: u8,
    items: [(Reg, u64); 2],
}

impl Default for ResultList {
    fn default() -> Self {
        ResultList {
            len: 0,
            items: [(Reg::Rax, 0); 2],
        }
    }
}

impl ResultList {
    /// Creates an empty list.
    pub fn new() -> ResultList {
        ResultList::default()
    }

    /// Appends a `(register, value)` result.
    ///
    /// # Panics
    ///
    /// Panics if the fixed capacity (2) is exceeded — impossible for any
    /// instruction in the ISA.
    pub fn push(&mut self, reg: Reg, value: u64) {
        self.items[self.len as usize] = (reg, value);
        self.len += 1;
    }

    /// The results as a slice.
    pub fn as_slice(&self) -> &[(Reg, u64)] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the results.
    pub fn iter(&self) -> std::slice::Iter<'_, (Reg, u64)> {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a ResultList {
    type Item = &'a (Reg, u64);
    type IntoIter = std::slice::Iter<'a, (Reg, u64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Inline, allocation-free register list returned by [`dest_regs`] and
/// [`src_regs`] (at most three: e.g. a store's data register plus a
/// base+index address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegList {
    len: u8,
    regs: [Reg; 3],
}

impl Default for RegList {
    fn default() -> Self {
        RegList {
            len: 0,
            regs: [Reg::Rax; 3],
        }
    }
}

impl RegList {
    /// Creates an empty list.
    pub fn new() -> RegList {
        RegList::default()
    }

    /// Appends a register.
    ///
    /// # Panics
    ///
    /// Panics if the fixed capacity (3) is exceeded — impossible for any
    /// instruction in the ISA.
    pub fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    /// Appends every register yielded by `it`.
    pub fn extend(&mut self, it: impl IntoIterator<Item = Reg>) {
        for r in it {
            self.push(r);
        }
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl IntoIterator for RegList {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

/// In-flight store bookkeeping (architectural write happens at retire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Virtual address.
    pub vaddr: u64,
    /// Translated physical address (stores that fault have none).
    pub pa: Option<u64>,
    /// Value to write.
    pub value: u64,
    /// Whether this is a 1-byte store.
    pub byte: bool,
}

/// One reorder-buffer entry. Plain data (`Copy`): renaming, squashing
/// and retiring an entry never touch a reference count or the heap.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Monotonic µop id (age order).
    pub id: u64,
    /// Instruction index this µop came from; the decoded instruction
    /// is read from the run's [`crate::ProgramTemplate`] by this pc.
    pub pc: usize,
    /// Frontend-predicted next instruction index.
    pub pred_next: usize,
    /// Renamed source dependencies.
    pub deps: DepList,
    /// Whether execution has started.
    pub started: bool,
    /// Cycle the result becomes available to dependents
    /// ([`NOT_EXECUTED`] until execution starts).
    pub forward_at: u64,
    /// Cycle the µop becomes retirement-eligible (later than
    /// `forward_at` for faulting loads — that gap *is* the transient
    /// window; [`NOT_EXECUTED`] until execution starts).
    pub done_at: u64,
    /// Register results `(reg, value)` (up to two: e.g. `pop` writes the
    /// destination and `rsp`).
    pub results: ResultList,
    /// Flags result, if the µop writes flags.
    pub flags_out: Option<Flags>,
    /// Fault recorded during execution, if any.
    pub fault: Option<Fault>,
    /// Resolved next pc (branches only).
    pub actual_next: Option<usize>,
    /// Whether branch resolution bookkeeping has run.
    pub resolved: bool,
    /// Whether the branch turned out mispredicted.
    pub mispredicted: bool,
    /// Pending store data.
    pub store: Option<StoreInfo>,
    /// Innermost TSX abort target covering this µop, if any.
    pub txn_abort: Option<usize>,
    /// Speculative transaction stack *after* this µop renamed, as an
    /// index into the core's per-run stack arena (0 = empty stack);
    /// rebuilds rename state on a partial squash.
    pub txn_snapshot: u32,
    /// Template-derived classification bits (branch / memory / fence /
    /// store-kind / …), so pipeline stages never re-match on the
    /// instruction.
    pub kind: UopKind,
    /// Template-derived architectural destination registers.
    pub dests: RegList,
    /// Dense opcode — the index into the execute dispatch table.
    pub op: Opcode,
    /// Earliest cycle the scheduler needs to re-evaluate this µop
    /// (0 = evaluate immediately, `u64::MAX` = parked on a producer's
    /// waiter list until woken).
    pub wake_at: u64,
    /// Head of the intrusive list of µop ids parked on *this* entry's
    /// result (woken when this entry executes).
    pub waiter_head: Option<UopId>,
    /// Next µop id in the waiter list *this* entry is parked on.
    pub next_waiter: Option<UopId>,
}

impl RobEntry {
    /// Whether the µop has finished executing and may retire at `now`.
    pub fn retire_ready(&self, now: u64) -> bool {
        self.done_at <= now
    }

    /// Whether the result is available to dependents at `now`.
    pub fn forward_ready(&self, now: u64) -> bool {
        self.forward_at <= now
    }

    /// The value this µop produced for register `r`, if any.
    pub fn result_for(&self, r: Reg) -> Option<u64> {
        self.results
            .iter()
            .find(|(reg, _)| *reg == r)
            .map(|(_, v)| *v)
    }
}

/// Architectural destination registers of an instruction (including the
/// stack-pointer side effects of push/pop/call/ret).
pub fn dest_regs(inst: &Inst) -> RegList {
    let mut v = RegList::new();
    if let Some(d) = inst.dest_reg() {
        v.push(d);
    }
    match inst {
        Inst::Push { .. } | Inst::Call { .. } | Inst::Ret => v.push(Reg::Rsp),
        Inst::Pop { .. } => v.push(Reg::Rsp),
        _ => {}
    }
    v
}

/// Architectural source registers of an instruction.
pub fn src_regs(inst: &Inst) -> RegList {
    let mut v = RegList::new();
    match inst {
        Inst::MovReg { src, .. } => v.push(*src),
        Inst::Load { addr, .. }
        | Inst::LoadByte { addr, .. }
        | Inst::Lea { addr, .. }
        | Inst::Clflush { addr }
        | Inst::Prefetch { addr } => v.extend(addr.srcs()),
        Inst::Store { src, addr } | Inst::StoreByte { src, addr } => {
            v.push(*src);
            v.extend(addr.srcs());
        }
        Inst::Alu { dst, src, .. } => {
            v.push(*dst);
            if let Src::Reg(r) = src {
                v.push(*r);
            }
        }
        Inst::Cmp { a, b } | Inst::Test { a, b } => {
            v.push(*a);
            if let Src::Reg(r) = b {
                v.push(*r);
            }
        }
        Inst::JmpReg { reg } => v.push(*reg),
        Inst::Push { src } => {
            v.push(*src);
            v.push(Reg::Rsp);
        }
        Inst::Pop { .. } | Inst::Call { .. } | Inst::Ret => v.push(Reg::Rsp),
        _ => {}
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_isa::{Addr, Cond};

    #[test]
    fn dest_regs_cover_stack_ops() {
        assert_eq!(
            dest_regs(&Inst::Push { src: Reg::Rax }).as_slice(),
            &[Reg::Rsp]
        );
        assert_eq!(
            dest_regs(&Inst::Pop { dst: Reg::Rbx }).as_slice(),
            &[Reg::Rbx, Reg::Rsp]
        );
        assert_eq!(dest_regs(&Inst::Call { target: 3 }).as_slice(), &[Reg::Rsp]);
        assert_eq!(dest_regs(&Inst::Ret).as_slice(), &[Reg::Rsp]);
        assert_eq!(dest_regs(&Inst::Rdtsc).as_slice(), &[Reg::Rax]);
        assert!(dest_regs(&Inst::Nop).is_empty());
    }

    #[test]
    fn src_regs_cover_memory_operands() {
        let addr = Addr::base_index(Reg::Rbx, Reg::Rcx, 8, 0);
        assert_eq!(
            src_regs(&Inst::Load {
                dst: Reg::Rax,
                addr
            })
            .as_slice(),
            &[Reg::Rbx, Reg::Rcx]
        );
        assert_eq!(
            src_regs(&Inst::Store {
                src: Reg::Rdx,
                addr
            })
            .as_slice(),
            &[Reg::Rdx, Reg::Rbx, Reg::Rcx]
        );
        assert_eq!(src_regs(&Inst::Ret).as_slice(), &[Reg::Rsp]);
        assert!(src_regs(&Inst::Jcc {
            cond: Cond::E,
            target: 0
        })
        .is_empty());
    }

    #[test]
    fn inline_lists_hold_their_capacity() {
        let mut d = DepList::new();
        for i in 0..4 {
            d.push(Dep {
                kind: DepKind::Reg(Reg::Rax),
                producer: Some(UopId::new(i)),
            });
        }
        assert_eq!(d.as_slice().len(), 4);
        assert_eq!(
            d.iter()
                .filter_map(|x| x.producer)
                .map(UopId::get)
                .sum::<u64>(),
            6
        );

        let mut r = ResultList::new();
        r.push(Reg::Rbx, 1);
        r.push(Reg::Rsp, 2);
        assert_eq!(r.as_slice(), &[(Reg::Rbx, 1), (Reg::Rsp, 2)]);

        let mut l = RegList::new();
        l.extend([Reg::Rax, Reg::Rbx, Reg::Rcx]);
        assert_eq!(l.into_iter().collect::<Vec<_>>().len(), 3);
    }

    #[test]
    fn retire_and_forward_readiness() {
        let mut e = RobEntry {
            id: 0,
            pc: 0,
            pred_next: 1,
            deps: DepList::new(),
            started: true,
            forward_at: 5,
            done_at: 9,
            results: {
                let mut r = ResultList::new();
                r.push(Reg::Rax, 7);
                r
            },
            flags_out: None,
            fault: None,
            actual_next: None,
            resolved: false,
            mispredicted: false,
            store: None,
            txn_abort: None,
            txn_snapshot: 0,
            kind: UopKind::classify(&Inst::Nop),
            dests: RegList::new(),
            op: Opcode::Nop,
            wake_at: 0,
            waiter_head: None,
            next_waiter: None,
        };
        assert!(!e.forward_ready(4));
        assert!(e.forward_ready(5));
        assert!(!e.retire_ready(8));
        assert!(e.retire_ready(9));
        assert_eq!(e.result_for(Reg::Rax), Some(7));
        assert_eq!(e.result_for(Reg::Rbx), None);
        e.done_at = NOT_EXECUTED;
        assert!(!e.retire_ready(100));
    }
}
