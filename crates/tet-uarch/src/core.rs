//! The out-of-order core: fetch → rename → schedule/execute → resolve →
//! retire, with full speculative squash and delayed fault handling.
//!
//! The cycle loop implements the three calibrated mechanisms of
//! DESIGN.md §1:
//!
//! 1. **Exception-entry serialization** — retirement delays delivery of
//!    a permission fault until any in-progress branch-recovery window
//!    ends, so an in-window mispredicted Jcc *lengthens* the measured
//!    transient time (TET-Meltdown).
//! 2. **Occupancy-proportional squash** — machine clears and branch
//!    resteers pay `clear_cost_per_uop` per in-flight µop, so an inner
//!    squash that already emptied the window makes the terminal squash
//!    cheaper and *shortens* the measured time (TET-ZBL, TET-RSB).
//! 3. **Walk-retry on failing translations** — failing page walks retried
//!    per [`tet_mem::WalkConfig`] make unmapped probes slower than mapped
//!    ones (TET-KASLR).

use tet_isa::reg::RegFile;
use tet_isa::{Flags, Inst, Opcode, Program, Reg};
use tet_mem::{AddressSpace, HitLevel, MemorySystem, PageWalker, PhysMem, Pte, Tlb, WalkOutcome};
use tet_obs::{EventKind, SinkHandle, SquashCause, TlbKind};
use tet_pmu::{Event, Pmu};

use crate::config::{CpuConfig, ForwardPolicy};
use crate::frontend::{Dsb, FetchedUop};
use crate::ring::Ring;
use crate::rob::Rob;
use crate::template::ProgramTemplate;
use crate::uop::FaultRoute;
use crate::uop::{
    Dep, DepKind, DepList, Fault, FaultKind, ResultList, RobEntry, StoreInfo, UopId, NOT_EXECUTED,
};
use crate::Bpu;

/// Borrowed environment a core steps against (shared by both SMT threads).
#[derive(Debug)]
pub struct Env<'a> {
    /// The (core-shared) cache hierarchy and fill buffers.
    pub mem: &'a mut MemorySystem,
    /// Physical memory contents.
    pub phys: &'a mut PhysMem,
    /// The active address space of this thread.
    pub aspace: &'a AddressSpace,
    /// Retirement differential oracle, when the run is in check mode
    /// (`None` costs one branch per commit). SMT runs are not checked.
    pub check: Option<&'a mut tet_check::Oracle>,
    /// The running program's pre-decoded µops. In-flight µop records
    /// carry only a pc; every stage reads the instruction from here.
    pub template: &'a ProgramTemplate,
}

/// The `tet-check` spelling of a fault class.
pub(crate) fn check_fault_kind(k: FaultKind) -> tet_check::ArchFaultKind {
    match k {
        FaultKind::Permission => tet_check::ArchFaultKind::Permission,
        FaultKind::NotPresent => tet_check::ArchFaultKind::NotPresent,
        FaultKind::ReservedBit => tet_check::ArchFaultKind::ReservedBit,
    }
}

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

/// Core invariant checks (DESIGN.md §9): active in every debug build,
/// and in release builds when check mode is on (`TET_CHECK=1`). `$on`
/// is the core's per-run `invariants` flag, which `reset_run` sets from
/// that condition, so release runs without check mode pay one
/// predictable branch on a plain field.
macro_rules! tet_invariant {
    ($on:expr, $cond:expr, $($msg:tt)+) => {
        if $on && !$cond {
            panic!($($msg)+);
        }
    };
}

/// How a program run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// A `Halt` instruction retired.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A fault was raised with no signal handler and no transaction.
    UnhandledFault(ExceptionRecord),
    /// Control flow ran past the last instruction.
    RanOffEnd,
}

/// One delivered fault (exception, machine clear, or TSX abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExceptionRecord {
    /// Instruction index of the faulting µop.
    pub pc: usize,
    /// Faulting virtual address.
    pub vaddr: u64,
    /// Fault class.
    pub kind: FaultKind,
    /// Delivery route.
    pub route: FaultRoute,
    /// Cycle the fault reached retirement.
    pub detected_at: u64,
    /// Cycle architectural execution resumed (handler / abort target).
    pub delivered_at: u64,
}

/// Per-step notifications for the SMT wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepEvents {
    /// Set when this thread initiated a whole-pipeline flush
    /// (exception / machine clear / TSX abort) lasting until the given
    /// cycle — the sibling thread observes the bubble (§4.4).
    pub flush_until: Option<u64>,
}

struct LoadResult {
    latency: u64,
    value: u64,
    fault: Option<Fault>,
}

/// Outcome of one scheduler source-readiness evaluation.
enum DepVerdict {
    /// All sources are forward-ready now.
    Ready,
    /// All producers executed; the last one forwards at this cycle.
    WakeAt(u64),
    /// This producer has not executed yet — park on its waiter list.
    Park(u64),
}

/// One frame of the speculative TSX-stack arena: the innermost abort
/// target and the index of the stack below it.
#[derive(Debug, Clone, Copy)]
struct TxnFrame {
    abort_target: usize,
    parent: u32,
}

/// The arena's frame 0: the empty stack, its own parent.
const TXN_EMPTY: TxnFrame = TxnFrame {
    abort_target: 0,
    parent: 0,
};

/// One logical thread of the simulated core.
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: CpuConfig,
    /// Performance counters (public so callers can snapshot around
    /// regions of interest).
    pub pmu: Pmu,

    // ----- frontend -----
    bpu: Bpu,
    dsb: Dsb,
    idq: Ring<FetchedUop>,
    fetch_pc: usize,
    fetch_stall_until: u64,
    fetch_enabled: bool,
    last_fetch_page: Option<u64>,
    /// Whether the previous delivered fetch group came from the DSB
    /// (drives `DSB2MITE_SWITCHES.COUNT`).
    last_fetch_from_dsb: bool,
    itlb: Tlb,

    // ----- backend -----
    /// The reorder buffer with its scheduler index (`rob.rs`).
    rob: Rob,
    next_uop_id: u64,
    rat: [Option<u64>; 16],
    flags_rat: Option<u64>,
    regs: RegFile,
    flags: Flags,
    ports_busy: Vec<u64>,
    recovery_busy_until: u64,
    pipeline_flush_until: u64,
    /// Stall imposed by the sibling SMT thread's flushes.
    external_stall_until: u64,
    /// Speculative TSX stacks, as a per-run arena of persistent frames:
    /// each `xbegin` rename pushes a frame whose parent is the stack it
    /// nests in, so a µop names its whole stack with one index
    /// (`RobEntry::txn_snapshot`). Frame 0 is the empty stack; the
    /// arena is truncated back to it by `reset_run`.
    txn_frames: Vec<TxnFrame>,
    /// Arena index of the current speculative stack.
    txn_top: u32,

    // ----- scheduler bookkeeping -----
    // Derived counters that let the per-cycle loops skip work the ROB
    // cannot need (the per-entry index lives in `Rob`). All are
    // recomputed from scratch by `recompute_sched_state` on any squash
    // and at `reset_run`.
    /// Unstarted entries that are stores (`Store`/`StoreByte`/`Push`/
    /// `Call`) — the loads' memory-order scan is skipped when zero.
    unstarted_store_count: usize,
    /// Entries carrying in-flight store data — the store-to-load
    /// forwarding scan is skipped when zero.
    inflight_store_data: usize,
    /// Max `done_at` over started entries still in the ROB (an entry
    /// with a larger stored value can never have retired, so the max is
    /// exact — see `account_cycle`).
    exec_max_done: u64,
    /// Same, restricted to memory µops.
    mem_max_done: u64,

    // ----- memory -----
    dtlb: Tlb,
    walker: PageWalker,
    /// TLB entries a `syscall` warms (set from the OS model: the KPTI
    /// trampoline pages).
    syscall_pages: Vec<u64>,

    // ----- TSX architectural checkpoint -----
    /// Committed register/flag state at the retirement of the outermost
    /// `xbegin`; restored on abort.
    txn_checkpoint: Option<(RegFile, Flags)>,
    /// Undo log of committed stores inside the transaction
    /// (`(pa, old_value, was_byte)`), applied in reverse on abort.
    txn_undo: Vec<(u64, u64, bool)>,
    /// Committed transaction nesting depth (checkpoint covers the
    /// outermost transaction).
    txn_depth: usize,

    // ----- run state -----
    cycle: u64,
    /// Monotonic across runs; drives the timer-interrupt phase so noise
    /// varies between attack iterations.
    global_cycle: u64,
    /// Global cycle of the next timer interrupt.
    next_interrupt: u64,
    /// xorshift state for interrupt phase jitter (deterministic).
    interrupt_rng: u64,
    halted: bool,
    retired_insts: u64,
    handler_pc: Option<usize>,
    exceptions: Vec<ExceptionRecord>,
    unhandled: Option<ExceptionRecord>,
    /// Highest µop id committed this run (the monotone-retire invariant).
    last_retired_id: Option<u64>,
    /// Test-only retire-path corruption (the oracle mutation test).
    mutate_retire: bool,
    /// Whether this run checks the core invariants (`tet_invariant!`):
    /// debug builds and check mode, decided once per run.
    invariants: bool,
    /// Structured-event sink (disabled by default: one branch per event
    /// site). Installed per run by [`crate::Machine`] / [`crate::SmtMachine`].
    sink: SinkHandle,
    /// Cycles skipped by event-driven fast-forward, over this core's
    /// lifetime (diagnostic; survives `reset_run` and snapshot restore).
    ff_skipped_cycles: u64,
    /// Number of fast-forward sprints taken (each skips ≥ 1 cycle).
    ff_sprints: u64,
    /// Timer interrupts taken over this core's lifetime (diagnostic,
    /// like the fast-forward stats: survives `reset_run` and restore).
    interrupts_taken: u64,
}

impl Cpu {
    /// Creates a core in reset state.
    pub fn new(cfg: CpuConfig) -> Self {
        assert!(
            cfg.rob_size <= Rob::MAX_ENTRIES,
            "ROB of {} entries exceeds the scheduler index's {}",
            cfg.rob_size,
            Rob::MAX_ENTRIES
        );
        let ports = cfg.ports;
        Cpu {
            pmu: Pmu::new(),
            bpu: Bpu::new(cfg.bpu),
            dsb: Dsb::new(cfg.dsb_capacity),
            idq: Ring::new(),
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_enabled: true,
            last_fetch_page: None,
            last_fetch_from_dsb: false,
            itlb: Tlb::new(cfg.itlb),
            rob: Rob::new(),
            next_uop_id: 0,
            rat: [None; 16],
            flags_rat: None,
            regs: RegFile::new(),
            flags: Flags::default(),
            ports_busy: vec![0; ports],
            recovery_busy_until: 0,
            pipeline_flush_until: 0,
            external_stall_until: 0,
            txn_frames: vec![TXN_EMPTY],
            txn_top: 0,
            unstarted_store_count: 0,
            inflight_store_data: 0,
            exec_max_done: 0,
            mem_max_done: 0,
            dtlb: Tlb::new(cfg.dtlb),
            walker: PageWalker::new(cfg.walk),
            syscall_pages: Vec::new(),
            txn_checkpoint: None,
            txn_undo: Vec::new(),
            txn_depth: 0,
            cycle: 0,
            global_cycle: 0,
            next_interrupt: cfg.timing.interrupt_period,
            interrupt_rng: 0x9e37_79b9_7f4a_7c15,
            halted: false,
            retired_insts: 0,
            handler_pc: None,
            exceptions: Vec::new(),
            unhandled: None,
            last_retired_id: None,
            mutate_retire: false,
            invariants: cfg!(debug_assertions),
            sink: SinkHandle::disabled(),
            ff_skipped_cycles: 0,
            ff_sprints: 0,
            interrupts_taken: 0,
            cfg,
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Resets per-run state (pipeline, registers, cycle counter) while
    /// keeping the *persistent* microarchitectural state: BPU, DSB, TLBs
    /// and the PMU — exactly the state the paper's attacks train and
    /// probe across iterations.
    pub fn reset_run(
        &mut self,
        init_regs: &[(Reg, u64)],
        handler_pc: Option<usize>,
        sink: SinkHandle,
    ) {
        self.idq.clear();
        self.rob.clear();
        self.rat = [None; 16];
        self.flags_rat = None;
        self.regs = RegFile::new();
        for &(r, v) in init_regs {
            self.regs.set(r, v);
        }
        self.flags = Flags::default();
        for p in &mut self.ports_busy {
            *p = 0;
        }
        self.recovery_busy_until = 0;
        self.pipeline_flush_until = 0;
        self.external_stall_until = 0;
        self.txn_frames.truncate(1);
        self.txn_top = 0;
        self.recompute_sched_state();
        self.txn_checkpoint = None;
        self.txn_undo.clear();
        self.txn_depth = 0;
        self.fetch_pc = 0;
        self.fetch_stall_until = 0;
        self.fetch_enabled = true;
        self.last_fetch_page = None;
        self.cycle = 0;
        self.halted = false;
        self.retired_insts = 0;
        self.handler_pc = handler_pc;
        self.exceptions.clear();
        self.unhandled = None;
        self.last_retired_id = None;
        self.invariants = cfg!(debug_assertions) || tet_check::enabled();
        self.sink = sink;
    }

    /// Seals the core's journaled structures, the two TLBs, so later
    /// [`Cpu::restore`] calls against clones of this state repair only
    /// journaled chunks (DESIGN.md §16).
    pub fn seal(&mut self) {
        self.itlb.seal();
        self.dtlb.seal();
    }

    /// Overwrites this core with the state of `src`, reusing every heap
    /// allocation this core already owns (ROB, IDQ, TLBs, predictor
    /// tables, PMU bank, port table) — the restore half of the machine
    /// snapshot layer. Both cores must share a port count.
    ///
    /// The TLBs replay their touched-chunk journals when they share a
    /// seal with `src` and otherwise copy exhaustively, adopting the
    /// seal. Everything else — configuration, predictor, µop cache,
    /// queues and scalars — is copied.
    ///
    /// The exhaustive destructuring below is deliberate: adding a field
    /// to `Cpu` without deciding how it restores becomes a compile
    /// error, not a silent state leak.
    ///
    /// The fast-forward diagnostic counters are *not* copied: they
    /// describe this core's lifetime (like the PMU describes a run), so
    /// a workload forking many trials from one snapshot accumulates its
    /// totals across restores.
    pub fn restore(&mut self, src: &Cpu) {
        let Cpu {
            cfg,
            pmu,
            bpu,
            dsb,
            idq,
            fetch_pc,
            fetch_stall_until,
            fetch_enabled,
            last_fetch_page,
            last_fetch_from_dsb,
            itlb,
            rob,
            next_uop_id,
            rat,
            flags_rat,
            regs,
            flags,
            ports_busy,
            recovery_busy_until,
            pipeline_flush_until,
            external_stall_until,
            txn_frames,
            txn_top,
            unstarted_store_count,
            inflight_store_data,
            exec_max_done,
            mem_max_done,
            dtlb,
            walker,
            syscall_pages,
            txn_checkpoint,
            txn_undo,
            txn_depth,
            cycle,
            global_cycle,
            next_interrupt,
            interrupt_rng,
            halted,
            retired_insts,
            handler_pc,
            exceptions,
            unhandled,
            last_retired_id,
            mutate_retire,
            invariants,
            sink,
            ff_skipped_cycles: _,
            ff_sprints: _,
            interrupts_taken: _,
        } = src;
        debug_assert_eq!(
            self.cfg.ports, cfg.ports,
            "snapshot restore across core configurations"
        );
        self.cfg = cfg.clone();
        self.pmu.clone_from(pmu);
        self.bpu.restore(bpu);
        self.dsb.restore(dsb);
        self.idq.clone_from(idq);
        self.fetch_pc = *fetch_pc;
        self.fetch_stall_until = *fetch_stall_until;
        self.fetch_enabled = *fetch_enabled;
        self.last_fetch_page = *last_fetch_page;
        self.last_fetch_from_dsb = *last_fetch_from_dsb;
        self.itlb.restore(itlb);
        self.rob.clone_from(rob);
        self.next_uop_id = *next_uop_id;
        self.rat = *rat;
        self.flags_rat = *flags_rat;
        self.regs = *regs;
        self.flags = *flags;
        self.ports_busy.clear();
        self.ports_busy.extend_from_slice(ports_busy);
        self.recovery_busy_until = *recovery_busy_until;
        self.pipeline_flush_until = *pipeline_flush_until;
        self.external_stall_until = *external_stall_until;
        self.txn_frames.clear();
        self.txn_frames.extend_from_slice(txn_frames);
        self.txn_top = *txn_top;
        self.unstarted_store_count = *unstarted_store_count;
        self.inflight_store_data = *inflight_store_data;
        self.exec_max_done = *exec_max_done;
        self.mem_max_done = *mem_max_done;
        self.dtlb.restore(dtlb);
        self.walker = *walker;
        self.syscall_pages.clear();
        self.syscall_pages.extend_from_slice(syscall_pages);
        self.txn_checkpoint = *txn_checkpoint;
        self.txn_undo.clear();
        self.txn_undo.extend_from_slice(txn_undo);
        self.txn_depth = *txn_depth;
        self.cycle = *cycle;
        self.global_cycle = *global_cycle;
        self.next_interrupt = *next_interrupt;
        self.interrupt_rng = *interrupt_rng;
        self.halted = *halted;
        self.retired_insts = *retired_insts;
        self.handler_pc = *handler_pc;
        self.exceptions.clear();
        self.exceptions.extend_from_slice(exceptions);
        self.unhandled = *unhandled;
        self.last_retired_id = *last_retired_id;
        self.mutate_retire = *mutate_retire;
        self.invariants = *invariants;
        self.sink = sink.clone();
    }

    /// Re-randomizes the timer-interrupt phase from `salt`, keeping the
    /// schedule fully deterministic in `salt`. Trial runners forking
    /// many trials from one snapshot call this with the trial index so
    /// interrupt noise decorrelates across trials exactly as it would
    /// across sequential runs — and identically at any thread count.
    /// No-op when the timer is disabled.
    pub fn reseed_interrupt_phase(&mut self, salt: u64) {
        let period = self.cfg.timing.interrupt_period;
        if period == 0 {
            return;
        }
        let mut x = self.interrupt_rng ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.interrupt_rng = x;
        self.next_interrupt = self.global_cycle + period / 2 + x % period;
    }

    /// Cycles skipped by event-driven fast-forward and the number of
    /// sprints taken, over this core's lifetime.
    pub fn ff_stats(&self) -> (u64, u64) {
        (self.ff_skipped_cycles, self.ff_sprints)
    }

    /// Timer interrupts taken over this core's lifetime.
    pub(crate) fn interrupts_taken(&self) -> u64 {
        self.interrupts_taken
    }

    /// Cycles this core can step before the next timer interrupt is
    /// taken: a run of `n` cycles starting now is interrupt-free iff
    /// `n <= cycles_to_interrupt`. `None` without interrupt noise.
    pub(crate) fn cycles_to_interrupt(&self) -> Option<u64> {
        (self.cfg.timing.interrupt_period > 0)
            .then(|| self.next_interrupt.saturating_sub(self.global_cycle))
    }

    /// Zeroes the lifetime diagnostics (a freshly forked worker machine
    /// starts its lifetime clean).
    pub(crate) fn reset_lifetime_stats(&mut self) {
        self.ff_skipped_cycles = 0;
        self.ff_sprints = 0;
        self.interrupts_taken = 0;
    }

    /// Credits this core with the lifetime effects of runs that were
    /// replayed instead of executed (divergence-aware trial batching):
    /// the global cycle clock, the fast-forward diagnostics and the live
    /// PMU bank advance exactly as the recorded runs would have advanced
    /// them, so batched and unbatched loops report identical counters.
    pub(crate) fn absorb_replayed(
        &mut self,
        cycles: u64,
        ff_skipped: u64,
        ff_sprints: u64,
        pmu: &tet_pmu::PmuSnapshot,
    ) {
        self.global_cycle += cycles;
        self.ff_skipped_cycles += ff_skipped;
        self.ff_sprints += ff_sprints;
        self.pmu.add(pmu);
    }

    /// Test-only retire-path bug injection: when on, every committed
    /// register value is XORed with 1. Exists so the suite can prove the
    /// retirement oracle catches a real commit corruption — the mutation
    /// test of DESIGN.md §9. Never enable outside tests.
    #[doc(hidden)]
    pub fn set_retire_corruption_for_tests(&mut self, on: bool) {
        self.mutate_retire = on;
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether a `Halt` retired or an unhandled fault ended the run.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed architectural registers.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Committed architectural flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Instructions retired in the current run.
    pub fn retired_insts(&self) -> u64 {
        self.retired_insts
    }

    /// Delivered faults of the current run.
    pub fn exceptions(&self) -> &[ExceptionRecord] {
        &self.exceptions
    }

    /// Takes the delivered-fault list, leaving it empty — the move-based
    /// variant of [`Cpu::exceptions`] for building a run result without
    /// copying (the next `reset_run` clears the list anyway).
    pub fn take_exceptions(&mut self) -> Vec<ExceptionRecord> {
        std::mem::take(&mut self.exceptions)
    }

    /// The unhandled fault that terminated the run, if any.
    pub fn unhandled_fault(&self) -> Option<&ExceptionRecord> {
        self.unhandled.as_ref()
    }

    /// The structured-event sink currently installed on this core.
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Emits a squash event for every ROB entry at index `from` onward.
    /// The disabled path is a single branch — no id collection, no
    /// allocation.
    fn emit_squash_from(&self, from: usize, at: u64, cause: SquashCause) {
        if !self.sink.enabled() {
            return;
        }
        for e in self.rob.iter().skip(from) {
            self.sink
                .emit_at(at, EventKind::UopSquashed { id: e.id, cause });
        }
    }

    /// The branch prediction unit (for stealth fingerprinting and the
    /// replay dry run).
    pub fn bpu(&self) -> &Bpu {
        &self.bpu
    }

    /// The branch prediction unit, mutably: replays re-issue recorded
    /// operations on it ([`Bpu::replay`]).
    pub fn bpu_mut(&mut self) -> &mut Bpu {
        &mut self.bpu
    }

    /// The data TLB (for stealth fingerprinting and eviction).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Flushes both TLBs, optionally keeping global entries — the
    /// attacker-controlled TLB eviction step of TET-KASLR.
    pub fn flush_tlbs(&mut self, keep_global: bool) {
        self.dtlb.flush_all(keep_global);
        self.itlb.flush_all(keep_global);
        self.sink.emit(EventKind::TlbFlush {
            kind: TlbKind::Data,
            kept_global: keep_global,
        });
        self.sink.emit(EventKind::TlbFlush {
            kind: TlbKind::Inst,
            kept_global: keep_global,
        });
    }

    /// Sets the pages a `syscall` warms in the DTLB (the KPTI trampoline).
    pub fn set_syscall_pages(&mut self, pages: Vec<u64>) {
        self.syscall_pages = pages;
    }

    /// Imposes a stall from the sibling SMT thread until `cycle`.
    pub fn impose_external_stall(&mut self, until: u64) {
        self.external_stall_until = self.external_stall_until.max(until);
        self.sink.emit(EventKind::SmtContention { until });
    }

    /// Whether every pipeline structure is drained.
    pub fn pipeline_empty(&self) -> bool {
        self.rob.is_empty() && self.idq.is_empty()
    }

    /// Whether the frontend has run past the end of the program with an
    /// empty pipeline (no `Halt` will ever retire).
    pub fn ran_off_end(&self, program: &Program) -> bool {
        self.pipeline_empty() && self.fetch_pc >= program.len() && !self.halted
    }

    // =====================================================================
    // The cycle loop
    // =====================================================================

    /// Advances the core by one cycle.
    pub fn step(&mut self, env: &mut Env<'_>) -> StepEvents {
        let mut events = StepEvents::default();
        let now = self.cycle;
        self.sink.tick(now);
        self.pmu.bump(Event::CpuClkUnhalted, 1);

        // OS timer interrupt: a whole-pipeline bubble. The schedule runs
        // on the global (never-reset) cycle counter with deterministic
        // phase jitter, so the noise decorrelates across attack
        // iterations like real timer ticks do.
        let t = self.cfg.timing;
        if t.interrupt_period > 0 && self.global_cycle >= self.next_interrupt {
            self.external_stall_until = self.external_stall_until.max(now + t.interrupt_cost);
            self.fetch_stall_until = self.fetch_stall_until.max(now + t.interrupt_cost);
            // xorshift64 jitter: the gap varies in [period/2, 3*period/2).
            let mut x = self.interrupt_rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.interrupt_rng = x;
            self.next_interrupt =
                self.global_cycle + t.interrupt_period / 2 + x % t.interrupt_period.max(1);
            self.interrupts_taken += 1;
            self.sink.emit_at(
                now,
                EventKind::TimerInterrupt {
                    until: now + t.interrupt_cost,
                },
            );
        }
        self.global_cycle += 1;

        self.resolve_branches(now, env.template);
        if let Some(flush) = self.retire_cycle(now, env) {
            events.flush_until = Some(flush);
        }
        let exec_started = self.schedule_cycle(now, env);
        let issued = self.rename_cycle(now, env.template);
        let (dsb_uops, mite_uops, fetch_stalled) = self.fetch_cycle(now, env);

        self.account_cycle(
            now,
            exec_started,
            issued,
            dsb_uops,
            mite_uops,
            fetch_stalled,
        );
        if cfg!(debug_assertions) || env.check.is_some() {
            self.validate_sched_index();
        }
        self.cycle += 1;
        events
    }

    // ----- event-driven fast-forward --------------------------------------

    /// Attempts to skip ahead to the next cycle at which anything can
    /// happen, bulk-applying exactly the per-cycle PMU accounting the
    /// skipped idle `step()`s would have produced. Returns the number of
    /// cycles skipped (0 = something can happen right now, take a real
    /// step).
    ///
    /// The contract is *cycle-exactness*: calling this before every
    /// `step()` must leave architectural state, µarch state and every
    /// PMU counter identical to never calling it. The implementation
    /// leans on two facts:
    ///
    /// * every stage is gated by monotone "until"-style windows
    ///   (`pipeline_flush_until`, `external_stall_until`,
    ///   `recovery_busy_until`, `fetch_stall_until`) and by readiness
    ///   times (`done_at`, `forward_at`, `wake_at`) that only a real
    ///   event can move — so bounding the skip by the minimum of all
    ///   such future times keeps every stage's predicate constant over
    ///   the skipped range;
    /// * on a cycle where nothing executes, every execution port is
    ///   free (`ports_busy` is only ever set to `execute cycle + 1`),
    ///   so a source-ready, order-ready µop always implies activity.
    ///
    /// Callers must not fast-forward when a structured-event sink is
    /// installed (skipped cycles would drop `FrontendCycle` events);
    /// [`crate::Machine`] gates on that.
    ///
    /// One observable difference is permitted and harmless: scheduler
    /// *wake hints* (`wake_at`, waiter lists) that an idle `step()`
    /// would have refreshed are left stale. Hints are lower bounds on
    /// issue cycles, never issue decisions, so every µop still starts
    /// executing on exactly the same cycle.
    pub(crate) fn try_fast_forward(&mut self, limit: u64) -> u64 {
        let now = self.cycle;
        if self.halted || limit <= now {
            return 0;
        }
        // An executed-but-unresolved branch resolves (trains the BPU,
        // possibly squashes and resteers) exactly at its `done_at`
        // cycle; `resolve_branches` is a no-op before that. Idle cycles
        // *before* the earliest resolution are safe to skip, but never
        // skip across one — clip the sprint to the earliest `done_at`
        // and treat a due resolution as activity.
        let mut branch_done = u64::MAX;
        let mut from = 0;
        while let Some(i) = self.rob.next_branch(from) {
            from = i + 1;
            let done = self.rob[i].done_at;
            if done <= now {
                return 0;
            }
            branch_done = branch_done.min(done);
        }
        let t = self.cfg.timing;
        // A due timer interrupt mutates stall windows and the RNG: let
        // the real step take it.
        if t.interrupt_period > 0 && self.global_cycle >= self.next_interrupt {
            return 0;
        }

        let p_flush = now < self.pipeline_flush_until;
        let p_ext = now < self.external_stall_until;
        let p_rec = now < self.recovery_busy_until;

        // --- activity checks: would the real step() do anything at `now`?
        if !(p_flush || p_ext) {
            if let Some(front) = self.rob.front() {
                if front.retire_ready(now) {
                    // Retirement or fault delivery happens this cycle.
                    return 0;
                }
            }
        }
        let mut bound = limit;
        if !p_flush {
            match self.sched_quiet_until(now) {
                None => return 0, // scheduler starts a µop this cycle
                Some(b) => bound = bound.min(b),
            }
        }
        if !(p_flush || p_ext || p_rec || self.idq.is_empty())
            && self.rob.len() < self.cfg.rob_size
            && self.rob.unstarted() < self.cfg.rs_size
        {
            return 0; // rename issues this cycle
        }
        if self.fetch_enabled && now >= self.fetch_stall_until && self.idq.len() < self.cfg.idq_size
        {
            // Fetch delivers µops, walks the ITLB, or discovers the end
            // of the program (which mutates `fetch_enabled`).
            return 0;
        }

        // --- bound: first future cycle any predicate above can change.
        if branch_done != u64::MAX {
            bound = bound.min(branch_done);
        }
        if let Some(front) = self.rob.front() {
            // Not executed yet (`NOT_EXECUTED`) bounds nothing.
            if front.done_at > now {
                bound = bound.min(front.done_at);
            }
        }
        if t.interrupt_period > 0 {
            bound = bound.min(now + (self.next_interrupt - self.global_cycle));
        }
        for w in [
            self.pipeline_flush_until,
            self.external_stall_until,
            self.recovery_busy_until,
            self.fetch_stall_until,
            self.exec_max_done,
            self.mem_max_done,
        ] {
            if w > now {
                bound = bound.min(w);
            }
        }
        if bound <= now {
            return 0;
        }
        let skip = bound - now;

        // --- bulk accounting: exactly `skip` idle step()s' worth.
        let idq_empty = self.idq.is_empty();
        self.pmu.bump(Event::CpuClkUnhalted, skip);
        if !(p_flush || p_ext) {
            if p_rec {
                self.pmu.bump(Event::IntMiscRecoveryCycles, skip);
                self.pmu.bump(Event::IntMiscRecoveryCyclesAny, skip);
            } else if !idq_empty {
                // Rename not blocked by any window and the IDQ has µops,
                // yet nothing issues: necessarily resource-blocked
                // (checked above), and the block persists — nothing
                // retires or starts during the skipped range.
                self.pmu.bump(Event::ResourceStallsAny, skip);
                if self.rob.len() >= self.cfg.rob_size {
                    self.pmu
                        .bump(Event::DeDisDispatchTokenStalls2RetireTokenStall, skip);
                }
            }
        }
        self.pmu.bump(Event::UopsExecutedStallCycles, skip);
        if self.exec_max_done <= now {
            self.pmu.bump(Event::UopsExecutedCoreCyclesNone, skip);
            if !self.rob.is_empty() {
                self.pmu.bump(Event::CycleActivityStallsTotal, skip);
            }
        }
        if self.mem_max_done > now {
            self.pmu.bump(Event::CycleActivityCyclesMemAny, skip);
        }
        if self.rob.unstarted() == 0 {
            self.pmu.bump(Event::RsEventsEmptyCycles, skip);
        }
        self.pmu.bump(Event::UopsIssuedStallCycles, skip);
        if idq_empty {
            self.pmu.bump(Event::IdqEmptyCycles, skip);
            self.pmu.bump(Event::DeDisUopQueueEmptyDi0, skip);
        }
        self.cycle += skip;
        self.global_cycle += skip;
        self.ff_skipped_cycles += skip;
        self.ff_sprints += 1;
        skip
    }

    /// Read-only mirror of [`Cpu::schedule_cycle`]'s walk: returns
    /// `None` when the scheduler would start some µop at `now`, else
    /// the earliest future cycle at which it could (`u64::MAX` when no
    /// in-flight µop bounds it — retire/fetch/timer bounds then apply).
    /// Only the pending set is walked: started entries bound nothing,
    /// and a parked entry is woken by an older producer starting, which
    /// the walk bounds (or reports as activity) on its own.
    fn sched_quiet_until(&self, now: u64) -> Option<u64> {
        let mut bound = u64::MAX;
        let mut from = 0;
        while let Some(i) = self.rob.next_pending(from) {
            from = i + 1;
            let e = &self.rob[i];
            if e.kind.is_fence() {
                if self.exec_max_done <= now {
                    if self.rob.iter().take(i).all(|o| o.retire_ready(now)) {
                        return None; // the fence starts this cycle
                    }
                    // Blocked on an older *unstarted* µop: its own walk
                    // entry above already produced a bound or activity.
                } else {
                    bound = bound.min(self.exec_max_done);
                }
                return Some(bound);
            }
            if now < e.wake_at {
                bound = bound.min(e.wake_at);
                continue;
            }
            match self.eval_deps(i, now) {
                // Parked-on-producer: the producer's own start bounds
                // it, and the producer is an older entry this walk
                // already covered.
                DepVerdict::Park(_) => {}
                DepVerdict::WakeAt(at) => bound = bound.min(at),
                DepVerdict::Ready => {
                    // A port is always free on a cycle where nothing has
                    // executed (see `try_fast_forward`), so an unblocked
                    // ready µop means the scheduler acts now; a blocked
                    // load is bounded by the blocking store, an older
                    // unstarted entry already walked.
                    self.mem_order_blocker(i)?;
                }
            }
        }
        Some(bound)
    }

    // ----- per-cycle accounting -------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn account_cycle(
        &mut self,
        now: u64,
        exec_started: usize,
        issued: usize,
        dsb_uops: usize,
        mite_uops: usize,
        fetch_stalled: bool,
    ) {
        // Counter-based equivalents of the old whole-ROB sweeps. The
        // maxima are exact: a started entry with `done_at > now` cannot
        // have retired (retirement requires `done_at <= now`), and any
        // squash recomputes the maxima from the survivors.
        let in_flight_exec = self.exec_max_done > now;
        let mem_in_flight = self.mem_max_done > now;
        let rs_occupied = self.rob.unstarted() > 0;

        if exec_started == 0 {
            self.pmu.bump(Event::UopsExecutedStallCycles, 1);
            if !in_flight_exec {
                self.pmu.bump(Event::UopsExecutedCoreCyclesNone, 1);
                if !self.rob.is_empty() {
                    self.pmu.bump(Event::CycleActivityStallsTotal, 1);
                }
            }
        }
        if mem_in_flight {
            self.pmu.bump(Event::CycleActivityCyclesMemAny, 1);
        }
        if !rs_occupied {
            self.pmu.bump(Event::RsEventsEmptyCycles, 1);
        }
        if issued == 0 {
            self.pmu.bump(Event::UopsIssuedStallCycles, 1);
        }
        if self.idq.is_empty() {
            self.pmu.bump(Event::IdqEmptyCycles, 1);
            self.pmu.bump(Event::DeDisUopQueueEmptyDi0, 1);
        }
        self.sink.emit_at(
            now,
            EventKind::FrontendCycle {
                dsb_uops: dsb_uops as u32,
                mite_uops: mite_uops as u32,
                stalled: fetch_stalled,
            },
        );
    }

    // ----- branch resolution ----------------------------------------------

    fn resolve_branches(&mut self, now: u64, template: &ProgramTemplate) {
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

    fn rebuild_rename_state(&mut self) {
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
    fn recompute_sched_state(&mut self) {
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

    // ----- retirement -----------------------------------------------------

    /// Retires up to `retire_width` µops; returns a flush horizon when a
    /// fault was delivered this cycle.
    fn retire_cycle(&mut self, now: u64, env: &mut Env<'_>) -> Option<u64> {
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

    // ----- scheduling / execution -----------------------------------------

    /// Issues ready µops oldest first. Only the pending set is walked:
    /// started entries have nothing to issue (a started fence is done —
    /// it starts with `done_at = now` — so it never blocks), and parked
    /// entries wait for their producer's wake-up, which re-pends them
    /// before this walk reaches them (waiters are younger).
    fn schedule_cycle(&mut self, now: u64, env: &mut Env<'_>) -> usize {
        if now < self.pipeline_flush_until {
            return 0;
        }
        let mut started = 0usize;
        // Each lookup reads the live set, so a waiter woken by an
        // execute below is reached later in this same walk.
        let mut from = 0;
        while let Some(i) = self.rob.next_pending(from) {
            from = i + 1;
            // Fences wait until all older µops are done, then "execute"
            // instantly; they block everything younger meanwhile. While
            // a fence sits unstarted, nothing younger can have started,
            // so `exec_max_done > now` proves an *older* in-flight µop
            // and skips the prefix scan.
            if self.rob[i].kind.is_fence() {
                let older_done = self.exec_max_done <= now
                    && self.rob.iter().take(i).all(|e| e.retire_ready(now));
                if older_done {
                    let e = self.rob.start(i);
                    debug_assert!(e.waiter_head.is_none(), "fences produce nothing");
                    e.forward_at = now;
                    e.done_at = now;
                    let id = e.id;
                    self.exec_max_done = self.exec_max_done.max(now);
                    self.sink.emit_at(
                        now,
                        EventKind::UopExecuted {
                            id,
                            started_at: now,
                            done_at: now,
                        },
                    );
                    continue;
                }
                break;
            }
            // Entries waiting on a known future time are skipped in
            // O(1); the issue decisions are identical to the old
            // every-cycle re-poll because `wake_at` is always a lower
            // bound on the entry's first possible issue cycle.
            if now < self.rob[i].wake_at {
                continue;
            }
            match self.eval_deps(i, now) {
                DepVerdict::Park(pid) => self.park_on(i, pid),
                DepVerdict::WakeAt(at) => self.rob[i].wake_at = at,
                DepVerdict::Ready => {
                    if let Some(blocker) = self.mem_order_blocker(i) {
                        // Unknown older store address: woken the cycle
                        // that store starts (it may issue the same
                        // cycle, exactly like the old in-order re-poll).
                        self.park_on(i, blocker);
                    } else if let Some(port) = self.free_port(now) {
                        self.ports_busy[port] = now + 1;
                        self.execute_uop(i, now, env);
                        started += 1;
                        self.pmu.bump(Event::UopsExecutedAny, 1);
                    } else {
                        // Port starvation: every busy port frees by the
                        // next cycle.
                        self.rob[i].wake_at = now + 1;
                    }
                }
            }
        }
        started
    }

    fn free_port(&self, now: u64) -> Option<usize> {
        self.ports_busy.iter().position(|&b| b <= now)
    }

    /// ROB index of the in-flight µop `id`, or `None` if it is gone
    /// (retired, or — for ids a squash discarded — never referenced).
    ///
    /// µop ids are assigned sequentially at rename, so absent squashes
    /// the resident ids are contiguous and the position is simply
    /// `id - front.id` (the O(1) fast path). A squash leaves a gap
    /// (`next_uop_id` does not roll back), but ids stay strictly
    /// ascending (so a gap only moves an id *below* its guess) and the
    /// fallback is a binary search under the guess, not a linear scan.
    fn rob_index(&self, id: u64) -> Option<usize> {
        let front = self.rob.front()?.id;
        if id < front {
            return None;
        }
        let mut hi = ((id - front) as usize).min(self.rob.len() - 1);
        if self.rob[hi].id == id {
            return Some(hi);
        }
        let mut lo = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rob[mid].id.cmp(&id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    fn producer(&self, id: u64) -> Option<&RobEntry> {
        self.rob_index(id).map(|i| &self.rob[i])
    }

    fn deps_ready(&self, entry: &RobEntry, now: u64) -> bool {
        entry.deps.iter().all(|d| match d.producer {
            None => true,
            Some(id) => match self.producer(id.get()) {
                Some(p) => p.forward_ready(now),
                None => true, // retired → committed state is current
            },
        })
    }

    /// One source-readiness evaluation of the unstarted µop at `i`,
    /// deciding how the scheduler hears about it next:
    ///
    /// * [`DepVerdict::Ready`] — all sources forward-ready at `now`;
    /// * [`DepVerdict::WakeAt`] — every producer has executed, the last
    ///   forwards at the returned (exact) cycle;
    /// * [`DepVerdict::Park`] — some producer has not executed yet, so
    ///   no bound exists: park on that producer's waiter list and let
    ///   its execution wake us (O(woken), not O(ROB) per cycle).
    fn eval_deps(&self, i: usize, now: u64) -> DepVerdict {
        let mut wake = now;
        for d in &self.rob[i].deps {
            let Some(pid) = d.producer.map(UopId::get) else {
                continue;
            };
            let Some(pidx) = self.rob_index(pid) else {
                continue; // retired → committed state is current
            };
            let p = &self.rob[pidx];
            if !p.started {
                return DepVerdict::Park(pid);
            }
            let fwd = p.forward_at;
            if fwd > wake {
                wake = fwd;
            }
        }
        if wake > now {
            DepVerdict::WakeAt(wake)
        } else {
            DepVerdict::Ready
        }
    }

    /// Parks the unstarted µop at index `i` on the waiter list of the
    /// older unstarted µop `pid`; `execute_uop` of that producer resets
    /// `wake_at` so the waiter re-evaluates (same cycle — waiters are
    /// younger, so the age-ordered sweep has not passed them yet).
    fn park_on(&mut self, i: usize, pid: u64) {
        let pidx = self.rob_index(pid).expect("blocking µop is in flight");
        debug_assert!(pidx < i, "can only wait on an older µop");
        debug_assert!(!self.rob[pidx].started);
        let head = self.rob[pidx].waiter_head;
        let e = self.rob.park(i);
        debug_assert!(e.next_waiter.is_none(), "µop parked twice");
        e.next_waiter = head;
        let id = e.id;
        self.rob[pidx].waiter_head = Some(UopId::new(id));
    }

    /// Loads must wait for older stores with unknown addresses, and for
    /// forwarding-blocked stores (clflush between store and load) to
    /// retire. Stores and non-memory µops are always order-ready.
    /// Returns the youngest blocking store's id, or `None` when ready;
    /// the scan is skipped entirely while no unstarted store exists.
    fn mem_order_blocker(&self, i: usize) -> Option<u64> {
        if self.unstarted_store_count == 0 || !self.rob[i].kind.is_load_kind() {
            return None;
        }
        for j in (0..i).rev() {
            let e = &self.rob[j];
            if e.kind.is_store_kind() && !e.started {
                return Some(e.id); // unknown older store address
            }
        }
        None
    }

    fn dep_reg_value(&self, entry: &RobEntry, r: Reg) -> u64 {
        for d in &entry.deps {
            if let DepKind::Reg(reg) = d.kind {
                if reg == r {
                    if let Some(id) = d.producer {
                        if let Some(p) = self.producer(id.get()) {
                            if let Some(v) = p.result_for(r) {
                                return v;
                            }
                        }
                    }
                    return self.regs.get(r);
                }
            }
        }
        self.regs.get(r)
    }

    fn dep_flags_value(&self, entry: &RobEntry) -> Flags {
        for d in &entry.deps {
            if matches!(d.kind, DepKind::Flags) {
                if let Some(id) = d.producer {
                    if let Some(p) = self.producer(id.get()) {
                        if let Some(f) = p.flags_out {
                            return f;
                        }
                    }
                }
                return self.flags;
            }
        }
        self.flags
    }

    fn eff_addr(&self, entry: &RobEntry, addr: &tet_isa::Addr) -> u64 {
        let mut a = addr.disp as u64;
        if let Some(b) = addr.base {
            a = a.wrapping_add(self.dep_reg_value(entry, b));
        }
        if let Some((idx, scale)) = addr.index {
            a = a.wrapping_add(self.dep_reg_value(entry, idx).wrapping_mul(scale as u64));
        }
        a
    }

    fn src_value(&self, entry: &RobEntry, s: &tet_isa::Src) -> u64 {
        match s {
            tet_isa::Src::Reg(r) => self.dep_reg_value(entry, *r),
            tet_isa::Src::Imm(v) => *v,
        }
    }

    /// Store-to-load forwarding scan for a load of width `byte_load`.
    /// Returns:
    /// * `Some(Ok(value))` — forward from an older in-flight store;
    /// * `Some(Err(()))` — forwarding blocked (partial overlap, or an
    ///   intervening `clflush`): the load must wait until the store
    ///   drains and read memory;
    /// * `None` — no older in-flight store overlapping this address.
    fn forwarding(
        &self,
        i: usize,
        vaddr: u64,
        byte_load: bool,
        template: &ProgramTemplate,
    ) -> Option<Result<u64, ()>> {
        if self.inflight_store_data == 0 {
            return None; // no in-flight store anywhere in the ROB
        }
        let load_len: u64 = if byte_load { 1 } else { 8 };
        for j in (0..i).rev() {
            let e = &self.rob[j];
            if let Some(store) = &e.store {
                let store_len: u64 = if store.byte { 1 } else { 8 };
                let overlap = store.vaddr < vaddr + load_len && vaddr < store.vaddr + store_len;
                if !overlap {
                    continue;
                }
                // Loads fully contained in the store can forward; partial
                // overlaps stall until the store drains (real store
                // buffers behave the same way).
                let contained = vaddr >= store.vaddr && vaddr + load_len <= store.vaddr + store_len;
                if !contained {
                    return Some(Err(()));
                }
                // clflush of the same line between store and load blocks
                // forwarding (the Listing 1 trick that slows `ret`).
                let line = tet_mem::line_addr(vaddr);
                let blocked = self.rob.iter().take(i).skip(j + 1).any(|c| {
                    c.kind.is_clflush() && c.started && {
                        if let Inst::Clflush { addr } = template.inst(c.pc) {
                            tet_mem::line_addr(self.eff_addr(c, addr)) == line
                        } else {
                            false
                        }
                    }
                });
                if blocked {
                    return Some(Err(()));
                }
                let shift = 8 * (vaddr - store.vaddr);
                let value = if byte_load {
                    (store.value >> shift) & 0xff
                } else {
                    store.value
                };
                return Some(Ok(value));
            }
        }
        None
    }

    // ----- the execute step -------------------------------------------------

    fn execute_uop(&mut self, i: usize, now: u64, env: &mut Env<'_>) {
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

    // ----- memory access paths ----------------------------------------------

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

    fn do_load(&mut self, env: &mut Env<'_>, vaddr: u64, byte: bool) -> LoadResult {
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

    fn do_store(&mut self, env: &mut Env<'_>, vaddr: u64) -> (u64, Option<u64>, Option<Fault>) {
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

    fn do_prefetch(&mut self, env: &mut Env<'_>, vaddr: u64) -> u64 {
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

    // ----- rename / issue -----------------------------------------------------

    fn rename_cycle(&mut self, now: u64, template: &ProgramTemplate) -> usize {
        if now < self.pipeline_flush_until || now < self.external_stall_until {
            return 0;
        }
        if now < self.recovery_busy_until {
            self.pmu.bump(Event::IntMiscRecoveryCycles, 1);
            self.pmu.bump(Event::IntMiscRecoveryCyclesAny, 1);
            return 0;
        }
        let mut issued = 0usize;
        // Every µop renamed below enters the reservation station.
        let rs_before = self.rob.unstarted();
        for _ in 0..self.cfg.issue_width {
            if self.idq.is_empty() {
                break;
            }
            if self.rob.len() >= self.cfg.rob_size || rs_before + issued >= self.cfg.rs_size {
                self.pmu.bump(Event::ResourceStallsAny, 1);
                if self.rob.len() >= self.cfg.rob_size {
                    self.pmu
                        .bump(Event::DeDisDispatchTokenStalls2RetireTokenStall, 1);
                }
                break;
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
        issued
    }

    // ----- fetch ------------------------------------------------------------

    fn fetch_cycle(&mut self, now: u64, env: &mut Env<'_>) -> (usize, usize, bool) {
        if now < self.fetch_stall_until || !self.fetch_enabled {
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
