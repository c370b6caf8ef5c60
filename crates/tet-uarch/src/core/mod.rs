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
use tet_isa::{Flags, Program, Reg};
use tet_mem::{AddressSpace, MemorySystem, PageWalker, PhysMem, Tlb};
use tet_obs::{EventKind, SinkHandle, SquashCause, TlbKind};
use tet_pmu::Pmu;

use crate::config::CpuConfig;
use crate::frontend::{Dsb, FetchedUop};
use crate::ring::Ring;
use crate::rob::Rob;
use crate::template::ProgramTemplate;
use crate::uop::FaultRoute;
use crate::uop::{Fault, FaultKind};
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

mod cycle;
mod execute;
mod fetch;
mod memory;
mod rename;
mod resolve;
mod retire;
mod schedule;

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
}
