//! [`Machine`]: a core plus its memory environment, with a simple run API.

use std::sync::Arc;

use tet_isa::reg::RegFile;
use tet_isa::{Flags, Program, Reg};
use tet_mem::{AddressSpace, FrameAlloc, MemorySystem, PhysMem, Pte, PAGE_SIZE};
use tet_obs::{RunReport, SinkHandle};
use tet_pmu::PmuSnapshot;

use crate::bpu::{BpuMark, BpuSpan};
use crate::core::{Cpu, Env, ExceptionRecord, RunExit};
use crate::template::ProgramTemplate;
use crate::{code_vaddr, CpuConfig, ForwardPolicy};

/// Per-run options.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Instruction index control transfers to on a delivered signal
    /// (`transient_begin`'s signal-handler suppression path). `None`
    /// means faults terminate the run.
    pub handler_pc: Option<usize>,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Initial register values.
    pub init_regs: Vec<(Reg, u64)>,
    /// Structured-event sink the run emits into: the per-cycle frontend
    /// delivery behind Figure 3, the µop lifecycle ([`tet_obs::uop_spans`])
    /// and everything the Chrome exporter draws. Each run timestamps from
    /// a fresh clock. Disabled by default; costs one branch per event
    /// site when disabled.
    pub sink: SinkHandle,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            handler_pc: None,
            max_cycles: 1_000_000,
            init_regs: Vec::new(),
            sink: SinkHandle::disabled(),
        }
    }
}

impl RunConfig {
    /// A fresh handle over [`RunConfig::sink`]: the same sink with a trace
    /// clock of its own, so every run (and each SMT thread) timestamps
    /// from its own cycle 0.
    pub(crate) fn run_sink(&self) -> SinkHandle {
        self.sink
            .sink_arc()
            .map_or_else(SinkHandle::disabled, SinkHandle::attached)
    }
}

/// The outcome of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub exit: RunExit,
    /// Total cycles.
    pub cycles: u64,
    /// Final committed registers.
    pub regs: RegFile,
    /// Final committed flags.
    pub flags: Flags,
    /// Instructions retired.
    pub retired: u64,
    /// PMU deltas for this run.
    pub pmu: PmuSnapshot,
    /// Faults delivered during the run.
    pub exceptions: Vec<ExceptionRecord>,
}

impl RunResult {
    /// Summarizes the run as a [`RunReport`]: exit/cycle/IPC scalars plus
    /// every non-zero PMU counter.
    pub fn report(&self, name: &str) -> RunReport {
        let mut rep = RunReport::new(name);
        rep.set_meta("exit", format!("{:?}", self.exit));
        rep.scalar("cycles", self.cycles as f64);
        rep.scalar("retired", self.retired as f64);
        if self.cycles > 0 {
            rep.scalar("ipc", self.retired as f64 / self.cycles as f64);
        }
        rep.counter("exceptions", self.exceptions.len() as u64);
        for (ev, n) in self.pmu.iter_nonzero() {
            rep.counter(ev.name(), n);
        }
        rep
    }
}

/// A complete single-thread simulated machine: one core, its caches and
/// TLBs, physical memory and an address space.
///
/// Microarchitectural state (BPU, DSB, TLBs, caches, fill buffers)
/// persists across [`Machine::run`] calls — the paper's attacks rely on
/// training and probing across iterations.
///
/// # Examples
///
/// ```
/// use tet_isa::{Asm, Reg};
/// use tet_uarch::{CpuConfig, Machine, RunConfig};
///
/// # fn main() -> Result<(), tet_isa::AssembleError> {
/// let mut m = Machine::new(CpuConfig::skylake_i7_6700(), 1);
/// let mut a = Asm::new();
/// a.mov_imm(Reg::Rcx, 5).add(Reg::Rcx, 10u64).halt();
/// let r = m.run(&a.assemble()?, &RunConfig::default());
/// assert_eq!(r.regs.get(Reg::Rcx), 15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cpu: Cpu,
    mem: MemorySystem,
    phys: PhysMem,
    /// The address space, behind an `Arc` so snapshot restores of an
    /// unmodified mapping tree are a pointer bump instead of a deep
    /// radix-tree clone. Mutations go through `Arc::make_mut`, which
    /// COW-forks only when the tree is actually shared.
    aspace: Arc<AddressSpace>,
    frames: FrameAlloc,
    code_pages_mapped: usize,
    check_mode: bool,
    /// Event-driven fast-forward across idle cycles (DESIGN.md §11).
    /// On by default; cycle counts and PMU values are identical either
    /// way. Automatically bypassed for runs with a structured-event
    /// sink, which need per-cycle emission.
    ff_enabled: bool,
    /// Lifetime run count (diagnostic, survives snapshot restore).
    runs: u64,
    /// How many of those runs were replayed rather than simulated
    /// ([`Machine::apply_replayed_run`]).
    replayed_runs: u64,
    /// Lifetime simulated cycles across runs (diagnostic).
    cycles_total: u64,
    /// Lifetime snapshot restores applied to this machine (diagnostic).
    snap_restores: u64,
    /// Lifetime PMU totals: per-run deltas summed over every run, so
    /// the totals survive snapshot restores (which roll the live
    /// counter bank back). Deterministic like the rest of the PMU.
    pmu_lifetime: PmuSnapshot,
    ctx: RunCtx,
}

/// A point-in-time copy of a [`Machine`]'s complete state —
/// architectural (registers, physical memory, address space) and
/// microarchitectural (caches, TLBs, predictors, fill buffers, PMU,
/// interrupt phase).
///
/// Take one with [`Machine::snapshot`] **between** runs (the pipeline
/// is always drained then — `run` is synchronous), and rebuild runnable
/// machines from it with [`Machine::restore`] (in place, reusing the
/// destination's allocations) or [`Machine::from_snapshot`]. Trial
/// loops warm a machine up once, snapshot, and fork every trial from
/// the snapshot; a shared `Arc<MachineSnapshot>` serves parallel
/// workers.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    state: Machine,
}

/// Lifetime diagnostics of one [`Machine`] (see [`Machine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Completed [`Machine::run`] calls.
    pub runs: u64,
    /// Simulated cycles summed over those runs.
    pub sim_cycles: u64,
    /// Cycles skipped by event-driven fast-forward (included in
    /// `sim_cycles` — skipping changes wall time, not simulated time).
    pub ff_skipped_cycles: u64,
    /// Fast-forward sprints taken (each skips ≥ 1 cycle).
    pub ff_sprints: u64,
    /// Snapshot restores applied via [`Machine::restore`].
    pub snapshot_restores: u64,
}

/// An opaque marker of a machine's lifetime counters at one instant —
/// the "before" point of a [`RunDelta`] measurement. Take one with
/// [`Machine::delta_marker`] immediately before running a probe, and
/// turn it into the probe's recorded effects with
/// [`Machine::delta_since`] and its branch-predictor operations with
/// [`Machine::bpu_ops_since`].
#[derive(Debug, Clone)]
pub struct DeltaMarker {
    runs: u64,
    cycles: u64,
    ff_skipped: u64,
    ff_sprints: u64,
    restores: u64,
    jitter_draws: u64,
    jitter_sum: u64,
    interrupts: u64,
    bpu: BpuMark,
    pmu: PmuSnapshot,
}

/// Everything a span of [`Machine::run`] calls adds to the machine's
/// lifetime counters: run count, simulated cycles, fast-forward
/// diagnostics, snapshot restores, DRAM-jitter draws, timer interrupts
/// and the full 51-event PMU delta.
///
/// This is the record behind divergence-aware trial batching: a trial
/// loop measures one probe live ([`Machine::delta_marker`] /
/// [`Machine::delta_since`]), proves the machine is at a fixed point
/// (consecutive probes return identical results *and* identical
/// `RunDelta`s), and then replays the record with
/// [`Machine::apply_replayed_run`] instead of simulating — every
/// lifetime counter advances exactly as the live run would have
/// advanced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDelta {
    /// `run` calls completed in the span.
    pub runs: u64,
    /// Simulated cycles the span added (also the global-clock advance).
    pub cycles: u64,
    /// Cycles skipped by event-driven fast-forward in the span.
    pub ff_skipped: u64,
    /// Fast-forward sprints taken in the span.
    pub ff_sprints: u64,
    /// Snapshot restores applied in the span.
    pub restores: u64,
    /// DRAM-jitter RNG draws the span consumed. A replayed span must
    /// advance the stream by the same number of draws
    /// ([`Machine::replay_dram_jitter`]) or every later draw shifts.
    pub jitter_draws: u64,
    /// Summed jitter cycles of those draws. Probes whose only run-to-run
    /// variation is a single jitter draw are still fixed points *net of
    /// jitter*: their deltas differ by exactly the draw difference in
    /// `cycles`, `ff_skipped` and `jitter_sum`.
    pub jitter_sum: u64,
    /// Timer interrupts taken in the span. A span that took one ran
    /// phase-dependent (the interrupt's bubble is part of its timing),
    /// so it is never a fixed-point record and never replayed.
    pub interrupts: u64,
    /// PMU counter deltas accumulated over the span's runs.
    pub pmu: PmuSnapshot,
}

/// Reusable per-run scratch state: everything [`Machine::run`] would
/// otherwise allocate afresh on every call. Attack loops call `run`
/// hundreds of thousands of times on the same machine, so the
/// check-mode program and the µop template are kept and recycled here.
#[derive(Debug, Clone)]
struct RunCtx {
    /// Check-mode program shared with the oracle, content-compared per
    /// run so only a *different* program pays a clone.
    check_program: Option<Arc<Program>>,
    /// Pre-decoded µop template, content-compared per run so only a
    /// *different* program pays a re-crack (see
    /// [`ProgramTemplate`]).
    template: Option<Arc<ProgramTemplate>>,
}

impl RunCtx {
    fn new() -> Self {
        RunCtx {
            check_program: None,
            template: None,
        }
    }

    /// The cached check-mode program, refreshed when `program` differs
    /// from the cached contents.
    fn check_program(&mut self, program: &Program) -> Arc<Program> {
        match &self.check_program {
            Some(p) if **p == *program => p.clone(),
            _ => {
                let p = Arc::new(program.clone());
                self.check_program = Some(p.clone());
                p
            }
        }
    }

    /// The pre-decoded template for `program`, re-cracked only when the
    /// program contents differ from the cached one. Borrowed, not
    /// cloned: machines forked from one snapshot share the `Arc`, and a
    /// per-run reference-count write from every worker thread would keep
    /// the template's cache line bouncing between cores.
    fn template(&mut self, program: &Program) -> &ProgramTemplate {
        if !matches!(&self.template, Some(t) if *t.program() == *program) {
            self.template = Some(Arc::new(ProgramTemplate::build(program)));
        }
        self.template.as_deref().expect("cached above")
    }
}

impl Machine {
    /// Creates a machine; `seed` drives the DRAM jitter stream.
    pub fn new(cfg: CpuConfig, seed: u64) -> Self {
        let mem = MemorySystem::new(cfg.mem, seed);
        Machine {
            cpu: Cpu::new(cfg),
            mem,
            phys: PhysMem::new(),
            aspace: Arc::new(AddressSpace::new()),
            frames: FrameAlloc::starting_at(0x1000),
            code_pages_mapped: 0,
            check_mode: false,
            ff_enabled: true,
            runs: 0,
            replayed_runs: 0,
            cycles_total: 0,
            snap_restores: 0,
            pmu_lifetime: PmuSnapshot::zero(),
            ctx: RunCtx::new(),
        }
    }

    /// Turns event-driven fast-forward on (the default) or off for this
    /// machine — the hook differential tests use to prove skipping is
    /// cycle-exact.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.ff_enabled = on;
    }

    /// Seals every journaled structure (TLBs, the four cache levels,
    /// physical memory) so clones of this state restore by journal
    /// replay (DESIGN.md §16).
    fn seal(&mut self) {
        self.cpu.seal();
        self.mem.seal();
        self.phys.seal();
    }

    /// Captures the machine's complete state. Only valid between runs
    /// (`run` is synchronous, so any quiescent machine qualifies).
    ///
    /// Sealing for O(touched) delta restore happens here: the machine
    /// and the snapshot share a sealed image, and later
    /// [`Machine::restore`] calls repair only what the trial dirtied.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        self.seal();
        MachineSnapshot {
            state: self.clone(),
        }
    }

    /// Rebuilds this machine into the snapshotted state **in place**,
    /// reusing this machine's existing heap allocations (ROB, caches,
    /// TLB arrays, PMU bank, page frames) — the hot path of
    /// fork-per-trial loops, which restore hundreds of thousands of
    /// times from one warmed-up snapshot.
    ///
    /// Lifetime diagnostics ([`Machine::stats`]) and the fast-forward
    /// setting are deliberately *not* rolled back: they describe this
    /// machine, not the snapshot.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        let Machine {
            cpu,
            mem,
            phys,
            aspace,
            frames,
            code_pages_mapped,
            check_mode,
            ff_enabled: _,
            runs: _,
            replayed_runs: _,
            cycles_total: _,
            snap_restores: _,
            pmu_lifetime: _,
            ctx: _,
        } = &snap.state;
        // The journaled arrays (TLBs, caches, physical memory) repair
        // only what they journaled since the shared seal, or copy
        // exhaustively when no seal is shared (e.g. the first restore
        // from a foreign snapshot, which then adopts its seal); every
        // other structure is copied.
        self.cpu.restore(cpu);
        self.mem.restore(mem);
        self.phys.restore(phys);
        // `Arc` bump when the mapping tree is unchanged since the
        // snapshot; a deep clone only when this machine COW-forked it.
        self.aspace.clone_from(aspace);
        self.frames = *frames;
        self.code_pages_mapped = *code_pages_mapped;
        self.check_mode = *check_mode;
        self.snap_restores += 1;
    }

    /// Builds a fresh machine from a snapshot — how parallel workers
    /// materialize their private copy of a shared warmed-up snapshot.
    /// Lifetime diagnostics start at zero.
    pub fn from_snapshot(snap: &MachineSnapshot) -> Machine {
        let mut m = snap.state.clone();
        m.runs = 0;
        m.replayed_runs = 0;
        m.cycles_total = 0;
        m.snap_restores = 0;
        m.pmu_lifetime = PmuSnapshot::zero();
        m.cpu.reset_lifetime_stats();
        m
    }

    /// Lifetime diagnostics: run count, simulated cycles, fast-forward
    /// savings, snapshot restores.
    pub fn stats(&self) -> MachineStats {
        let (ff_skipped_cycles, ff_sprints) = self.cpu.ff_stats();
        MachineStats {
            runs: self.runs,
            sim_cycles: self.cycles_total,
            ff_skipped_cycles,
            ff_sprints,
            snapshot_restores: self.snap_restores,
        }
    }

    /// How many of the lifetime runs ([`MachineStats::runs`]) were
    /// replayed by trial batching rather than simulated. Kept out of
    /// [`MachineStats`], which is identical batched and all-live.
    pub fn replayed_runs(&self) -> u64 {
        self.replayed_runs
    }

    /// Lifetime PMU totals: every run's counter delta summed, surviving
    /// snapshot restores (the live [`Cpu`] bank rolls back with them).
    /// This is what campaign telemetry divides to get cache/TLB/BPU hit
    /// rates over a whole trial loop.
    pub fn pmu_lifetime(&self) -> &PmuSnapshot {
        &self.pmu_lifetime
    }

    /// Marks the current lifetime counters; pair with
    /// [`Machine::delta_since`] to record what a probe adds to them.
    pub fn delta_marker(&self) -> DeltaMarker {
        let (ff_skipped, ff_sprints) = self.cpu.ff_stats();
        let (jitter_draws, jitter_sum) = self.mem.jitter_stats();
        DeltaMarker {
            runs: self.runs,
            cycles: self.cycles_total,
            ff_skipped,
            ff_sprints,
            restores: self.snap_restores,
            jitter_draws,
            jitter_sum,
            interrupts: self.cpu.interrupts_taken(),
            bpu: self.cpu.bpu().mark(),
            pmu: self.pmu_lifetime.clone(),
        }
    }

    /// The lifetime-counter movement since `marker` was taken.
    pub fn delta_since(&self, marker: &DeltaMarker) -> RunDelta {
        let (ff_skipped, ff_sprints) = self.cpu.ff_stats();
        let (jitter_draws, jitter_sum) = self.mem.jitter_stats();
        RunDelta {
            runs: self.runs - marker.runs,
            cycles: self.cycles_total - marker.cycles,
            ff_skipped: ff_skipped - marker.ff_skipped,
            ff_sprints: ff_sprints - marker.ff_sprints,
            restores: self.snap_restores - marker.restores,
            jitter_draws: jitter_draws - marker.jitter_draws,
            jitter_sum: jitter_sum - marker.jitter_sum,
            interrupts: self.cpu.interrupts_taken() - marker.interrupts,
            pmu: self.pmu_lifetime.delta(&marker.pmu),
        }
    }

    /// Cycles the machine can simulate before the next timer interrupt
    /// is taken: a span of `n` cycles starting now — live or replayed —
    /// is interrupt-free iff `n <= cycles_to_interrupt`. `None` when no
    /// interrupt noise is configured.
    pub fn cycles_to_interrupt(&self) -> Option<u64> {
        self.cpu.cycles_to_interrupt()
    }

    /// The branch-predictor operations issued since `marker` was
    /// taken, with their answers: `None` when the span issued more than
    /// the predictor's log holds (a warm attack probe issues two to six)
    /// or restored a snapshot. Together with the
    /// [`RunDelta`] this is what a replay must reproduce: the
    /// predictor is the one structure a replay changes
    /// ([`crate::Bpu::replay`]), because its state can keep moving
    /// while a probe's timing repeats exactly — a taken branch takes a
    /// dozen resolutions to shift out of the global history.
    pub fn bpu_ops_since(&self, marker: &DeltaMarker) -> Option<BpuSpan<'_>> {
        self.cpu.bpu().ops_since(&marker.bpu)
    }

    /// Advances the DRAM-jitter stream by `draws` draws on behalf of
    /// runs that are being replayed rather than simulated, returning
    /// the summed jitter actually drawn — exactly what the live runs
    /// would have drawn from the same stream position. Call this
    /// *before* [`Machine::apply_replayed_run`] and shift the recorded
    /// delta's jittered fields by the difference.
    pub fn replay_dram_jitter(&mut self, draws: u64) -> u64 {
        self.mem.replay_jitter(draws)
    }

    /// Replays the recorded effects of runs this machine did *not*
    /// execute (divergence-aware trial batching): every lifetime
    /// counter — run count, simulated cycles, fast-forward diagnostics,
    /// restore count, PMU lifetime totals, the live PMU bank and the
    /// core's global cycle clock — advances exactly as executing the
    /// recorded runs would have advanced it. Only valid when the
    /// machine is provably at the fixed point the record was captured
    /// at, i.e. replaying must be state-equivalent to re-running —
    /// which also means no timer interrupt may fall inside the
    /// replayed span (see [`Machine::cycles_to_interrupt`]).
    pub fn apply_replayed_run(&mut self, delta: &RunDelta) {
        debug_assert_eq!(delta.interrupts, 0, "replayed span took an interrupt");
        self.runs += delta.runs;
        self.replayed_runs += delta.runs;
        self.cycles_total += delta.cycles;
        self.snap_restores += delta.restores;
        self.pmu_lifetime.accumulate(&delta.pmu);
        self.cpu
            .absorb_replayed(delta.cycles, delta.ff_skipped, delta.ff_sprints, &delta.pmu);
    }

    /// The byte a faulting or architectural load of `vaddr` would make
    /// visible to transient dependents, computed without touching any
    /// machine state — the attacker-side oracle divergence-aware trial
    /// batching uses to predict which test value of a 0..=255 sweep
    /// will take the in-window branch.
    ///
    /// Mirrors the value (not the timing) semantics of the core's load
    /// path: user-mapped bytes read through; supervisor-mapped bytes
    /// forward under [`ForwardPolicy::Data`] when the line is cache
    /// resident (never on early-abort cores); unmapped addresses
    /// forward the stale fill-buffer byte when the core is
    /// MDS-vulnerable; everything else reads as zero.
    pub fn peek_transient_byte(&self, vaddr: u64) -> u8 {
        use tet_mem::WalkOutcome;
        match self.aspace.walk(vaddr).0 {
            WalkOutcome::Mapped(pte) => {
                let pa = pte.frame * PAGE_SIZE + (vaddr % PAGE_SIZE);
                let vuln = &self.cpu.config().vuln;
                let forwards = pte.user
                    || (!vuln.early_fault_abort
                        && vuln.meltdown_forward == ForwardPolicy::Data
                        && self.mem.probe_level(pa).is_some());
                if forwards {
                    self.phys.read_u8(pa)
                } else {
                    0
                }
            }
            _ => {
                if self.cpu.config().vuln.lfb_forward {
                    self.mem
                        .lfb()
                        .stale_byte((vaddr % tet_mem::LINE_SIZE) as usize)
                        .unwrap_or(0)
                } else {
                    0
                }
            }
        }
    }

    /// Turns the retirement differential oracle on or off for this
    /// machine only (DESIGN.md §9). Check mode is also forced globally
    /// by `TET_CHECK=1`.
    pub fn set_check_mode(&mut self, on: bool) {
        self.check_mode = on;
    }

    /// Whether this machine runs programs under the retirement oracle.
    pub fn check_mode(&self) -> bool {
        self.check_mode
    }

    /// The CPU configuration.
    pub fn config(&self) -> &CpuConfig {
        self.cpu.config()
    }

    /// The core (PMU, BPU, TLBs).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable core access.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Physical memory contents.
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Mutable physical memory.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// The cache hierarchy.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable cache hierarchy (priming fill buffers, flushing lines).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Split borrow of the hierarchy and physical memory — lets callers
    /// issue timed accesses (e.g. a simulated victim's loads) without
    /// cloning either.
    pub fn mem_and_phys_mut(&mut self) -> (&mut MemorySystem, &PhysMem) {
        (&mut self.mem, &self.phys)
    }

    /// The active address space.
    pub fn aspace(&self) -> &AddressSpace {
        &self.aspace
    }

    /// Mutable address space (the OS model edits mappings here). When
    /// the mapping tree is still shared with a snapshot this COW-forks
    /// it, so the snapshot's view never changes.
    pub fn aspace_mut(&mut self) -> &mut AddressSpace {
        Arc::make_mut(&mut self.aspace)
    }

    /// Maps a user-accessible data page at `vaddr` (page-aligned) backed
    /// by a fresh frame; returns the page's physical base address.
    pub fn map_user_page(&mut self, vaddr: u64) -> u64 {
        let frame = self.frames.alloc();
        Arc::make_mut(&mut self.aspace).map_page(vaddr, Pte::user_data(frame));
        frame * PAGE_SIZE
    }

    /// Maps a kernel (supervisor-only) page at `vaddr`; returns the
    /// page's physical base address.
    pub fn map_kernel_page(&mut self, vaddr: u64) -> u64 {
        let frame = self.frames.alloc();
        Arc::make_mut(&mut self.aspace).map_page(vaddr, Pte::kernel(frame));
        frame * PAGE_SIZE
    }

    /// Writes bytes at a mapped virtual address.
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unmapped.
    pub fn write_virt(&mut self, vaddr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            let pa = self
                .aspace
                .translate(vaddr + i as u64)
                .expect("write_virt requires a mapped page");
            self.phys.write_u8(pa, *b);
        }
    }

    /// Writes an 8-byte value at a mapped virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn write_virt_u64(&mut self, vaddr: u64, v: u64) {
        self.write_virt(vaddr, &v.to_le_bytes());
    }

    /// Reads a byte from a mapped virtual address (0 if unmapped).
    pub fn read_virt_u8(&self, vaddr: u64) -> u8 {
        self.aspace
            .translate(vaddr)
            .map(|pa| self.phys.read_u8(pa))
            .unwrap_or(0)
    }

    /// Flushes both TLBs (the attacker's eviction step).
    pub fn flush_tlbs(&mut self) {
        self.cpu.flush_tlbs(false);
    }

    /// Flushes the cache line holding `vaddr` (user-level `clflush`).
    pub fn clflush_virt(&mut self, vaddr: u64) {
        if let Some(pa) = self.aspace.translate(vaddr) {
            self.mem.clflush(pa);
        }
    }

    /// Ensures code pages for an `n`-instruction program are mapped
    /// (user-executable) so fetch can translate them.
    fn map_code(&mut self, n: usize) {
        let pages = (n as u64 * crate::INST_BYTES).div_ceil(PAGE_SIZE) as usize + 1;
        while self.code_pages_mapped < pages {
            let vaddr = code_vaddr(0) + self.code_pages_mapped as u64 * PAGE_SIZE;
            let frame = self.frames.alloc();
            Arc::make_mut(&mut self.aspace).map_page(vaddr, Pte::user_data(frame));
            self.code_pages_mapped += 1;
        }
    }

    /// Runs `program` to completion (halt, unhandled fault, run-off-end,
    /// or cycle limit) and reports the result.
    ///
    /// Pipeline state and architectural registers reset per run; BPU,
    /// DSB, TLBs, caches, fill buffers and the PMU persist.
    pub fn run(&mut self, program: &Program, cfg: &RunConfig) -> RunResult {
        self.map_code(program.len());
        let handle = cfg.run_sink();
        self.mem.set_sink(handle.clone());
        self.cpu.reset_run(&cfg.init_regs, cfg.handler_pc, handle);
        let pmu_before = self.cpu.pmu.snapshot();

        // Check mode: a reference interpreter follows the retirement
        // stream of this run and panics on the first architectural
        // divergence (DESIGN.md §9). The program is shared with the
        // cached copy in the run context — attack loops re-run the same
        // program, so only the first checked run clones it.
        let mut oracle = (self.check_mode || tet_check::enabled()).then(|| {
            tet_check::Oracle::new(
                self.ctx.check_program(program),
                tet_check::InterpConfig {
                    handler_pc: cfg.handler_pc,
                    has_tsx: self.cpu.config().vuln.has_tsx,
                },
                &cfg.init_regs,
            )
        });

        // Fast-forward requires per-cycle events to be off: skipped
        // cycles emit nothing, so trace-enabled runs step every cycle.
        let fast_forward = self.ff_enabled && !self.cpu.sink().enabled();

        // Resolve the pre-decoded µop template once per run; the
        // pipeline stages instantiate µops from it instead of
        // re-cracking instructions every fetch/rename.
        let template = self.ctx.template(program);

        let mut exit = RunExit::CycleLimit;
        while self.cpu.cycle() < cfg.max_cycles {
            if self.cpu.halted() {
                exit = match self.cpu.unhandled_fault() {
                    Some(r) => RunExit::UnhandledFault(*r),
                    None => RunExit::Halted,
                };
                break;
            }
            if self.cpu.ran_off_end(program) {
                exit = RunExit::RanOffEnd;
                break;
            }
            if fast_forward {
                self.cpu.try_fast_forward(cfg.max_cycles);
                if self.cpu.cycle() >= cfg.max_cycles {
                    break; // skipped to the budget: CycleLimit, like stepping would
                }
            }
            let mut env = Env {
                mem: &mut self.mem,
                phys: &mut self.phys,
                aspace: &self.aspace,
                check: oracle.as_mut(),
                template,
            };
            self.cpu.step(&mut env);
        }

        if let Some(oracle) = oracle.as_mut() {
            let class = match &exit {
                RunExit::Halted => tet_check::ExitClass::Halted,
                RunExit::CycleLimit => tet_check::ExitClass::CycleLimit,
                RunExit::RanOffEnd => tet_check::ExitClass::RanOffEnd,
                RunExit::UnhandledFault(r) => tet_check::ExitClass::UnhandledFault {
                    pc: r.pc,
                    vaddr: r.vaddr,
                    kind: crate::core::check_fault_kind(r.kind),
                },
            };
            oracle.on_run_end(class, self.cpu.regs(), self.cpu.flags());
        }

        self.runs += 1;
        self.cycles_total += self.cpu.cycle();
        let pmu_delta = self.cpu.pmu.snapshot().delta(&pmu_before);
        self.pmu_lifetime.accumulate(&pmu_delta);
        RunResult {
            exit,
            cycles: self.cpu.cycle(),
            regs: *self.cpu.regs(),
            flags: self.cpu.flags(),
            retired: self.cpu.retired_insts(),
            pmu: pmu_delta,
            exceptions: self.cpu.take_exceptions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_isa::{Asm, Cond};

    fn machine() -> Machine {
        Machine::new(CpuConfig::kaby_lake_i7_7700(), 7)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut m = machine();
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 10)
            .mov_imm(Reg::Rbx, 32)
            .add(Reg::Rax, Reg::Rbx)
            .sub(Reg::Rbx, 2u64)
            .halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rax), 42);
        assert_eq!(r.regs.get(Reg::Rbx), 30);
        assert_eq!(r.retired, 5);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut m = machine();
        m.map_user_page(0x20_0000);
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 0xfeed)
            .store_abs(Reg::Rax, 0x20_0008)
            .load_abs(Reg::Rbx, 0x20_0008)
            .halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rbx), 0xfeed);
        // And the value is architecturally visible afterwards.
        let pa = m.aspace().translate(0x20_0008).unwrap();
        assert_eq!(m.phys().read_u64(pa), 0xfeed);
    }

    /// The µop-template cache is keyed on program contents: one machine
    /// running A, A, B, A (miss, hit, miss, re-miss) must match a fresh
    /// machine running each program, so a cached template never leaks
    /// into a different program's run.
    #[test]
    fn template_cache_follows_program_switches() {
        let a_prog = {
            let mut a = Asm::new();
            let top = a.fresh_label();
            a.mov_imm(Reg::Rcx, 10).mov_imm(Reg::Rax, 0);
            a.bind(top)
                .add(Reg::Rax, 3u64)
                .sub(Reg::Rcx, 1u64)
                .jcc(Cond::Ne, top)
                .halt();
            a.assemble().unwrap()
        };
        let b_prog = {
            let mut a = Asm::new();
            a.mov_imm(Reg::Rbx, 5)
                .add(Reg::Rbx, Reg::Rbx)
                .sub(Reg::Rbx, 1u64)
                .halt();
            a.assemble().unwrap()
        };
        let mut m = machine();
        let snap = m.snapshot();
        let mut last: Option<Arc<ProgramTemplate>> = None;
        for (step, (prog, hit)) in [
            (&a_prog, false),
            (&a_prog, true),
            (&b_prog, false),
            (&a_prog, false),
        ]
        .into_iter()
        .enumerate()
        {
            m.restore(&snap);
            let got = m.run(prog, &RunConfig::default());
            let want = Machine::from_snapshot(&snap).run(prog, &RunConfig::default());
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {step}");
            let t = m.ctx.template.clone().expect("template cached");
            assert_eq!(
                last.is_some_and(|l| Arc::ptr_eq(&l, &t)),
                hit,
                "step {step}"
            );
            last = Some(t);
        }
    }

    #[test]
    fn taken_branch_skips_code() {
        let mut m = machine();
        let mut a = Asm::new();
        let skip = a.fresh_label();
        a.mov_imm(Reg::Rax, 1)
            .cmp_imm(Reg::Rax, 1)
            .jcc(Cond::E, skip)
            .mov_imm(Reg::Rbx, 99) // must be skipped
            .bind(skip)
            .halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rbx), 0);
    }

    #[test]
    fn loop_counts_down() {
        let mut m = machine();
        let mut a = Asm::new();
        let top = a.fresh_label();
        a.mov_imm(Reg::Rcx, 10).mov_imm(Reg::Rax, 0);
        a.bind(top)
            .add(Reg::Rax, 3u64)
            .sub(Reg::Rcx, 1u64)
            .jcc(Cond::Ne, top)
            .halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rax), 30);
        assert_eq!(r.regs.get(Reg::Rcx), 0);
    }

    #[test]
    fn call_and_ret() {
        let mut m = machine();
        // Give the program a stack.
        m.map_user_page(0x30_0000);
        let mut a = Asm::new();
        let f = a.fresh_label();
        let over = a.fresh_label();
        a.mov_imm(Reg::Rsp, 0x30_0800)
            .call(f)
            .add(Reg::Rax, 100u64)
            .jmp(over);
        a.bind(f).mov_imm(Reg::Rax, 1).ret();
        a.bind(over).halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rax), 101);
    }

    #[test]
    fn kernel_access_without_handler_terminates() {
        let mut m = machine();
        m.map_kernel_page(0xffff_ffff_8000_0000);
        let mut a = Asm::new();
        a.load_abs(Reg::Rax, 0xffff_ffff_8000_0000).halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        match r.exit {
            RunExit::UnhandledFault(rec) => {
                assert_eq!(rec.kind, crate::FaultKind::Permission);
                assert_eq!(rec.vaddr, 0xffff_ffff_8000_0000);
            }
            other => panic!("expected unhandled fault, got {other:?}"),
        }
    }

    #[test]
    fn signal_handler_resumes_after_fault() {
        let mut m = machine();
        let mut a = Asm::new();
        let handler = a.fresh_label();
        a.load_abs(Reg::Rax, 0xdead_0000) // unmapped → fault
            .mov_imm(Reg::Rbx, 1) // transient only
            .bind(handler)
            .mov_imm(Reg::Rcx, 7)
            .halt();
        let prog = a.assemble().unwrap();
        let r = m.run(
            &prog,
            &RunConfig {
                handler_pc: Some(2),
                ..RunConfig::default()
            },
        );
        assert_eq!(r.exit, RunExit::Halted);
        assert_eq!(r.regs.get(Reg::Rcx), 7);
        // The faulting load and its shadow never commit.
        assert_eq!(r.regs.get(Reg::Rbx), 0);
        assert_eq!(r.exceptions.len(), 1);
    }

    #[test]
    fn rdtsc_monotonic() {
        let mut m = machine();
        let mut a = Asm::new();
        a.rdtsc()
            .mov_reg(Reg::R8, Reg::Rax)
            .lfence()
            .nops(20)
            .lfence()
            .rdtsc()
            .sub(Reg::Rax, Reg::R8)
            .halt();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::Halted);
        assert!(r.regs.get(Reg::Rax) > 0, "elapsed time must be positive");
    }

    #[test]
    fn run_off_end_detected() {
        let mut m = machine();
        let mut a = Asm::new();
        a.nop().nop();
        let r = m.run(&a.assemble().unwrap(), &RunConfig::default());
        assert_eq!(r.exit, RunExit::RanOffEnd);
    }

    #[test]
    fn init_regs_apply() {
        let mut m = machine();
        let mut a = Asm::new();
        a.add(Reg::Rax, Reg::Rbx).halt();
        let r = m.run(
            &a.assemble().unwrap(),
            &RunConfig {
                init_regs: vec![(Reg::Rax, 2), (Reg::Rbx, 3)],
                ..RunConfig::default()
            },
        );
        assert_eq!(r.regs.get(Reg::Rax), 5);
    }

    #[test]
    fn determinism_same_seed_same_cycles() {
        let mk = || {
            let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 99);
            m.map_user_page(0x20_0000);
            let mut a = Asm::new();
            a.load_abs(Reg::Rax, 0x20_0000)
                .load_abs(Reg::Rbx, 0x20_1000)
                .halt();
            m.run(&a.assemble().unwrap(), &RunConfig::default()).cycles
        };
        assert_eq!(mk(), mk());
    }
}
