//! Gadget builders for the paper's attack primitives.
//!
//! All gadgets share one convention: `rbx` carries the attacker's test
//! value, `rax`/`r8` carry the timestamps, and the measured ToTE ends up
//! in `rax` when the program halts.

use tet_isa::{Asm, Cond, Program, Reg};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit};

/// How the gadget suppresses the fault that opens the transient window —
/// `transient_begin()` in the paper's Figure 1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientBegin {
    /// Register a signal handler; the kernel delivers the fault there.
    SignalHandler,
    /// Wrap the block in a TSX transaction; faults abort to the fallback.
    Tsx,
}

impl TransientBegin {
    /// Picks TSX when the CPU model has it, signal handling otherwise.
    pub fn auto(cfg: &CpuConfig) -> TransientBegin {
        if cfg.vuln.has_tsx {
            TransientBegin::Tsx
        } else {
            TransientBegin::SignalHandler
        }
    }
}

/// What value the in-window Jcc compares against the test value in `rbx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareSource {
    /// The faulting load's transiently forwarded byte (TET-MD, TET-ZBL).
    TransientLoad,
    /// An architecturally readable byte at this address (TET-CC: the
    /// covert-channel sender writes here).
    UserByte(u64),
    /// No data dependence: an always-taken `jz` from a self-subtraction
    /// (the Listing 2 KASLR probe).
    AlwaysTaken,
}

/// Specification of a Figure 1a-style TET gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetGadgetSpec {
    /// The address whose access opens the transient window (faults).
    pub probe_addr: u64,
    /// The Jcc's comparison source.
    pub compare: CompareSource,
    /// The Jcc flavour used on a match (the paper verifies JE/JZ,
    /// JNE/JNZ and JC all leak; see the `ablation_jcc` experiment).
    pub jcc: Cond,
    /// Fall-through `nop` padding. Small values keep the two paths
    /// occupancy-symmetric (TET-MD's *longer* sign); large values make
    /// the fall-through path expensive to squash (TET-ZBL's *shorter*
    /// sign). Mirrors the paper's Figure 4 nop-count ablation.
    pub sea_nops: usize,
    /// Fault suppression mechanism.
    pub begin: TransientBegin,
}

impl TetGadgetSpec {
    /// The TET-MD shape: compare the transiently loaded byte, symmetric
    /// paths, fault suppression per CPU capability.
    pub fn meltdown(probe_addr: u64, cfg: &CpuConfig) -> Self {
        TetGadgetSpec {
            probe_addr,
            compare: CompareSource::TransientLoad,
            jcc: Cond::E,
            sea_nops: 1,
            begin: TransientBegin::auto(cfg),
        }
    }

    /// The TET-ZBL shape: compare the stale-forwarded byte, long
    /// fall-through sea (occupancy-asymmetric).
    pub fn zombieload(probe_addr: u64, cfg: &CpuConfig) -> Self {
        TetGadgetSpec {
            probe_addr,
            compare: CompareSource::TransientLoad,
            jcc: Cond::E,
            sea_nops: 60,
            begin: TransientBegin::auto(cfg),
        }
    }

    /// The TET-CC shape: null-pointer window, compare a shared user byte.
    pub fn covert_channel(shared_byte: u64, cfg: &CpuConfig) -> Self {
        TetGadgetSpec {
            probe_addr: 0, // the paper's `*(char*)(0x0)`
            compare: CompareSource::UserByte(shared_byte),
            jcc: Cond::E,
            sea_nops: 1,
            begin: TransientBegin::auto(cfg),
        }
    }

    /// The Listing 2 KASLR probe shape: always-taken `jz`, signal
    /// suppression (works on every model).
    pub fn kaslr_probe(candidate: u64) -> Self {
        TetGadgetSpec {
            probe_addr: candidate,
            compare: CompareSource::AlwaysTaken,
            jcc: Cond::E,
            sea_nops: 1,
            begin: TransientBegin::SignalHandler,
        }
    }
}

/// An assembled TET gadget ready to measure.
#[derive(Debug, Clone)]
pub struct TetGadget {
    /// The gadget program.
    pub program: Program,
    /// Signal-handler / resume pc (the instruction after the block).
    pub handler_pc: usize,
    spec: TetGadgetSpec,
}

impl TetGadget {
    /// Builds the gadget of Figure 1a for `spec`.
    pub fn build(spec: TetGadgetSpec) -> TetGadget {
        let mut a = Asm::new();
        let matched = a.fresh_label();
        let end = a.fresh_label();

        a.rdtsc().mov_reg(Reg::R8, Reg::Rax).lfence();
        if spec.begin == TransientBegin::Tsx {
            a.xbegin(end);
        }
        // ---- Transient block start --------------------------------------
        a.load_byte_abs(Reg::Rax, spec.probe_addr); // the faulting access
        match spec.compare {
            CompareSource::TransientLoad => {
                a.cmp(Reg::Rax, Reg::Rbx);
            }
            CompareSource::UserByte(addr) => {
                // Inject a false dependency on the faulting load so the
                // Jcc resolves *inside* the transient window (its
                // recovery must overlap fault delivery for the stall to
                // be visible in ToTE).
                a.load_byte_abs(Reg::R10, addr)
                    .and(Reg::Rax, 0u64)
                    .add(Reg::R10, Reg::Rax)
                    .cmp(Reg::R10, Reg::Rbx);
            }
            CompareSource::AlwaysTaken => {
                a.sub(Reg::R11, Reg::R11); // zf := 1
            }
        }
        a.jcc(spec.jcc, matched)
            .nops(spec.sea_nops)
            .bind(matched)
            .nop();
        if spec.begin == TransientBegin::Tsx {
            a.xend();
        }
        // ---- Transient block end ----------------------------------------
        a.bind(end);
        let handler_pc = a.here();
        a.lfence().rdtsc().sub(Reg::Rax, Reg::R8).halt();

        TetGadget {
            program: a.assemble().expect("gadget layout is closed"),
            handler_pc,
            spec,
        }
    }

    /// The specification this gadget was built from.
    pub fn spec(&self) -> TetGadgetSpec {
        self.spec
    }

    /// The test value expected to take this gadget's in-window branch
    /// on `machine` right now — the divergence oracle for trial
    /// batching ([`crate::batch::ProbeMemo`]). `None` when no single
    /// test value is predictable (a non-equality compare, or an
    /// always-taken branch), which disables batching for this gadget.
    ///
    /// The prediction reads the same forwarding semantics the core's
    /// load path applies ([`Machine::peek_transient_byte`]), so it is
    /// exact whenever the gadget's compare operand is stable across
    /// the sweep — the warmed-up steady state every decode loop runs
    /// in.
    pub fn match_hint(&self, machine: &Machine) -> Option<u64> {
        if self.spec.jcc != Cond::E {
            return None;
        }
        match self.spec.compare {
            CompareSource::TransientLoad => {
                Some(machine.peek_transient_byte(self.spec.probe_addr) as u64)
            }
            CompareSource::UserByte(addr) => Some(machine.peek_transient_byte(addr) as u64),
            CompareSource::AlwaysTaken => None,
        }
    }

    /// Measures one ToTE sample with test value `test` in `rbx`.
    ///
    /// Returns `None` when the gadget did not complete (e.g. the fault
    /// could not be suppressed on this CPU model).
    pub fn measure(&self, machine: &mut Machine, test: u64) -> Option<u64> {
        self.measure_detailed(machine, test).map(|(tote, _)| tote)
    }

    /// Like [`TetGadget::measure`], also returning the total simulated
    /// cycles of the run (for throughput accounting).
    pub fn measure_detailed(&self, machine: &mut Machine, test: u64) -> Option<(u64, u64)> {
        let handler = match self.spec.begin {
            TransientBegin::SignalHandler => Some(self.handler_pc),
            // TSX aborts transfer control by themselves; faults outside
            // the transaction would be fatal, which is what we want to
            // observe.
            TransientBegin::Tsx => None,
        };
        run_halted(machine, &self.program, handler, vec![(Reg::Rbx, test)])
    }
}

/// Runs `program` once and, if it halted, returns `rax` (the measured
/// elapsed time, by the gadget convention) and the run's total cycles.
fn run_halted(
    machine: &mut Machine,
    program: &Program,
    handler_pc: Option<usize>,
    init_regs: Vec<(Reg, u64)>,
) -> Option<(u64, u64)> {
    let r = machine.run(
        program,
        &RunConfig {
            handler_pc,
            init_regs,
            ..RunConfig::default()
        },
    );
    (r.exit == RunExit::Halted).then(|| (r.regs.get(Reg::Rax), r.cycles))
}

/// The Listing 1 Spectre-RSB gadget: the architectural return address is
/// redirected past the measurement, while the RSB transiently "returns"
/// into a secret-dependent Jcc block.
#[derive(Debug, Clone)]
pub struct RsbGadget {
    /// The gadget program.
    pub program: Program,
    /// The architectural continuation (the redirected return target).
    pub done_pc: usize,
    /// Required initial `rsp` (one mapped stack page below it).
    pub stack_top: u64,
    secret_addr: u64,
}

impl RsbGadget {
    /// Builds the gadget reading the in-process secret byte at
    /// `secret_addr`, with `sea` nops of fall-through padding.
    pub fn build(secret_addr: u64, stack_top: u64, sea: usize) -> RsbGadget {
        let assemble = |done_pc: u64| -> (Asm, usize) {
            let mut a = Asm::new();
            let f = a.fresh_label();
            let matched = a.fresh_label();
            a.rdtsc().mov_reg(Reg::R8, Reg::Rax).lfence().call(f);
            // Transient return path (the RSB predicts a return here). On
            // a match the Jcc escapes straight to the measurement tail,
            // so the squashed window stays empty until the `ret`
            // resolves — maximising the occupancy difference the channel
            // times.
            a.load_byte_abs(Reg::Rax, secret_addr)
                .cmp(Reg::Rax, Reg::Rbx)
                .jcc(Cond::E, matched)
                .nops(sea);
            a.bind(f); // architectural callee: redirect the return
            a.mov_imm(Reg::R9, done_pc)
                .store(Reg::R9, Reg::Rsp, 0)
                .clflush(Reg::Rsp, 0)
                .ret();
            let done = a.here();
            a.bind(matched);
            a.lfence().rdtsc().sub(Reg::Rax, Reg::R8).halt();
            (a, done)
        };
        let (_, done_pc) = assemble(0);
        let (a, done2) = assemble(done_pc as u64);
        debug_assert_eq!(done_pc, done2, "two-pass layout must agree");
        RsbGadget {
            program: a.assemble().expect("gadget layout is closed"),
            done_pc,
            stack_top,
            secret_addr,
        }
    }

    /// The in-process secret address this gadget reads.
    pub fn secret_addr(&self) -> u64 {
        self.secret_addr
    }

    /// The test value expected to take the transient Jcc — the secret
    /// byte itself, architecturally readable in the Spectre threat
    /// model (see [`TetGadget::match_hint`]).
    pub fn match_hint(&self, machine: &Machine) -> Option<u64> {
        Some(machine.peek_transient_byte(self.secret_addr) as u64)
    }

    /// Measures one ToTE sample with test value `test`.
    pub fn measure(&self, machine: &mut Machine, test: u64) -> Option<u64> {
        self.measure_detailed(machine, test).map(|(tote, _)| tote)
    }

    /// Like [`RsbGadget::measure`], also returning total run cycles.
    pub fn measure_detailed(&self, machine: &mut Machine, test: u64) -> Option<(u64, u64)> {
        run_halted(
            machine,
            &self.program,
            None,
            vec![(Reg::Rbx, test), (Reg::Rsp, self.stack_top)],
        )
    }
}

/// Measures the ToTE of any user-supplied gadget program (e.g. one
/// written in the [`tet_isa::text`] assembly syntax): the program must
/// follow the gadget convention — test value in `rbx`, the measured
/// elapsed time in `rax` at halt. Returns `(tote, run_cycles)`.
///
/// # Examples
///
/// ```
/// use tet_isa::text::parse;
/// use tet_uarch::{CpuConfig, Machine};
/// use whisper::gadget::measure_custom;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
/// let prog = parse(
///     "rdtsc\nmov r8, rax\nlfence\nnop\nnop\nlfence\nrdtsc\nsub rax, r8\nhalt",
/// )?;
/// let (tote, cycles) = measure_custom(&mut m, &prog, None, 0)
///     .expect("gadget completes");
/// assert!(tote > 0 && cycles >= tote);
/// # Ok(())
/// # }
/// ```
pub fn measure_custom(
    machine: &mut Machine,
    program: &Program,
    handler_pc: Option<usize>,
    test: u64,
) -> Option<(u64, u64)> {
    run_halted(machine, program, handler_pc, vec![(Reg::Rbx, test)])
}

/// A timed software-prefetch probe (the EntryBleed / prefetch-KASLR
/// baseline): never faults, measures only translation depth.
#[derive(Debug, Clone)]
pub struct PrefetchProbe {
    /// The probe program.
    pub program: Program,
    /// Whether a `syscall` precedes the probe to warm the KPTI
    /// trampoline's TLB entries (the EntryBleed trick).
    pub syscall_first: bool,
}

impl PrefetchProbe {
    /// Builds a probe of `candidate`.
    pub fn build(candidate: u64, syscall_first: bool) -> PrefetchProbe {
        let mut a = Asm::new();
        if syscall_first {
            a.syscall();
        }
        a.rdtsc()
            .mov_reg(Reg::R8, Reg::Rax)
            .lfence()
            .prefetch_abs(candidate)
            .lfence()
            .rdtsc()
            .sub(Reg::Rax, Reg::R8)
            .halt();
        PrefetchProbe {
            program: a.assemble().expect("probe layout is closed"),
            syscall_first,
        }
    }

    /// Measures the prefetch latency.
    pub fn measure(&self, machine: &mut Machine) -> Option<u64> {
        run_halted(machine, &self.program, None, Vec::new()).map(|(latency, _)| latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_uarch::CpuConfig;

    const KSECRET: u64 = 0xffff_ffff_8100_0000;

    #[test]
    fn auto_begin_follows_tsx_capability() {
        assert_eq!(
            TransientBegin::auto(&CpuConfig::skylake_i7_6700()),
            TransientBegin::Tsx
        );
        assert_eq!(
            TransientBegin::auto(&CpuConfig::raptor_lake_i9_13900k()),
            TransientBegin::SignalHandler
        );
    }

    #[test]
    fn signal_gadget_measures_a_tote() {
        let cfg = CpuConfig::raptor_lake_i9_13900k();
        let mut m = Machine::new(cfg.clone(), 1);
        m.map_kernel_page(KSECRET);
        let g = TetGadget::build(TetGadgetSpec::meltdown(KSECRET, &cfg));
        let t = g.measure(&mut m, 0).expect("measurement completes");
        assert!(t > 0);
    }

    #[test]
    fn tsx_gadget_measures_a_tote() {
        let cfg = CpuConfig::skylake_i7_6700();
        let mut m = Machine::new(cfg.clone(), 1);
        m.map_kernel_page(KSECRET);
        let g = TetGadget::build(TetGadgetSpec::meltdown(KSECRET, &cfg));
        assert_eq!(g.spec().begin, TransientBegin::Tsx);
        let t = g.measure(&mut m, 0).expect("TSX abort path completes");
        assert!(t > 0);
    }

    #[test]
    fn tsx_gadget_fails_without_tsx() {
        // Force a TSX gadget onto a CPU without TSX: the fault cannot be
        // suppressed and the measurement reports failure.
        let cfg = CpuConfig::raptor_lake_i9_13900k();
        let mut m = Machine::new(cfg, 1);
        m.map_kernel_page(KSECRET);
        let spec = TetGadgetSpec {
            begin: TransientBegin::Tsx,
            ..TetGadgetSpec::meltdown(KSECRET, &CpuConfig::skylake_i7_6700())
        };
        let g = TetGadget::build(spec);
        assert_eq!(g.measure(&mut m, 0), None);
    }

    #[test]
    fn meltdown_gadget_leaks_on_vulnerable_core() {
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let mut m = Machine::new(cfg.clone(), 5);
        let pa = m.map_kernel_page(KSECRET);
        m.phys_mut().write_u8(pa, 0x5a);
        let g = TetGadget::build(TetGadgetSpec::meltdown(KSECRET, &cfg));
        for _ in 0..4 {
            g.measure(&mut m, 0);
        }
        let baseline = g
            .measure(&mut m, 0)
            .expect("warmed meltdown probe must complete");
        let hit = g
            .measure(&mut m, 0x5a)
            .expect("warmed meltdown probe must complete");
        assert!(
            hit > baseline,
            "match must lengthen ToTE ({hit} vs {baseline})"
        );
    }

    #[test]
    fn covert_channel_gadget_keys_on_user_byte() {
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let mut m = Machine::new(cfg.clone(), 5);
        let shared = 0x44_0000u64;
        let pa = m.map_user_page(shared);
        m.phys_mut().write_u8(pa, 0x33);
        let g = TetGadget::build(TetGadgetSpec::covert_channel(shared, &cfg));
        for _ in 0..4 {
            g.measure(&mut m, 0);
        }
        let miss = g
            .measure(&mut m, 0x11)
            .expect("warmed covert-channel probe must complete");
        let hit = g
            .measure(&mut m, 0x33)
            .expect("warmed covert-channel probe must complete");
        assert!(
            hit > miss,
            "sender byte match must lengthen ToTE ({hit} vs {miss})"
        );
    }

    #[test]
    fn rsb_gadget_round_trips_architecturally() {
        let mut m = Machine::new(CpuConfig::raptor_lake_i9_13900k(), 5);
        let secret = 0x50_0000u64;
        let pa = m.map_user_page(secret);
        m.phys_mut().write_u8(pa, b'R');
        m.map_user_page(0x60_0000);
        let g = RsbGadget::build(secret, 0x60_0800, 48);
        let t = g.measure(&mut m, 0).expect("completes");
        assert!(t > 0);
    }

    #[test]
    fn prefetch_probe_distinguishes_translation_depth() {
        let mut m = Machine::new(CpuConfig::comet_lake_i9_10980xe(), 5);
        m.map_kernel_page(KSECRET);
        let mapped = PrefetchProbe::build(KSECRET, false);
        let unmapped = PrefetchProbe::build(0xffff_ffff_a000_0000, false);
        m.flush_tlbs();
        let t_mapped = mapped
            .measure(&mut m)
            .expect("prefetch probe of mapped VA must complete");
        m.flush_tlbs();
        let t_unmapped = unmapped
            .measure(&mut m)
            .expect("prefetch probe of unmapped VA must complete");
        assert_ne!(
            t_mapped, t_unmapped,
            "walk depth must show in prefetch time"
        );
    }
}
