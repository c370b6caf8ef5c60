//! The shape of one warm live probe per TET gadget, pinned.
//!
//! Each gadget (TET-CC, TET-MD, TET-ZBL with its 60-nop sea, TET-RSB
//! with its 96-nop sea) is warmed on a fresh i7-7700 scenario the way
//! its attack warms it, then probed once, live, with a fixed
//! non-matching test value. The probe's [`RunDelta`] — simulated
//! cycles, fast-forwarded cycles and the issued / retired / executed
//! µop counts — must stay exactly what it is: host-cost work on the µop
//! pipeline (record layout, dispatch, the stage loop) may change how
//! fast a probe simulates, never what it simulates.
//!
//! Each gadget's warm probe is also traced with fast-forward on and
//! off: the two event streams must be identical, and the fast side must
//! still skip cycles.
//!
//! The same file bounds the sizes of the two per-µop records, so
//! template data (the decoded instruction, register lists) cannot creep
//! back into every fetched and renamed µop.

use std::sync::Arc;

use tet_isa::{Program, Reg};
use tet_obs::{MemorySink, SinkHandle};
use tet_pmu::Event;
use tet_uarch::frontend::FetchedUop;
use tet_uarch::uop::RobEntry;
use tet_uarch::{CpuConfig, Machine, RunConfig, RunDelta, RunExit};
use whisper::attacks::{TetMeltdown, TetSpectreRsb, ZBL_PROBE_BASE};
use whisper::gadget::{RsbGadget, TetGadget, TetGadgetSpec, TransientBegin};
use whisper::scenario::{Scenario, ScenarioOptions, STACK_TOP};

/// What one probe added to the machine's lifetime counters.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    cycles: u64,
    ff_skipped: u64,
    issued: u64,
    retired: u64,
    executed: u64,
}

impl From<RunDelta> for Shape {
    fn from(d: RunDelta) -> Shape {
        assert_eq!(d.runs, 1, "one probe is one run");
        Shape {
            cycles: d.cycles,
            ff_skipped: d.ff_skipped,
            issued: d.pmu.count(Event::UopsIssuedAny),
            retired: d.pmu.count(Event::UopsRetiredAll),
            executed: d.pmu.count(Event::UopsExecutedAny),
        }
    }
}

fn scenario() -> Scenario {
    Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default())
}

/// Runs `probe` once on `machine` and returns the shape of that run.
fn shape_of(
    machine: &mut Machine,
    probe: impl FnOnce(&mut Machine) -> Option<(u64, u64)>,
) -> Shape {
    let marker = machine.delta_marker();
    probe(machine).expect("probe completes");
    machine.delta_since(&marker).into()
}

/// Probes `program` once on two clones of `warm`, traced, with
/// fast-forward off and on: the runs and their event streams must be
/// identical, and the fast side must skip cycles.
fn assert_traced_probe_matches_stepping(
    warm: &Machine,
    program: &Program,
    handler_pc: Option<usize>,
    init_regs: Vec<(Reg, u64)>,
) {
    let probe = |ff: bool| {
        let mut m = warm.clone();
        m.set_fast_forward(ff);
        let rec = Arc::new(MemorySink::new());
        let marker = m.delta_marker();
        let r = m.run(
            program,
            &RunConfig {
                handler_pc,
                init_regs: init_regs.clone(),
                sink: SinkHandle::attached(rec.clone()),
                ..RunConfig::default()
            },
        );
        assert_eq!(r.exit, RunExit::Halted);
        (
            format!("{r:?}"),
            rec.drain(),
            m.delta_since(&marker).ff_skipped,
        )
    };
    let (want, want_events, _) = probe(false);
    let (got, got_events, skipped) = probe(true);
    assert_eq!(got, want);
    assert_eq!(got_events, want_events);
    assert!(skipped > 0, "the traced probe never fast-forwarded");
}

/// [`assert_traced_probe_matches_stepping`] for a Figure 1a gadget
/// probed with `test` in `rbx`.
fn assert_traced_tet_probe(warm: &Machine, gadget: &TetGadget, test: u64) {
    let handler =
        (gadget.spec().begin == TransientBegin::SignalHandler).then_some(gadget.handler_pc);
    assert_traced_probe_matches_stepping(warm, &gadget.program, handler, vec![(Reg::Rbx, test)]);
}

#[test]
fn covert_channel_probe_shape() {
    let mut sc = scenario();
    sc.sender_write(0xa5);
    let cfg = sc.machine.config().clone();
    let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
    gadget.measure(&mut sc.machine, 0);
    assert_traced_tet_probe(&sc.machine, &gadget, 0x5a);
    let shape = shape_of(&mut sc.machine, |m| gadget.measure_detailed(m, 0x5a));
    assert_eq!(
        shape,
        Shape {
            cycles: 209,
            ff_skipped: 192,
            issued: 21,
            retired: 8,
            executed: 15,
        }
    );
}

#[test]
fn meltdown_probe_shape() {
    let mut sc = scenario();
    let cfg = sc.machine.config().clone();
    let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
    for _ in 0..TetMeltdown::default().warmup {
        gadget.measure(&mut sc.machine, 0);
    }
    assert_traced_tet_probe(&sc.machine, &gadget, 0x11);
    let shape = shape_of(&mut sc.machine, |m| gadget.measure_detailed(m, 0x11));
    assert_eq!(
        shape,
        Shape {
            cycles: 114,
            ff_skipped: 99,
            issued: 18,
            retired: 8,
            executed: 12,
        }
    );
}

#[test]
fn zombieload_probe_shape() {
    let mut sc = scenario();
    sc.set_victim_byte(0, b'L');
    let cfg = sc.machine.config().clone();
    let gadget = TetGadget::build(TetGadgetSpec::zombieload(ZBL_PROBE_BASE, &cfg));
    assert_eq!(gadget.spec().sea_nops, 60);
    sc.victim_touch(0);
    for _ in 0..3 {
        gadget.measure(&mut sc.machine, 0);
    }
    // The victim runs ahead of every probe, as in `sample_byte`.
    sc.victim_touch(0);
    assert_traced_tet_probe(&sc.machine, &gadget, 0x11);
    let shape = shape_of(&mut sc.machine, |m| gadget.measure_detailed(m, 0x11));
    assert_eq!(
        shape,
        Shape {
            cycles: 261,
            ff_skipped: 201,
            issued: 77,
            retired: 8,
            executed: 71,
        }
    );
}

#[test]
fn rsb_probe_shape() {
    let mut sc = scenario();
    let sea = TetSpectreRsb::default().sea_nops;
    assert_eq!(sea, 96);
    let gadget = RsbGadget::build(sc.user_secret_va, STACK_TOP, sea);
    for _ in 0..4 {
        gadget.measure(&mut sc.machine, 0);
    }
    assert_traced_probe_matches_stepping(
        &sc.machine,
        &gadget.program,
        None,
        vec![(Reg::Rbx, 0x11), (Reg::Rsp, gadget.stack_top)],
    );
    let shape = shape_of(&mut sc.machine, |m| gadget.measure_detailed(m, 0x11));
    assert_eq!(
        shape,
        Shape {
            cycles: 366,
            ff_skipped: 309,
            issued: 89,
            retired: 12,
            executed: 89,
        }
    );
}

#[test]
fn per_uop_records_carry_no_template_data() {
    // The decoded instruction lives in the run's `ProgramTemplate`,
    // read by pc; the records keep only per-µop state.
    assert!(
        std::mem::size_of::<RobEntry>() <= 288,
        "RobEntry grew to {} B",
        std::mem::size_of::<RobEntry>()
    );
    assert!(
        std::mem::size_of::<FetchedUop>() <= 16,
        "FetchedUop grew to {} B",
        std::mem::size_of::<FetchedUop>()
    );
}
