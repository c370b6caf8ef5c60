//! Figure 3 — frontend-issued resteer within transient execution: the
//! per-cycle DSB/MITE µop delivery trace around the in-window mispredict.
//!
//! The paper's Figure 3 shows the frontend switching away from the DSB
//! and stalling when the triggered Jcc resteers it. We print the
//! delivery trace of a triggered and a non-triggered run side by side.
//!
//! Run: `cargo run -p whisper-bench --bin fig3_resteer`

use std::sync::Arc;

use tet_isa::Reg;
use tet_obs::{EventKind, MemorySink, SinkHandle};
use tet_uarch::{CpuConfig, RunConfig};
use whisper::gadget::{TetGadget, TetGadgetSpec, TransientBegin};
use whisper::scenario::{Scenario, ScenarioOptions};
use whisper_bench::{section, write_report, RunReport};

/// One cycle of frontend delivery: `(dsb_uops, mite_uops, stalled)`.
type Delivery = (u32, u32, bool);

/// The run's `FrontendCycle` events, one per simulated cycle.
fn trace(sc: &mut Scenario, gadget: &TetGadget, test: u64) -> Vec<Delivery> {
    let recorder = Arc::new(MemorySink::new());
    sc.machine.run(
        &gadget.program,
        &RunConfig {
            handler_pc: Some(gadget.handler_pc),
            init_regs: vec![(Reg::Rbx, test)],
            sink: SinkHandle::attached(recorder.clone()),
            ..RunConfig::default()
        },
    );
    recorder
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::FrontendCycle {
                dsb_uops,
                mite_uops,
                stalled,
            } => Some((dsb_uops, mite_uops, stalled)),
            _ => None,
        })
        .collect()
}

fn render(trace: &[Delivery]) -> String {
    // One character per cycle: D = DSB delivery, M = MITE delivery,
    // . = stalled, _ = idle.
    trace
        .iter()
        .map(|&(dsb, mite, stalled)| {
            if mite > 0 {
                'M'
            } else if dsb > 0 {
                'D'
            } else if stalled {
                '.'
            } else {
                '_'
            }
        })
        .collect()
}

fn stall(t: &[Delivery]) -> usize {
    t.iter().filter(|e| e.2).count()
}

fn dsb(t: &[Delivery]) -> usize {
    t.iter().map(|e| e.0 as usize).sum()
}

/// Frontend delivery of a not-triggered and a triggered run of the
/// signal-handler Meltdown gadget on Kaby Lake, from steady state.
fn figure3() -> (Vec<Delivery>, Vec<Delivery>) {
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let mut sc = Scenario::new(
        cfg.clone(),
        &ScenarioOptions {
            kernel_secret: b"S".to_vec(),
            ..ScenarioOptions::default()
        },
    );
    let gadget = TetGadget::build(TetGadgetSpec {
        begin: TransientBegin::SignalHandler,
        ..TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg)
    });
    // Steady state first.
    for _ in 0..4 {
        gadget.measure(&mut sc.machine, 0);
        gadget.measure(&mut sc.machine, b'S' as u64);
    }
    let quiet = trace(&mut sc, &gadget, 0);
    let triggered = trace(&mut sc, &gadget, b'S' as u64);
    (quiet, triggered)
}

fn main() {
    let (quiet, triggered) = figure3();
    section("Figure 3: frontend delivery per cycle (D=DSB, M=MITE, .=stall, _=idle)");
    println!("Jcc not triggered ({} cycles):", quiet.len());
    println!("  {}", render(&quiet));
    println!("Jcc triggered    ({} cycles):", triggered.len());
    println!("  {}", render(&triggered));

    println!(
        "\nstall cycles: not-triggered {}, triggered {}",
        stall(&quiet),
        stall(&triggered)
    );
    println!(
        "DSB uops:     not-triggered {}, triggered {}",
        dsb(&quiet),
        dsb(&triggered)
    );
    assert!(
        stall(&triggered) > stall(&quiet),
        "the resteer must add frontend stall cycles"
    );
    assert!(
        triggered.len() > quiet.len(),
        "the triggered run must take longer overall"
    );
    println!("\nreproduced: the in-window resteer stalls the frontend and stretches the run");

    let mut rep = RunReport::new("fig3_resteer");
    rep.set_meta("cpu", "kaby_lake_i7_7700");
    rep.set_meta("figure", "3");
    rep.counter("cycles_not_triggered", quiet.len() as u64);
    rep.counter("cycles_triggered", triggered.len() as u64);
    rep.stage("stall_not_triggered", stall(&quiet) as u64);
    rep.stage("stall_triggered", stall(&triggered) as u64);
    rep.counter("dsb_uops_not_triggered", dsb(&quiet) as u64);
    rep.counter("dsb_uops_triggered", dsb(&triggered) as u64);
    write_report(&rep);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report's counts, pinned: `(cycles, stall cycles, DSB µops)`
    /// of each run, and the resteer's extra stall cycles.
    #[test]
    fn resteer_stalls_the_frontend_with_the_reported_counts() {
        let (quiet, triggered) = figure3();
        let counts = |t: &[Delivery]| (t.len(), stall(t), dsb(t));
        assert_eq!(counts(&quiet), (132, 128, 16), "not triggered");
        assert_eq!(counts(&triggered), (142, 136, 21), "triggered");
        assert!(stall(&triggered) > stall(&quiet));
    }
}
