//! Watch the transient execution happen, µop by µop.
//!
//! Runs the TET-Meltdown gadget with a structured trace sink attached and
//! renders a pipeline chart from the µop lifecycle fold
//! ([`tet_obs::uop_spans`]): which µops retired (architectural), which
//! executed transiently and were squashed — and how the triggered Jcc's
//! misprediction reshapes the window.
//!
//! It also exports the full event stream (µop slices, faults, resteers,
//! cache/TLB activity) as Chrome trace JSON — load
//! `target/reports/trace_transient.{not_triggered,triggered}.chrome.json`
//! in <https://ui.perfetto.dev> to scrub through the transient window.
//!
//! Run: `cargo run -p whisper --example trace_transient`

use std::sync::Arc;

use tet_isa::{Program, Reg};
use tet_obs::{uop_spans, ChromeTrace, MemorySink, SinkHandle, SquashCause, TraceEvent, UopEnd};
use tet_uarch::{CpuConfig, RunConfig};
use whisper::gadget::{TetGadget, TetGadgetSpec, TransientBegin};
use whisper::scenario::{Scenario, ScenarioOptions};

fn render(program: &Program, events: &[TraceEvent], total_cycles: u64) {
    let width = 100usize;
    let scale = |c: u64| -> usize { (c as usize * (width - 1)) / total_cycles.max(1) as usize };
    println!(
        "{:<4} {:<26} {:<10} timeline (. renamed, = executing, R retired, x squashed)",
        "id", "inst", "fate"
    );
    for t in uop_spans(events) {
        // µops fetched past the program's end have no instruction to show.
        let Some(inst) = program.fetch(t.pc as usize) else {
            continue;
        };
        let mut line = vec![b' '; width];
        let start = scale(t.renamed_at);
        let exec = t.started_at.map(scale);
        let done = t.done_at.map(scale);
        let (end, endch, fate) = match t.end {
            Some((at, UopEnd::Retired)) => (scale(at), b'R', "retired"),
            Some((at, UopEnd::Squashed(cause))) => (
                scale(at),
                b'x',
                match cause {
                    SquashCause::BranchMispredict => "SQ:branch",
                    SquashCause::Fault => "SQ:fault",
                    SquashCause::TxnAbort => "SQ:abort",
                },
            ),
            None => (width - 1, b'?', "in-flight"),
        };
        for c in line.iter_mut().take(end + 1).skip(start) {
            *c = b'.';
        }
        if let (Some(e), Some(d)) = (exec, done) {
            for c in line.iter_mut().take(d.min(end) + 1).skip(e) {
                *c = b'=';
            }
        }
        line[end] = endch;
        println!(
            "{:<4} {:<26} {:<10} {}",
            t.id,
            format!("{inst}"),
            fate,
            String::from_utf8_lossy(&line)
        );
    }
}

fn main() {
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
    for _ in 0..4 {
        gadget.measure(&mut sc.machine, 0); // steady state
    }

    for (label, slug, test) in [
        ("NOT TRIGGERED (test != secret)", "not_triggered", 0u64),
        ("TRIGGERED (test == 'S')", "triggered", b'S' as u64),
    ] {
        let recorder = Arc::new(MemorySink::new());
        let r = sc.machine.run(
            &gadget.program,
            &RunConfig {
                handler_pc: Some(gadget.handler_pc),
                init_regs: vec![(Reg::Rbx, test)],
                sink: SinkHandle::attached(recorder.clone()),
                ..RunConfig::default()
            },
        );
        let events = recorder.drain();
        println!("\n=== {label}: ToTE = {} cycles ===", r.regs.get(Reg::Rax));
        render(&gadget.program, &events, r.cycles);

        let name = format!("trace_transient ({slug})");
        let json = ChromeTrace::new(&name, events).to_json();
        let dir = std::env::var("TET_REPORT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| std::path::PathBuf::from("target/reports"));
        std::fs::create_dir_all(&dir).expect("report dir");
        let path = dir.join(format!("trace_transient.{slug}.chrome.json"));
        std::fs::write(&path, json).expect("write chrome trace");
        println!(
            "chrome trace: {} (load in https://ui.perfetto.dev)",
            path.display()
        );
    }
    println!(
        "\nthe triggered run shows the in-window Jcc squashing its own shadow\n\
         (SQ:branch) before the faulting load's squash (SQ:fault) — and the\n\
         retirement of the measurement tail sliding right: that slide IS the\n\
         Whisper channel."
    );
}
