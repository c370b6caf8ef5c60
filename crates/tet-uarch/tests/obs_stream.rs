//! End-to-end tests of the structured trace stream: a Machine run with a
//! sink attached emits a consistent µop lifecycle, the µop-lifecycle fold
//! agrees with the stream's rename events, attaching a sink does not
//! perturb the simulation, and the Chrome exporter over real events stays
//! schema-valid.

use std::sync::Arc;

use tet_isa::{Asm, Reg};
use tet_obs::{uop_spans, ChromeTrace, EventKind, MemorySink, SinkHandle, TraceEvent};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit};

fn meltdown_asm() -> (Asm, usize) {
    let mut a = Asm::new();
    a.load_abs(Reg::Rax, 0xffff_ffff_8000_0000) // faults at retire
        .add(Reg::Rax, 1u64) // transient dependents
        .add(Reg::Rax, 2u64);
    let handler = a.here();
    a.halt();
    (a, handler)
}

fn recorded_run(
    m: &mut Machine,
    a: &Asm,
    handler: usize,
) -> (tet_uarch::RunResult, Vec<TraceEvent>) {
    let rec = Arc::new(MemorySink::new());
    let r = m.run(
        &a.assemble().expect("assembles"),
        &RunConfig {
            handler_pc: Some(handler),
            sink: SinkHandle::attached(rec.clone()),
            ..RunConfig::default()
        },
    );
    (r, rec.drain())
}

#[test]
fn sink_stream_is_lifecycle_consistent() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let (a, handler) = meltdown_asm();
    let (r, events) = recorded_run(&mut m, &a, handler);
    assert_eq!(r.exit, RunExit::Halted);
    assert!(!events.is_empty());

    // Cycles are monotone non-decreasing along the stream.
    let mut last = 0;
    for ev in &events {
        assert!(ev.cycle >= last, "clock went backwards at {ev:?}");
        last = ev.cycle;
    }

    // Every retired or squashed µop was renamed first, and no µop gets
    // two fates.
    let mut renamed = std::collections::HashSet::new();
    let mut ended = std::collections::HashSet::new();
    for ev in &events {
        match ev.kind {
            EventKind::UopRenamed { id, .. } => {
                assert!(renamed.insert(id), "duplicate rename of µop {id}");
            }
            EventKind::UopRetired { id } | EventKind::UopSquashed { id, .. } => {
                assert!(renamed.contains(&id), "µop {id} ended without rename");
                assert!(ended.insert(id), "µop {id} ended twice");
            }
            _ => {}
        }
    }

    // The Meltdown gadget must show its signature in the stream: a raised
    // permission fault, its serialized delivery, and fault squashes.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::FaultRaised { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::FaultDelivered { .. })));
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::UopSquashed {
            cause: tet_obs::SquashCause::Fault,
            ..
        }
    )));
}

#[test]
fn sink_stream_agrees_with_the_uop_fold() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let (a, handler) = meltdown_asm();
    let (_, events) = recorded_run(&mut m, &a, handler);
    let spans = uop_spans(&events);

    // One span per rename event, in rename order, carrying its cycle,
    // pc and opcode.
    let renames: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::UopRenamed { id, pc, op } => Some((e.thread, id, pc, op, e.cycle)),
            _ => None,
        })
        .collect();
    let folded: Vec<_> = spans
        .iter()
        .map(|s| (s.thread, s.id, s.pc, s.op, s.renamed_at))
        .collect();
    assert_eq!(folded, renames, "one span per renamed µop");
    assert!(
        spans.iter().any(|s| s.transient()),
        "the Meltdown shadow shows as transient spans"
    );
}

#[test]
fn attaching_a_sink_does_not_perturb_the_run() {
    let (a, handler) = meltdown_asm();
    let bare = {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
        m.map_kernel_page(0xffff_ffff_8000_0000);
        m.run(
            &a.assemble().expect("assembles"),
            &RunConfig {
                handler_pc: Some(handler),
                ..RunConfig::default()
            },
        )
    };
    let (observed, events) = {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
        m.map_kernel_page(0xffff_ffff_8000_0000);
        recorded_run(&mut m, &a, handler)
    };
    assert_eq!(bare.exit, observed.exit);
    assert_eq!(
        bare.cycles, observed.cycles,
        "tracing must not change timing"
    );
    assert_eq!(bare.retired, observed.retired);
    assert!(!events.is_empty());
}

#[test]
fn chrome_export_of_a_real_run_is_schema_valid() {
    use tet_obs::json::Value;
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let (a, handler) = meltdown_asm();
    let (_, events) = recorded_run(&mut m, &a, handler);
    let doc = ChromeTrace::new("obs_stream", events).to_value();
    let list = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    assert!(!list.is_empty());
    for e in list {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("ph").and_then(Value::as_str).is_some());
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        assert!(e.get("tid").and_then(Value::as_u64).is_some());
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
    }
}
