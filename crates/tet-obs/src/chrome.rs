//! Chrome `trace_event` exporter.
//!
//! Converts a stream of [`TraceEvent`]s into the Chrome trace-event JSON
//! format (the `{"traceEvents": [...]}` object form) loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping:
//!
//! * each µop's [`UopSpan`](crate::uop::UopSpan) from the lifecycle fold
//!   ([`uop_spans`]) becomes one complete (`"ph":"X"`) slice from rename
//!   to retire/squash, on a per-µop track (`tid` = µop id within its
//!   thread's process), with execution start/finish and fate in `args`;
//! * faults, resteers, squash causes, timer interrupts and SMT stalls
//!   become instant events (`"ph":"i"`);
//! * frontend delivery and cache/TLB activity become counter events
//!   (`"ph":"C"`) so Perfetto draws them as time series.
//!
//! One simulated cycle maps to one microsecond of trace time (`ts` is in
//! µs), which makes Perfetto's zoom/duration labels read directly as
//! cycle counts.

use crate::event::{EventKind, TraceEvent};
use crate::json::Value;
use crate::uop::uop_spans;

/// Builds Chrome trace JSON from recorded events.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
    process_name: String,
}

impl ChromeTrace {
    /// Creates an exporter over the given events.
    pub fn new(process_name: &str, events: Vec<TraceEvent>) -> ChromeTrace {
        ChromeTrace {
            events,
            process_name: process_name.to_string(),
        }
    }

    /// Renders the `{"traceEvents": [...]}` JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Renders the JSON value tree (used by schema tests).
    pub fn to_value(&self) -> Value {
        let mut out: Vec<Value> = Vec::new();

        // Process metadata: one pid per hardware thread.
        let mut threads: Vec<u8> = self.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        if threads.is_empty() {
            threads.push(0);
        }
        for &t in &threads {
            let mut meta = Value::obj();
            meta.set("name", Value::from("process_name"));
            meta.set("ph", Value::from("M"));
            meta.set("pid", Value::from(u64::from(t)));
            meta.set("tid", Value::from(0u64));
            meta.set("ts", Value::from(0u64));
            let mut args = Value::obj();
            args.set(
                "name",
                Value::from(format!("{} (thread {})", self.process_name, t)),
            );
            meta.set("args", args);
            out.push(meta);
        }

        // µop slices from the lifecycle fold: tid = µop id so each µop
        // gets its own lane and overlap (the transient window) is visible
        // at a glance. A µop still in flight ends at the last cycle seen.
        let last_cycle = self.events.iter().map(|e| e.cycle).max().unwrap_or(0);
        for s in uop_spans(&self.events) {
            let (end_cycle, fate) = s
                .end
                .map_or((last_cycle, "in_flight"), |(at, end)| (at, end.label()));
            let mut e = Value::obj();
            e.set("name", Value::from(format!("{} @{:#x}", s.op, s.pc)));
            e.set("cat", Value::from("uop"));
            e.set("ph", Value::from("X"));
            e.set("pid", Value::from(u64::from(s.thread)));
            e.set("tid", Value::from(s.id));
            e.set("ts", Value::from(s.renamed_at));
            e.set(
                "dur",
                Value::from(end_cycle.saturating_sub(s.renamed_at).max(1)),
            );
            let mut args = Value::obj();
            args.set("uop", Value::from(s.id));
            args.set("pc", Value::from(format!("{:#x}", s.pc)));
            args.set("fate", Value::from(fate));
            if let Some(at) = s.started_at {
                args.set("exec_start", Value::from(at));
            }
            if let Some(at) = s.done_at {
                args.set("exec_done", Value::from(at));
            }
            e.set("args", args);
            out.push(e);
        }

        // Instants and counters on dedicated tracks.
        for ev in &self.events {
            match ev.kind {
                EventKind::FrontendCycle {
                    dsb_uops,
                    mite_uops,
                    stalled,
                } => {
                    let mut e = counter(ev, "frontend delivery");
                    let mut args = Value::obj();
                    args.set("dsb", Value::from(dsb_uops));
                    args.set("mite", Value::from(mite_uops));
                    args.set("stalled", Value::from(u32::from(stalled)));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::CacheAccess { level, latency, .. } => {
                    let mut e = counter(ev, "mem latency");
                    let mut args = Value::obj();
                    args.set(level.label(), Value::from(latency));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::BranchPredicted { .. } | EventKind::TlbLookup { .. } => {
                    // High-volume, low-signal in a timeline; summarized via
                    // RunReport counters instead of cluttering the trace.
                }
                EventKind::Resteer {
                    target_pc,
                    flushed_uops,
                } => {
                    let mut e = instant(ev, "resteer");
                    let mut args = Value::obj();
                    args.set("target_pc", Value::from(format!("{target_pc:#x}")));
                    args.set("flushed_uops", Value::from(flushed_uops));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::FaultRaised { pc, vaddr, class } => {
                    let mut e = instant(ev, "fault raised");
                    let mut args = Value::obj();
                    args.set("pc", Value::from(format!("{pc:#x}")));
                    args.set("vaddr", Value::from(format!("{vaddr:#x}")));
                    args.set("class", Value::from(class.label()));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::FaultDelivered {
                    pc,
                    class,
                    route,
                    squashed_uops,
                } => {
                    let mut e = instant(ev, "fault delivered");
                    let mut args = Value::obj();
                    args.set("pc", Value::from(format!("{pc:#x}")));
                    args.set("class", Value::from(class.label()));
                    args.set("route", Value::from(route.label()));
                    args.set("squashed_uops", Value::from(squashed_uops));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::TimerInterrupt { until } => {
                    let mut e = instant(ev, "timer interrupt");
                    let mut args = Value::obj();
                    args.set("until", Value::from(until));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::SmtContention { until } => {
                    let mut e = instant(ev, "smt contention");
                    let mut args = Value::obj();
                    args.set("until", Value::from(until));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::PageWalk {
                    vaddr,
                    cycles,
                    mapped,
                } => {
                    let mut e = instant(ev, "page walk");
                    let mut args = Value::obj();
                    args.set("vaddr", Value::from(format!("{vaddr:#x}")));
                    args.set("cycles", Value::from(cycles));
                    args.set("mapped", Value::from(mapped));
                    e.set("args", args);
                    out.push(e);
                }
                EventKind::TlbFlush { kind, kept_global } => {
                    let mut e = instant(ev, "tlb flush");
                    let mut args = Value::obj();
                    args.set("tlb", Value::from(kind.label()));
                    args.set("kept_global", Value::from(kept_global));
                    e.set("args", args);
                    out.push(e);
                }
                _ => {}
            }
        }

        let mut doc = Value::obj();
        doc.set("traceEvents", Value::Arr(out));
        doc.set("displayTimeUnit", Value::from("ns"));
        let mut meta = Value::obj();
        meta.set("tool", Value::from("tet-obs"));
        meta.set("time_unit", Value::from("1 ts = 1 simulated cycle"));
        doc.set("metadata", meta);
        doc
    }
}

/// Common fields for an instant (`ph:"i"`) event on the "pipeline events"
/// track of the event's thread.
fn instant(ev: &TraceEvent, name: &str) -> Value {
    let mut e = Value::obj();
    e.set("name", Value::from(name));
    e.set("cat", Value::from("pipeline"));
    e.set("ph", Value::from("i"));
    e.set("s", Value::from("t"));
    e.set("pid", Value::from(u64::from(ev.thread)));
    e.set("tid", Value::from(0u64));
    e.set("ts", Value::from(ev.cycle));
    e
}

/// Common fields for a counter (`ph:"C"`) event.
fn counter(ev: &TraceEvent, name: &str) -> Value {
    let mut e = Value::obj();
    e.set("name", Value::from(name));
    e.set("cat", Value::from("counter"));
    e.set("ph", Value::from("C"));
    e.set("pid", Value::from(u64::from(ev.thread)));
    e.set("tid", Value::from(0u64));
    e.set("ts", Value::from(ev.cycle));
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultClass, SquashCause};
    use crate::json;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 1,
                thread: 0,
                kind: EventKind::UopRenamed {
                    id: 0,
                    pc: 0x400,
                    op: "load",
                },
            },
            TraceEvent {
                cycle: 4,
                thread: 0,
                kind: EventKind::UopExecuted {
                    id: 0,
                    started_at: 2,
                    done_at: 4,
                },
            },
            TraceEvent {
                cycle: 9,
                thread: 0,
                kind: EventKind::UopSquashed {
                    id: 0,
                    cause: SquashCause::Fault,
                },
            },
            TraceEvent {
                cycle: 9,
                thread: 0,
                kind: EventKind::FaultRaised {
                    pc: 0x400,
                    vaddr: 0xffff_8000_0000_0000,
                    class: FaultClass::Permission,
                },
            },
            TraceEvent {
                cycle: 3,
                thread: 0,
                kind: EventKind::FrontendCycle {
                    dsb_uops: 4,
                    mite_uops: 0,
                    stalled: false,
                },
            },
        ]
    }

    #[test]
    fn trace_events_have_required_fields() {
        let doc = ChromeTrace::new("test", sample_events()).to_value();
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").and_then(Value::as_str).is_some());
            assert!(e.get("ph").and_then(Value::as_str).is_some());
            assert!(e.get("pid").and_then(Value::as_u64).is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
            assert!(e.get("ts").and_then(Value::as_u64).is_some());
            if e.get("ph").and_then(Value::as_str) == Some("X") {
                assert!(e.get("dur").and_then(Value::as_u64).is_some());
            }
        }
    }

    #[test]
    fn uop_slice_spans_rename_to_squash() {
        let doc = ChromeTrace::new("test", sample_events()).to_value();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one uop slice");
        assert_eq!(slice.get("ts").and_then(Value::as_u64), Some(1));
        assert_eq!(slice.get("dur").and_then(Value::as_u64), Some(8));
        let args = slice.get("args").expect("args");
        assert_eq!(
            args.get("fate").and_then(Value::as_str),
            Some("fault"),
            "squash cause becomes the fate"
        );
    }

    #[test]
    fn output_parses_as_json() {
        let text = ChromeTrace::new("test", sample_events()).to_json();
        let doc = json::parse(&text).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
    }
}
