//! The µop lifecycle fold: one [`UopSpan`] per renamed µop, folded from
//! its rename, execute and retire/squash events.
//!
//! This is the only place the lifecycle events are paired up. The Chrome
//! exporter draws its µop slices from it, and pipeline charts and tests
//! read it instead of re-walking the stream.

use std::collections::BTreeMap;

use crate::event::{EventKind, SquashCause, TraceEvent};

/// How a µop left the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopEnd {
    /// Retired architecturally.
    Retired,
    /// Squashed: its results were discarded.
    Squashed(SquashCause),
}

impl UopEnd {
    /// Stable lower-snake label used in exports (`"retired"` or the
    /// squash cause's label).
    pub const fn label(self) -> &'static str {
        match self {
            UopEnd::Retired => "retired",
            UopEnd::Squashed(cause) => cause.label(),
        }
    }
}

/// One µop's lifecycle, from rename to retirement or squash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopSpan {
    /// Hardware thread that renamed the µop.
    pub thread: u8,
    /// µop id, unique within its thread's run.
    pub id: u64,
    /// Instruction index the µop came from.
    pub pc: u64,
    /// Short opcode mnemonic.
    pub op: &'static str,
    /// Cycle the µop was renamed into the ROB.
    pub renamed_at: u64,
    /// Cycle execution started, if it did.
    pub started_at: Option<u64>,
    /// Cycle the result was ready, if execution finished.
    pub done_at: Option<u64>,
    /// Cycle and manner the µop left the machine; `None` if it was still
    /// in flight when the stream ended.
    pub end: Option<(u64, UopEnd)>,
}

impl UopSpan {
    /// Whether the µop executed but was squashed instead of retiring:
    /// part of a transient execution.
    pub fn transient(&self) -> bool {
        matches!(self.end, Some((_, UopEnd::Squashed(_)))) && self.started_at.is_some()
    }
}

/// Folds the µop lifecycle events of `events` into one span per
/// `(thread, id)`, in `(thread, id)` order. Execute and end events of a
/// µop whose rename is not in the stream are ignored.
pub fn uop_spans(events: &[TraceEvent]) -> Vec<UopSpan> {
    let mut spans: BTreeMap<(u8, u64), UopSpan> = BTreeMap::new();
    for ev in events {
        let key = |id| (ev.thread, id);
        match ev.kind {
            EventKind::UopRenamed { id, pc, op } => {
                spans.insert(
                    key(id),
                    UopSpan {
                        thread: ev.thread,
                        id,
                        pc,
                        op,
                        renamed_at: ev.cycle,
                        started_at: None,
                        done_at: None,
                        end: None,
                    },
                );
            }
            EventKind::UopExecuted {
                id,
                started_at,
                done_at,
            } => {
                if let Some(s) = spans.get_mut(&key(id)) {
                    s.started_at = Some(started_at);
                    s.done_at = Some(done_at);
                }
            }
            EventKind::UopRetired { id } => {
                if let Some(s) = spans.get_mut(&key(id)) {
                    s.end = Some((ev.cycle, UopEnd::Retired));
                }
            }
            EventKind::UopSquashed { id, cause } => {
                if let Some(s) = spans.get_mut(&key(id)) {
                    s.end = Some((ev.cycle, UopEnd::Squashed(cause)));
                }
            }
            _ => {}
        }
    }
    spans.into_values().collect()
}
