//! Trace sinks and the handle the simulator emits through.
//!
//! The design goal is *zero cost when disabled*: a [`SinkHandle`] is an
//! `Option<Arc<..>>` plus a thread id, every emit site is `#[inline]`, and
//! the disabled path is a single branch on `Option::is_some` — no
//! allocation, no virtual call, no formatting.
//!
//! When enabled, events flow through the object-safe [`TraceSink`] trait.
//! [`MemorySink`], an unbounded mutex-guarded vector, is the recorder
//! callers attach to a run; [`crate::uop::uop_spans`] and the exporters
//! read what it drained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{EventKind, TraceEvent};

/// Receives structured trace events. Implementations use interior
/// mutability; `emit` takes `&self` so one sink can be shared by the core,
/// the memory hierarchy and both SMT threads.
pub trait TraceSink {
    /// Accepts one event. Must not panic; dropping events is allowed.
    fn emit(&self, ev: TraceEvent);
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// An unbounded in-memory sink: the recorder a caller attaches to a run
/// for full traces. It trades a mutex per event for losslessness.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Takes all recorded events, leaving the sink empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }
}

impl TraceSink for MemorySink {
    #[inline]
    fn emit(&self, ev: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(ev);
    }
}

// ---------------------------------------------------------------------------
// SinkHandle
// ---------------------------------------------------------------------------

struct SinkCore {
    sink: Arc<dyn TraceSink + Send + Sync>,
    /// Current simulated cycle, shared between the core (which advances it)
    /// and passive emitters like the memory hierarchy (which only read it).
    clock: AtomicU64,
}

/// The cheap, cloneable handle the simulator emits through.
///
/// A disabled handle (`SinkHandle::disabled()`, also `Default`) is a `None`
/// plus a byte; every emit path starts with one branch on that `Option` and
/// does nothing else. Payload construction happens at the call site, but
/// since [`EventKind`] is built from values already in registers the
/// optimizer drops it on the disabled path.
///
/// The handle also carries the *trace clock*: the core calls
/// [`SinkHandle::tick`] once per cycle, and components that have no cycle
/// counter of their own (caches, TLBs) timestamp their events from the
/// shared clock.
#[derive(Clone, Default)]
pub struct SinkHandle {
    core: Option<Arc<SinkCore>>,
    thread: u8,
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.core.is_some())
            .field("thread", &self.thread)
            .finish()
    }
}

impl SinkHandle {
    /// A handle that drops everything at the cost of one branch.
    #[inline]
    pub fn disabled() -> SinkHandle {
        SinkHandle::default()
    }

    /// A handle feeding `sink`, timestamping from a fresh shared clock.
    pub fn attached(sink: Arc<dyn TraceSink + Send + Sync>) -> SinkHandle {
        SinkHandle {
            core: Some(Arc::new(SinkCore {
                sink,
                clock: AtomicU64::new(0),
            })),
            thread: 0,
        }
    }

    /// A sibling handle sharing this one's sink and clock but tagging
    /// events with a different hardware-thread id.
    pub fn for_thread(&self, thread: u8) -> SinkHandle {
        SinkHandle {
            core: self.core.clone(),
            thread,
        }
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The underlying sink, if attached — a run re-wraps it with
    /// [`SinkHandle::attached`] so every run starts from a fresh clock.
    pub fn sink_arc(&self) -> Option<Arc<dyn TraceSink + Send + Sync>> {
        self.core.as_ref().map(|c| c.sink.clone())
    }

    /// Advances the shared trace clock. Called by the core once per cycle.
    #[inline]
    pub fn tick(&self, cycle: u64) {
        if let Some(core) = &self.core {
            core.clock.store(cycle, Ordering::Relaxed);
        }
    }

    /// Emits an event stamped with the shared clock's current cycle.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(core) = &self.core {
            core.sink.emit(TraceEvent {
                cycle: core.clock.load(Ordering::Relaxed),
                thread: self.thread,
                kind,
            });
        }
    }

    /// Emits an event with an explicit cycle stamp (for retro-dated events
    /// such as a squash recorded at resolution time).
    #[inline]
    pub fn emit_at(&self, cycle: u64, kind: EventKind) {
        if let Some(core) = &self.core {
            core.sink.emit(TraceEvent {
                cycle,
                thread: self.thread,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> EventKind {
        EventKind::UopRetired { id }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = SinkHandle::disabled();
        assert!(!h.enabled());
        h.tick(10);
        h.emit(ev(1));
        h.emit_at(5, ev(2));
        assert!(h.sink_arc().is_none(), "a disabled handle holds no sink");
    }

    #[test]
    fn memory_sink_records_in_order_with_clock() {
        let sink = Arc::new(MemorySink::new());
        let h = SinkHandle::attached(sink.clone());
        h.tick(3);
        h.emit(ev(1));
        h.tick(7);
        h.emit(ev(2));
        h.emit_at(5, ev(3));
        let evs = sink.drain();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].cycle, 3);
        assert_eq!(evs[1].cycle, 7);
        assert_eq!(evs[2].cycle, 5);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn sibling_handles_share_clock_but_tag_threads() {
        let sink = Arc::new(MemorySink::new());
        let t0 = SinkHandle::attached(sink.clone());
        let t1 = t0.for_thread(1);
        t0.tick(42);
        t1.emit(ev(1));
        let evs = sink.drain();
        assert_eq!(evs[0].cycle, 42, "clock is shared");
        assert_eq!(evs[0].thread, 1, "thread tag differs");
    }
}
