//! Observability for the Whisper TET simulator.
//!
//! This crate is the simulator's tracing and metrics backbone. It has three
//! layers, all dependency-free (the build environment is offline):
//!
//! 1. **Events** ([`event`]) — a structured, `Copy` vocabulary covering the
//!    µop lifecycle (rename → execute → retire/squash), frontend delivery,
//!    branch prediction, fault raise/delivery, cache/TLB/LFB activity, page
//!    walks, timer interrupts and SMT contention.
//! 2. **Sinks** ([`sink`]) — the object-safe [`sink::TraceSink`] trait plus
//!    an unbounded recorder ([`sink::MemorySink`]). Producers hold a
//!    [`sink::SinkHandle`]; a disabled handle costs one branch per
//!    would-be event.
//! 3. **Folds, reports and exporters** ([`uop`], [`report`], [`chrome`],
//!    [`json`]) — the one µop-lifecycle fold ([`uop::uop_spans`], a
//!    [`uop::UopSpan`] per renamed µop), the [`report::RunReport`] metrics
//!    bag every run can produce (JSON, with counters, per-stage cycles and
//!    percentile histograms) and a Chrome `trace_event` exporter whose
//!    output loads in Perfetto.
//!
//! The dependency direction is strictly upward: `tet-mem`, `tet-uarch` and
//! the benches depend on `tet-obs`, never the reverse. Events therefore use
//! crate-local enums ([`event::SquashCause`], [`event::MemLevel`], ...)
//! that producers convert into at the emission site.

#![warn(missing_docs)]

pub mod chrome;
pub mod env;
pub mod event;
pub mod json;
pub mod progress;
pub mod report;
pub mod sink;
pub mod uop;

pub use chrome::ChromeTrace;
pub use env::{env_flag, parse_flag_value};
pub use event::{DeliveryRoute, EventKind, FaultClass, MemLevel, SquashCause, TlbKind, TraceEvent};
pub use progress::{quiet, Progress};
pub use report::{Histogram, HistogramSummary, MetricsSection, RunReport, REPORT_SCHEMA_VERSION};
pub use sink::{MemorySink, SinkHandle, TraceSink};
pub use uop::{uop_spans, UopEnd, UopSpan};
