//! Host-side metrics for the Whisper TET simulator.
//!
//! Everything in this crate measures the *host* — wall-clock time,
//! throughput, progress — and must never feed back into simulated state:
//! simulation outputs stay byte-identical with metrics on or off, at any
//! thread count (the determinism suite gates this). Three layers:
//!
//! 1. **Registry** ([`registry`]) — sharded counters, gauges and
//!    log-bucketed histograms. Worker threads write through a
//!    [`MetricsHandle`] into their own shard (no cross-thread contention);
//!    a disabled handle costs one branch, mirroring the
//!    `tet_obs::SinkHandle` discipline. Snapshots merge shards into a
//!    [`tet_obs::MetricsSection`] for RunReport v3 embedding.
//! 2. **Flight recorder** ([`flight`]) — periodic campaign telemetry
//!    (trials/sec, ns/trial, ff-skip ratio, cache/TLB/BPU hit rates,
//!    ETA), appended as JSONL and streamed to the [`top`] stderr
//!    dashboard.
//! 3. **Exporters** ([`prom`], [`top`]) — Prometheus text exposition
//!    (plus a tiny validating parser for CI smoke tests) and the
//!    `whisper-top` live dashboard.
//!
//! Environment switches: `TET_METRICS=1` enables the registry,
//! `TET_FLIGHT=<path>` appends flight-recorder samples as JSONL. Both
//! default off; `TET_QUIET=1` silences the dashboard.

#![warn(missing_docs)]

pub mod flight;
pub mod prom;
pub mod registry;
pub mod top;

pub use flight::{FlightRecorder, FlightSample};
pub use prom::{parse_prometheus, to_prometheus, PromSample};
pub use registry::{MetricsHandle, Registry};
pub use top::Top;
