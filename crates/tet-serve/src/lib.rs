//! Campaign service for the Whisper TET reproduction.
//!
//! The simulator is fully deterministic: `(preset, scenario options,
//! seed)` uniquely determines every output byte. This crate turns that
//! property into a service — a long-running experiment server whose
//! results are *content-addressed*: each campaign request is
//! canonicalized ([`spec`]), hashed ([`sha`]), and either computed once
//! through the worker-pool scheduler ([`scheduler`]) or served from the
//! disk-backed result cache ([`cache`]) byte-identically to the cold
//! run. A sharded in-memory hot cache ([`hotcache`]) fronts the disk
//! store with fully rendered responses, so repeat hits are zero-copy
//! writes of prebuilt bytes. Transport is a hand-rolled minimal
//! HTTP/1.1 + JSON layer ([`http`], reusing `tet_obs::json`) with
//! keep-alive and pipelining — the build environment is offline and
//! the workspace vendors its dependencies.
//!
//! Binaries: `whisper-serve` (this crate) runs the server;
//! `serve_load` (in `whisper-bench`) drives it with closed-loop
//! clients; `table2_matrix --server URL` runs the headline experiment
//! as a thin client of the same scheduling core. See DESIGN.md §14.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hotcache;
pub mod http;
pub mod scheduler;
pub mod server;
pub mod sha;
pub mod spec;
mod sync;

pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use hotcache::{HotCache, HotCacheStats, HotEntry};
pub use server::{start, ServerConfig, ServerHandle};
pub use spec::{CampaignKind, CampaignSpec, KEY_FORMAT};
