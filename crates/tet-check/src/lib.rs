//! Correctness layer for the out-of-order core (DESIGN.md §9).
//!
//! The whole value of the reproduction rests on the OoO core computing
//! the *architecturally correct* result while leaking only through
//! transient timing. This crate provides the independent ground truth:
//!
//! * [`RefInterp`] — a tiny in-order interpreter over `tet-isa` that
//!   executes a program purely architecturally (registers, flat memory,
//!   fault semantics; no caches, no speculation, no timing).
//! * [`Oracle`] — a retirement differential oracle. The machine drives
//!   the interpreter in lockstep with its own retirement stream and the
//!   oracle panics with a readable diff on the first divergence.
//! * [`gen`] — a random gadget-program generator and shrinker used by
//!   the fuzz harness in `tet-uarch/tests/`.
//!
//! # Enabling the checks
//!
//! Check mode is off by default (a run pays one branch per retired µop).
//! Turn it on per process with `TET_CHECK=1` (for a test suite or an
//! experiment binary alike). Individual machines can also opt in with
//! `Machine::set_check_mode` in `tet-uarch`.

use std::sync::OnceLock;

pub mod gen;
pub mod interp;
pub mod oracle;

pub use interp::{ArchFault, ArchFaultKind, InterpConfig, InterpState, MemWrite, RefInterp};
pub use oracle::{CommittedStore, DeliveredFault, Divergence, ExitClass, Oracle, RetiredUop};

/// The check-mode switch. [`enabled`] is read on every executed and
/// retired µop by every simulator thread, so it gets a cache line of its
/// own: sharing one with a static that some thread keeps writing (a
/// counting allocator's byte total, say) turns each read into a
/// coherence miss.
#[repr(align(64))]
struct Switches {
    /// Cached result of reading the `TET_CHECK` environment variable.
    from_env: OnceLock<bool>,
}

static SWITCHES: Switches = Switches {
    from_env: OnceLock::new(),
};

/// Whether check mode is on for this process: the `TET_CHECK`
/// environment variable is enabled (anything but `0`/`false`/`off`/empty;
/// see [`tet_obs::env_flag`]).
pub fn enabled() -> bool {
    *SWITCHES
        .from_env
        .get_or_init(|| tet_obs::env_flag("TET_CHECK", false))
}
