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
//! Turn it on either per process — `TET_CHECK=1 cargo test` — or
//! programmatically via [`enable`] (the `--check` flag of the
//! `whisper-bench` binaries does this). Individual machines can also opt
//! in with `Machine::set_check_mode` in `tet-uarch`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod gen;
pub mod interp;
pub mod oracle;

pub use interp::{ArchFault, ArchFaultKind, InterpConfig, InterpState, MemWrite, RefInterp};
pub use oracle::{CommittedStore, DeliveredFault, Divergence, ExitClass, Oracle, RetiredUop};

/// The check-mode switches. [`enabled`] is read on every executed and
/// retired µop by every simulator thread, so they get a cache line of
/// their own: sharing one with a static that some thread keeps writing
/// (a counting allocator's byte total, say) turns each read into a
/// coherence miss.
#[repr(align(64))]
struct Switches {
    /// Process-wide programmatic override (the `--check` CLI flag).
    forced: AtomicBool,
    /// Cached result of reading the `TET_CHECK` environment variable.
    from_env: OnceLock<bool>,
}

static SWITCHES: Switches = Switches {
    forced: AtomicBool::new(false),
    from_env: OnceLock::new(),
};

/// Turns check mode on for the whole process, as if `TET_CHECK=1` had
/// been set in the environment. Used by the `--check` benchmark flag.
pub fn enable() {
    SWITCHES.forced.store(true, Ordering::Relaxed);
}

/// Whether check mode is on for this process: [`enable`] was called or
/// the `TET_CHECK` environment variable is enabled (anything but
/// `0`/`false`/`off`/empty; see [`tet_obs::env_flag`]).
pub fn enabled() -> bool {
    SWITCHES.forced.load(Ordering::Relaxed)
        || *SWITCHES
            .from_env
            .get_or_init(|| tet_obs::env_flag("TET_CHECK", false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_forces_checks_on() {
        // Note: process-wide; harmless for the other tests in this crate
        // (none assert `enabled()` is false).
        enable();
        assert!(enabled());
    }
}
