//! Deterministic parallel execution of independent simulator trials.
//!
//! Every paper artifact in this repository — the Table 2 attack matrix,
//! the `0..=255` argmax sweeps, the seed-replicated KASLR scans, the
//! ablation parameter sweeps — is an embarrassingly-parallel fan-out of
//! *independent* simulator runs: each trial builds its own
//! [`Machine`](../tet_uarch/struct.Machine.html)/scenario from a config
//! plus a seed, so trials share no mutable state. This crate provides the
//! one primitive those fan-outs need and nothing more: run an indexed
//! work list on `N` scoped worker threads and **commit results in
//! submission order**, so the output is byte-identical to a serial run
//! regardless of thread count or OS scheduling.
//!
//! # Determinism model (DESIGN.md §8)
//!
//! Two properties make `threads = 1` and `threads = 64` byte-identical:
//!
//! 1. **The work decomposition is fixed.** Callers split work by *index*
//!    (one cell, one seed, one payload chunk), never by "whatever thread
//!    is free next". Thread count only changes who executes an index,
//!    never what an index computes.
//! 2. **Results commit in submission order.** Each worker writes its
//!    result into the slot owned by its index; the caller consumes slots
//!    `0..n` in order. No result ever observes another trial's timing.
//!
//! Workers *claim* indices dynamically (an atomic cursor, so a slow trial
//! does not convoy the rest), which is safe precisely because trials are
//! independent.
//!
//! # Thread-count policy
//!
//! [`default_threads`] resolves, in order: the `TET_THREADS` environment
//! variable, then the host's available parallelism. Binaries layer a
//! `--threads N` flag on top via [`threads_from_args`].
//!
//! # Examples
//!
//! ```
//! let squares = tet_par::run_indexed(4, 10, |i| i * i);
//! assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the thread count to use when the caller did not pass one:
/// `TET_THREADS` if set to a positive integer, else the host's available
/// parallelism, else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TET_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Extracts a `--threads N` flag from CLI arguments, removing it (and its
/// value) from the list; falls back to [`default_threads`]. Accepts both
/// `--threads 8` and `--threads=8`.
///
/// # Examples
///
/// ```
/// let mut args = vec!["64".to_string(), "--threads".into(), "2".into()];
/// let threads = tet_par::threads_from_args(&mut args);
/// assert_eq!(threads, 2);
/// assert_eq!(args, vec!["64".to_string()]);
/// ```
pub fn threads_from_args(args: &mut Vec<String>) -> usize {
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--threads=") {
            threads = v.parse::<usize>().ok().filter(|&n| n > 0);
            args.remove(i);
            continue;
        }
        if args[i] == "--threads" {
            if i + 1 < args.len() {
                threads = args[i + 1].parse::<usize>().ok().filter(|&n| n > 0);
                args.drain(i..=i + 1);
            } else {
                args.remove(i);
            }
            continue;
        }
        i += 1;
    }
    threads.unwrap_or_else(default_threads)
}

/// Runs `f(0..n)` on up to `threads` scoped worker threads and returns
/// the results **in index order** — byte-identical to
/// `(0..n).map(f).collect()` for any thread count.
///
/// Indices are claimed dynamically from an atomic cursor, so an
/// expensive trial does not serialize the cheap ones behind it. With
/// `threads <= 1` (or `n <= 1`) the closure runs inline on the caller's
/// thread with no pool at all — the serial path stays allocation- and
/// synchronization-free.
///
/// # Panics
///
/// Propagates the first worker panic (by index order) to the caller.
pub fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(threads, n, || (), |(), i| f(i))
}

/// [`run_indexed`] with **worker-local scratch state**: each worker
/// thread builds one `S` via `init` and reuses it for every index it
/// claims — the shape trial runners need when each trial wants a warm
/// simulator machine (e.g. one restored from a shared
/// `MachineSnapshot`) without paying a full rebuild per trial.
///
/// Determinism contract: `f(&mut s, i)` must produce a result that
/// depends only on `i`, treating `s` purely as a reusable resource it
/// re-initializes (e.g. by snapshot restore) before use. Which indices
/// share a worker's state varies with thread count and scheduling; a
/// result that leaked information between trials through `s` would
/// break the byte-identical-at-any-thread-count guarantee.
///
/// # Panics
///
/// Propagates the first worker panic (by index order) to the caller.
///
/// # Examples
///
/// ```
/// // Each worker allocates one scratch buffer, reused across indices.
/// let out = tet_par::run_indexed_with(
///     4,
///     10,
///     || Vec::with_capacity(8),
///     |buf, i| {
///         buf.clear();
///         buf.extend((0..=i).map(|x| x as u64));
///         buf.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(out[4], 10);
/// ```
pub fn run_indexed_with<S, T, Init, F>(threads: usize, n: usize, init: Init, f: F) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_indexed_observed(threads, n, init, f, |_, _| {})
}

/// [`run_indexed_with`] plus a **telemetry observer**: `observe(i, &r)`
/// runs on the worker thread immediately after index `i` completes, in
/// *completion* order (which varies with thread count and scheduling).
///
/// This is the hook campaign dashboards and flight recorders attach to —
/// per-item progress without waiting for the whole fan-out. The observer
/// must only drive host-side telemetry (atomic counters, stderr
/// dashboards): results are committed before it runs and it returns
/// nothing, so it *cannot* change what the fan-out computes, keeping the
/// byte-identical-at-any-thread-count guarantee intact.
///
/// # Panics
///
/// Propagates the first worker panic (by index order) to the caller.
pub fn run_indexed_observed<S, T, Init, F, O>(
    threads: usize,
    n: usize,
    init: Init,
    f: F,
    observe: O,
) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    O: Fn(usize, &T) + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut s = init();
        return (0..n)
            .map(|i| {
                let r = f(&mut s, i);
                observe(i, &r);
                r
            })
            .collect();
    }
    // One mutex-free-in-practice slot per index: each slot is written by
    // exactly one worker (the one that claimed the index), so the lock is
    // never contended; it exists to make the slot writes safe Rust.
    let workers = threads.min(n);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panicked = AtomicUsize::new(usize::MAX);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut s = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut s, i)));
                    match result {
                        Ok(v) => {
                            observe(i, &v);
                            *slots[i].lock().expect("slot lock") = Some(v);
                        }
                        Err(_) => {
                            // Record the lowest panicking index so the
                            // caller re-panics deterministically, and stop
                            // claiming new work.
                            panicked.fetch_min(i, Ordering::SeqCst);
                            cursor.fetch_add(n, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });

    let bad = panicked.load(Ordering::SeqCst);
    if bad != usize::MAX {
        // Re-run the offending index inline (with fresh state) so the
        // caller sees the original panic payload (trials are
        // deterministic by contract).
        let _ = f(&mut init(), bad);
        panic!("parallel trial {bad} panicked");
    }

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every index was committed")
        })
        .collect()
}

/// Maps `f` over `items` in parallel, returning results in item order
/// (the slice analogue of [`run_indexed`]).
///
/// # Examples
///
/// ```
/// let doubled = tet_par::par_map(2, &[1, 2, 3], |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<I, T, F>(threads: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_commit_in_submission_order() {
        // Make later indices finish *earlier* to prove ordering does not
        // depend on completion time.
        let out = run_indexed(4, 32, |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i as u64) * 50));
            i * 3
        });
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_for_any_thread_count() {
        let reference: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 8, 17] {
            let got = run_indexed(threads, 100, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        run_indexed(8, 50, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn zero_and_one_items() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn indexed_with_matches_plain_indexed_at_any_thread_count() {
        let reference: Vec<u64> = (0..60).map(|i| (i as u64) * 7 + 1).collect();
        for threads in [1, 2, 5, 16] {
            let got = run_indexed_with(
                threads,
                60,
                || 0u64, // scratch the closure must not depend on
                |s, i| {
                    *s = s.wrapping_add(i as u64); // poison the scratch
                    (i as u64) * 7 + 1
                },
            );
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "with-state boom")]
    fn indexed_with_propagates_panics() {
        run_indexed_with(
            4,
            20,
            || (),
            |(), i| {
                if i == 7 {
                    panic!("with-state boom");
                }
                i
            },
        );
    }

    #[test]
    fn observed_fanout_matches_and_sees_every_item_once() {
        let reference: Vec<u64> = (0..40).map(|i| (i as u64) * 11).collect();
        for threads in [1, 2, 8] {
            let seen: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
            let sum = AtomicU64::new(0);
            let got = run_indexed_observed(
                threads,
                40,
                || (),
                |(), i| (i as u64) * 11,
                |i, r| {
                    seen[i].fetch_add(1, Ordering::SeqCst);
                    sum.fetch_add(*r, Ordering::SeqCst);
                },
            );
            assert_eq!(got, reference, "threads={threads}");
            for (i, s) in seen.iter().enumerate() {
                assert_eq!(s.load(Ordering::SeqCst), 1, "threads={threads} index {i}");
            }
            assert_eq!(sum.load(Ordering::SeqCst), reference.iter().sum::<u64>());
        }
    }

    #[test]
    #[should_panic(expected = "observed boom")]
    fn observed_fanout_propagates_panics() {
        run_indexed_observed(
            4,
            20,
            || (),
            |(), i| {
                if i == 9 {
                    panic!("observed boom");
                }
                i
            },
            |_, _| {},
        );
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<String> = (0..20).map(|i| format!("s{i}")).collect();
        let out = par_map(4, &items, |s| s.len());
        let want: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn worker_panics_propagate() {
        run_indexed(4, 20, |i| {
            if i == 13 {
                panic!("boom at 13");
            }
            i
        });
    }

    #[test]
    fn threads_flag_parsing() {
        let mut args = vec!["--threads".to_string(), "3".into(), "x".into()];
        assert_eq!(threads_from_args(&mut args), 3);
        assert_eq!(args, vec!["x".to_string()]);

        let mut args = vec!["--threads=5".to_string()];
        assert_eq!(threads_from_args(&mut args), 5);
        assert!(args.is_empty());

        // Dangling flag falls back to the default (>= 1 either way).
        let mut args = vec!["--threads".to_string()];
        assert!(threads_from_args(&mut args) >= 1);
        assert!(args.is_empty());
    }
}
