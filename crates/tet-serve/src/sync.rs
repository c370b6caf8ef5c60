//! Poison-tolerant lock acquisition.
//!
//! A thread that panics while holding a `std::sync` lock poisons it,
//! and `lock().unwrap()` then panics in every later caller: one failed
//! request would wedge the job table or a cache for the life of the
//! server. Every critical section in this crate leaves its data
//! consistent at each point where it can panic (counters and index
//! entries are updated together, file I/O happens outside the locks),
//! so the guard of a poisoned lock is recovered instead.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a panicking writer poisoned it.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a panicking writer poisoned it.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
