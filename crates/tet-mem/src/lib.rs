//! Memory subsystem model for the Whisper (DAC 2024) reproduction.
//!
//! The TET-KASLR attack and the Zombieload variant live or die on memory
//! subsystem details, so this crate models them explicitly:
//!
//! * [`phys`] — sparse simulated physical memory, one copy-on-write
//!   chunk per resident page.
//! * [`cache`] — set-associative, LRU caches (L1D/L1I/L2/LLC) with
//!   `clflush` support, and the one set-associative array behind both
//!   caches and TLBs: stamp LRU, MRU filter, lazily allocated
//!   copy-on-write chunks and O(1) flush.
//! * `cow` (crate-private) — the one journaled copy-on-write table
//!   behind caches, TLBs and physical memory: `Arc`-shared chunks, a
//!   seal, a chunk journal, and a delta restore that copies the
//!   snapshot's contents into uniquely held chunks in place.
//! * [`lfb`] — line fill buffers that retain *stale data* from recent
//!   fills, the substrate Zombieload samples.
//! * [`paging`] — 4-level page tables, PTE permission bits (present /
//!   user / writable / global / **reserved**, the last used by the FLARE
//!   dummy mappings).
//! * [`tlb`] — set-associative translation lookaside buffers, a
//!   VPN-keyed view over the cache array holding leaf PTEs. Whether a
//!   TLB entry is installed by a *faulting* access is the root cause of
//!   TET-KASLR (paper §5.2.4) and is decided by the CPU model, not here.
//! * [`walker`] — the hardware page walker with per-level costs; walks
//!   that fail (not-present / reserved-bit) report where they stopped so
//!   the core can model Intel's walk-retry behaviour
//!   (`DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK = 2` in Table 3).
//! * [`intmap`] — the fixed integer hasher behind the page-table and
//!   physical-page maps.
//! * [`hierarchy`] — the assembled [`MemorySystem`] with latency
//!   accounting and a seeded DRAM jitter model (the noise the paper's
//!   argmax analysis has to average away).
//!
//! Everything is deterministic given a seed; the only randomness is the
//! explicitly seeded DRAM jitter.

#![warn(missing_docs)]

pub mod cache;
mod cow;
pub mod hierarchy;
pub mod intmap;
pub mod lfb;
pub mod paging;
pub mod phys;
pub mod tlb;
pub mod walker;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{DataAccess, HitLevel, MemoryConfig, MemorySystem};
pub use intmap::{IntHasher, IntMap};
pub use lfb::LineFillBuffer;
pub use paging::{AddressSpace, FrameAlloc, Pte, WalkOutcome};
pub use phys::PhysMem;
pub use tlb::{Tlb, TlbConfig, TlbEntry};
pub use walker::{PageWalker, WalkConfig, WalkResult};

/// Bytes per page (4 KiB, the paper's probing granularity).
pub const PAGE_SIZE: u64 = 4096;

/// Bytes per cache line.
pub const LINE_SIZE: u64 = 64;

/// Returns the virtual page number of an address.
#[inline]
pub fn vpn(vaddr: u64) -> u64 {
    vaddr >> 12
}

/// Returns the cache-line address (line-aligned) of an address.
#[inline]
pub fn line_addr(addr: u64) -> u64 {
    addr & !(LINE_SIZE - 1)
}
