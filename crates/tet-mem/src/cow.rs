//! The one journaled copy-on-write table behind caches, TLBs and
//! physical memory (DESIGN.md §16, §19).
//!
//! A [`CowTable`] is a dense table of fixed-length `Arc` chunks; an
//! absent chunk was never written and reads as `T::default()`. Clones
//! share every chunk until one side writes it. [`CowTable::get_mut`] is
//! the one write path: once sealed, it journals the chunk (once per
//! epoch) before `Arc::make_mut` allocates or forks it.
//! [`CowTable::restore`] across a shared seal repairs only the journaled
//! chunks, copying into uniquely held ones in place so the next trial's
//! writes neither allocate nor copy; from any other source it clones the
//! table and adopts the source's seal.

use std::sync::Arc;

/// A journaled copy-on-write table of `chunk_len`-element chunks (see
/// the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CowTable<T> {
    /// Elements per chunk.
    chunk_len: usize,
    /// `None` = never written, every element `T::default()`. Shared with
    /// clones until written.
    chunks: Vec<Option<Arc<[T]>>>,
    /// Identity of the seal this table (and any clone of it) derives
    /// from; `restore` only trusts the journal across a shared seal.
    seal: Option<Arc<()>>,
    /// Journal epoch: 0 = journaling off (never sealed). A chunk is
    /// already journaled this epoch iff `jepoch[ci] == epoch`.
    epoch: u32,
    /// Per-chunk journal stamps, deduplicating `journal`.
    jepoch: Vec<u32>,
    /// Chunks written since the last seal/restore.
    journal: Vec<u32>,
    /// Set when [`CowTable::clear`] dropped chunks without journaling
    /// them; forces the next restore down the copying path.
    full_dirty: bool,
}

impl<T: Copy + Default> CowTable<T> {
    /// A table of `chunks` absent chunks of `chunk_len` elements each.
    pub(crate) fn new(chunks: usize, chunk_len: usize) -> Self {
        CowTable {
            chunk_len,
            chunks: vec![None; chunks],
            seal: None,
            epoch: 0,
            jepoch: vec![0; chunks],
            journal: Vec::new(),
            full_dirty: false,
        }
    }

    /// Number of chunks, present or absent.
    pub(crate) fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Appends an absent chunk and returns its index.
    pub(crate) fn push(&mut self) -> usize {
        self.chunks.push(None);
        self.jepoch.push(0);
        self.chunks.len() - 1
    }

    /// Chunk `ci`, or `None` if it was never written.
    #[inline]
    pub(crate) fn get(&self, ci: usize) -> Option<&[T]> {
        self.chunks[ci].as_deref()
    }

    /// The one write path: journals chunk `ci` (once per epoch), then
    /// allocates it if absent or forks it if shared with a clone.
    #[inline]
    pub(crate) fn get_mut(&mut self, ci: usize) -> &mut [T] {
        if self.epoch != 0 && self.jepoch[ci] != self.epoch {
            self.jepoch[ci] = self.epoch;
            self.journal.push(ci as u32);
        }
        let len = self.chunk_len;
        let chunk =
            self.chunks[ci].get_or_insert_with(|| std::iter::repeat_n(T::default(), len).collect());
        Arc::make_mut(chunk)
    }

    /// Drops every chunk without journaling, so every element reads as
    /// `T::default()`; the next restore copies.
    pub(crate) fn clear(&mut self) {
        self.chunks.fill(None);
        self.full_dirty = true;
    }

    /// Number of chunks journaled since the last seal/restore.
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Whether this table and `other` derive from the same seal.
    pub(crate) fn shares_seal(&self, other: &Self) -> bool {
        matches!((&self.seal, &other.seal), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Marks the current contents as a snapshot point: clones taken now
    /// share this seal (and every chunk), and every later write journals
    /// its chunk. O(1).
    pub(crate) fn seal(&mut self) {
        self.seal = Some(Arc::new(()));
        self.journal.clear();
        self.full_dirty = false;
        self.bump_epoch();
    }

    /// Starts a new journal epoch; wraps reset the per-chunk stamps so a
    /// recycled epoch value can never alias a stale journal mark.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.jepoch.fill(0);
            self.epoch = 1;
        }
    }

    /// Rolls this table back to `src`, a sealed snapshot. Across a
    /// shared seal each journaled chunk is repaired: copied into in
    /// place when this table holds it alone, dropped when the snapshot
    /// lacks it, re-pointed at the snapshot's otherwise. Any other
    /// source is cloned and its seal adopted. Returns whether the
    /// journal was replayed.
    pub(crate) fn restore(&mut self, src: &Self) -> bool {
        let CowTable {
            chunk_len,
            chunks,
            seal,
            // Journal bookkeeping is this table's own; it restarts below.
            epoch: _,
            jepoch: _,
            journal,
            full_dirty,
        } = src;
        let replay = self.shares_seal(src) && !self.full_dirty;
        if replay {
            debug_assert!(
                journal.is_empty() && !full_dirty,
                "restore source must be a sealed, unmutated snapshot"
            );
            for &ci in &self.journal {
                let ci = ci as usize;
                let snap = chunks.get(ci).and_then(Option::as_ref);
                let chunk = &mut self.chunks[ci];
                match (chunk.as_mut().and_then(Arc::get_mut), snap) {
                    (Some(own), Some(snap)) => own.copy_from_slice(snap),
                    _ => *chunk = snap.cloned(),
                }
            }
            // Chunks appended since the seal lie past the snapshot's end.
            self.chunks.truncate(chunks.len());
            self.jepoch.truncate(chunks.len());
        } else {
            self.chunk_len = *chunk_len;
            self.chunks.clone_from(chunks);
            self.jepoch.resize(chunks.len(), 0);
            self.seal.clone_from(seal);
            self.full_dirty = false;
        }
        self.journal.clear();
        self.bump_epoch();
        replay
    }
}
