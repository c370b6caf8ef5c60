//! Line fill buffers — the stale-data substrate of Zombieload.
//!
//! On real Intel cores every cache-line fill passes through one of a
//! small number of line fill buffers (LFBs). The buffers are not cleared
//! between uses, and a faulting or microcode-assisted load can transiently
//! receive *stale* data from a buffer filled by an unrelated earlier
//! access — including one by the sibling SMT thread. That aggressive
//! forwarding is the Zombieload leak (paper §4.3.2); the TET-ZBL attack
//! transmits the stale value through the Whisper timing channel instead of
//! Flush+Reload.

use std::collections::VecDeque;

use crate::{line_addr, LINE_SIZE};

/// One line fill buffer entry: the line address and its 64 data bytes as
/// they passed through on the fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LfbEntry {
    /// Line-aligned physical address of the fill.
    pub line: u64,
    /// The 64 bytes of the fill.
    pub data: [u8; LINE_SIZE as usize],
}

/// A small FIFO of recent fills whose data persists until overwritten.
///
/// # Examples
///
/// ```
/// use tet_mem::LineFillBuffer;
///
/// let mut lfb = LineFillBuffer::new(10);
/// let mut line = [0u8; 64];
/// line[3] = b'K';
/// lfb.record_fill(0x1000, line);
/// // A later faulting load transiently observes the stale byte:
/// assert_eq!(lfb.stale_byte(3), Some(b'K'));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineFillBuffer {
    entries: VecDeque<LfbEntry>,
    capacity: usize,
}

impl LineFillBuffer {
    /// Creates an LFB with `capacity` entries (10–12 on the modelled
    /// cores).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LFB needs at least one entry");
        LineFillBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records a fill of `line` (any address within the line) carrying
    /// `data`, evicting the oldest entry when full.
    pub fn record_fill(&mut self, addr: u64, data: [u8; LINE_SIZE as usize]) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(LfbEntry {
            line: line_addr(addr),
            data,
        });
    }

    /// The stale byte at `offset` within the most recently filled line —
    /// what a microcode-assisted load transiently forwards on an
    /// MDS-vulnerable core.
    pub fn stale_byte(&self, offset: usize) -> Option<u8> {
        self.entries
            .back()
            .map(|e| e.data[offset % LINE_SIZE as usize])
    }

    /// The stale 8-byte value at `offset` (wrapping within the line).
    pub fn stale_u64(&self, offset: usize) -> Option<u64> {
        self.entries.back().map(|e| {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = e.data[(offset + i) % LINE_SIZE as usize];
            }
            u64::from_le_bytes(bytes)
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fill has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries (used by `verw`-style mitigations and by tests).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LfbEntry> {
        self.entries.iter()
    }

    /// Overwrites this buffer with the state of `src`, reusing the ring
    /// allocation (snapshot restore). Ten entries are cheaper to copy
    /// than to journal, so this is always a full copy.
    pub fn restore(&mut self, src: &LineFillBuffer) {
        let LineFillBuffer { entries, capacity } = src;
        self.capacity = *capacity;
        self.entries.clone_from(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with(off: usize, v: u8) -> [u8; 64] {
        let mut l = [0u8; 64];
        l[off] = v;
        l
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = LineFillBuffer::new(0);
    }

    #[test]
    fn empty_lfb_has_no_stale_data() {
        let lfb = LineFillBuffer::new(4);
        assert_eq!(lfb.stale_byte(0), None);
        assert_eq!(lfb.stale_u64(0), None);
    }

    #[test]
    fn most_recent_fill_wins() {
        let mut lfb = LineFillBuffer::new(4);
        lfb.record_fill(0x1000, line_with(0, b'A'));
        lfb.record_fill(0x2000, line_with(0, b'B'));
        assert_eq!(lfb.stale_byte(0), Some(b'B'));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut lfb = LineFillBuffer::new(2);
        lfb.record_fill(0x1000, line_with(0, 1));
        lfb.record_fill(0x2000, line_with(0, 2));
        lfb.record_fill(0x3000, line_with(0, 3));
        assert_eq!(lfb.len(), 2);
        let lines: Vec<u64> = lfb.entries().map(|e| e.line).collect();
        assert_eq!(lines, vec![0x2000, 0x3000]);
    }

    #[test]
    fn stale_u64_wraps_within_line() {
        let mut lfb = LineFillBuffer::new(2);
        let mut data = [0u8; 64];
        data[63] = 0xAA;
        data[0] = 0xBB;
        lfb.record_fill(0, data);
        let v = lfb.stale_u64(63).unwrap();
        assert_eq!(v & 0xff, 0xAA);
        assert_eq!((v >> 8) & 0xff, 0xBB);
    }

    #[test]
    fn clear_removes_everything() {
        let mut lfb = LineFillBuffer::new(2);
        lfb.record_fill(0x1000, line_with(1, 9));
        lfb.clear();
        assert!(lfb.is_empty());
        assert_eq!(lfb.stale_byte(1), None);
    }
}
