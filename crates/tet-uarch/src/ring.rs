//! A power-of-two ring buffer of `Copy` entries: the reorder buffer and
//! the instruction decode queue.
//!
//! Both queues push at the back, pop at the front, index by age and
//! (the ROB) truncate on a squash. A `VecDeque` does all of that, but
//! every index wraps with a compare-and-subtract, and `push_back` builds
//! the entry on the stack before copying it past a possible grow. Here
//! the storage length is a power of two, so a logical index maps to its
//! slot with one mask, and [`Ring::push_back_with`] picks the slot first
//! and builds the entry straight into it.
//!
//! The buffer grows lazily by doubling: a queue whose occupancy never
//! exceeds `n` ends at `n` rounded up to a power of two and never
//! allocates again. Growth copies existing entries into the new half, so
//! every slot always holds a valid (possibly stale) value and no slot is
//! ever uninitialised.

use std::fmt;
use std::iter::Chain;
use std::ops::{Index, IndexMut};
use std::slice;

/// A growable FIFO with masked indexing. Logical index 0 is the front
/// (oldest) entry.
pub(crate) struct Ring<T> {
    /// Slot storage; its length is 0 or a power of two.
    buf: Vec<T>,
    /// Slot of the front entry.
    head: usize,
    /// Live entry count.
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// An empty ring that owns no storage yet.
    pub(crate) const fn new() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// Live entry count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no entry.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot storage length: 0 or a power of two. Slot-keyed side
    /// tables (the ROB's scheduler index) must be rebuilt whenever it
    /// changes, because growing rotates the live entries to slot 0.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Slot of the front entry.
    #[inline]
    pub(crate) fn head(&self) -> usize {
        self.head
    }

    /// Slot of logical index `i` (callers guarantee a non-empty buffer).
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> usize {
        (self.head + i) & (self.buf.len() - 1)
    }

    /// The entry at logical index `i`, if live.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.buf[self.slot(i)])
    }

    /// The oldest entry.
    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// The youngest entry.
    #[inline]
    pub(crate) fn back(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Appends `v` at the back.
    #[inline]
    pub(crate) fn push_back(&mut self, v: T) {
        self.push_back_with(|| v);
    }

    /// Appends the value `make` returns at the back and returns it for
    /// further in-place writes. The slot is chosen (and the buffer
    /// grown) *before* `make` runs, so a large entry is built in place
    /// rather than on the stack and copied in.
    #[inline]
    pub(crate) fn push_back_with(&mut self, make: impl FnOnce() -> T) -> &mut T {
        if self.len == self.buf.len() {
            if self.buf.is_empty() {
                self.buf.push(make());
                self.head = 0;
                self.len = 1;
                return &mut self.buf[0];
            }
            self.grow();
        }
        let s = self.slot(self.len);
        self.len += 1;
        // Take the slot before calling `make`: in `buf[s] = make()` the
        // value would be evaluated (into a stack temporary) first.
        let slot = &mut self.buf[s];
        *slot = make();
        slot
    }

    /// Doubles a full buffer: rotate the live entries to slot 0, then
    /// fill the new half with copies of them (stale, never read).
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.buf.rotate_left(self.head);
        self.head = 0;
        self.buf.extend_from_within(..);
    }

    /// Removes and returns the oldest entry.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(v)
    }

    /// Keeps the `len` oldest entries, dropping the rest.
    #[inline]
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Drops every entry, keeping the storage. The next push lands in
    /// slot 0, so a short run keeps reusing the same few (cache-warm)
    /// slots instead of walking the whole buffer.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The live entries as (at most) two slices, front first.
    fn as_slices(&self) -> (&[T], &[T]) {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (&self.buf[self.head..end], &[])
        } else {
            let (wrapped, tail) = self.buf.split_at(self.head);
            (tail, &wrapped[..end - self.buf.len()])
        }
    }

    /// Front-to-back iterator.
    pub(crate) fn iter(&self) -> Chain<slice::Iter<'_, T>, slice::Iter<'_, T>> {
        let (a, b) = self.as_slices();
        a.iter().chain(b)
    }

    /// Front-to-back mutable iterator.
    pub(crate) fn iter_mut(&mut self) -> Chain<slice::IterMut<'_, T>, slice::IterMut<'_, T>> {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            self.buf[self.head..end].iter_mut().chain(&mut [])
        } else {
            let cap = self.buf.len();
            let (wrapped, tail) = self.buf.split_at_mut(self.head);
            tail.iter_mut().chain(&mut wrapped[..end - cap])
        }
    }
}

impl<T: Copy> Clone for Ring<T> {
    /// Copies the live entries only, into the smallest power-of-two
    /// buffer that holds them: cloning an idle machine (`from_snapshot`,
    /// one per worker) does not duplicate a ring it has grown.
    fn clone(&self) -> Self {
        let mut ring = Ring::new();
        ring.clone_from(self);
        ring
    }

    /// Copies the live entries, front at slot 0, reusing this ring's
    /// storage (it grows only if `src` holds more entries than this
    /// ring ever has).
    fn clone_from(&mut self, src: &Self) {
        self.clear();
        for &v in src.iter() {
            self.push_back(v);
        }
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Ring<T> {
    /// The live entries, front first (stale slots are not state).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy> Index<usize> for Ring<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "ring index {i} out of {}", self.len);
        &self.buf[self.slot(i)]
    }
}

impl<T: Copy> IndexMut<usize> for Ring<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "ring index {i} out of {}", self.len);
        let s = self.slot(i);
        &mut self.buf[s]
    }
}

impl<'a, T: Copy> IntoIterator for &'a Ring<T> {
    type Item = &'a T;
    type IntoIter = Chain<slice::Iter<'a, T>, slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy> IntoIterator for &'a mut Ring<T> {
    type Item = &'a mut T;
    type IntoIter = Chain<slice::IterMut<'a, T>, slice::IterMut<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Pop,
        Truncate(usize),
        Clear,
        /// Clone the ring, run the next ops on the original, then
        /// `clone_from` the clone back (a snapshot fork and restore).
        Fork,
        Restore,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => any::<u32>().prop_map(Op::Push),
            4 => Just(Op::Pop),
            1 => (0usize..10).prop_map(Op::Truncate),
            1 => Just(Op::Clear),
            1 => Just(Op::Fork),
            1 => Just(Op::Restore),
        ]
    }

    fn assert_same(ring: &Ring<u32>, model: &VecDeque<u32>) {
        assert_eq!(ring.len(), model.len());
        assert_eq!(ring.is_empty(), model.is_empty());
        assert_eq!(ring.front(), model.front());
        assert_eq!(ring.back(), model.back());
        for i in 0..model.len() + 2 {
            assert_eq!(ring.get(i), model.get(i), "get({i})");
        }
        for (i, v) in model.iter().enumerate() {
            assert_eq!(ring[i], *v, "index {i}");
        }
        assert!(ring.iter().eq(model.iter()));
        let (a, b) = ring.as_slices();
        assert_eq!(a.len() + b.len(), model.len());
        assert!(ring.buf.is_empty() || ring.buf.len().is_power_of_two());
    }

    proptest! {
        /// The ring behaves exactly like a `VecDeque` whose occupancy is
        /// capped at `cap`, the way the ROB and IDQ callers cap theirs.
        /// Capacities 1–8 keep the head wrapping in most sequences.
        #[test]
        fn ring_matches_vecdeque_reference(
            cap in 1usize..9,
            ops in prop::collection::vec(op(), 1..120),
        ) {
            let mut ring = Ring::new();
            let mut model = VecDeque::new();
            let mut forked: Option<(Ring<u32>, VecDeque<u32>)> = None;
            for op in ops {
                match op {
                    Op::Push(v) if model.len() < cap => {
                        ring.push_back(v);
                        model.push_back(v);
                    }
                    Op::Push(_) => {}
                    Op::Pop => prop_assert_eq!(ring.pop_front(), model.pop_front()),
                    Op::Truncate(n) => {
                        ring.truncate(n);
                        model.truncate(n);
                    }
                    Op::Clear => {
                        ring.clear();
                        model.clear();
                    }
                    Op::Fork => forked = Some((ring.clone(), model.clone())),
                    Op::Restore => {
                        if let Some((snap, snap_model)) = &forked {
                            ring.clone_from(snap);
                            model.clone_from(snap_model);
                        }
                    }
                }
                assert_same(&ring, &model);
                for (i, v) in ring.iter_mut().enumerate() {
                    *v = v.wrapping_add(i as u32);
                }
                for (i, v) in model.iter_mut().enumerate() {
                    *v = v.wrapping_add(i as u32);
                }
                if let Some(i) = model.len().checked_sub(1) {
                    ring[i] ^= 0x55;
                    model[i] ^= 0x55;
                }
                assert_same(&ring, &model);
                prop_assert!(ring.buf.len() <= cap.next_power_of_two());
            }
        }
    }

    #[test]
    fn grows_lazily_to_the_next_power_of_two() {
        let mut ring = Ring::new();
        assert!(ring.buf.is_empty(), "no storage before the first push");
        for round in 0..50u32 {
            for k in 0..5 {
                ring.push_back(round * 10 + k);
            }
            for k in 0..5 {
                assert_eq!(ring.pop_front(), Some(round * 10 + k));
            }
        }
        assert_eq!(ring.buf.len(), 8);
    }
}
