//! Persistent copy-on-write building blocks for cheap substrate forks.
//!
//! The bounded model checker shares simulation prefixes by forking a
//! whole system at every schedule branch point. With plain deep copies
//! the fork cost is proportional to the accumulated history (traces,
//! event logs, bus membership changes), which comes to dominate the walk long
//! before the horizon does. The structures here make a fork a handful
//! of `Arc` pointer bumps instead:
//!
//! * [`CowLog`] — an append-only log whose history is held in sealed,
//!   immutable, `Arc`-shared segments. Forking seals the open tail and
//!   shares every segment; both sides keep appending into private
//!   tails, so no copy of existing entries ever happens. A reader that
//!   no longer needs old entries releases them with
//!   [`CowLog::release_before`]; indices stay logical, so cursors held
//!   across a release stay valid.
//!
//! The companion copy-on-write *map* state is the stable-storage
//! region: its owner holds each [`StableStorage`](crate::StableStorage)
//! behind an `Arc` and clones it only on the first write after a fork
//! (`Arc::make_mut`).

use std::sync::Arc;

/// An append-only log with O(segments) fork and zero-copy history
/// sharing.
///
/// Entries older than the last fork live in immutable segments shared
/// (via `Arc`) with every fork taken since; only the open tail is
/// privately owned. [`CowLog::fork`] seals the tail into a new shared
/// segment and hands back a log with the same history and an empty
/// tail — the entries themselves are never copied.
///
/// `clone()` (as opposed to `fork`) shares the sealed segments but
/// deep-copies the open tail; it exists so containing types can keep
/// deriving `Clone`, and is exactly as independent as a fork.
///
/// [`CowLog::release_before`] drops a prefix this handle no longer
/// needs. Indices are logical: [`len`](CowLog::len) still counts every
/// entry ever appended, and iteration and [`get`](CowLog::get) see only
/// the retained ones.
#[derive(Debug, Clone)]
pub struct CowLog<T> {
    /// Sealed, immutable history segments, oldest first, paired with
    /// the logical index of their first entry.
    segments: Vec<(usize, Arc<Vec<T>>)>,
    /// Logical index of the open tail's first entry: every entry ever
    /// sealed or released before it.
    tail_start: usize,
    /// The open tail only this handle appends to.
    tail: Vec<T>,
}

impl<T> Default for CowLog<T> {
    fn default() -> Self {
        CowLog {
            segments: Vec::new(),
            tail_start: 0,
            tail: Vec::new(),
        }
    }
}

impl<T> CowLog<T> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry to the open tail.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
    }

    /// Appends every entry of `iter` to the open tail.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        self.tail.extend(iter);
    }

    /// Total number of entries ever appended, released ones included:
    /// the logical index the next entry will take.
    pub fn len(&self) -> usize {
        self.tail_start + self.tail.len()
    }

    /// Returns `true` if no entry was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the entry at `index`, if present and not released.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.tail_start {
            return self.tail.get(index - self.tail_start);
        }
        // Binary search over segment start offsets: `partition_point`
        // finds the first segment starting *after* the index.
        let seg = self
            .segments
            .partition_point(|(start, _)| *start <= index)
            .checked_sub(1)?;
        let (start, segment) = &self.segments[seg];
        segment.get(index - start)
    }

    /// The most recently appended entry, if any.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.segments.last().and_then(|(_, segment)| segment.last()))
    }

    /// Iterates every retained entry, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments
            .iter()
            .flat_map(|(_, segment)| segment.iter())
            .chain(self.tail.iter())
    }

    /// Iterates entries starting at index `start` (the cursor-tailing
    /// access pattern: "everything since I last looked"). Segments
    /// wholly before the cursor are skipped without being scanned; a
    /// cursor below a release starts at the first retained entry.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let first = self
            .segments
            .partition_point(|(seg_start, segment)| seg_start + segment.len() <= start);
        let sealed = self
            .segments
            .get(first..)
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .flat_map(move |(i, (seg_start, segment))| {
                let skip = if i == 0 {
                    start.saturating_sub(*seg_start)
                } else {
                    0
                };
                segment[skip..].iter()
            });
        let tail_skip = start.saturating_sub(self.tail_start);
        sealed.chain(self.tail.iter().skip(tail_skip))
    }

    /// Releases every entry below logical index `index` that this
    /// handle can free without copying: sealed segments that end at or
    /// before `index` are dropped, and so is the tail's prefix below
    /// it. A segment straddling `index` is kept whole. Indices stay
    /// logical, so [`len`](CowLog::len) and cursors held by readers are
    /// unchanged. A fork taken earlier keeps its own history through
    /// its `Arc`s. Releasing twice, or past `len`, is safe.
    pub fn release_before(&mut self, index: usize) {
        let dropped = self
            .segments
            .partition_point(|(start, segment)| start + segment.len() <= index);
        self.segments.drain(..dropped);
        let in_tail = index.saturating_sub(self.tail_start).min(self.tail.len());
        self.tail.drain(..in_tail);
        self.tail_start += in_tail;
    }

    /// Forks the log: seals the open tail into a shared immutable
    /// segment, then returns an independent log sharing the entire
    /// history. O(number of prior forks); never copies entries.
    pub fn fork(&mut self) -> Self {
        self.seal();
        CowLog {
            segments: self.segments.clone(),
            tail_start: self.tail_start,
            tail: Vec::new(),
        }
    }

    /// Moves the open tail into a sealed shared segment.
    fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let segment = Arc::new(std::mem::take(&mut self.tail));
        let sealed = segment.len();
        self.segments.push((self.tail_start, segment));
        self.tail_start += sealed;
    }
}

impl<T: Clone> CowLog<T> {
    /// Collects every retained entry into a fresh contiguous vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

/// Serializes the retained entries as a plain sequence, exactly like
/// `Vec<T>`, so a type that swaps a `Vec` field for a `CowLog` keeps its
/// wire format.
impl<T: serde::Serialize> serde::Serialize for CowLog<T> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Seq(self.iter().map(serde::Serialize::to_content).collect())
    }
}

impl<T: serde::Deserialize> serde::Deserialize for CowLog<T> {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        Vec::<T>::from_content(content).map(|tail| CowLog {
            segments: Vec::new(),
            tail_start: 0,
            tail,
        })
    }
}

impl<T: PartialEq> PartialEq for CowLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for CowLog<T> {}

impl<T> FromIterator<T> for CowLog<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        CowLog {
            segments: Vec::new(),
            tail_start: 0,
            tail: iter.into_iter().collect(),
        }
    }
}

impl<'a, T> IntoIterator for &'a CowLog<T> {
    type Item = &'a T;
    type IntoIter = Box<dyn Iterator<Item = &'a T> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_get_iterate() {
        let mut log = CowLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last(), None);
        log.extend(0..5);
        assert_eq!(log.len(), 5);
        assert_eq!(log.get(3), Some(&3));
        assert_eq!(log.get(5), None);
        assert_eq!(log.last(), Some(&4));
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fork_shares_history_and_diverges() {
        let mut parent: CowLog<u32> = (0..4).collect();
        let mut child = parent.fork();
        parent.push(10);
        child.push(20);
        child.push(21);
        assert_eq!(parent.to_vec(), vec![0, 1, 2, 3, 10]);
        assert_eq!(child.to_vec(), vec![0, 1, 2, 3, 20, 21]);
        // The shared prefix is literally shared memory, not a copy.
        assert!(Arc::ptr_eq(&parent.segments[0].1, &child.segments[0].1));
    }

    #[test]
    fn repeated_forks_accumulate_segments_without_copying() {
        let mut log = CowLog::new();
        for round in 0..10u32 {
            log.push(round);
            let fork = log.fork();
            assert_eq!(fork.len(), log.len());
        }
        assert_eq!(log.segments.len(), 10);
        assert_eq!(log.to_vec(), (0..10).collect::<Vec<_>>());
        // Indexed access crosses segment boundaries correctly.
        for i in 0..10u32 {
            assert_eq!(log.get(i as usize), Some(&i));
        }
    }

    #[test]
    fn fork_of_empty_tail_adds_no_segment() {
        let mut log: CowLog<u8> = CowLog::new();
        let _ = log.fork();
        let _ = log.fork();
        assert!(log.segments.is_empty());
        log.push(1);
        let _ = log.fork();
        let _ = log.fork();
        assert_eq!(log.segments.len(), 1);
    }

    #[test]
    fn iter_from_tails_across_segments() {
        let mut log = CowLog::new();
        log.extend(0..3);
        let _ = log.fork();
        log.extend(3..6);
        let _ = log.fork();
        log.extend(6..8);
        for start in 0..=log.len() {
            let expected: Vec<u32> = (start as u32..8).collect();
            assert_eq!(
                log.iter_from(start).copied().collect::<Vec<_>>(),
                expected,
                "cursor {start}"
            );
        }
        assert_eq!(log.iter_from(99).count(), 0);
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = CowLog::new();
        a.extend(0..4);
        let _ = a.fork(); // different segmentation...
        a.push(4);
        let b: CowLog<u32> = (0..5).collect();
        assert_eq!(a, b); // ...same contents
        let c: CowLog<u32> = (0..6).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn release_keeps_len_and_cursors() {
        let mut log = CowLog::new();
        log.extend(0..3);
        let _ = log.fork();
        log.extend(3..6);
        let _ = log.fork();
        log.extend(6..8);
        let cursor = 7;
        log.release_before(4);
        assert_eq!(log.len(), 8);
        // The straddling segment [3, 6) is kept whole; [0, 3) is gone.
        assert_eq!(log.to_vec(), (3..8).collect::<Vec<u32>>());
        assert_eq!(log.get(2), None);
        assert_eq!(log.get(3), Some(&3));
        assert_eq!(log.get(7), Some(&7));
        assert_eq!(log.iter_from(cursor).copied().collect::<Vec<_>>(), vec![7]);
        log.push(8);
        assert_eq!(log.get(8), Some(&8));
        assert_eq!(log.len(), 9);
    }

    #[test]
    fn iter_from_below_the_cut_starts_at_the_cut() {
        let mut log: CowLog<u32> = (0..6).collect();
        log.release_before(4);
        assert_eq!(log.len(), 6);
        for cursor in 0..=4 {
            assert_eq!(
                log.iter_from(cursor).copied().collect::<Vec<_>>(),
                vec![4, 5],
                "cursor {cursor}"
            );
        }
        assert_eq!(log.iter_from(5).copied().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn fork_taken_before_release_keeps_its_history() {
        let mut parent: CowLog<u32> = (0..4).collect();
        let child = parent.fork();
        parent.push(4);
        let segment = Arc::clone(&parent.segments[0].1);
        parent.release_before(parent.len());
        assert!(parent.segments.is_empty());
        assert_eq!(parent.iter().count(), 0);
        assert_eq!(parent.len(), 5);
        assert_eq!(child.to_vec(), vec![0, 1, 2, 3]);
        // The child still shares the sealed segment by pointer.
        assert!(Arc::ptr_eq(&child.segments[0].1, &segment));
    }

    #[test]
    fn release_twice_or_past_len_is_safe() {
        let mut log: CowLog<u32> = (0..3).collect();
        log.release_before(2);
        log.release_before(2);
        log.release_before(1);
        assert_eq!(log.to_vec(), vec![2]);
        log.release_before(100);
        assert_eq!(log.len(), 3);
        assert!(log.iter().next().is_none());
        assert_eq!(log.last(), None);
        log.push(3);
        assert_eq!(log.get(3), Some(&3));
        assert_eq!(log.to_vec(), vec![3]);
    }

    #[test]
    fn last_reads_sealed_segment_when_tail_empty() {
        let mut log: CowLog<u32> = (0..3).collect();
        let _ = log.fork();
        assert_eq!(log.last(), Some(&2));
    }
}
