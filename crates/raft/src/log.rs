//! The replicated log.
//!
//! A contiguous sequence of term-stamped entries starting at `first_index`
//! (1 unless a prefix has been compacted away). The log enforces the
//! append/truncate discipline Raft's safety argument rests on: entries are
//! only removed by [`RaftLog::truncate_from`] when a leader's conflicting
//! entry overwrites them, and committed entries are never truncated (the
//! node layer guarantees commit ≤ match before truncation can reach them).
//!
//! Entries live in fixed-size chunks of [`CHUNK`] slots. Every chunk but
//! the last is full, and a full chunk never reallocates, so a retained
//! entry outside the last chunk never moves and a long log leaves no heap
//! holes behind. Compaction pops whole chunks, so it costs O(dropped) and
//! never shifts the retained suffix; the compacted slots of a partly
//! compacted front chunk are freed when the chunk is popped.

use std::collections::{vec_deque, VecDeque};

use crate::types::{LogIndex, Term};

/// Entries per chunk. The last chunk grows by `Vec` doubling up to this,
/// so a short log (as in `mc`'s states) costs only what it holds.
const CHUNK: usize = 4096;

/// One log entry: a term-stamped command.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Entry<C> {
    /// Term in which the entry was created by a leader.
    pub term: Term,
    /// Position in the log (1-based).
    pub index: LogIndex,
    /// The replicated command. For vanilla Raft this is the full client
    /// request; for HovercRaft it is fixed-size request metadata.
    pub cmd: C,
}

/// In-memory replicated log with optional compacted prefix.
#[derive(Clone, Debug)]
pub struct RaftLog<C> {
    /// Entry slots, [`CHUNK`] per chunk; all but the last chunk are full.
    chunks: VecDeque<Vec<Entry<C>>>,
    /// Slots of the front chunk already compacted away: slot `skip` of
    /// chunk 0 holds `first`.
    skip: usize,
    /// Index of the first retained entry (== 1 + snapshot boundary).
    first: LogIndex,
    /// Term of the entry just before `first` (snapshot term); 0 initially.
    prev_term: Term,
}

impl<C> Default for RaftLog<C> {
    fn default() -> Self {
        RaftLog {
            chunks: VecDeque::new(),
            skip: 0,
            first: 1,
            prev_term: 0,
        }
    }
}

impl<C> RaftLog<C> {
    /// An empty log whose next index is 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first retained entry.
    pub fn first_index(&self) -> LogIndex {
        self.first
    }

    /// Index of the last entry (0 if empty and nothing compacted).
    pub fn last_index(&self) -> LogIndex {
        self.first + self.len() as u64 - 1
    }

    /// Term of the last entry (or of the compaction boundary).
    pub fn last_term(&self) -> Term {
        self.get(self.last_index())
            .map(|e| e.term)
            .unwrap_or(self.prev_term)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        match self.chunks.back() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len() - self.skip,
            None => 0,
        }
    }

    /// True if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chunk and offset of the slot holding `idx`, if retained.
    fn slot(&self, idx: LogIndex) -> Option<(usize, usize)> {
        if idx < self.first || idx > self.last_index() {
            return None;
        }
        let s = self.skip + (idx - self.first) as usize;
        Some((s / CHUNK, s % CHUNK))
    }

    /// Term of the entry at `idx`; `Some(0)` for index 0, `None` if the
    /// index is out of range or compacted away.
    pub fn term_at(&self, idx: LogIndex) -> Option<Term> {
        if idx == 0 {
            return Some(0);
        }
        if idx + 1 == self.first {
            return Some(self.prev_term);
        }
        self.get(idx).map(|e| e.term)
    }

    /// Borrow the entry at `idx`, if retained.
    pub fn get(&self, idx: LogIndex) -> Option<&Entry<C>> {
        let (c, o) = self.slot(idx)?;
        Some(&self.chunks[c][o])
    }

    /// Mutably borrow the entry at `idx`, if retained. HovercRaft uses this
    /// to stamp the immutable `replier` field just before an entry is
    /// announced for the first time.
    pub fn get_mut(&mut self, idx: LogIndex) -> Option<&mut Entry<C>> {
        let (c, o) = self.slot(idx)?;
        Some(&mut self.chunks[c][o])
    }

    /// Appends a command with the given term; returns its index.
    pub fn append(&mut self, term: Term, cmd: C) -> LogIndex {
        let index = self.last_index() + 1;
        self.push_slot(Entry { term, index, cmd });
        index
    }

    /// Appends a pre-formed entry; its index must be exactly `last + 1`.
    ///
    /// # Panics
    /// Panics if the entry's index is not contiguous.
    pub fn push(&mut self, e: Entry<C>) {
        assert_eq!(e.index, self.last_index() + 1, "non-contiguous append");
        self.push_slot(e);
    }

    /// Stores `e` in the next slot, opening a chunk when the last is full.
    fn push_slot(&mut self, e: Entry<C>) {
        match self.chunks.back_mut() {
            Some(last) if last.len() < CHUNK => last.push(e),
            _ => self.chunks.push_back(vec![e]),
        }
    }

    /// Removes all entries at `idx` and above (conflict truncation).
    pub fn truncate_from(&mut self, idx: LogIndex) {
        assert!(
            idx >= self.first,
            "cannot truncate into the compacted prefix"
        );
        if idx > self.last_index() {
            return;
        }
        let s = self.skip + (idx - self.first) as usize;
        self.chunks.truncate(s / CHUNK + 1);
        if let Some(last) = self.chunks.back_mut() {
            last.truncate(s % CHUNK);
        }
    }

    /// Iterates over the entries in `[lo, hi]` (inclusive, clamped to the
    /// log), oldest first.
    pub fn range(&self, lo: LogIndex, hi: LogIndex) -> impl ExactSizeIterator<Item = &Entry<C>> {
        let lo = lo.max(self.first);
        let hi = hi.min(self.last_index());
        let (c, o) = self.slot(lo).unwrap_or((0, 0));
        let left = if lo <= hi { (hi - lo + 1) as usize } else { 0 };
        Range {
            cur: self.chunks.get(c).map_or(&[][..], |v| &v[o..]).iter(),
            rest: self.chunks.range(self.chunks.len().min(c + 1)..),
            left,
        }
    }

    /// Clones the entries in `[lo, hi]` (clamped) into one exact-size
    /// allocation.
    pub fn to_vec(&self, lo: LogIndex, hi: LogIndex) -> Vec<Entry<C>>
    where
        C: Clone,
    {
        let it = self.range(lo, hi);
        let mut v = Vec::with_capacity(it.len());
        v.extend(it.cloned());
        v
    }

    /// Index of the snapshot boundary: the highest compacted-away index
    /// (0 when nothing has been compacted).
    pub fn snapshot_index(&self) -> LogIndex {
        self.first - 1
    }

    /// Term at the snapshot boundary (0 when nothing has been compacted).
    pub fn snapshot_term(&self) -> Term {
        self.prev_term
    }

    /// Replaces the entire log with a snapshot boundary at (`idx`, `term`):
    /// every retained entry is discarded and the next append lands at
    /// `idx + 1`. Used when installing a snapshot that is not an extension
    /// of the local log (the local suffix may conflict with it).
    pub fn reset_to(&mut self, idx: LogIndex, term: Term) {
        self.chunks.clear();
        self.skip = 0;
        self.first = idx + 1;
        self.prev_term = term;
    }

    /// Discards entries up to and including `idx` (log compaction after a
    /// snapshot). Keeps the boundary term for consistency checks. Pops the
    /// chunks that become fully compacted; no retained entry moves.
    pub fn compact_to(&mut self, idx: LogIndex) {
        if idx < self.first {
            return;
        }
        let idx = idx.min(self.last_index());
        let term = self.term_at(idx).expect("index retained");
        let skip = self.skip + (idx + 1 - self.first) as usize;
        self.chunks.drain(..skip / CHUNK);
        self.skip = skip % CHUNK;
        self.first = idx + 1;
        self.prev_term = term;
    }
}

/// Iterator over a clamped index range of a [`RaftLog`]; see
/// [`RaftLog::range`].
struct Range<'a, C> {
    /// The remaining slots of the chunk being walked.
    cur: std::slice::Iter<'a, Entry<C>>,
    /// The chunks after it.
    rest: vec_deque::Iter<'a, Vec<Entry<C>>>,
    /// Entries still to yield.
    left: usize,
}

impl<'a, C> Iterator for Range<'a, C> {
    type Item = &'a Entry<C>;

    fn next(&mut self) -> Option<&'a Entry<C>> {
        if self.left == 0 {
            return None;
        }
        loop {
            if let Some(e) = self.cur.next() {
                self.left -= 1;
                return Some(e);
            }
            self.cur = self.rest.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<C> ExactSizeIterator for Range<'_, C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn log3() -> RaftLog<&'static str> {
        let mut l = RaftLog::new();
        l.append(1, "a");
        l.append(1, "b");
        l.append(2, "c");
        l
    }

    #[test]
    fn empty_log_boundaries() {
        let l: RaftLog<u32> = RaftLog::new();
        assert_eq!(l.first_index(), 1);
        assert_eq!(l.last_index(), 0);
        assert_eq!(l.last_term(), 0);
        assert_eq!(l.term_at(0), Some(0));
        assert_eq!(l.term_at(1), None);
        assert!(l.is_empty());
    }

    #[test]
    fn append_assigns_sequential_indices() {
        let l = log3();
        assert_eq!(l.last_index(), 3);
        assert_eq!(l.last_term(), 2);
        assert_eq!(l.get(2).unwrap().cmd, "b");
        assert_eq!(l.term_at(3), Some(2));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn truncate_removes_suffix() {
        let mut l = log3();
        l.truncate_from(2);
        assert_eq!(l.last_index(), 1);
        assert_eq!(l.get(2), None);
        // Truncating past the end is a no-op.
        l.truncate_from(5);
        assert_eq!(l.last_index(), 1);
    }

    #[test]
    fn range_clamps() {
        let l = log3();
        let mut r = l.range(2, 10);
        assert_eq!(r.len(), 2);
        assert_eq!(r.next().unwrap().cmd, "b");
        assert_eq!(r.len(), 1, "the size stays exact while iterating");
        assert_eq!(l.range(4, 10).len(), 0);
        assert_eq!(l.range(3, 2).len(), 0);
        assert_eq!(l.range(0, 100).len(), 3);
        assert_eq!(l.to_vec(0, 100).capacity(), 3, "one exact allocation");
    }

    #[test]
    fn compaction_keeps_boundary_term() {
        let mut l = log3();
        l.compact_to(2);
        assert_eq!(l.first_index(), 3);
        assert_eq!(l.last_index(), 3);
        assert_eq!(l.term_at(2), Some(1), "boundary term retained");
        assert_eq!(l.term_at(1), None, "compacted away");
        assert_eq!(l.get(3).unwrap().cmd, "c");
        // Appending after compaction continues the index sequence.
        l.append(3, "d");
        assert_eq!(l.last_index(), 4);
    }

    #[test]
    fn compact_everything_then_append() {
        let mut l = log3();
        l.compact_to(3);
        assert!(l.is_empty());
        assert_eq!(l.last_index(), 3);
        assert_eq!(l.last_term(), 2);
        assert_eq!(l.append(4, "e"), 4);
    }

    #[test]
    fn reset_to_replaces_everything() {
        let mut l = log3();
        l.reset_to(10, 4);
        assert!(l.is_empty());
        assert_eq!(l.snapshot_index(), 10);
        assert_eq!(l.snapshot_term(), 4);
        assert_eq!(l.first_index(), 11);
        assert_eq!(l.last_index(), 10);
        assert_eq!(l.last_term(), 4);
        assert_eq!(l.term_at(10), Some(4));
        assert_eq!(l.term_at(3), None);
        assert_eq!(l.append(5, "x"), 11);
    }

    #[test]
    fn snapshot_accessors_track_compaction() {
        let mut l = log3();
        assert_eq!(l.snapshot_index(), 0);
        assert_eq!(l.snapshot_term(), 0);
        l.compact_to(2);
        assert_eq!(l.snapshot_index(), 2);
        assert_eq!(l.snapshot_term(), 1);
    }

    #[test]
    fn compaction_and_new_chunks_move_no_retained_entry() {
        let c = CHUNK as u64;
        let mut l = RaftLog::new();
        for i in 1..=c {
            l.append(i / 1000, i);
        }
        let at = |l: &RaftLog<u64>, i| l.get(i).unwrap() as *const Entry<u64>;
        let (a, b) = (at(&l, 10), at(&l, c));
        // Opening a second chunk leaves the full first one where it is.
        for i in c + 1..=c + 3 {
            l.append(9, i);
        }
        assert_eq!((at(&l, 10), at(&l, c)), (a, b));
        let tail = at(&l, c + 1);
        // Compaction inside the front chunk, then past it, moves nothing.
        l.compact_to(5);
        assert_eq!((at(&l, 10), at(&l, c), at(&l, c + 1)), (a, b, tail));
        l.compact_to(c);
        assert_eq!(at(&l, c + 1), tail);
        assert_eq!((l.first_index(), l.len()), (c + 1, 3));
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn push_rejects_gap() {
        let mut l = log3();
        l.push(Entry {
            term: 2,
            index: 9,
            cmd: "x",
        });
    }

    /// Reference model: the retained entries in one `Vec`.
    struct Model {
        entries: Vec<Entry<u64>>,
        first: LogIndex,
        prev_term: Term,
        /// `first` at the last reset: chunk boundaries sit at this plus
        /// multiples of [`CHUNK`].
        base: LogIndex,
    }

    impl Model {
        fn last(&self) -> LogIndex {
            self.first + self.entries.len() as u64 - 1
        }
    }

    /// Every observable of `l` agrees with `m`.
    fn check(l: &RaftLog<u64>, m: &Model, lo: u64, hi: u64) -> Result<(), TestCaseError> {
        let last = m.last();
        prop_assert_eq!(l.first_index(), m.first);
        prop_assert_eq!(l.last_index(), last);
        prop_assert_eq!(l.len(), m.entries.len());
        prop_assert_eq!(l.is_empty(), m.entries.is_empty());
        prop_assert_eq!(l.snapshot_index(), m.first - 1);
        prop_assert_eq!(l.snapshot_term(), m.prev_term);
        let last_term = m.entries.last().map_or(m.prev_term, |e| e.term);
        prop_assert_eq!(l.last_term(), last_term);
        for idx in 0..=last + 1 {
            let e = idx
                .checked_sub(m.first)
                .and_then(|p| m.entries.get(p as usize));
            prop_assert_eq!(l.get(idx), e, "get({})", idx);
            let term = match idx {
                0 => Some(0),
                i if i + 1 == m.first => Some(m.prev_term),
                _ => e.map(|e| e.term),
            };
            prop_assert_eq!(l.term_at(idx), term, "term_at({})", idx);
        }
        prop_assert!(l.range(0, u64::MAX).eq(&m.entries), "full range");
        let r = l.range(lo, hi);
        let want = m.entries.iter().filter(|e| e.index >= lo && e.index <= hi);
        prop_assert_eq!(r.len(), want.clone().count(), "range({}, {}) size", lo, hi);
        prop_assert!(r.eq(want), "range({}, {})", lo, hi);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random operation sequences that cross chunk boundaries leave the
        /// chunked log indistinguishable from a plain `Vec` of entries.
        #[test]
        fn chunked_log_matches_a_vec(
            ops in proptest::collection::vec((0u8..8, 0u64..3 * CHUNK as u64, 0u64..64), 1..24)
        ) {
            let mut l: RaftLog<u64> = RaftLog::new();
            let mut m = Model { entries: Vec::new(), first: 1, prev_term: 0, base: 1 };
            let mut term = 0;
            for (op, a, b) in ops {
                let (first, last) = (m.first, m.last());
                // An index in [first - 1, last + 1], drawn from `a`.
                let pick = move |a: u64| first - 1 + a % (last + 3 - first);
                match op {
                    // Append or push a batch of up to 3 chunks' worth.
                    0 | 1 => {
                        term += b % 2;
                        for k in 0..a {
                            let e = Entry { term, index: last + 1 + k, cmd: a ^ k };
                            if op == 0 {
                                prop_assert_eq!(l.append(e.term, e.cmd), e.index);
                            } else {
                                l.push(e.clone());
                            }
                            m.entries.push(e);
                        }
                    }
                    2 => {
                        let idx = pick(a).max(m.first);
                        l.truncate_from(idx);
                        m.entries.truncate((idx - m.first) as usize);
                    }
                    // Compact exactly to a chunk boundary, one past it, to
                    // everything, or to an arbitrary index.
                    3 | 4 => {
                        let idx = match b % 4 {
                            0 => m.base + (a / CHUNK as u64 + 1) * CHUNK as u64 - 1,
                            1 => m.base + (a / CHUNK as u64 + 1) * CHUNK as u64,
                            2 => last,
                            _ => pick(a),
                        };
                        l.compact_to(idx);
                        let idx = idx.min(last);
                        if idx >= first {
                            m.prev_term = m.entries[(idx - first) as usize].term;
                            m.entries.drain(..=(idx - first) as usize);
                            m.first = idx + 1;
                        }
                    }
                    5 => {
                        let idx = last + a % 8;
                        term = term.max(b);
                        l.reset_to(idx, term);
                        m = Model { entries: Vec::new(), first: idx + 1, prev_term: term, base: idx + 1 };
                    }
                    // Continue on a clone; the original must be untouched.
                    6 => {
                        let orig = l.clone();
                        l.append(term, 7);
                        check(&orig, &m, pick(a), pick(b))?;
                        m.entries.push(Entry { term, index: last + 1, cmd: 7 });
                    }
                    _ => {
                        let idx = pick(a);
                        if let Some(e) = l.get_mut(idx) {
                            e.cmd = b;
                            m.entries[(idx - m.first) as usize].cmd = b;
                        } else {
                            prop_assert!(idx < m.first || idx > last);
                        }
                    }
                }
                check(&l, &m, pick(a), pick(b).saturating_add(b))?;
            }
        }
    }
}
