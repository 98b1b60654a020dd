//! The replicated log.
//!
//! A contiguous sequence of term-stamped entries starting at `first_index`
//! (1 unless a prefix has been compacted away). The log enforces the
//! append/truncate discipline Raft's safety argument rests on: entries are
//! only removed by [`RaftLog::truncate_from`] when a leader's conflicting
//! entry overwrites them, and committed entries are never truncated (the
//! node layer guarantees commit ≤ match before truncation can reach them).
//!
//! A slot holds only the command. An entry's index is its slot's position,
//! and its term comes from a short list of term runs: terms never decrease
//! along a Raft log, so each term's entries are one contiguous run, and
//! the list holds one `(first index, term)` pair per term present. Readers
//! get [`Entry`]s borrowing the command ([`RaftLog::get`],
//! [`RaftLog::range`]); [`RaftLog::to_vec`] builds owned ones for the wire.
//!
//! Commands live in fixed-size chunks of [`CHUNK`] slots. Every chunk but
//! the last is full, and a full chunk never reallocates, so a retained
//! command outside the last chunk never moves and a long log leaves no heap
//! holes behind. Compaction pops whole chunks, so it costs O(dropped) and
//! never shifts the retained suffix; the compacted slots of a partly
//! compacted front chunk are freed when the chunk is popped.

use std::collections::{vec_deque, VecDeque};

use crate::types::{LogIndex, Term};

/// Slots per chunk. The last chunk grows by `Vec` doubling up to this,
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
    /// Command slots, [`CHUNK`] per chunk; all but the last chunk are full.
    chunks: VecDeque<Vec<C>>,
    /// Term runs `(first index, term)`, both strictly increasing: run `k`
    /// covers the retained entries from its index up to the next run's.
    /// Empty exactly when the log is; the front run may start before
    /// `first` (its head was compacted), no run starts after the last entry.
    runs: Vec<(LogIndex, Term)>,
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
            runs: Vec::new(),
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
        self.runs.last().map_or(self.prev_term, |&(_, t)| t)
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

    /// Position in `runs` of the run holding retained index `idx`.
    fn run_of(&self, idx: LogIndex) -> usize {
        self.runs.partition_point(|&(start, _)| start <= idx) - 1
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
        self.slot(idx)?;
        Some(self.runs[self.run_of(idx)].1)
    }

    /// The first retained index of the term run holding `idx`, or `idx`
    /// itself when it is not retained: where a follower's conflicting term
    /// begins, for the AppendEntries conflict hint.
    pub fn run_start(&self, idx: LogIndex) -> LogIndex {
        match self.slot(idx) {
            Some(_) => self.runs[self.run_of(idx)].0.max(self.first),
            None => idx,
        }
    }

    /// Borrows the entry at `idx`, if retained.
    pub fn get(&self, idx: LogIndex) -> Option<Entry<&C>> {
        let (c, o) = self.slot(idx)?;
        Some(Entry {
            term: self.runs[self.run_of(idx)].1,
            index: idx,
            cmd: &self.chunks[c][o],
        })
    }

    /// Mutably borrows the command at `idx`, if retained. HovercRaft uses
    /// this to stamp the immutable `replier` field just before an entry is
    /// announced for the first time.
    pub fn get_mut(&mut self, idx: LogIndex) -> Option<&mut C> {
        let (c, o) = self.slot(idx)?;
        Some(&mut self.chunks[c][o])
    }

    /// Appends a command with the given term; returns its index.
    pub fn append(&mut self, term: Term, cmd: C) -> LogIndex {
        let index = self.last_index() + 1;
        debug_assert!(term >= self.last_term(), "terms never decrease along a log");
        if self.runs.last().is_none_or(|&(_, t)| t != term) {
            self.runs.push((index, term));
        }
        match self.chunks.back_mut() {
            Some(last) if last.len() < CHUNK => last.push(cmd),
            _ => self.chunks.push_back(vec![cmd]),
        }
        index
    }

    /// Appends a pre-formed entry; its index must be exactly `last + 1`.
    ///
    /// # Panics
    /// Panics if the entry's index is not contiguous.
    pub fn push(&mut self, e: Entry<C>) {
        assert_eq!(e.index, self.last_index() + 1, "non-contiguous append");
        self.append(e.term, e.cmd);
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
        let keep = self.runs.partition_point(|&(start, _)| start < idx);
        self.runs.truncate(if self.is_empty() { 0 } else { keep });
    }

    /// Iterates over the entries in `[lo, hi]` (inclusive, clamped to the
    /// log), oldest first.
    pub fn range(&self, lo: LogIndex, hi: LogIndex) -> impl ExactSizeIterator<Item = Entry<&C>> {
        let lo = lo.max(self.first);
        let hi = hi.min(self.last_index());
        let (c, o) = self.slot(lo).unwrap_or((0, 0));
        let left = if lo <= hi { (hi - lo + 1) as usize } else { 0 };
        Range {
            cur: self.chunks.get(c).map_or(&[][..], |v| &v[o..]).iter(),
            rest: self.chunks.range(self.chunks.len().min(c + 1)..),
            runs: &self.runs[if left > 0 { self.run_of(lo) } else { 0 }..],
            index: lo,
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
        v.extend(it.map(|e| Entry {
            term: e.term,
            index: e.index,
            cmd: e.cmd.clone(),
        }));
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
        self.runs.clear();
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
        if self.is_empty() {
            self.runs.clear();
        } else {
            self.runs.drain(..self.run_of(self.first));
        }
    }
}

/// Iterator over a clamped index range of a [`RaftLog`]; see
/// [`RaftLog::range`].
struct Range<'a, C> {
    /// The remaining slots of the chunk being walked.
    cur: std::slice::Iter<'a, C>,
    /// The chunks after it.
    rest: vec_deque::Iter<'a, Vec<C>>,
    /// The term runs from the one holding `index` on.
    runs: &'a [(LogIndex, Term)],
    /// Index of the next entry.
    index: LogIndex,
    /// Entries still to yield.
    left: usize,
}

impl<'a, C> Iterator for Range<'a, C> {
    type Item = Entry<&'a C>;

    fn next(&mut self) -> Option<Entry<&'a C>> {
        if self.left == 0 {
            return None;
        }
        let cmd = loop {
            if let Some(c) = self.cur.next() {
                break c;
            }
            self.cur = self.rest.next()?.iter();
        };
        if self
            .runs
            .get(1)
            .is_some_and(|&(start, _)| start == self.index)
        {
            self.runs = &self.runs[1..];
        }
        let e = Entry {
            term: self.runs[0].1,
            index: self.index,
            cmd,
        };
        self.index += 1;
        self.left -= 1;
        Some(e)
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
        assert_eq!(*l.get(2).unwrap().cmd, "b");
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
        assert_eq!(*r.next().unwrap().cmd, "b");
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
        assert_eq!(*l.get(3).unwrap().cmd, "c");
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
        let at = |l: &RaftLog<u64>, i| l.get(i).unwrap().cmd as *const u64;
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

        /// The first retained index of each entry's term run, entry by
        /// entry.
        fn run_starts(&self) -> Vec<LogIndex> {
            let mut starts: Vec<LogIndex> = Vec::with_capacity(self.entries.len());
            for (p, e) in self.entries.iter().enumerate() {
                let fresh = p == 0 || self.entries[p - 1].term != e.term;
                starts.push(if fresh { e.index } else { starts[p - 1] });
            }
            starts
        }

        /// Index of the first entry of the `n`th term run (mod the number
        /// of runs), or `first` when the log is empty.
        fn run_start(&self, n: u64) -> LogIndex {
            let mut starts = self.run_starts();
            starts.dedup();
            if starts.is_empty() {
                self.first
            } else {
                starts[n as usize % starts.len()]
            }
        }
    }

    /// `e` in the form the log yields it.
    fn borrowed(e: &Entry<u64>) -> Entry<&u64> {
        Entry {
            term: e.term,
            index: e.index,
            cmd: &e.cmd,
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
        let starts = m.run_starts();
        for idx in 0..=last + 1 {
            let p = idx.checked_sub(m.first).map(|p| p as usize);
            let e = p.and_then(|p| m.entries.get(p));
            prop_assert_eq!(l.get(idx), e.map(borrowed), "get({})", idx);
            let start = p.and_then(|p| starts.get(p)).copied().unwrap_or(idx);
            prop_assert_eq!(l.run_start(idx), start, "run_start({})", idx);
            let term = match idx {
                0 => Some(0),
                i if i + 1 == m.first => Some(m.prev_term),
                _ => e.map(|e| e.term),
            };
            prop_assert_eq!(l.term_at(idx), term, "term_at({})", idx);
        }
        let all = m.entries.iter().map(borrowed);
        prop_assert!(l.range(0, u64::MAX).eq(all.clone()), "full range");
        prop_assert_eq!(l.to_vec(0, u64::MAX), m.entries.clone(), "to_vec");
        let r = l.range(lo, hi);
        let want = all.filter(|e| e.index >= lo && e.index <= hi);
        prop_assert_eq!(r.len(), want.clone().count(), "range({}, {}) size", lo, hi);
        prop_assert!(r.eq(want), "range({}, {})", lo, hi);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        /// Random operation sequences that cross chunk boundaries and term
        /// runs leave the chunked log indistinguishable from a plain `Vec`
        /// of entries: truncation at and inside a run, compaction to and
        /// across a run boundary, and `term_at` at `first_index − 1`.
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
                    // Append or push a batch of up to 3 chunks' worth, with
                    // a new term every `every` entries (never, for b ≥ 32).
                    0 | 1 => {
                        term += b % 2;
                        let every = if b < 32 { 1 + b * 37 } else { u64::MAX };
                        for k in 0..a {
                            term += u64::from(k > 0 && k % every == 0);
                            let e = Entry { term, index: last + 1 + k, cmd: a ^ k };
                            if op == 0 {
                                prop_assert_eq!(l.append(e.term, e.cmd), e.index);
                            } else {
                                l.push(e.clone());
                            }
                            m.entries.push(e);
                        }
                    }
                    // Truncate anywhere, at a run's first entry, or inside
                    // a run (one past its first entry).
                    2 => {
                        let idx = match b % 3 {
                            0 => pick(a),
                            1 => m.run_start(a),
                            _ => m.run_start(a) + 1,
                        };
                        let idx = idx.max(m.first);
                        l.truncate_from(idx);
                        m.entries.truncate((idx - m.first) as usize);
                    }
                    // Compact exactly to a chunk boundary, one past it, to
                    // everything, to an arbitrary index, to just before a
                    // run, or across a run's first entry.
                    3 | 4 => {
                        let idx = match b % 6 {
                            0 => m.base + (a / CHUNK as u64 + 1) * CHUNK as u64 - 1,
                            1 => m.base + (a / CHUNK as u64 + 1) * CHUNK as u64,
                            2 => last,
                            3 => pick(a),
                            4 => m.run_start(a) - 1,
                            _ => m.run_start(a),
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
                        if let Some(cmd) = l.get_mut(idx) {
                            *cmd = b;
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
