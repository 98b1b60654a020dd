//! The replicated log.
//!
//! A contiguous sequence of term-stamped entries starting at `first_index`
//! (1 unless a prefix has been compacted away). The log enforces the
//! append/truncate discipline Raft's safety argument rests on: entries are
//! only removed by [`RaftLog::truncate_from`] when a leader's conflicting
//! entry overwrites them, and committed entries are never truncated (the
//! node layer guarantees commit ≤ match before truncation can reach them).

use crate::types::{LogIndex, Term};

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
    entries: Vec<Entry<C>>,
    /// Index of the first retained entry (== 1 + snapshot boundary).
    first: LogIndex,
    /// Term of the entry just before `first` (snapshot term); 0 initially.
    prev_term: Term,
}

impl<C> Default for RaftLog<C> {
    fn default() -> Self {
        RaftLog {
            entries: Vec::new(),
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
        self.first + self.entries.len() as u64 - 1
    }

    /// Term of the last entry (or of the compaction boundary).
    pub fn last_term(&self) -> Term {
        self.entries
            .last()
            .map(|e| e.term)
            .unwrap_or(self.prev_term)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        if idx < self.first || idx > self.last_index() {
            return None;
        }
        Some(self.entries[(idx - self.first) as usize].term)
    }

    /// Borrow the entry at `idx`, if retained.
    pub fn get(&self, idx: LogIndex) -> Option<&Entry<C>> {
        if idx < self.first || idx > self.last_index() {
            return None;
        }
        Some(&self.entries[(idx - self.first) as usize])
    }

    /// Mutably borrow the entry at `idx`, if retained. HovercRaft uses this
    /// to stamp the immutable `replier` field just before an entry is
    /// announced for the first time.
    pub fn get_mut(&mut self, idx: LogIndex) -> Option<&mut Entry<C>> {
        if idx < self.first || idx > self.last_index() {
            return None;
        }
        Some(&mut self.entries[(idx - self.first) as usize])
    }

    /// Appends a command with the given term; returns its index.
    pub fn append(&mut self, term: Term, cmd: C) -> LogIndex {
        let index = self.last_index() + 1;
        self.entries.push(Entry { term, index, cmd });
        index
    }

    /// Appends a pre-formed entry; its index must be exactly `last + 1`.
    ///
    /// # Panics
    /// Panics if the entry's index is not contiguous.
    pub fn push(&mut self, e: Entry<C>) {
        assert_eq!(e.index, self.last_index() + 1, "non-contiguous append");
        self.entries.push(e);
    }

    /// Removes all entries at `idx` and above (conflict truncation).
    pub fn truncate_from(&mut self, idx: LogIndex) {
        assert!(
            idx >= self.first,
            "cannot truncate into the compacted prefix"
        );
        let keep = (idx - self.first) as usize;
        self.entries.truncate(keep.min(self.entries.len()));
    }

    /// Borrows the entries in `[lo, hi]` (inclusive, clamped to the log).
    pub fn range(&self, lo: LogIndex, hi: LogIndex) -> &[Entry<C>] {
        if self.entries.is_empty() || hi < self.first || lo > self.last_index() || lo > hi {
            return &[];
        }
        let lo = lo.max(self.first);
        let a = (lo - self.first) as usize;
        let b = (hi.min(self.last_index()) - self.first) as usize;
        &self.entries[a..=b]
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
        self.entries.clear();
        self.first = idx + 1;
        self.prev_term = term;
    }

    /// Discards entries up to and including `idx` (log compaction after a
    /// snapshot). Keeps the boundary term for consistency checks.
    pub fn compact_to(&mut self, idx: LogIndex) {
        if idx < self.first {
            return;
        }
        let idx = idx.min(self.last_index());
        let term = self.term_at(idx).expect("index retained");
        let drop = (idx + 1 - self.first) as usize;
        self.entries.drain(..drop);
        self.first = idx + 1;
        self.prev_term = term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let r = l.range(2, 10);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].cmd, "b");
        assert!(l.range(4, 10).is_empty());
        assert!(l.range(3, 2).is_empty());
        assert_eq!(l.range(0, 100).len(), 3);
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
    #[should_panic(expected = "non-contiguous")]
    fn push_rejects_gap() {
        let mut l = log3();
        l.push(Entry {
            term: 2,
            index: 9,
            cmd: "x",
        });
    }
}
