//! Structured protocol-event tracing.
//!
//! A [`Tracer`] is a cheap, clonable handle to a bounded ring buffer of
//! [`TraceEvent`]s. Protocol layers (Raft, HovercRaft nodes, the switch
//! programs) record virtual-time-stamped events through it; the testbed's
//! invariant checker scans the stream incrementally, and on a test failure
//! the last few hundred events are dumped as a replayable bundle. Because
//! the simulation is deterministic, re-running the same configuration and
//! seed reproduces the identical stream.
//!
//! Events are intentionally flat: a static `kind` tag, one numeric `key`
//! (request id, log index, term — whatever identifies the event), and a
//! [`Detail`] payload. Keeping the key numeric lets checkers (e.g.
//! exactly-one-reply-per-request) scan without parsing strings — and the
//! detail is *lazy*: hot paths record a render function plus up to three
//! raw words, and the human-readable text is produced only when a trace is
//! actually displayed (a violation bundle, a test failure dump). At full
//! load the simulator records millions of events and renders none of them.

use crate::packet::{Addr, NodeId};
use crate::profile;
use crate::time::SimTime;
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Renders a lazily recorded detail payload from its three raw words.
///
/// Plain-std function-pointer type so protocol crates can expose renderers
/// without depending on `simnet`.
pub type DetailFn = fn(&mut fmt::Formatter<'_>, u64, u64, u64) -> fmt::Result;

/// The human-readable context of a [`TraceEvent`], rendered on demand.
#[derive(Clone, Debug)]
pub enum Detail {
    /// No payload beyond `kind` and `key`.
    None,
    /// Eagerly rendered text — for cold paths (fault transitions, test
    /// scaffolding) where a `format!` per event is fine.
    Text(String),
    /// Deferred rendering: a function pointer plus its arguments. Recording
    /// one of these is a few word moves — no allocation, no formatting.
    Lazy {
        /// Renders `args` into display form.
        render: DetailFn,
        /// Raw words interpreted by `render`.
        args: (u64, u64, u64),
    },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::None => Ok(()),
            Detail::Text(s) => f.write_str(s),
            Detail::Lazy {
                render,
                args: (a, b, c),
            } => render(f, *a, *b, *c),
        }
    }
}

impl Detail {
    /// Renders to an owned string (test and checker convenience; the hot
    /// path never calls this).
    pub fn to_text(&self) -> String {
        self.to_string()
    }
}

// Semantic equality: two details are equal when they render identically.
// (Comparing the `Lazy` function pointers would be both meaningless — the
// compiler may merge or duplicate them — and wrong: equality of a trace
// event is about what an observer would read.)
impl PartialEq for Detail {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Detail::None, Detail::None) => true,
            (Detail::Text(a), Detail::Text(b)) => a == b,
            _ => self.to_text() == other.to_text(),
        }
    }
}
impl Eq for Detail {}

impl From<String> for Detail {
    fn from(s: String) -> Detail {
        Detail::Text(s)
    }
}

impl From<&str> for Detail {
    fn from(s: &str) -> Detail {
        Detail::Text(s.to_string())
    }
}

/// One protocol event, stamped with virtual time and the emitting node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// Virtual time at which the event was recorded.
    pub at: SimTime,
    /// Emitting entity: a server's [`NodeId`], or a group address raw value
    /// (high bit set) for in-network switch programs.
    pub node: NodeId,
    /// Static event tag, e.g. `"reply"`, `"commit_advance"`, `"fc_admit"`.
    pub kind: &'static str,
    /// Primary numeric identifier (request id, log index, term, ...);
    /// `0` when the event has no natural key.
    pub key: u64,
    /// Human-readable context, rendered on demand.
    pub detail: Detail,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.at.as_nanos();
        // Switch programs record their group address as the "node"; render
        // those as swN to distinguish them from servers.
        if self.node & Addr::GROUP_BASE != 0 {
            write!(
                f,
                "[{:>12}ns] sw{:<3} {:<16} {}",
                ns,
                self.node & !Addr::GROUP_BASE,
                self.kind,
                self.detail
            )
        } else {
            write!(
                f,
                "[{:>12}ns] n{:<4} {:<16} {}",
                ns, self.node, self.kind, self.detail
            )
        }
    }
}

struct Inner {
    cap: usize,
    next_seq: u64,
    buf: VecDeque<TraceEvent>,
}

/// Clonable handle to a shared, bounded event ring.
///
/// All clones append to the same buffer; when the ring is full the oldest
/// event is evicted (its `seq` is never reused, so incremental consumers
/// can detect gaps).
///
/// A world is built, driven and dropped on one thread, and each world owns
/// a private tracer, so the ring sits behind `Rc<RefCell<_>>`: the handle
/// is deliberately not `Send`, and what crosses threads is the world's
/// result, never its tracer. A `RefCell` borrow **cannot poison**: a
/// checker panicking inside [`Tracer::for_each_since`] releases the borrow
/// on unwind and every other clone holder keeps working, so the original
/// panic message and the violation-bundle dump survive intact. Recording
/// from inside a scan callback is a bug and panics with `BorrowMutError`.
/// Ring borrows are counted into the thread's
/// [`crate::ProfileSnapshot::tracer_locks`].
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

/// Default ring capacity: enough to hold the interesting tail of a
/// millisecond-scale checking window at full load.
pub const DEFAULT_TRACE_CAP: usize = 16_384;

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAP)
    }
}

impl Tracer {
    /// Creates a tracer whose ring holds at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(Inner {
                cap: cap.max(1),
                next_seq: 0,
                buf: VecDeque::new(),
            })),
        }
    }

    /// Borrows the ring to read it, counting the borrow into the calling
    /// thread's profiling counters. Every reading method goes through here;
    /// [`Tracer::record`], the one writer, counts its own.
    fn ring(&self) -> Ref<'_, Inner> {
        profile::note_tracer_lock();
        self.inner.borrow()
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(
        &self,
        at: SimTime,
        node: NodeId,
        kind: &'static str,
        key: u64,
        detail: impl Into<Detail>,
    ) {
        profile::note_tracer_lock();
        let mut g = self.inner.borrow_mut();
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.buf.len() == g.cap {
            g.buf.pop_front();
        }
        g.buf.push_back(TraceEvent {
            seq,
            at,
            node,
            kind,
            key,
            detail: detail.into(),
        });
    }

    /// Appends one event with no detail payload — the zero-allocation fast
    /// path for events whose `kind` and `key` say everything.
    pub fn record_kv(&self, at: SimTime, node: NodeId, kind: &'static str, key: u64) {
        self.record(at, node, kind, key, Detail::None);
    }

    /// Appends one event with a lazily rendered detail: `render` is invoked
    /// on `(a, b, c)` only if the event is ever displayed. The hot-path
    /// record primitive — a handful of word moves, no allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn record_lazy(
        &self,
        at: SimTime,
        node: NodeId,
        kind: &'static str,
        key: u64,
        render: DetailFn,
        a: u64,
        b: u64,
        c: u64,
    ) {
        self.record(
            at,
            node,
            kind,
            key,
            Detail::Lazy {
                render,
                args: (a, b, c),
            },
        );
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring().next_seq
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring().buf.len()
    }

    /// True when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every buffered event with `seq >= since`, oldest first,
    /// without cloning. The ring holds seqs contiguously, so the start is
    /// found by offset, not by scanning: incremental consumers (the
    /// invariant checker, trace digests) pay only for *new* events per
    /// call. If eviction outpaced the consumer the visit starts later than
    /// requested — compare the first visited `seq` against `since` to
    /// detect the gap.
    pub fn for_each_since(&self, since: u64, mut f: impl FnMut(&TraceEvent)) {
        let g = self.ring();
        let Some(first) = g.buf.front().map(|e| e.seq) else {
            return;
        };
        let skip = since.saturating_sub(first).min(g.buf.len() as u64) as usize;
        let (a, b) = g.buf.as_slices();
        if skip < a.len() {
            for e in &a[skip..] {
                f(e);
            }
            for e in b {
                f(e);
            }
        } else {
            for e in &b[skip - a.len()..] {
                f(e);
            }
        }
    }

    /// Snapshot of everything currently in the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring().buf.iter().cloned().collect()
    }

    /// Events with `seq >= since`, oldest first. Use for incremental scans:
    /// call with the last seen `seq + 1`. If eviction outpaced the consumer
    /// the returned slice starts later than requested — compare the first
    /// returned `seq` against `since` to detect the gap.
    pub fn events_since(&self, since: u64) -> Vec<TraceEvent> {
        self.ring()
            .buf
            .iter()
            .filter(|e| e.seq >= since)
            .cloned()
            .collect()
    }

    /// Renders the last `n` events as one line each, streamed into a single
    /// buffer straight from the ring — no event clones, one allocation
    /// (growing the output string). Violation bundles and failure dumps go
    /// through here.
    pub fn render_tail(&self, n: usize) -> String {
        use fmt::Write as _;
        let g = self.ring();
        let take = n.min(g.buf.len());
        let skip = g.buf.len() - take;
        let mut out = String::with_capacity(take * 56);
        for e in g.buf.iter().skip(skip) {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.ring();
        f.debug_struct("Tracer")
            .field("cap", &g.cap)
            .field("len", &g.buf.len())
            .field("total", &g.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            t.record(SimTime::ZERO, 0, "ev", i, format!("#{i}"));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 2);
        assert_eq!(evs[2].seq, 4);
        assert_eq!(t.total_recorded(), 5);
    }

    #[test]
    fn incremental_scan_sees_only_new_events() {
        let t = Tracer::new(16);
        t.record(SimTime::ZERO, 1, "a", 0, String::new());
        t.record(SimTime::ZERO, 1, "b", 0, String::new());
        let first = t.events_since(0);
        assert_eq!(first.len(), 2);
        let cursor = first.last().unwrap().seq + 1;
        t.record(SimTime::ZERO, 2, "c", 7, String::new());
        let fresh = t.events_since(cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, "c");
        assert_eq!(fresh[0].key, 7);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        t2.record(SimTime::ZERO, 0, "x", 0, String::new());
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn tail_renders_one_line_per_event() {
        let t = Tracer::new(8);
        t.record(SimTime::ZERO, 0, "x", 1, "one");
        t.record(SimTime::ZERO, 0, "y", 2, "two");
        let s = t.render_tail(10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("one") && s.contains("two"));
    }

    #[test]
    fn tracer_and_events_are_send_and_sync() {
        // Compile-time assertion: the `Tracer` handle stays on its world's
        // thread (it is an `Rc`); what it hands out may leave the world.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceEvent>();
        assert_send_sync::<Detail>();
    }

    #[test]
    fn panic_during_scan_does_not_poison_the_tracer() {
        // A checker panicking inside `for_each_since` (while the ring is
        // borrowed) must leave the tracer fully usable: recording, scanning,
        // and dumping all still work, and no secondary panic ever replaces
        // the checker's own message. This is what lets a violation bundle
        // be rendered *after* the invariant checker has already panicked.
        let t = Tracer::new(8);
        t.record(SimTime::ZERO, 0, "before", 1, "pre-panic");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.for_each_since(0, |_| panic!("checker violation: original message"));
        }));
        let payload = res.expect_err("checker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("checker violation: original message"),
            "first panic message must survive intact, got {msg:?}"
        );
        // Every clone holder keeps working after the unwind.
        let t2 = t.clone();
        t2.record(SimTime::ZERO, 0, "after", 2, "post-panic");
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_recorded(), 2);
        let dump = t.render_tail(10);
        assert!(dump.contains("pre-panic") && dump.contains("post-panic"));
    }

    #[test]
    fn lazy_detail_renders_identically_to_eager_text() {
        fn r(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
            write!(f, "index={a} id={b}")
        }
        let t = Tracer::new(8);
        t.record_lazy(SimTime::ZERO, 3, "reply", 9, r, 4, 9, 0);
        t.record(SimTime::ZERO, 3, "reply", 9, "index=4 id=9");
        let s = t.render_tail(2);
        let mut lines = s.lines();
        let (lazy, eager) = (lines.next().unwrap(), lines.next().unwrap());
        assert_eq!(lazy, eager);
        assert!(lazy.ends_with("index=4 id=9"));
    }
}
