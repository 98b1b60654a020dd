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
//! A record has one shape: a static `kind` tag, one numeric `key`
//! (request id, log index, term — whatever identifies the event), and a
//! lazy detail, a render function plus three raw words (`args`). It is
//! written one way, [`Tracer::record_lazy`], and read one way,
//! [`Tracer::for_each_since`] (plus [`Tracer::render_tail`] for dumps).
//! Checkers (e.g. exactly-one-reply-per-request) read `key` and `args`
//! without parsing strings; the human-readable text is produced only when
//! a trace is actually displayed (a violation bundle, a test failure
//! dump). At full load the simulator records millions of events and
//! renders none of them.

use crate::packet::{Addr, NodeId};
use crate::profile;
use crate::time::SimTime;
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Renders a record's detail from its three raw words.
///
/// Plain-std function-pointer type so protocol crates can expose renderers
/// without depending on `simnet`.
pub type DetailFn = fn(&mut fmt::Formatter<'_>, u64, u64, u64) -> fmt::Result;

/// One protocol event, stamped with virtual time and the emitting node.
#[derive(Clone, Debug)]
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
    /// Renders `args` into the human-readable detail, on demand only.
    pub render: DetailFn,
    /// Raw words interpreted by `render`. Their layout is the recorder's:
    /// for protocol events, `ProtoEvent::parts` defines it, and checkers
    /// read the words, never the rendered text.
    pub args: [u64; 3],
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.at.as_nanos();
        // Switch programs record their group address as the "node"; render
        // those as swN to distinguish them from servers.
        if self.node & Addr::GROUP_BASE != 0 {
            let sw = self.node & !Addr::GROUP_BASE;
            write!(f, "[{ns:>12}ns] sw{sw:<3} {:<16} ", self.kind)?;
        } else {
            write!(f, "[{ns:>12}ns] n{:<4} {:<16} ", self.node, self.kind)?;
        }
        let [a, b, c] = self.args;
        (self.render)(f, a, b, c)
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
    /// [`Tracer::record_lazy`], the one writer, counts its own.
    fn ring(&self) -> Ref<'_, Inner> {
        profile::note_tracer_lock();
        self.inner.borrow()
    }

    /// Appends one event, evicting the oldest if the ring is full. The
    /// detail is lazy: `render` is invoked on `(a, b, c)` only if the event
    /// is ever displayed, so recording is a handful of word moves, with no
    /// allocation and no formatting. The only writer.
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
            render,
            args: [a, b, c],
        });
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
    /// detect the gap. The only way to read events besides
    /// [`Tracer::render_tail`].
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

    fn text(f: &mut fmt::Formatter<'_>, a: u64, _: u64, _: u64) -> fmt::Result {
        write!(f, "#{a}")
    }

    fn record(t: &Tracer, node: NodeId, kind: &'static str, key: u64) {
        t.record_lazy(SimTime::ZERO, node, kind, key, text, key, 0, 0);
    }

    fn seqs_since(t: &Tracer, since: u64) -> Vec<(u64, &'static str, u64)> {
        let mut out = Vec::new();
        t.for_each_since(since, |e| out.push((e.seq, e.kind, e.key)));
        out
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            record(&t, 0, "ev", i);
        }
        let evs = seqs_since(&t, 0);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].0, 2);
        assert_eq!(evs[2].0, 4);
        assert_eq!(t.total_recorded(), 5);
    }

    #[test]
    fn incremental_scan_sees_only_new_events() {
        let t = Tracer::new(16);
        record(&t, 1, "a", 0);
        record(&t, 1, "b", 0);
        let first = seqs_since(&t, 0);
        assert_eq!(first.len(), 2);
        let cursor = first.last().unwrap().0 + 1;
        record(&t, 2, "c", 7);
        assert_eq!(seqs_since(&t, cursor), [(2, "c", 7)]);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        record(&t2, 0, "x", 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tail_renders_one_line_per_event() {
        let t = Tracer::new(8);
        record(&t, 0, "x", 1);
        record(&t, Addr::GROUP_BASE | 2, "y", 2);
        let s = t.render_tail(10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], format!("[{:>12}ns] n0    {:<16} #1", 0, "x"));
        assert_eq!(lines[1], format!("[{:>12}ns] sw2   {:<16} #2", 0, "y"));
    }

    #[test]
    fn tracer_and_events_are_send_and_sync() {
        // Compile-time assertion: the `Tracer` handle stays on its world's
        // thread (it is an `Rc`); what it hands out may leave the world.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceEvent>();
    }

    #[test]
    fn panic_during_scan_does_not_poison_the_tracer() {
        // A checker panicking inside `for_each_since` (while the ring is
        // borrowed) must leave the tracer fully usable: recording, scanning,
        // and dumping all still work, and no secondary panic ever replaces
        // the checker's own message. This is what lets a violation bundle
        // be rendered *after* the invariant checker has already panicked.
        let t = Tracer::new(8);
        record(&t, 0, "before", 1);
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
        record(&t2, 0, "after", 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_recorded(), 2);
        let dump = t.render_tail(10);
        assert!(dump.contains("before") && dump.contains("after"));
    }
}
