//! Per-thread simulation profiling counters.
//!
//! The figure suite runs whole simulator worlds on pool worker threads, and
//! a world runs start-to-finish on one thread — so plain thread-local
//! counters, snapshotted before and after a run on the executing thread,
//! attribute costs to worlds with zero synchronization on the hot path. An
//! increment here is one thread-local `u64` bump (no atomics, no locks),
//! and the counters are always on; `hcbench` reads them per run.
//!
//! Three cost classes are counted:
//!
//! * **Scheduler ops** — event-queue pushes and pops in the engine
//!   ([`ProfileSnapshot::sched_ops`]); the baseline "how much work did this
//!   world do" denominator.
//! * **Tracer ring borrows** — every borrow of a tracer's ring, one per
//!   [`crate::Tracer`] method call ([`ProfileSnapshot::tracer_locks`], the
//!   name `hcbench` reads it under).
//! * **Heap traffic** — allocation calls and bytes, counted only when the
//!   running binary installs [`CountingAlloc`] as its global allocator
//!   (`hcbench` does; everything else simply reads zeros).
//!
//! Snapshots subtract ([`ProfileSnapshot::delta_since`]) so callers bracket
//! a region: snapshot, run the world, snapshot, diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static TRACER_LOCKS: Cell<u64> = const { Cell::new(0) };
    static SCHED_OPS: Cell<u64> = const { Cell::new(0) };
    static WHEEL_CASCADES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Point-in-time reading of this thread's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Tracer ring borrows on this thread.
    pub tracer_locks: u64,
    /// Engine event-queue operations (pushes + pops) on this thread.
    pub sched_ops: u64,
    /// Timer-wheel cascade entry moves on this thread: each count is one
    /// pending event redistributed from an overflow level toward the near
    /// wheel. The ratio `wheel_cascades / sched_ops` says how often the
    /// workload's delays outrun the near wheel's horizon.
    pub wheel_cascades: u64,
    /// Global-allocator calls (alloc / realloc / alloc_zeroed) on this
    /// thread. Zero unless the binary installs [`CountingAlloc`].
    pub alloc_calls: u64,
    /// Bytes requested from the global allocator on this thread. Zero
    /// unless the binary installs [`CountingAlloc`].
    pub alloc_bytes: u64,
}

impl ProfileSnapshot {
    /// Reads the current thread's counters.
    pub fn now() -> ProfileSnapshot {
        ProfileSnapshot {
            tracer_locks: TRACER_LOCKS.with(Cell::get),
            sched_ops: SCHED_OPS.with(Cell::get),
            wheel_cascades: WHEEL_CASCADES.with(Cell::get),
            alloc_calls: ALLOC_CALLS.with(Cell::get),
            alloc_bytes: ALLOC_BYTES.with(Cell::get),
        }
    }

    /// Counter deltas accumulated since `earlier` (taken on the same
    /// thread).
    pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            tracer_locks: self.tracer_locks - earlier.tracer_locks,
            sched_ops: self.sched_ops - earlier.sched_ops,
            wheel_cascades: self.wheel_cascades - earlier.wheel_cascades,
            alloc_calls: self.alloc_calls - earlier.alloc_calls,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
        }
    }
}

#[inline]
pub(crate) fn note_tracer_lock() {
    // `try_with` instead of `with`: never panic from inside the tracing
    // hot path, even during thread teardown.
    let _ = TRACER_LOCKS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn note_sched_op() {
    let _ = SCHED_OPS.try_with(|c| c.set(c.get() + 1));
}

/// Counts `n` timer-wheel cascade entry moves (one per pending event
/// redistributed from an overflow level toward the near wheel).
#[inline]
pub(crate) fn note_wheel_cascades(n: u64) {
    let _ = WHEEL_CASCADES.try_with(|c| c.set(c.get() + n));
}

/// Global allocator wrapper that counts calls and bytes per thread, then
/// delegates to [`System`]. Install it in a binary to light up the
/// `alloc_*` fields of [`ProfileSnapshot`]:
///
/// ```
/// use simnet::ProfileSnapshot;
///
/// #[global_allocator]
/// static ALLOC: simnet::CountingAlloc = simnet::CountingAlloc;
///
/// fn main() {
///     let before = ProfileSnapshot::now();
///     let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(64));
///     let d = ProfileSnapshot::now().delta_since(&before);
///     assert!(d.alloc_calls >= 1 && d.alloc_bytes >= 64);
///     drop(v);
/// }
/// ```
///
/// The counters are const-initialized thread-locals with no destructor, so
/// counting is safe from any allocation context, including before `main`
/// and during thread teardown (where the increment is silently skipped).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are plain
// thread-local `Cell`s that never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let before = ProfileSnapshot::now();
        note_sched_op();
        note_sched_op();
        note_tracer_lock();
        let after = ProfileSnapshot::now();
        let d = after.delta_since(&before);
        assert_eq!(d.sched_ops, 2);
        assert_eq!(d.tracer_locks, 1);
    }

    #[test]
    fn counters_are_per_thread() {
        let before = ProfileSnapshot::now();
        std::thread::spawn(|| {
            for _ in 0..1000 {
                note_sched_op();
            }
        })
        .join()
        .unwrap();
        let after = ProfileSnapshot::now();
        assert_eq!(
            after.delta_since(&before).sched_ops,
            0,
            "another thread's ops must not bleed into this thread's counters"
        );
    }
}
