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
//! * **Tracer lock acquisitions** — every acquisition of a tracer's ring
//!   lock ([`ProfileSnapshot::tracer_locks`]); this is the counter that
//!   distinguishes "the tracer lock is hot" from "the tracer lock is
//!   contended" when diagnosing parallel-suite slowdowns.
//! * **Heap traffic** — allocation calls and bytes, counted only when the
//!   running binary installs [`CountingAlloc`] as its global allocator
//!   (`hcbench` does; everything else simply reads zeros).
//!
//! Snapshots subtract ([`ProfileSnapshot::delta_since`]) so callers bracket
//! a region: snapshot, run the world, snapshot, diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

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
    /// Tracer ring-lock acquisitions on this thread.
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
/// ```ignore
/// #[global_allocator]
/// static ALLOC: simnet::CountingAlloc = simnet::CountingAlloc;
/// ```
///
/// The counters are const-initialized thread-locals with no destructor, so
/// counting is safe from any allocation context, including before `main`
/// and during thread teardown (where the increment is silently skipped).
pub struct CountingAlloc;

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

/// A minimal test-and-test-and-set spin lock that **cannot poison**.
///
/// The tracer ring is private to one simulator world and worlds are
/// single-threaded, so its lock is uncontended by construction — what
/// matters is the *uncontended* acquire cost (one compare-exchange, no
/// futex bookkeeping) and the failure behavior: the guard releases on drop
/// **including during a panic unwind**, so a checker panicking inside
/// [`crate::Tracer::for_each_since`] leaves the tracer fully usable for
/// the violation-bundle dump instead of cascading `PoisonError` panics
/// through every other clone holder (which used to bury the original
/// panic message). Spinning is acceptable precisely because contention is
/// limited to "a panic dump racing a recorder" — transient by nature.
pub struct SpinLock<T> {
    locked: AtomicBool,
    value: std::cell::UnsafeCell<T>,
}

// Same bounds as Mutex: the lock hands out &mut T across threads.
unsafe impl<T: Send> Send for SpinLock<T> {}
unsafe impl<T: Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Wraps `value` in an unlocked lock.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            value: std::cell::UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until it is free. Never fails, never
    /// poisons.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Test-and-test-and-set: spin on a plain load so the waiting
            // core doesn't bounce the cache line with failed RMWs.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        SpinGuard { lock: self }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Best-effort, like std's Mutex: don't block a Debug print.
        f.debug_struct("SpinLock")
            .field("locked", &self.locked.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`SpinLock`]; releases on drop, unwind included.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the guard holds the lock, so access is exclusive.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard holds the lock, so access is exclusive.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

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

    #[test]
    fn spinlock_guards_exclusive_access() {
        let lock = Arc::new(SpinLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 40_000);
    }

    #[test]
    fn spinlock_releases_on_unwind() {
        let lock = SpinLock::new(7u64);
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _g = lock.lock();
            panic!("holder dies");
        }));
        assert!(res.is_err());
        // A poisoning lock would deadlock or panic here; the spin lock
        // must simply be free again.
        assert_eq!(*lock.lock(), 7);
    }
}
