//! N worker threads on one FIFO of jobs.
//!
//! Every simulation in this reproduction is an independent, seeded,
//! single-threaded world that runs for milliseconds to minutes, so the
//! figure grids, the chaos corpus and the property sweeps need one thing
//! from a scheduler: run whole jobs on a fixed number of threads and hand
//! the results back in input order, so that nothing a caller renders
//! depends on which worker ran what when.
//!
//! [`with_workers`] runs the threads for the duration of a closure;
//! [`Workers::map`] enqueues one job per item and blocks until all have
//! run. Any number of threads may call `map` on one `Workers` at once: the
//! worker count alone bounds how many jobs run concurrently. A job must
//! not call `map` on the queue that runs it — callers do not execute jobs,
//! so with every worker waiting nothing would.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};

/// Worker threads to use by default: `HC_JOBS` if set (at least 1),
/// otherwise every core, and never more than the cores. Running more
/// allocation-heavy worlds than cores at once was measured to cost
/// 10–20 % in user time (DESIGN.md §13), so the cap is applied here,
/// where the count is chosen; [`with_workers`] spawns what it is told.
/// `1` means callers take their plain serial loop. Panics on an `HC_JOBS`
/// that is not a number.
pub fn default_jobs() -> usize {
    let raw = std::env::var_os("HC_JOBS");
    parse_jobs(
        raw.as_deref().map(|v| v.to_string_lossy()).as_deref(),
        available_cores(),
    )
}

fn parse_jobs(hc_jobs: Option<&str>, cores: usize) -> usize {
    let Some(v) = hc_jobs else { return cores };
    let asked: usize = v
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("HC_JOBS={v:?}: expected a worker count"));
    asked.clamp(1, cores)
}

/// `std::thread::available_parallelism` with a safe fallback.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shared queue; see [`with_workers`].
pub struct Workers {
    queue: Mutex<Queue>,
    /// Signalled per pushed job, and for all on shutdown.
    wake: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Box<dyn FnOnce() + Send>>,
    shutdown: bool,
}

/// Runs `body` with `threads` (at least 1) workers popping one FIFO, and
/// joins them before returning. They shut down when `body` returns *or
/// unwinds*, so a panic in `body` propagates instead of hanging the join.
pub fn with_workers<T>(threads: usize, body: impl FnOnce(&Workers) -> T) -> T {
    struct Shutdown<'a>(&'a Workers);
    impl Drop for Shutdown<'_> {
        fn drop(&mut self) {
            self.0.lock().shutdown = true;
            self.0.wake.notify_all();
        }
    }
    let workers = Workers {
        queue: Mutex::default(),
        wake: Condvar::new(),
    };
    std::thread::scope(|ts| {
        for _ in 0..threads.max(1) {
            ts.spawn(|| workers.work());
        }
        let _shutdown = Shutdown(&workers);
        body(&workers)
    })
}

impl Workers {
    /// Jobs run outside the lock and catch their own panics, so a
    /// poisoned lock guards no torn state.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn work(&self) {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                drop(q);
                job();
                q = self.lock();
            } else if q.shutdown {
                return;
            } else {
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Runs `f(item)` for every item as one queued job each, blocks until
    /// all of them have run, and returns the outputs **in input order**.
    /// If jobs panicked, the payload of the lowest-indexed one is re-raised
    /// here, after every job of this call has run, so none is left in the
    /// queue. Workers are not tied to the caller's frame, hence `'static`.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.lock();
            for (i, item) in items.into_iter().enumerate() {
                let (f, tx) = (f.clone(), tx.clone());
                q.jobs.push_back(Box::new(move || {
                    let _ = tx.send((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
                }));
                self.wake.notify_one();
            }
        }
        drop(tx);
        // Ends when the last job has dropped its sender.
        let mut outs: Vec<_> = rx.iter().collect();
        outs.sort_unstable_by_key(|&(i, _)| i);
        outs.into_iter()
            .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn map_returns_outputs_in_input_order() {
        for threads in [1, 2, 5, 16] {
            for n in [0u64, 1, 7, 64, 257] {
                let out = with_workers(threads, |w| {
                    w.map((0..n).collect(), |x| {
                        // Stagger completion so out-of-order finishes happen.
                        if x % 7 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        x * x
                    })
                });
                let expect: Vec<u64> = (0..n).map(|x| x * x).collect();
                assert_eq!(out, expect, "threads={threads} n={n}");
            }
        }
    }

    /// The `run_all_figs` shape: many planning threads, one queue.
    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        with_workers(3, |w| {
            std::thread::scope(|ts| {
                let callers: Vec<_> = (0..6u64)
                    .map(|c| ts.spawn(move || w.map((0..40).collect(), move |x: u64| c * 1000 + x)))
                    .collect();
                for (c, h) in callers.into_iter().enumerate() {
                    let expect: Vec<u64> = (0..40).map(|x| c as u64 * 1000 + x).collect();
                    assert_eq!(h.join().unwrap(), expect, "caller {c}");
                }
            })
        });
    }

    #[test]
    fn jobs_in_flight_never_exceed_the_worker_count() {
        static NOW: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        with_workers(3, |w| {
            w.map((0..48).collect(), |_: u32| {
                PEAK.fetch_max(NOW.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                NOW.fetch_sub(1, Ordering::SeqCst);
            })
        });
        let peak = PEAK.load(Ordering::SeqCst);
        assert!((2..=3).contains(&peak), "peak {peak} with 3 workers");
    }

    #[test]
    fn lowest_indexed_panic_is_reraised_after_every_job_ran() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let res = catch_unwind(|| {
            with_workers(3, |w| {
                w.map((0..32u32).collect(), |x| {
                    // The higher index panics first in wall-clock order.
                    if x == 5 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    RAN.fetch_add(1, Ordering::SeqCst);
                    assert!(x != 5 && x != 11, "boom at {x}");
                    x
                })
            })
        });
        let msg = *res
            .expect_err("map must re-raise")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("boom at 5"), "unexpected payload: {msg:?}");
        assert_eq!(RAN.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn scope_survives_a_panicking_task_without_poisoning() {
        let out = with_workers(2, |w| {
            let failing = |x: u32| assert!(x != 3, "x={x}");
            let first = catch_unwind(AssertUnwindSafe(|| w.map((0..8).collect(), failing)));
            assert!(first.is_err(), "a panicking job fails its map");
            // The same workers keep scheduling afterwards.
            w.map((0..8u32).collect(), |x| x * 2)
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    /// A job may not map on its own queue, but may open workers of its own.
    #[test]
    fn nested_scope_inside_task_completes() {
        let inner = |base| with_workers(2, |w| w.map(vec![1u64, 2, 3], move |x| base + x));
        let out = with_workers(2, |w| w.map(vec![10u64, 20], inner));
        assert_eq!(out, vec![vec![11, 12, 13], vec![21, 22, 23]]);
    }

    #[test]
    fn panic_in_body_shuts_workers_down() {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let res = catch_unwind(|| with_workers(4, |_| panic!("body boom")));
            let _ = done_tx.send(res.is_err());
        });
        let unwound = done_rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(unwound, Ok(true), "hung or swallowed the panic");
    }

    #[test]
    fn default_jobs_honors_env_override() {
        assert!((1..=available_cores()).contains(&default_jobs()));
        assert_eq!(parse_jobs(None, 8), 8);
        assert_eq!(parse_jobs(Some("4"), 8), 4);
        assert_eq!(parse_jobs(Some(" 4\n"), 8), 4);
        assert_eq!(parse_jobs(Some("0"), 8), 1, "at least one worker");
        assert_eq!(parse_jobs(Some("64"), 8), 8, "capped at the cores");
        for typo in ["four", "", "4x", "-1"] {
            let err = catch_unwind(|| parse_jobs(Some(typo), 8)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("HC_JOBS={typo:?}")), "{msg}");
        }
    }
}
