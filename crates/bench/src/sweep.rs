//! Deterministic parallel sweeps over independent simulator jobs.
//!
//! Every experiment in the suite is a grid of *independent, seeded,
//! single-threaded* simulations — a `(figure × load-point × seed)` job
//! space. This module runs that grid on the [`pool`] workers while keeping
//! results **byte-identical to serial execution**:
//!
//! * Each job constructs and drives its own `Sim` world entirely on one
//!   worker thread — no state is shared between jobs.
//! * [`Sweep::map`] returns outputs in input-index order regardless of
//!   completion order, and figures render their report *after* the map,
//!   in input order — so the merged text, digests, and BENCH JSON never
//!   depend on scheduling.
//! * `HC_JOBS=1` (or a single-core machine) takes an exact serial path
//!   that starts no thread; `HC_JOBS=N` sets the worker count, and the
//!   default is `available_parallelism`.
//!
//! A figure is a [`Figure`]: a name (its results-file name) plus a
//! `fn(&Sweep) -> String` that renders the full report. The `run_all_figs`
//! driver gives each figure a thread that plans and renders; every world
//! any of them maps runs as a job on one shared set of workers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pool::Workers;

/// Execution context for one figure: either strictly serial, or running
/// its jobs on a shared set of workers.
pub struct Sweep<'a> {
    workers: Option<&'a Workers>,
}

impl Sweep<'static> {
    /// The strictly serial context: `map` is a plain in-order loop.
    pub const SERIAL: Self = Sweep { workers: None };
}

impl<'a> Sweep<'a> {
    /// A context whose jobs run on `workers`.
    pub fn pooled(workers: &'a Workers) -> Self {
        Sweep {
            workers: Some(workers),
        }
    }

    /// Runs `f` over `items`, returning outputs **in input order**.
    ///
    /// Serially this is exactly `items.into_iter().map(f).collect()`; on
    /// workers each item is one queued job. `f` must own its captures
    /// (`'static`): jobs run on worker threads that outlive the caller's
    /// locals.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        match self.workers {
            Some(w) => w.map(items, f),
            None => items.into_iter().map(f).collect(),
        }
    }
}

/// One figure/table of the suite: its name (doubles as the results file
/// stem) and the renderer producing the complete report text.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Figure name, e.g. `"fig7_latency_throughput"`.
    pub name: &'static str,
    /// Renders the figure under the given sweep context.
    pub run: fn(&Sweep<'_>) -> String,
}

/// Runs `f(item)` for every item (ordered outputs) as a standalone call:
/// on [`pool::default_jobs`] workers, or as a plain serial loop when that
/// is 1. This is the entry the test-suite sweeps (chaos corpus, randomized
/// plans) use — panics from `f` propagate to the caller, lowest index first.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(I) -> O + Send + Sync + 'static,
{
    match pool::default_jobs().min(items.len()) {
        0 | 1 => Sweep::SERIAL.map(items, f),
        n => pool::with_workers(n, |w| Sweep::pooled(w).map(items, f)),
    }
}

/// Runs a figure renderer, converting a panic into `Err(message)` so a
/// driver can keep going and report the failure at the end.
pub fn try_render(fig: &Figure, sw: &Sweep<'_>) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(|| (fig.run)(sw))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// FNV-1a over bytes — the suite's output fingerprint (same constants as
/// the trace digest in `testbed`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_map_preserves_order() {
        let out = Sweep::SERIAL.map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn pooled_map_matches_serial() {
        let serial = Sweep::SERIAL.map((0..64u64).collect(), |x| x * x + 1);
        let pooled = pool::with_workers(4, |w| {
            Sweep::pooled(w).map((0..64u64).collect(), |x| x * x + 1)
        });
        assert_eq!(serial, pooled);
    }

    #[test]
    fn par_map_matches_serial_loop() {
        let serial: Vec<u64> = (0..33u64).map(|x| x + 7).collect();
        assert_eq!(par_map((0..33u64).collect(), |x| x + 7), serial);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: the suite digest must be machine- and run-independent.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"hovercraft"), fnv1a64(b"hovercraft"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
