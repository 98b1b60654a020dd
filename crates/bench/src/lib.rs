//! # hovercraft-bench — the paper-reproduction harness
//!
//! One figure per table/figure of the HovercRaft paper's evaluation (§7),
//! plus the extension suite, each rendering the series the paper plots and
//! the paper's qualitative expectation, so a run can be eyeballed against
//! the original (`run_all_figs --stdout <figure>` prints one, `--list`
//! names them all, in this order):
//!
//! | Figure | Reproduces |
//! |---|---|
//! | `fig7_latency_throughput` | Fig. 7 — tail latency vs load, 4 setups, N=3 |
//! | `fig8_request_size` | Fig. 8 — max kRPS under SLO vs request size |
//! | `fig9_cluster_size` | Fig. 9 — max kRPS under SLO vs cluster size |
//! | `fig10_reply_lb` | Fig. 10 — reply load balancing with 6 kB replies |
//! | `fig11_readonly_lb` | Fig. 11 — JBSQ vs RANDOM, bimodal 10µs, 75 % RO |
//! | `fig12_failover` | Fig. 12 — leader-kill timeline with flow control |
//! | `fig13_ycsbe` | Fig. 13 — YCSB-E on the Redis-like store |
//! | `fig14_recovery` | extension — snapshots, log compaction, large-state recovery |
//! | `table1_msg_counts` | Table 1 — leader Rx/Tx messages per request |
//! | `ycsb_suite` | extension — YCSB A–E through HovercRaft++ |
//! | `ablation_bound` | ablation — the bounded-queue bound B |
//! | `ablation_loss` | ablation — multicast loss and the recovery protocol |
//! | `ablation_mechanisms` | ablation — reply vs read-only load balancing |
//! | `calibrate` | developer tool — request-size sensitivity of each setup |
//!
//! `run_all_figs` runs every world of the whole suite (all figures' load
//! grids) on one set of [`pool`] workers, with byte-identical output to a
//! serial run; see [`sweep`]. `HC_JOBS` controls the worker count (`1` =
//! exact serial execution). Set
//! `HC_FAST=1` for a quick smoke pass (shorter windows, coarser grids);
//! unset it for publication-quality runs.
//!
//! This crate renders figures; it measures nothing about the host. Host
//! cost, allocations and per-layer time are `hcbench`'s (`benchmark/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figs;
pub mod sweep;

use std::fmt::Write as _;

use simnet::SimDur;
use testbed::{run_experiment, ClusterOpts, ExpResult};

use crate::sweep::Sweep;

/// The paper's service-level objective: 500µs at the 99th percentile.
pub const SLO_NS: u64 = 500_000;

/// True when `HC_FAST=1`: smoke-test durations. Panics on any value other
/// than `0` or `1`, so a typo cannot pass a smoke run off as a full one.
pub fn fast() -> bool {
    let raw = std::env::var_os("HC_FAST");
    parse_fast(raw.as_deref().map(|v| v.to_string_lossy()).as_deref())
}

fn parse_fast(hc_fast: Option<&str>) -> bool {
    match hc_fast {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => panic!("HC_FAST={v:?}: expected 0 or 1"),
    }
}

/// (warmup, measure) windows for throughput points.
pub fn windows() -> (SimDur, SimDur) {
    if fast() {
        (SimDur::millis(30), SimDur::millis(120))
    } else {
        (SimDur::millis(100), SimDur::millis(400))
    }
}

/// Applies the standard measurement windows to an option set.
pub fn with_windows(mut o: ClusterOpts) -> ClusterOpts {
    let (w, m) = windows();
    o.warmup = w;
    o.measure = m;
    o.clients = 4;
    o
}

/// Thins a load grid when in fast mode (keeps every other point plus the
/// last).
pub fn grid(points: Vec<f64>) -> Vec<f64> {
    if !fast() {
        return points;
    }
    let n = points.len();
    points
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0 || *i == n - 1)
        .map(|(_, p)| p)
        .collect()
}

/// Runs a load sweep (in parallel under the sweep context) and returns the
/// highest achieved throughput whose point meets the 500µs SLO, plus every
/// point measured, in rate order.
pub fn max_under_slo(
    sw: &Sweep<'_>,
    rates: &[f64],
    mk: impl Fn(f64) -> ClusterOpts + Send + Sync + 'static,
) -> (f64, Vec<ExpResult>) {
    let all = sw.map(rates.to_vec(), move |rate| run_experiment(mk(rate)));
    (best_under_slo(&all), all)
}

/// The highest achieved throughput among `points` meeting the 500µs SLO.
pub fn best_under_slo(points: &[ExpResult]) -> f64 {
    let mut best = 0.0f64;
    for r in points {
        if r.meets_slo(SLO_NS) {
            best = best.max(r.achieved_rps);
        }
    }
    best
}

/// Appends one latency-throughput row to `out`.
pub fn write_point(out: &mut String, label: &str, r: &ExpResult) {
    let _ = writeln!(
        out,
        "{label:14} offered {:>9.0} RPS | achieved {:>9.0} RPS | p50 {:>9.1}us | p99 {:>9.1}us | nacks/s {:>8.0}",
        r.offered_rps,
        r.achieved_rps,
        r.p50_ns as f64 / 1e3,
        r.p99_ns as f64 / 1e3,
        r.nacks as f64 / windows().1.as_secs_f64(),
    );
}

/// Appends a standard experiment banner to `out`.
pub fn write_banner(out: &mut String, title: &str, paper_expectation: &str) {
    let _ = writeln!(
        out,
        "=========================================================================="
    );
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "--------------------------------------------------------------------------"
    );
    let _ = writeln!(out, "Paper expectation: {paper_expectation}");
    if fast() {
        let _ = writeln!(
            out,
            "(HC_FAST=1: smoke-test windows — absolute numbers are noisier)"
        );
    }
    let _ = writeln!(
        out,
        "=========================================================================="
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_passthrough_without_fast_mode() {
        // The test env does not set HC_FAST, so grids pass through whole.
        if !fast() {
            let g = grid(vec![1.0, 2.0, 3.0, 4.0]);
            assert_eq!(g.len(), 4);
        }
    }

    #[test]
    fn hc_fast_accepts_only_0_and_1() {
        assert!(!parse_fast(None));
        assert!(!parse_fast(Some("0")));
        assert!(parse_fast(Some("1")));
        for typo in ["true", "", "2", " 1"] {
            let err = std::panic::catch_unwind(|| parse_fast(Some(typo))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("HC_FAST={typo:?}")), "{msg}");
        }
    }

    #[test]
    fn windows_are_nonzero() {
        let (w, m) = windows();
        assert!(w.as_nanos() > 0 && m.as_nanos() > 0);
    }
}
