//! Figure 13: YCSB-E (95% SCAN / 5% INSERT, 1 kB records) on the Redis-like
//! store (§7.5). The workload is CPU-bound and read-mostly, so read-only
//! load balancing converts replicas into throughput: the paper reports a 4x
//! speedup over the unreplicated deployment at N=7 under the 500µs SLO.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{ClusterOpts, ServiceKind, Setup, WorkloadKind};
use workload::YcsbWorkload;

use crate::sweep::{Figure, Sweep};
use crate::{grid, max_under_slo, with_windows, write_banner, write_point, SLO_NS};

/// Figure 13 — YCSB-E on the Redis-like store.
pub const FIG: Figure = Figure {
    name: "fig13_ycsbe",
    run,
};

const RECORDS: u64 = 10_000;

fn opts(setup: Setup, n: u32, rate: f64) -> ClusterOpts {
    let mut o = with_windows(ClusterOpts::new(setup, n, rate));
    o.service = ServiceKind::Kv;
    o.workload = WorkloadKind::Ycsb {
        workload: YcsbWorkload::E,
        records: RECORDS,
    };
    o.bound = 64;
    o
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 13 — YCSB-E on the Redis-like store (unmodified service, all setups)",
        "SMR adds moderate latency at low load, but read-only load balancing \
         scales throughput with cluster size: the paper reaches 142 kRPS at \
         N=7 under the 500us SLO, ~4x over unreplicated",
    );
    // Phase 1 — the unreplicated knee (the HC++ ladders depend on it).
    let _ = writeln!(out, "--- UnRep (N=1) ---");
    let unrep_rates = grid(vec![
        10_000.0, 20_000.0, 30_000.0, 38_000.0, 44_000.0, 50_000.0,
    ]);
    let (unrep_best, pts) = max_under_slo(sw, &unrep_rates, |r| opts(Setup::Unrep, 1, r));
    for p in &pts {
        write_point(&mut out, "UnRep", p);
    }
    // Phase 2 — all HC++ grids are independent once the ladder rates are
    // derived from `unrep_best`: flatten (N × rate) into one map.
    let ns = [3u32, 5, 7];
    let mut jobs: Vec<ClusterOpts> = Vec::new();
    let mut per_n: Vec<usize> = Vec::new();
    for &n in &ns {
        // Amdahl estimate of the capacity: only SCANs (95% of ops, with a
        // serial fraction f set by the INSERT/SCAN cost ratio) scale out.
        let f = 0.107;
        let est = unrep_best / (f + (1.0 - f) / n as f64);
        let rates = grid(vec![
            est * 0.3,
            est * 0.55,
            est * 0.75,
            est * 0.9,
            est * 1.0,
            est * 1.1,
        ]);
        per_n.push(rates.len());
        jobs.extend(
            rates
                .iter()
                .map(|&r| opts(Setup::HovercraftPp(PolicyKind::Jbsq), n, r)),
        );
    }
    let results = sw.map(jobs, testbed::run_experiment);
    let mut speedups = Vec::new();
    let mut offset = 0;
    for (&n, &len) in ns.iter().zip(&per_n) {
        let _ = writeln!(out, "--- HovercRaft++ N={n} ---");
        let pts = &results[offset..offset + len];
        offset += len;
        for p in pts {
            write_point(&mut out, &format!("HC++ N={n}"), p);
        }
        speedups.push((n, crate::best_under_slo(pts)));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "max under {}us SLO:  UnRep {:>8.0} RPS",
        SLO_NS / 1_000,
        unrep_best
    );
    for (n, best) in speedups {
        let _ = writeln!(
            out,
            "                    HC++ N={n} {:>8.0} RPS  ({:.2}x over UnRep)",
            best,
            best / unrep_best
        );
    }
    // Sanity at low load: SMR latency cost is moderate (paper: negligible
    // up to 10 kRPS).
    let lo = sw.map(
        vec![
            opts(Setup::Unrep, 1, 10_000.0),
            opts(Setup::HovercraftPp(PolicyKind::Jbsq), 7, 10_000.0),
        ],
        testbed::run_experiment,
    );
    let _ = writeln!(
        out,
        "low-load p99: UnRep {:.0}us vs HC++ N=7 {:.0}us",
        lo[0].p99_ns as f64 / 1e3,
        lo[1].p99_ns as f64 / 1e3
    );
    out
}
