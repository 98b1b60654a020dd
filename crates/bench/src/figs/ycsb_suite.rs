//! Extension: the broader YCSB suite (A–E) through the full HovercRaft++
//! stack. The paper evaluates workload E; this figure shows how the benefit
//! tracks the read-only fraction across the standard workloads — C (100 %
//! reads) load-balances perfectly, A (50 % updates) is bound by full-SMR
//! execution.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, ServiceKind, Setup, WorkloadKind};
use workload::YcsbWorkload;

use crate::sweep::{Figure, Sweep};
use crate::{best_under_slo, grid, with_windows, write_banner};

/// Extension — YCSB A–E, UnRep vs HovercRaft++ N=5.
pub const FIG: Figure = Figure {
    name: "ycsb_suite",
    run,
};

const WORKLOADS: [(YcsbWorkload, &str); 5] = [
    (YcsbWorkload::A, "A 50%upd"),
    (YcsbWorkload::B, "B 5%upd"),
    (YcsbWorkload::C, "C reads"),
    (YcsbWorkload::D, "D latest"),
    (YcsbWorkload::E, "E scans"),
];

fn opts(wl: YcsbWorkload, setup: Setup, n: u32, rate: f64) -> ClusterOpts {
    let mut o = with_windows(ClusterOpts::new(setup, n, rate));
    o.service = ServiceKind::Kv;
    o.workload = WorkloadKind::Ycsb {
        workload: wl,
        records: 10_000,
    };
    o.bound = 64;
    o
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Extension — YCSB A/B/C/D/E on the KV store, UnRep vs HovercRaft++ N=5",
        "the speedup from replication tracks the load-balanceable (read-only) \
         fraction: ~1x for update-heavy A, approaching N for read-only C",
    );
    let _ = writeln!(
        out,
        "{:10} {:>14} {:>14} {:>9}",
        "workload", "UnRep kRPS", "HC++ N=5 kRPS", "speedup"
    );
    // Phase 1 — every workload's unreplicated sweep, one flat job grid.
    // Point reads/updates are much cheaper than E's scans: sweep wide.
    let unrep_rates = grid(vec![
        20_000.0, 40_000.0, 80_000.0, 120_000.0, 160_000.0, 200_000.0,
    ]);
    let unrep_jobs: Vec<ClusterOpts> = WORKLOADS
        .iter()
        .flat_map(|&(wl, _)| {
            unrep_rates
                .iter()
                .map(move |&rate| opts(wl, Setup::Unrep, 1, rate))
        })
        .collect();
    let unrep_results = sw.map(unrep_jobs, run_experiment);
    let unrep_best: Vec<f64> = unrep_results
        .chunks(unrep_rates.len())
        .map(best_under_slo)
        .collect();
    // Phase 2 — HC++ ladders, anchored per workload on the measured
    // unreplicated knee. Replication can help by at most ~N and never by
    // less than ~0.8x.
    const LADDER: [f64; 7] = [0.8, 1.2, 1.8, 2.5, 3.3, 4.2, 5.2];
    let hc_jobs: Vec<ClusterOpts> = WORKLOADS
        .iter()
        .zip(&unrep_best)
        .flat_map(|(&(wl, _), &unrep)| {
            LADDER.iter().map(move |m| {
                opts(
                    wl,
                    Setup::HovercraftPp(PolicyKind::Jbsq),
                    5,
                    m * unrep.max(10_000.0),
                )
            })
        })
        .collect();
    let hc_results = sw.map(hc_jobs, run_experiment);
    let hc_best: Vec<f64> = hc_results
        .chunks(LADDER.len())
        .map(best_under_slo)
        .collect();
    for (((_, label), unrep), hc) in WORKLOADS.iter().zip(&unrep_best).zip(&hc_best) {
        let _ = writeln!(
            out,
            "{label:10} {:>14.1} {:>14.1} {:>8.2}x",
            unrep / 1e3,
            hc / 1e3,
            hc / unrep.max(1.0)
        );
    }
    out
}
