//! Figure 10: latency vs throughput with 6 kB replies (§7.3). The
//! unreplicated server is IO-bound at ~200 kRPS (one 10G link); HovercRaft++
//! load-balances replies across all replicas for a ~N× capacity gain —
//! replication *improving* performance.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{grid, with_windows, write_banner, write_point};

/// Figure 10 — reply load balancing with 6 kB replies.
pub const FIG: Figure = Figure {
    name: "fig10_reply_lb",
    run,
};

fn wl() -> WorkloadKind {
    WorkloadKind::Synth(SynthSpec {
        dist: ServiceDist::Fixed { ns: 1_000 },
        req_size: 24,
        reply_size: 6_000,
        ro_fraction: 0.0,
    })
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 10 — latency vs throughput, 6kB replies, reply LB on (S=1us, 24B req)",
        "UnRep hits the 10G reply-bandwidth wall at ~200 kRPS; 3 and 5 node \
         HovercRaft++ clusters scale reply capacity ~3x and ~5x",
    );
    // (section header, point label, opts for each rate) — flattened into
    // one job list so every point of every section runs concurrently.
    let mut sections: Vec<(String, String, Vec<ClusterOpts>)> = Vec::new();
    let unrep_rates = grid(vec![
        50_000.0, 100_000.0, 150_000.0, 180_000.0, 195_000.0, 210_000.0,
    ]);
    sections.push((
        "--- UnRep (N=1) ---".to_string(),
        "UnRep".to_string(),
        unrep_rates
            .iter()
            .map(|&rate| {
                let mut o = with_windows(ClusterOpts::new(Setup::Unrep, 1, rate));
                o.workload = wl();
                o
            })
            .collect(),
    ));
    for n in [3u32, 5] {
        let max = 195_000.0 * n as f64;
        let rates = grid(vec![
            max * 0.3,
            max * 0.5,
            max * 0.7,
            max * 0.85,
            max * 0.95,
            max * 1.05,
        ]);
        sections.push((
            format!("--- HovercRaft++ N={n} ---"),
            format!("HC++ N={n}"),
            rates
                .iter()
                .map(|&rate| {
                    let mut o = with_windows(ClusterOpts::new(
                        Setup::HovercraftPp(PolicyKind::Jbsq),
                        n,
                        rate,
                    ));
                    o.workload = wl();
                    o.bound = 128;
                    o
                })
                .collect(),
        ));
    }
    let jobs: Vec<ClusterOpts> = sections.iter().flat_map(|(_, _, j)| j.clone()).collect();
    let results = sw.map(jobs, run_experiment);
    let mut it = results.iter();
    for (header, label, section_jobs) in &sections {
        let _ = writeln!(out, "{header}");
        for _ in section_jobs {
            write_point(&mut out, label, it.next().expect("grid point"));
        }
    }
    out
}
