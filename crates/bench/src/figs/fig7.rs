//! Figure 7: 99th-percentile latency vs throughput for a fixed S = 1µs
//! service with 24-byte requests and 8-byte replies on a 3-node cluster,
//! with reply load balancing explicitly disabled (§7.1).

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup};

use crate::sweep::{Figure, Sweep};
use crate::{grid, with_windows, write_banner, write_point};

/// Figure 7 — latency vs throughput, four setups.
pub const FIG: Figure = Figure {
    name: "fig7_latency_throughput",
    run,
};

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 7 — latency vs throughput, S=1us, 24B req / 8B reply, N=3",
        "all four setups reach close to 1M RPS under the 500us SLO; the \
         fault-tolerant setups carry a small constant latency offset over \
         UnRep (one extra consensus round trip)",
    );
    let rates = grid(vec![
        50_000.0, 200_000.0, 400_000.0, 600_000.0, 700_000.0, 800_000.0, 850_000.0, 876_000.0,
        900_000.0, 950_000.0,
    ]);
    let setups = [
        Setup::Unrep,
        Setup::Vanilla,
        Setup::Hovercraft(PolicyKind::Jbsq),
        Setup::HovercraftPp(PolicyKind::Jbsq),
    ];
    let jobs: Vec<ClusterOpts> = setups
        .iter()
        .flat_map(|&setup| {
            rates.iter().map(move |&rate| {
                let mut o = with_windows(ClusterOpts::new(setup, 3, rate));
                o.lb_replies = Some(false); // §7.1: focus on protocol overheads
                o
            })
        })
        .collect();
    let results = sw.map(jobs, run_experiment);
    for (setup, points) in setups.iter().zip(results.chunks(rates.len())) {
        let _ = writeln!(out, "--- {} ---", setup.label());
        for r in points {
            write_point(&mut out, setup.label(), r);
        }
    }
    out
}
