//! Figure 9: achieved throughput under the 500µs SLO as the cluster grows
//! to 5, 7, and 9 nodes (§7.2) — "scaling cluster sizes without regret".

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup};

use crate::sweep::{Figure, Sweep};
use crate::{best_under_slo, grid, with_windows, write_banner};

/// Figure 9 — max kRPS under SLO vs cluster size.
pub const FIG: Figure = Figure {
    name: "fig9_cluster_size",
    run,
};

const NS: [u32; 4] = [3, 5, 7, 9];

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 9 — max kRPS under 500us SLO vs cluster size (S=1us, 24B/8B)",
        "VanillaRaft degrades most (-43% at N=9 in the paper); HovercRaft \
         degrades less; HovercRaft++ is flat — the aggregator makes leader \
         cost independent of cluster size",
    );
    let rates = grid(vec![
        300_000.0, 400_000.0, 500_000.0, 600_000.0, 700_000.0, 800_000.0, 850_000.0, 876_000.0,
    ]);
    let _ = writeln!(
        out,
        "{:14} {:>3} {:>18}",
        "setup", "N", "max kRPS under SLO"
    );
    let setups = [
        Setup::Vanilla,
        Setup::Hovercraft(PolicyKind::Jbsq),
        Setup::HovercraftPp(PolicyKind::Jbsq),
    ];
    let mut jobs: Vec<ClusterOpts> = Vec::new();
    for &setup in &setups {
        for &n in &NS {
            for &rate in &rates {
                let mut o = with_windows(ClusterOpts::new(setup, n, rate));
                o.lb_replies = Some(false);
                jobs.push(o);
            }
        }
    }
    let results = sw.map(jobs, run_experiment);
    let mut chunks = results.chunks(rates.len());
    for setup in setups {
        let mut baseline = 0.0f64;
        for n in NS {
            let best = best_under_slo(chunks.next().expect("grid chunk"));
            if n == 3 {
                baseline = best;
            }
            let delta = 100.0 * (best / baseline - 1.0);
            let _ = writeln!(
                out,
                "{:14} {:>3} {:>15.0}  ({:+.1}% vs N=3)",
                setup.label(),
                n,
                best / 1_000.0,
                delta
            );
        }
    }
    out
}
