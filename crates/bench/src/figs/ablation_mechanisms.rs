//! Ablation: the individual contribution of each HovercRaft mechanism.
//!
//! Runs the Figure 11 workload with reply load balancing and read-only
//! load balancing toggled independently, quantifying how much of the
//! capacity gain each mechanism delivers (§3.3 vs §3.5).

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{best_under_slo, with_windows, write_banner};

/// Ablation — mechanism contribution matrix.
pub const FIG: Figure = Figure {
    name: "ablation_mechanisms",
    run,
};

const COMBOS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Ablation — mechanism contributions (bimodal 10us, 75% RO, N=3, under 500us SLO)",
        "read-only LB is the big CPU win on this workload; reply LB matters \
         for IO-bound shapes (Fig. 10); together they give the full gain",
    );
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 15_000.0).collect();
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>20}",
        "reply-LB", "ro-LB", "max kRPS under SLO"
    );
    let jobs: Vec<ClusterOpts> = COMBOS
        .iter()
        .flat_map(|&(lb_replies, lb_reads)| {
            rates.iter().map(move |&rate| {
                let mut o = with_windows(ClusterOpts::new(
                    Setup::HovercraftPp(PolicyKind::Jbsq),
                    3,
                    rate,
                ));
                o.workload = WorkloadKind::Synth(SynthSpec {
                    dist: ServiceDist::Bimodal {
                        mean_ns: 10_000,
                        frac_long: 0.1,
                        mult: 10,
                    },
                    req_size: 24,
                    reply_size: 8,
                    ro_fraction: 0.75,
                });
                o.bound = 32;
                o.lb_replies = Some(lb_replies);
                o.lb_reads = Some(lb_reads);
                o
            })
        })
        .collect();
    let results = sw.map(jobs, run_experiment);
    for (&(lb_replies, lb_reads), points) in COMBOS.iter().zip(results.chunks(rates.len())) {
        let best = best_under_slo(points);
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>17.0}",
            lb_replies,
            lb_reads,
            best / 1_000.0
        );
    }
    out
}
