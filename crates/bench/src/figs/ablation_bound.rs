//! Ablation: the bounded-queue bound B (§3.4, §3.6).
//!
//! B trades failure containment (≤ B lost replies per failed node) and
//! JBSQ's queue-depth signal against scheduling slack: too small starves
//! announcement, too large lets a slow node hoard work. Sweeps B on the
//! Figure 11 workload (bimodal S̄=10µs, 75% read-only, N=3).

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{with_windows, write_banner};

/// Ablation — bounded-queue bound B sweep.
pub const FIG: Figure = Figure {
    name: "ablation_bound",
    run,
};

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Ablation — bounded-queue bound B at 150 kRPS (bimodal 10us, 75% RO, N=3)",
        "tiny B throttles announcements (throughput loss); large B keeps \
         throughput but weakens failure containment; the paper uses B=32 \
         for this workload",
    );
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12}",
        "B", "achieved", "p99(us)", "p50(us)"
    );
    let bounds = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let jobs: Vec<ClusterOpts> = bounds
        .iter()
        .map(|&b| {
            let mut o = with_windows(ClusterOpts::new(
                Setup::HovercraftPp(PolicyKind::Jbsq),
                3,
                150_000.0,
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
            o.bound = b;
            o
        })
        .collect();
    let results = sw.map(jobs, run_experiment);
    for (&b, r) in bounds.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{b:>5} {:>12.0} {:>12.1} {:>12.1}",
            r.achieved_rps,
            r.p99_ns as f64 / 1e3,
            r.p50_ns as f64 / 1e3
        );
    }
    out
}
