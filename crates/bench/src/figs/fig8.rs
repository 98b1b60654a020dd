//! Figure 8: achieved throughput under the 500µs SLO as a function of the
//! client request size (§7.1). HovercRaft separates replication from
//! ordering, so its cost is independent of request size; VanillaRaft pays
//! for every payload byte twice at the leader.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{best_under_slo, grid, with_windows, write_banner};

/// Figure 8 — max kRPS under SLO vs request size.
pub const FIG: Figure = Figure {
    name: "fig8_request_size",
    run,
};

const REQS: [usize; 3] = [24, 64, 512];

fn opts(setup: Setup, req: usize, rate: f64) -> ClusterOpts {
    let mut o = with_windows(ClusterOpts::new(setup, 3, rate));
    o.lb_replies = Some(false);
    o.workload = WorkloadKind::Synth(SynthSpec {
        dist: ServiceDist::Fixed { ns: 1_000 },
        req_size: req,
        reply_size: 8,
        ro_fraction: 0.0,
    });
    o
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 8 — max kRPS under 500us SLO vs request size (S=1us, 8B replies, N=3)",
        "VanillaRaft loses ~2% at 64B and ~48% at 512B vs its 24B baseline; \
         HovercRaft and HovercRaft++ are unaffected by request size",
    );
    let rates = grid(vec![
        300_000.0, 400_000.0, 500_000.0, 600_000.0, 700_000.0, 800_000.0, 850_000.0, 876_000.0,
    ]);
    let _ = writeln!(
        out,
        "{:14} {:>6} {:>18}",
        "setup", "reqB", "max kRPS under SLO"
    );
    let setups = [
        Setup::Vanilla,
        Setup::Hovercraft(PolicyKind::Jbsq),
        Setup::HovercraftPp(PolicyKind::Jbsq),
    ];
    let mut jobs: Vec<ClusterOpts> = Vec::new();
    for &setup in &setups {
        for &req in &REQS {
            for &rate in &rates {
                jobs.push(opts(setup, req, rate));
            }
        }
    }
    let results = sw.map(jobs, run_experiment);
    let mut chunks = results.chunks(rates.len());
    for setup in setups {
        let mut baseline = 0.0f64;
        for req in REQS {
            let best = best_under_slo(chunks.next().expect("grid chunk"));
            if req == 24 {
                baseline = best;
            }
            let delta = 100.0 * (best / baseline - 1.0);
            let _ = writeln!(
                out,
                "{:14} {:>6} {:>15.0}  ({:+.1}% vs 24B)",
                setup.label(),
                req,
                best / 1_000.0,
                delta
            );
        }
    }
    out
}
