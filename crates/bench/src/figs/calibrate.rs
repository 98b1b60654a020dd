//! Developer tool: sweeps the Figure 8 parameter space to sanity-check the
//! testbed calibration (request-size sensitivity of each setup). Not one of
//! the paper's figures — kept as the quickest end-to-end health probe of
//! the performance model.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use simnet::SimDur;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};

/// Calibration probe — request-size sensitivity per setup.
pub const FIG: Figure = Figure {
    name: "calibrate",
    run,
};

const RATES: [f64; 7] = [
    400_000.0, 500_000.0, 600_000.0, 700_000.0, 800_000.0, 850_000.0, 880_000.0,
];
const REQS: [usize; 3] = [24, 64, 512];

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    let setups = [
        Setup::Vanilla,
        Setup::Hovercraft(PolicyKind::Jbsq),
        Setup::HovercraftPp(PolicyKind::Jbsq),
    ];
    // Request-size sensitivity (Figure 8 shape check).
    let jobs: Vec<ClusterOpts> = setups
        .iter()
        .flat_map(|&setup| {
            REQS.iter().flat_map(move |&req| {
                RATES.iter().map(move |&rate| {
                    let mut o = ClusterOpts::new(setup, 3, rate);
                    o.warmup = SimDur::millis(50);
                    o.measure = SimDur::millis(200);
                    o.lb_replies = Some(false);
                    o.clients = 4;
                    o.workload = WorkloadKind::Synth(SynthSpec {
                        dist: ServiceDist::Fixed { ns: 1000 },
                        req_size: req,
                        reply_size: 8,
                        ro_fraction: 0.0,
                    });
                    o
                })
            })
        })
        .collect();
    let results = sw.map(jobs, run_experiment);
    let mut chunks = results.chunks(RATES.len());
    for setup in setups {
        for req in REQS {
            let mut best = 0.0f64;
            for r in chunks.next().expect("grid chunk") {
                if r.meets_slo(500_000) {
                    best = best.max(r.achieved_rps);
                }
            }
            let _ = writeln!(
                out,
                "{:14} req {:>4}B  max-under-SLO {:>9.0}",
                setup.label(),
                req,
                best
            );
        }
    }
    out
}
