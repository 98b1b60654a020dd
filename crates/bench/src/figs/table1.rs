//! Table 1: leader Rx/Tx message complexity per client request in the
//! non-failure case (§4). Measured from live per-node NIC counters over the
//! steady-state window, for N = 3..9, at a low and a high offered load.
//!
//! Paper's analytic table (per request):
//!   Raft        : Rx 1+(N-1)      Tx (N-1)+1
//!   HovercRaft  : Rx 1+(N-1)      Tx (N-1)+1/N
//!   HovercRaft++: Rx 1+1          Tx 1+1/N
//!
//! Our measured Tx additionally includes the FEEDBACK message per reply
//! when flow control is deployed (HovercRaft modes), and reply
//! load-balancing is left on, so HovercRaft leader Tx ≈ (N-1) + 1/N + 1/N.
//!
//! The analytic counts are per *unbatched* request: one entry per
//! AppendEntries. The leader ships once per batch of received input, so
//! each cell also reports the measured batch — entries per data-carrying
//! AppendEntries (an aggregator copy counts once) — which divides the
//! per-follower append and ack terms.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{summarize, Cluster, ClusterOpts, ExpResult, ServerAgent, Setup};

use crate::sweep::{Figure, Sweep};
use crate::{with_windows, write_banner};

/// The low-load row: far below every setup's knee at every N.
const LOW_LOAD_RPS: f64 = 50_000.0;

/// Table 1 — leader Rx/Tx messages per request.
pub const FIG: Figure = Figure {
    name: "table1_msg_counts",
    run,
};

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Table 1 — leader Rx/Tx messages per request (measured, steady state)",
        "Raft and HovercRaft leader message counts grow with N; the \
         HovercRaft++ aggregator makes them constant (~2 Rx, ~1+2/N Tx)",
    );
    let _ = writeln!(
        out,
        "{:>3} {:>9} | {:>24} | {:>24} | {:>24}",
        "N",
        "load",
        "VanillaRaft rx/tx/batch",
        "HovercRaft rx/tx/batch",
        "HovercRaft++ rx/tx/batch"
    );
    let ns = [3u32, 5, 7, 9];
    let setups = [
        Setup::Vanilla,
        Setup::Hovercraft(PolicyKind::Jbsq),
        Setup::HovercraftPp(PolicyKind::Jbsq),
    ];
    // Two loads per N. High (but under the SLO knee): the pipeline stays
    // busy and commit indices ride data-carrying appends — the steady state
    // the paper's analytic table describes. Low: every request finds the
    // pipeline idle, so VanillaRaft and HovercRaft pay §3.7's eager
    // commit notification (one empty AppendEntries and its reply per
    // follower per request, which is what buys the 2.5-RTT latency);
    // HovercRaft++ does not — AGG_COMMIT is its notification — and holds
    // the same budget at both loads.
    let loads = |n: u32| [LOW_LOAD_RPS, if n <= 5 { 700_000.0 } else { 400_000.0 }];
    let rows: Vec<(u32, f64)> = ns
        .iter()
        .flat_map(|&n| loads(n).map(|rate| (n, rate)))
        .collect();
    let jobs: Vec<ClusterOpts> = rows
        .iter()
        .flat_map(|&(n, rate)| setups.map(|setup| with_windows(ClusterOpts::new(setup, n, rate))))
        .collect();
    let results = sw.map(jobs, run_cell);
    for (&(n, rate), row) in rows.iter().zip(results.chunks(setups.len())) {
        let mut cells = Vec::new();
        for (r, batch) in row {
            let leader = r.leader.expect("leader") as usize;
            let c = r.server_counters[leader];
            let per = r.responses.max(1) as f64;
            cells.push(format!(
                "{:>6.2} / {:<6.2} x{batch:<5.2}",
                c.rx_msgs as f64 / per,
                c.tx_msgs as f64 / per
            ));
        }
        let _ = writeln!(
            out,
            "{n:>3} {:>4.0} kRPS | {:>24} | {:>24} | {:>24}",
            rate / 1e3,
            cells[0],
            cells[1],
            cells[2]
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "analytic (paper):   Raft rx=N, tx=N | HovercRaft rx=N, tx=(N-1)+1/N(+fb) | HC++ rx=2, tx=1+1/N(+fb)");
    let _ = writeln!(out, "(analytic counts assume one entry per AppendEntries; xB = measured entries per AppendEntries)");
    out
}

/// Runs one cell and returns its summary with the mean batch over the
/// measured window: entries per data-carrying AppendEntries (only leaders
/// send those, so summing over every server needs no leader lookup).
fn run_cell(opts: ClusterOpts) -> (ExpResult, f64) {
    let mut c = Cluster::build(opts);
    c.settle();
    c.sim.run_until(c.opts().load_start + c.opts().warmup);
    let sent = |c: &Cluster| {
        c.servers.iter().fold((0, 0), |(a, e), &s| {
            let st = c.sim.agent::<ServerAgent>(s).node().stats();
            (a + st.appends_sent, e + st.entries_sent)
        })
    };
    let (appends0, entries0) = sent(&c);
    c.run_to_completion();
    let (appends1, entries1) = sent(&c);
    let batch = (entries1 - entries0) as f64 / (appends1 - appends0).max(1) as f64;
    (summarize(&mut c), batch)
}
