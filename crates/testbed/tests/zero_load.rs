//! Zero-load latency, to the nanosecond: with one request in flight at a
//! time, a setup's client-measured latency is a closed-form sum of the
//! fabric and NIC constants plus the service time S. Virtual time is
//! exact, so the sum written out below must match the simulator exactly;
//! a change to the engine's hop arithmetic (serialization, fragment
//! costs, busy-until bookkeeping) that moves any stage by one nanosecond
//! fails here.
//!
//! Run with `-- --nocapture` to print the per-setup table kept in
//! DESIGN.md.

use simnet::SimDur;
use testbed::{Cluster, ClusterOpts, Setup};

/// One-way node ↔ ToR propagation (`FabricParams::prop_delay`).
const PROP: u64 = 800;
/// Cut-through switching (`FabricParams::switch_delay`).
const SWITCH: u64 = 300;
/// Per-fragment framing on the wire (`NicParams::per_frag_overhead`).
const FRAMING: u64 = 60;
/// Server NIC (`NicParams::default()`): 10 GbE, 180 ns RX / 60 ns TX CPU
/// per fragment.
const SERVER_GBPS: u64 = 10;
const SERVER_RX: u64 = 180;
const SERVER_TX: u64 = 60;
/// Client NIC (the testbed's Lancet machines): 40 GbE, 80 ns RX / TX.
const CLIENT_GBPS: u64 = 40;
const CLIENT_RX: u64 = 80;
const CLIENT_TX: u64 = 80;
/// S of `SynthSpec::baseline()`.
const S: u64 = 1_000;
/// VanillaRaft's leader copies each inline payload byte into every
/// AppendEntries at 1.4 ns/B (whole nanoseconds, rounded down).
const AE_COPY_DECI_NS_PER_BYTE: u64 = 14;

/// Wire sizes, all single-fragment: a 16 B R2P2 header on every message.
/// A request is the 24 B baseline body plus its 8 B id; a response the
/// 8 B reply plus its id; an AppendEntries carries 40 B of Raft fields
/// and one 40 B entry descriptor with the 24 B body inline; its reply is
/// the 40 B of Raft fields.
const BODY: u64 = 24;
const REQUEST: u64 = 16 + BODY + 8;
const RESPONSE: u64 = 16 + 8 + 8;
const APPEND: u64 = 16 + 40 + 40 + BODY;
const APPEND_REPLY: u64 = 16 + 40;

/// Serialization of one single-fragment message, rounded up to the
/// nanosecond.
fn wire(bytes: u64, gbps: u64) -> u64 {
    ((bytes + FRAMING) * 8).div_ceil(gbps)
}

/// Client → switch → server, one way, after the sender's wire stage.
const HOP: u64 = PROP + SWITCH + PROP;

/// The zero-load path of `setup` as (stage, ns) rows.
fn hand_sum(setup: Setup) -> Vec<(&'static str, u64)> {
    let mut rows = vec![
        ("client TX CPU", CLIENT_TX),
        ("request, client TX wire", wire(REQUEST, CLIENT_GBPS)),
        ("client → ToR → server", HOP),
        ("request, server RX wire", wire(REQUEST, SERVER_GBPS)),
        ("server RX CPU", SERVER_RX),
    ];
    if setup == Setup::Vanilla {
        rows.extend([
            ("AppendEntries copy", BODY * AE_COPY_DECI_NS_PER_BYTE / 10),
            ("leader TX CPU", SERVER_TX),
            ("AppendEntries, leader TX wire", wire(APPEND, SERVER_GBPS)),
            ("leader → ToR → follower", HOP),
            ("AppendEntries, follower RX wire", wire(APPEND, SERVER_GBPS)),
            ("follower RX CPU", SERVER_RX),
            ("follower TX CPU", SERVER_TX),
            ("reply, follower TX wire", wire(APPEND_REPLY, SERVER_GBPS)),
            ("follower → ToR → leader", HOP),
            ("reply, leader RX wire", wire(APPEND_REPLY, SERVER_GBPS)),
            ("leader RX CPU", SERVER_RX),
        ]);
    }
    rows.extend([
        ("S (application thread)", S),
        ("server TX CPU (application thread)", SERVER_TX),
        ("response, server TX wire", wire(RESPONSE, SERVER_GBPS)),
        ("server → ToR → client", HOP),
        ("response, client RX wire", wire(RESPONSE, CLIENT_GBPS)),
        ("client RX CPU", CLIENT_RX),
    ]);
    rows
}

/// Sorted client-measured latencies of one client at 2 kRPS: mean gap
/// 500 µs against a ≈ 10 µs path, so nearly every request runs alone.
fn measured(setup: Setup) -> Vec<u64> {
    let mut opts = ClusterOpts::new(setup, 3, 2_000.0);
    opts.clients = 1;
    opts.measure = SimDur::millis(200);
    let mut cluster = Cluster::build(opts);
    cluster.run_to_completion();
    let mut lat = cluster.client_results().latencies;
    lat.sort_unstable();
    lat
}

#[test]
fn zero_load_latency_is_the_hand_sum_to_the_nanosecond() {
    for setup in [Setup::Unrep, Setup::Vanilla] {
        let rows = hand_sum(setup);
        let total: u64 = rows.iter().map(|r| r.1).sum();
        println!("\n| {} | ns |\n|---|---|", setup.label());
        for (stage, ns) in &rows {
            println!("| {stage} | {ns} |");
        }
        println!("| **total** | **{total}** |");

        let lat = measured(setup);
        assert!(lat.len() > 300, "{}: {} samples", setup.label(), lat.len());
        // The floor is the zero-load path, and the typical request sees
        // exactly it; the few above it queued behind a close Poisson
        // neighbour or a heartbeat.
        assert_eq!(lat[0], total, "{}: fastest request", setup.label());
        assert_eq!(lat[lat.len() / 2], total, "{}: median", setup.label());
    }
}
