//! YCSB-E on the Redis-like store, replicated without code changes (§7.5).
//!
//! The same `KvService` object runs unreplicated or under HovercRaft++ —
//! the application-agnostic fault tolerance the paper promises. This
//! example runs both, prints the throughput/latency comparison, and then
//! pokes the store directly to show the module operations at work.
//!
//! Run with: `cargo run --release --example redis_ycsbe`

use bytes::{ByteArena, Bytes};
use hovercraft::PolicyKind;
use minikv::{Command, Reply, Store};
use simnet::SimDur;
use testbed::{run_experiment, ClusterOpts, ServiceKind, Setup, WorkloadKind};
use workload::YcsbWorkload;

fn opts(setup: Setup, n: u32, rate: f64) -> ClusterOpts {
    let mut o = ClusterOpts::new(setup, n, rate);
    o.service = ServiceKind::Kv;
    o.workload = WorkloadKind::Ycsb {
        workload: YcsbWorkload::E,
        records: 5_000,
    };
    o.measure = SimDur::millis(300);
    o
}

fn main() {
    // First, the store itself: the YCSB-E "module" commands execute as
    // single atomic operations, like the paper's Redis module.
    let mut store = Store::new();
    let mut arena = ByteArena::new();
    for i in 0..5u32 {
        let key = format!("user{i:012}");
        let insert = Command::Insert(
            Bytes::from_static(b"usertable"),
            Bytes::from(key),
            Bytes::from(vec![b'x'; 100]),
        );
        store
            .execute(&insert.encode(), &mut arena)
            .expect("well-formed");
    }
    let scan = Command::Scan(
        Bytes::from_static(b"usertable"),
        Bytes::from_static(b"user000000000001"),
        3,
    );
    let (reply, metrics) = store
        .execute(&scan.encode(), &mut arena)
        .expect("well-formed");
    match Reply::decode(&reply) {
        Some(Reply::Array(items)) => println!(
            "SCAN(3) returned {} key/record pairs, touching {} records",
            items.len() / 2,
            metrics.records
        ),
        other => panic!("unexpected reply {other:?}"),
    }
    println!();

    // Now the headline comparison: the same service, unreplicated vs a
    // 5-node HovercRaft++ cluster that load-balances the 95% of operations
    // that are read-only SCANs.
    println!("running YCSB-E (95% SCAN / 5% INSERT, 1kB records)...");
    let unrep = run_experiment(opts(Setup::Unrep, 1, 30_000.0));
    let hc = run_experiment(opts(Setup::HovercraftPp(PolicyKind::Jbsq), 5, 105_000.0));

    println!();
    println!("{:24} {:>12} {:>12} {:>12}", "", "goodput", "p50", "p99");
    for (label, r) in [("UnRep (1 node)", &unrep), ("HovercRaft++ (5 nodes)", &hc)] {
        println!(
            "{label:24} {:>9.0}/s {:>10.1}µs {:>10.1}µs",
            r.achieved_rps,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3
        );
    }
    println!();
    println!(
        "replication made the store {:.1}x faster *and* able to survive two\n\
         node failures — the paper's core claim.",
        hc.achieved_rps / unrep.achieved_rps
    );
    assert!(hc.achieved_rps > 2.0 * unrep.achieved_rps);
}
