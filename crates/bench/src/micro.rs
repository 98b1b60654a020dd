//! Criterion micro-benchmarks of the performance-critical primitives: the
//! consensus hot path, the R2P2 codec, the store, the workload generators,
//! the trace ring, and the simulation engine itself. These guard the
//! constant factors the figure harnesses depend on.
//!
//! The bodies live in the library (not `benches/`) so the test suite can
//! execute every target for one iteration under `HC_FAST=1` — a compile-and-
//! run smoke that catches bench rot without paying for measurement. The
//! `benches/micro.rs` target is a thin `main` over [`run_all`].

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bytes::{ByteArena, Bytes};
use hovercraft::{Aggregator, Cmd, EntryDesc, FlowControl, OpKind, UnorderedPool, WireMsg};
use minikv::{Command, CostModel, Store};
use r2p2::{body_hash, packetize_in, Header, MsgType, Policy, Reassembler, ReqId};
use raft::{Config, Entry, Message, RaftLog, RaftNode};
use workload::{encode_request, RecordSpec, SynthService, YcsbGen, YcsbWorkload, Zipfian};

fn bench_r2p2(c: &mut Criterion) {
    let mut g = c.benchmark_group("r2p2");
    let h = Header::single(MsgType::Request, Policy::Replicated, 42, 9000);
    g.throughput(Throughput::Elements(1));
    g.bench_function("header_encode", |b| b.iter(|| black_box(h).encode()));
    let enc = h.encode();
    g.bench_function("header_decode", |b| {
        b.iter(|| Header::decode(black_box(&enc)).unwrap())
    });
    let body = vec![7u8; 6_000];
    let id = ReqId::new(1, 2, 3);
    // One arena reused across iterations, as a sender on the hot path does.
    let mut arena = ByteArena::new();
    g.bench_function("packetize_6kB", |b| {
        b.iter(|| {
            packetize_in(
                MsgType::Request,
                Policy::Replicated,
                id,
                black_box(&body),
                1500,
                &mut arena,
            )
        })
    });
    let frags = packetize_in(
        MsgType::Request,
        Policy::Replicated,
        id,
        &body,
        1500,
        &mut arena,
    );
    g.bench_function("reassemble_6kB", |b| {
        b.iter_batched(
            || frags.clone(),
            |frags| {
                let mut r = Reassembler::new();
                let mut out = None;
                for f in frags {
                    out = r.push_in(1, f, &mut arena).unwrap();
                }
                out.unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The two passes a replicated request body gets: the leader's hash for the
/// `EntryDesc`, and the synthetic service's state fold on every replica.
/// Sizes are the paper's 24 B default and Figure 8's large points, so the
/// per-byte cost of ordering a request has a number of its own.
fn bench_body(c: &mut Criterion) {
    use hovercraft::Service;
    let mut g = c.benchmark_group("body_hash");
    for size in [24usize, 512, 1024] {
        let body = encode_request(1_000, 8, size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(&size.to_string(), |b| {
            b.iter(|| body_hash(black_box(&body)))
        });
    }
    g.finish();
    let mut g = c.benchmark_group("synth_execute");
    g.throughput(Throughput::Elements(1));
    for size in [24usize, 512] {
        let body = encode_request(1_000, 8, size);
        let mut arena = ByteArena::new();
        let mut svc = SynthService::default();
        g.bench_function(&size.to_string(), |b| {
            b.iter(|| svc.execute(black_box(&body), false, &mut arena).cost_ns)
        });
    }
    g.finish();
}

/// The unordered pool's two costs per node: the GC call every 250 µs tick
/// makes (flat in the number of live tombstones while none can expire), and
/// the three calls every ordered request makes, on a small pool and on one
/// whose archive no longer fits the cache.
fn bench_pool(c: &mut Criterion) {
    const GC_TIMEOUT_NS: u64 = 500_000_000;
    let ids = |ip: u32, n: usize| -> Vec<ReqId> {
        (0..n)
            .map(|i| ReqId::new(ip, (i >> 16) as u16, i as u16))
            .collect()
    };
    let mut g = c.benchmark_group("pool_gc");
    for (name, tombstones) in [("0", 0), ("1k", 1_000), ("32k", 32_000)] {
        let mut pool = UnorderedPool::new();
        pool.seed_tombstones(&ids(1, tombstones), 0);
        g.bench_function(name, |b| {
            b.iter(|| pool.gc(black_box(250_000), GC_TIMEOUT_NS))
        });
    }
    g.finish();

    // One iteration parks, orders and looks up `RING` fresh ids; the setup
    // between iterations retires them again (compaction, then a GC that
    // expires the tombstones), so the pool stays the size its name says.
    const RING: usize = 256;
    let body = encode_request(1_000, 8, 24);
    let ring = ids(2, RING);
    let mut g = c.benchmark_group("pool_request_path");
    g.throughput(Throughput::Elements(RING as u64));
    for (name, archived) in [("empty", 0), ("64k_archived", 64_000)] {
        let mut pool = UnorderedPool::new();
        for id in ids(3, archived) {
            pool.insert_recovered(id, OpKind::ReadWrite, body.clone(), 0);
        }
        let pool = std::cell::RefCell::new(pool);
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut pool = pool.borrow_mut();
                    pool.compact_archive(&ring, 0);
                    pool.gc(u64::MAX, GC_TIMEOUT_NS);
                },
                |()| {
                    let mut pool = pool.borrow_mut();
                    let mut found = 0;
                    for &id in &ring {
                        pool.insert(id, OpKind::ReadWrite, body.clone(), 1);
                        pool.mark_ordered(id);
                        found += pool.get(id).map_or(0, |r| r.body.len());
                    }
                    found
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn meta_cmd(i: u64) -> Cmd {
    Cmd::meta(EntryDesc::new(
        ReqId::new(9, 9, i as u16),
        i,
        OpKind::ReadWrite,
    ))
}

fn bench_raft(c: &mut Criterion) {
    let mut g = c.benchmark_group("raft");
    g.throughput(Throughput::Elements(1));
    g.bench_function("log_append", |b| {
        b.iter_batched(
            RaftLog::<Cmd>::new,
            |mut log| {
                for i in 0..64 {
                    log.append(1, meta_cmd(i));
                }
                log
            },
            BatchSize::SmallInput,
        )
    });

    // Leader hot path: propose + pump + process both follower acks.
    g.bench_function("leader_request_cycle", |b| {
        // Build an established 3-node leader (through the Pre-Vote phase).
        let mk = || {
            let mut n = RaftNode::<Cmd>::new(Config::new(0, vec![0, 1, 2]), 0);
            let mut acts = Vec::new();
            n.tick_into(50_000_000, &mut acts); // election timeout: probe pre-votes
            n.step_into(
                1,
                Message::PreVoteReply {
                    term: n.term() + 1,
                    granted: true,
                },
                50_000_050,
                &mut acts,
            );
            n.step_into(
                1,
                Message::RequestVoteReply {
                    term: n.term(),
                    granted: true,
                },
                50_000_100,
                &mut acts,
            );
            assert!(n.is_leader());
            acts.clear();
            (n, acts)
        };
        // One scratch buffer reused across calls, as the drivers do.
        b.iter_batched(
            mk,
            |(mut n, mut acts)| {
                let term = n.term();
                for i in 0..32u64 {
                    let idx = n.propose(meta_cmd(i)).unwrap();
                    n.pump_into(60_000_000 + i, &mut acts);
                    for peer in [1u32, 2] {
                        n.step_into(
                            peer,
                            Message::AppendEntriesReply {
                                term,
                                success: true,
                                match_index: idx,
                                conflict_index: 0,
                                applied_index: idx.saturating_sub(1),
                                from: peer,
                            },
                            60_000_001 + i,
                            &mut acts,
                        );
                    }
                    acts.clear();
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_dataplane(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane");
    g.throughput(Throughput::Elements(1));
    // Aggregator processing one append reply (its hottest packet).
    g.bench_function("aggregator_reply", |b| {
        let mut agg = Aggregator::new(vec![0, 1, 2]);
        let ae = WireMsg::Raft(Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![Entry {
                term: 1,
                index: 1,
                cmd: meta_cmd(1),
            }],
            leader_commit: 0,
        });
        agg.on_packet(0, ae);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            agg.on_packet(
                1,
                WireMsg::Raft(Message::AppendEntriesReply {
                    term: 1,
                    success: true,
                    match_index: i % 2, // alternate so not always committing
                    conflict_index: 0,
                    applied_index: 0,
                    from: 1,
                }),
            )
        })
    });
    g.bench_function("flowctl_admit_feedback", |b| {
        let mut fc = FlowControl::new(0x8000_0000, 1_000_000);
        let req = WireMsg::Request {
            id: ReqId::new(7, 7, 7),
            kind: OpKind::ReadWrite,
            body: Bytes::from_static(b"x"),
        };
        b.iter(|| {
            let d = fc.on_packet(black_box(&req), 0);
            fc.on_packet(&WireMsg::Feedback, 0);
            d
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("minikv");
    g.throughput(Throughput::Elements(1));
    let spec = RecordSpec::default();
    let mut store = Store::new();
    for i in 0..10_000u64 {
        store.execute(&Command::Insert(
            Bytes::from_static(b"usertable"),
            Bytes::from(workload::key_of(i)),
            spec.build(i),
        ));
    }
    g.bench_function("insert_1kB", |b| {
        let mut i = 10_000u64;
        b.iter(|| {
            i += 1;
            store.execute(&Command::Insert(
                Bytes::from_static(b"usertable"),
                Bytes::from(workload::key_of(i % 100_000)),
                spec.build(i),
            ))
        })
    });
    g.bench_function("scan_10x1kB", |b| {
        b.iter(|| {
            store.execute(&Command::Scan(
                Bytes::from_static(b"usertable"),
                Bytes::from(workload::key_of(black_box(1_234))),
                10,
            ))
        })
    });
    g.bench_function("cost_model", |b| {
        let m = minikv::ExecMetrics {
            bytes_read: 5_500,
            bytes_written: 0,
            records: 6,
        };
        let c = CostModel::default();
        b.iter(|| c.cost_ns(black_box(&m)))
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.throughput(Throughput::Elements(1));
    g.bench_function("zipfian_sample", |b| {
        use rand::SeedableRng;
        let z = Zipfian::ycsb(1_000_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        b.iter(|| z.sample(&mut rng))
    });
    g.bench_function("ycsbe_next_op", |b| {
        let mut gen = YcsbGen::new(YcsbWorkload::E, 10_000, RecordSpec::default(), 1);
        b.iter(|| gen.next_op())
    });
    g.finish();
}

fn bench_simnet(c: &mut Criterion) {
    use simnet::{Addr, Agent, Ctx, FabricParams, Packet, Sim, SimDur};
    struct Echo;
    impl Agent<u64> for Echo {
        fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
            if pkt.payload < 10_000 {
                ctx.send(pkt.src, 64, pkt.payload + 1);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let mut g = c.benchmark_group("simnet");
    // One iteration = 10k message hops through the full engine.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("engine_10k_hops", |b| {
        b.iter(|| {
            let mut sim: Sim<u64> = Sim::new(FabricParams::default(), 1);
            let a = sim.add_node(Box::new(Echo));
            let bb = sim.add_node(Box::new(Echo));
            sim.inject(a, Addr::node(bb), 64, 0);
            sim.run_for(SimDur::secs(1));
            sim.counters(a).rx_msgs
        })
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    use simnet::{SimTime, Tracer};
    use std::fmt;
    fn d_demo(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
        write!(f, "index={a} id={b}")
    }
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(1));
    let t = Tracer::default();
    let at = SimTime::ZERO;
    // The hot-path record: a handful of word moves, no allocation.
    g.bench_function("record_lazy", |b| {
        b.iter(|| t.record_lazy(at, 1, "executed", 42, d_demo, 7, 9, 0))
    });
    // What the hot path used to do: format! on every record.
    g.bench_function("record_eager_text", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t.record(at, 1, "executed", 42, format!("index={i} id=9"))
        })
    });
    // Rendering cost paid only on dump/violation (the cold side of lazy).
    g.bench_function("render_tail_512", |b| b.iter(|| t.render_tail(512).len()));
    g.finish();
}

fn bench_engine_queue(c: &mut Criterion) {
    use simnet::{Agent, Ctx, FabricParams, Sim, SimDur, TimerId};
    // A self-rearming timer: every fired event schedules the next one, so
    // one iteration is a pure push/pop cycle through the scheduler (slab
    // insert, heap or now-bucket, pop, dispatch) with no network work.
    struct Ticker;
    impl Agent<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDur::micros(1), 0);
        }
        fn on_packet(&mut self, _pkt: simnet::Packet<u64>, _ctx: &mut Ctx<'_, u64>) {}
        fn on_timer(&mut self, _id: TimerId, _kind: u64, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDur::micros(1), 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let mut g = c.benchmark_group("engine");
    // One iteration = 100k timer schedule+fire cycles.
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("queue_push_pop_100k", |b| {
        b.iter(|| {
            let mut sim: Sim<u64> = Sim::new(FabricParams::default(), 1);
            sim.add_node(Box::new(Ticker));
            sim.run_for(SimDur::millis(100));
            sim.events_processed()
        })
    });
    g.finish();
}

mod groups {
    use super::*;
    criterion_group!(
        micro,
        bench_r2p2,
        bench_body,
        bench_pool,
        bench_raft,
        bench_dataplane,
        bench_store,
        bench_workload,
        bench_trace,
        bench_engine_queue,
        bench_simnet
    );
}

/// Runs every micro-benchmark group once, printing results to stdout.
/// Under `HC_FAST=1` each target executes exactly one iteration.
pub fn run_all() {
    groups::micro();
}
