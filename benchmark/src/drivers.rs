//! Isolated drivers: each layer's hot primitive run alone, through its
//! public API, on inputs drawn from the workload's traffic mix and seed.
//! Every value is ns per operation at a fixed operation count, the
//! minimum of [`REPS`] repetitions.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::{ByteArena, Bytes};
use hovercraft::{
    Aggregator, Cmd, EntryDesc, FlowControl, OpKind, PolicyKind, ReplierLedger, Service,
    UnorderedPool, WireMsg,
};
use lancet::LatencyRecorder;
use minikv::{CostModel, KvService};
use r2p2::{packetize_in, MsgType, Policy, Reassembler, ReqId};
use raft::{Action, Config, Entry, Message, RaftNode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{Addr, Agent, Ctx, FabricParams, Packet, Sim, SimDur, SimTime, TimerWheel, Tracer};
use testbed::{ClusterOpts, WorkloadKind};
use workload::{RecordSpec, SynthService, YcsbGen, YcsbWorkload};

use crate::metrics::Values;

/// Repetitions of each driver; the minimum is reported.
const REPS: usize = 5;

/// Operations per repetition.
const OPS: usize = 20_000;

/// Times `f`, which performs and returns a number of operations.
fn timed(f: impl FnOnce() -> usize) -> (usize, Duration) {
    let t = Instant::now();
    let ops = f();
    (ops, t.elapsed())
}

/// ns per operation: the fastest of [`REPS`] runs of `f`, which sets up,
/// then returns what [`timed`] measured.
fn min_ns_per_op(mut f: impl FnMut() -> (usize, Duration)) -> f64 {
    (0..REPS)
        .map(|_| {
            let (ops, elapsed) = f();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `OPS` requests of the workload's mix: `(body, read_only)`.
fn requests(opts: &ClusterOpts) -> Vec<(Bytes, bool)> {
    let mut arena = ByteArena::new();
    match &opts.workload {
        WorkloadKind::Synth(spec) => {
            let mut rng = SmallRng::seed_from_u64(opts.seed);
            (0..OPS)
                .map(|_| spec.sample_in(&mut rng, &mut arena))
                .collect()
        }
        WorkloadKind::Ycsb { workload, records } => {
            let mut gen = YcsbGen::new(*workload, *records, RecordSpec::default(), opts.seed);
            (0..OPS)
                .map(|_| {
                    let op = gen.next_op();
                    (op.body, op.read_only)
                })
                .collect()
        }
    }
}

fn meta_cmd(i: u64) -> Cmd {
    Cmd::meta(EntryDesc::new(
        ReqId::new(9, 9, i as u16),
        i,
        OpKind::ReadWrite,
    ))
}

/// `n` in-memory Raft nodes wired back to back: elects node 0's cluster a
/// leader, then commits `OPS` metadata entries one at a time. Returns
/// (ns per committed entry, `step_into` calls per entry).
fn raft_commit(n: u32, seed: u64) -> (f64, f64) {
    type Wire = VecDeque<(u32, u32, Message<Cmd>)>;
    fn route(from: u32, out: &mut Vec<Action<Cmd>>, wire: &mut Wire) {
        for a in out.drain(..) {
            if let Action::Send { to, msg } = a {
                wire.push_back((from, to, msg));
            }
        }
    }
    fn deliver(
        nodes: &mut [RaftNode<Cmd>],
        wire: &mut Wire,
        out: &mut Vec<Action<Cmd>>,
        now: u64,
    ) -> usize {
        let mut steps = 0;
        while let Some((from, to, msg)) = wire.pop_front() {
            nodes[to as usize].step_into(from, msg, now, out);
            steps += 1;
            route(to, out, wire);
        }
        steps
    }
    let members: Vec<u32> = (0..n).collect();
    let mut steps_per_entry = 0.0;
    let ns = min_ns_per_op(|| {
        let mut nodes: Vec<RaftNode<Cmd>> = members
            .iter()
            .map(|&id| {
                let mut cfg = Config::new(id, members.clone());
                cfg.seed = seed.wrapping_mul(31).wrapping_add(u64::from(id) * 7 + 3);
                RaftNode::new(cfg, 0)
            })
            .collect();
        let (mut wire, mut out) = (Wire::new(), Vec::new());
        let mut now = 0u64;
        let leader = loop {
            now += 1_000_000;
            for id in 0..n {
                nodes[id as usize].tick_into(now, &mut out);
                route(id, &mut out, &mut wire);
            }
            deliver(&mut nodes, &mut wire, &mut out, now);
            if let Some(l) = nodes.iter().position(RaftNode::is_leader) {
                break l;
            }
            assert!(now < 10_000_000_000, "no raft leader within 10 s");
        };
        let mut steps = 0;
        let measured = timed(|| {
            for i in 0..OPS as u64 {
                now += 1_000;
                nodes[leader]
                    .propose(meta_cmd(i))
                    .expect("still the leader");
                nodes[leader].pump_into(now, &mut out);
                route(leader as u32, &mut out, &mut wire);
                steps += deliver(&mut nodes, &mut wire, &mut out, now);
            }
            OPS
        });
        assert_eq!(
            nodes[leader].commit_index(),
            nodes[leader].log().last_index()
        );
        steps_per_entry = steps as f64 / OPS as f64;
        measured
    });
    (ns, steps_per_entry)
}

/// Frames every request and a reply of `reply_len(i)` bytes into MTU
/// fragments and reassembles them. Returns (ns per request, fragments per
/// request).
fn r2p2_frame(reqs: &[(Bytes, bool)], replies: &[Bytes]) -> (f64, f64) {
    let mut frags_total = 0usize;
    let ns = min_ns_per_op(|| {
        let mut arena = ByteArena::new();
        let mut asm = Reassembler::new();
        frags_total = 0;
        timed(|| {
            for (i, ((body, _), reply)) in reqs.iter().zip(replies).enumerate() {
                let id = ReqId::new(7, 1000, i as u16);
                for (ty, payload) in [(MsgType::Request, body), (MsgType::Response, reply)] {
                    let frags = packetize_in(ty, Policy::Replicated, id, payload, 1500, &mut arena);
                    frags_total += frags.len();
                    let mut whole = None;
                    for f in frags {
                        whole = asm.push_in(7, f, &mut arena).expect("well-formed fragment");
                    }
                    black_box(whole.expect("last fragment completes the message"));
                }
            }
            reqs.len()
        })
    });
    (ns, frags_total as f64 / reqs.len() as f64)
}

fn preloaded_kv(records: u64) -> KvService {
    let mut svc = KvService::new(CostModel::default());
    let gen = YcsbGen::new(YcsbWorkload::E, records, RecordSpec::default(), 0);
    let mut arena = ByteArena::new();
    for cmd in gen.load_phase() {
        svc.execute(&cmd.encode(), false, &mut arena);
    }
    svc
}

fn exec_ns(svc: &mut dyn Service, reqs: &[&(Bytes, bool)]) -> f64 {
    if reqs.is_empty() {
        return 0.0;
    }
    min_ns_per_op(|| {
        let mut arena = ByteArena::new();
        timed(|| {
            for (body, ro) in reqs {
                black_box(svc.execute(body, *ro, &mut arena));
            }
            reqs.len()
        })
    })
}

struct Echo;
impl Agent<u64> for Echo {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
        if pkt.payload < OPS as u64 {
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

fn engine_hop() -> f64 {
    min_ns_per_op(|| {
        let mut sim: Sim<u64> = Sim::new(FabricParams::default(), 1);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        sim.inject(a, Addr::node(b), 64, 0);
        timed(|| {
            sim.run_for(SimDur::secs(1));
            (sim.counters(a).rx_msgs + sim.counters(b).rx_msgs) as usize
        })
    })
}

fn wheel_op() -> f64 {
    min_ns_per_op(|| {
        let mut wheel = TimerWheel::new();
        // A sliding window of pending deadlines, like the engine's queue:
        // near sends (µs ahead) and far timers (250 µs ticks).
        timed(|| {
            let mut popped = 0usize;
            for i in 0..OPS as u64 {
                let now = i * 100;
                wheel.insert(now + 2_000 + (i % 7) * 300, 2 * i, i as u32);
                wheel.insert(now + 250_000, 2 * i + 1, i as u32);
                while wheel.pop_next(now).is_some() {
                    popped += 1;
                }
            }
            while wheel.pop_next(u64::MAX).is_some() {
                popped += 1;
            }
            assert_eq!(popped, 2 * OPS);
            4 * OPS // two inserts and two pops per iteration
        })
    })
}

fn d_demo(f: &mut std::fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> std::fmt::Result {
    write!(f, "index={a} id={b}")
}

fn tracer_record() -> f64 {
    let tracer = Tracer::default();
    min_ns_per_op(|| {
        timed(|| {
            for i in 0..OPS as u64 {
                tracer.record_lazy(SimTime::from_nanos(i), 1, "executed", i, d_demo, i, 9, 0);
            }
            OPS
        })
    })
}

fn arena_alloc(len: usize) -> f64 {
    min_ns_per_op(|| {
        let mut arena = ByteArena::new();
        timed(|| {
            for _ in 0..OPS {
                black_box(arena.alloc_zeroed(len));
            }
            OPS
        })
    })
}

/// One AppendEntries fan-out and the followers' replies per entry.
fn agg_pkt(n: u32) -> f64 {
    let members: Vec<u32> = (0..n).collect();
    // Built outside the timed loop: the aggregator consumes its packets.
    let mut pkts: Vec<(u32, WireMsg)> = Vec::with_capacity(OPS);
    for i in 1..=(OPS as u64 / u64::from(n)) {
        let ae = Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_log_index: i - 1,
            prev_log_term: 1,
            entries: vec![Entry {
                term: 1,
                index: i,
                cmd: meta_cmd(i),
            }],
            leader_commit: i - 1,
        };
        pkts.push((0, WireMsg::Raft(ae)));
        for peer in 1..n {
            let reply = Message::AppendEntriesReply {
                term: 1,
                success: true,
                match_index: i,
                conflict_index: 0,
                applied_index: i - 1,
                from: peer,
            };
            pkts.push((peer, WireMsg::Raft(reply)));
        }
    }
    min_ns_per_op(|| {
        let mut agg = Aggregator::new(members.clone());
        let input = pkts.clone();
        timed(|| {
            let n_pkts = input.len();
            for (src, msg) in input {
                black_box(agg.on_packet(src, msg));
            }
            n_pkts
        })
    })
}

/// One admission and one FEEDBACK per request.
fn fc_pkt(reqs: &[(Bytes, bool)]) -> f64 {
    let msgs: Vec<WireMsg> = reqs
        .iter()
        .enumerate()
        .map(|(i, (body, _))| WireMsg::Request {
            id: ReqId::new(7, 7, i as u16),
            kind: OpKind::ReadWrite,
            body: body.clone(),
        })
        .collect();
    min_ns_per_op(|| {
        let mut fc = FlowControl::new(0x8000_0000, 1_000);
        timed(|| {
            for (i, m) in msgs.iter().enumerate() {
                black_box(fc.on_packet(m, i as u64));
                black_box(fc.on_packet(&WireMsg::Feedback, i as u64));
            }
            2 * msgs.len()
        })
    })
}

/// One JBSQ pick and assignment per entry, every node applying the
/// previous one, as in steady state.
fn policy_pick(n: u32, bound: usize, seed: u64) -> f64 {
    let candidates: Vec<u32> = (0..n).collect();
    min_ns_per_op(|| {
        let mut ledger = ReplierLedger::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        timed(|| {
            for idx in 1..=OPS as u64 {
                let now = idx * 1_000;
                let who = ledger
                    .pick(
                        &candidates,
                        bound,
                        PolicyKind::Jbsq,
                        &mut rng,
                        now,
                        5_000_000,
                    )
                    .expect("a replier within the bound");
                ledger.assign(who, idx);
                for &c in &candidates {
                    ledger.observe_applied(c, idx - 1);
                    ledger.note_heard(c, now);
                }
            }
            OPS
        })
    })
}

/// Parks each request in the unordered pool, then marks it ordered.
fn pool_insert_order(reqs: &[(Bytes, bool)]) -> f64 {
    min_ns_per_op(|| {
        let mut pool = UnorderedPool::new();
        timed(|| {
            for (i, (body, _)) in reqs.iter().enumerate() {
                // Distinct ids: the port carries the bits above the 16-bit rid.
                let id = ReqId::new(7, (i >> 16) as u16, i as u16);
                pool.insert(id, OpKind::ReadWrite, body.clone(), i as u64);
                assert!(pool.mark_ordered(id));
            }
            reqs.len()
        })
    })
}

/// Recording `OPS` latency samples and taking their p50 and p99.
fn percentile_per_sample(seed: u64) -> f64 {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let samples: Vec<u64> = (0..OPS).map(|_| rng.gen_range(5_000..500_000)).collect();
    min_ns_per_op(|| {
        timed(|| {
            let mut rec = LatencyRecorder::new();
            for &s in &samples {
                rec.record(s);
            }
            black_box((rec.percentile(50.0), rec.p99()));
            OPS
        })
    })
}

/// Runs every isolated driver for a workload whose mid-rate world is
/// built from `opts`, recording the results into `values`.
pub fn run_all(opts: &ClusterOpts, values: &mut Values) {
    let reqs = requests(opts);
    let n = opts.n;

    let (ns, steps) = raft_commit(n, opts.seed);
    values.set("raft.commit_ns_per_entry", ns);
    values.set("raft.steps_per_entry", steps);

    // Replies come from the workload's own service, so framing sees the
    // sizes the wire would.
    let mut arena = ByteArena::new();
    let replies: Vec<Bytes>;
    match &opts.workload {
        WorkloadKind::Ycsb { records, .. } => {
            let mut kv = preloaded_kv(*records);
            replies = reqs
                .iter()
                .map(|(b, ro)| kv.execute(b, *ro, &mut arena).reply)
                .collect();
            let all: Vec<&(Bytes, bool)> = reqs.iter().collect();
            let scans: Vec<&(Bytes, bool)> = reqs.iter().filter(|r| r.1).collect();
            let inserts: Vec<&(Bytes, bool)> = reqs.iter().filter(|r| !r.1).collect();
            values.set("kvstore.exec_ns_per_op", exec_ns(&mut kv, &all));
            values.set("kvstore.scan_ns_per_op", exec_ns(&mut kv, &scans));
            values.set("kvstore.insert_ns_per_op", exec_ns(&mut kv, &inserts));
        }
        WorkloadKind::Synth(_) => {
            let mut svc = SynthService::default();
            replies = reqs
                .iter()
                .map(|(b, ro)| svc.execute(b, *ro, &mut arena).reply)
                .collect();
            let all: Vec<&(Bytes, bool)> = reqs.iter().collect();
            values.set("workload.synth.exec_ns_per_op", exec_ns(&mut svc, &all));
        }
    }
    values.set(
        "workload.gen_ns_per_req",
        min_ns_per_op(|| timed(|| black_box(requests(opts)).len())),
    );

    let (ns, frags) = r2p2_frame(&reqs, &replies);
    values.set("r2p2.frame_ns_per_req", ns);
    values.set("r2p2.frags_per_req", frags);

    values.set("simnet.engine.hop_ns", engine_hop());
    values.set("simnet.wheel.op_ns", wheel_op());
    values.set("simnet.tracer.record_ns", tracer_record());
    let reply_len = replies.iter().map(Bytes::len).sum::<usize>() / replies.len().max(1);
    values.set("bytes.arena.alloc_ns", arena_alloc(reply_len));
    values.set("core.agg.pkt_ns", agg_pkt(n.max(3)));
    values.set("core.fc.pkt_ns", fc_pkt(&reqs));
    values.set("core.policy.pick_ns", policy_pick(n, opts.bound, opts.seed));
    values.set("core.pool.insert_order_ns", pool_insert_order(&reqs));
    values.set(
        "lancet.percentile_ns_per_sample",
        percentile_per_sample(opts.seed),
    );
}
