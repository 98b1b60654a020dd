//! The per-layer account of one workload at its mid rate: host-time spans
//! of a traced run, exact counters and virtual-time gauges of the same
//! run, isolated drivers, and the single-node and vanilla-Raft baselines.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use simnet::{Counters, ProfileSnapshot};
use testbed::{AggProgram, Cluster, FcProgram, ServerAgent, Setup};

use crate::assembly::{build_traced, KindCounts};
use crate::drivers;
use crate::metrics::Values;
use crate::run::{
    applied_indices, drive_failover, drive_point, lost_replies_allowed, run_failover, run_point,
    slo_krps, Check, Drive, Point, Timeline,
};
use crate::spans::{Layer, SpanLog};
use crate::workloads::{Scale, Workload};

/// Where the traced run's spans are written.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one per-layer run produced.
pub struct PerLayer {
    /// The per-layer metrics that apply to the workload.
    pub values: Values,
    /// Requests the traced run was obliged to answer (see README).
    pub attempted: u64,
    /// Those of them it did not answer.
    pub failed: u64,
    /// Equivalence guard and span accounting.
    pub checks: Vec<Check>,
    /// Human-readable detail: the layer shares of the traced run.
    pub report: String,
}

/// Virtual-time gauges, sampled between simulation steps.
#[derive(Default)]
struct Gauges {
    replier_queue_depth_max: usize,
    pool_unordered_max: usize,
    fc_in_flight_max: u32,
    follower_lag_max: u64,
    commit_lag_max: u64,
}

impl Gauges {
    fn sample(&mut self, c: &mut Cluster) {
        if c.opts().setup == Setup::Unrep {
            return;
        }
        if let Some(idx) = c.fc_prog_index() {
            let in_flight = c.sim.switch_program_mut::<FcProgram>(idx).fc.in_flight();
            self.fc_in_flight_max = self.fc_in_flight_max.max(in_flight);
        }
        for &s in &c.servers {
            if c.sim.is_alive(s) {
                let pool = c.sim.agent::<ServerAgent>(s).node().pool().unordered_len();
                self.pool_unordered_max = self.pool_unordered_max.max(pool);
            }
        }
        let Some(leader) = c.leader() else { return };
        let node = c.sim.agent::<ServerAgent>(leader).node();
        let last = node.raft().log().last_index();
        self.commit_lag_max = self.commit_lag_max.max(last - node.raft().commit_index());
        for &s in &c.servers {
            self.replier_queue_depth_max = self.replier_queue_depth_max.max(node.queue_depth(s));
            // A dead follower's lag is the outage, not replication lag.
            if s != leader && c.sim.is_alive(s) {
                if let Some(p) = node.raft().progress(s) {
                    self.follower_lag_max =
                        self.follower_lag_max.max(last.saturating_sub(p.matched));
                }
            }
        }
    }
}

/// What the reference and the traced run are compared on.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    events: u64,
    sent: u64,
    responses: u64,
    nacks: u64,
    p50_ns: u64,
    p99_ns: u64,
    lost: u64,
    applied: Vec<u64>,
    counters: Vec<Counters>,
}

/// The unit of the traced run, summarized the same way for both workload
/// shapes.
struct Unit {
    fingerprint: Fingerprint,
    run_s: f64,
    /// Requests answered over the whole run (the traffic counters cover
    /// `fingerprint.responses` of them).
    answered: u64,
    leader: u32,
}

fn point_unit(p: &Point, c: &Cluster) -> Unit {
    Unit {
        fingerprint: Fingerprint {
            events: p.events,
            sent: p.exp.sent,
            responses: p.exp.responses,
            nacks: p.exp.nacks,
            p50_ns: p.exp.p50_ns,
            p99_ns: p.exp.p99_ns,
            lost: p.outstanding,
            applied: applied_indices(c),
            counters: p.exp.server_counters.clone(),
        },
        run_s: p.run_s,
        answered: p.answered_all,
        leader: p.exp.leader.unwrap_or(0),
    }
}

fn timeline_unit(t: &Timeline, c: &Cluster) -> Unit {
    let mut pre_kill = lancet::LatencyRecorder::new();
    for &l in &t.pre_kill_latencies {
        pre_kill.record(l);
    }
    Unit {
        fingerprint: Fingerprint {
            events: t.events,
            sent: t.sent,
            responses: t.responses,
            nacks: t.nacks,
            p50_ns: pre_kill.percentile(50.0).unwrap_or(0),
            p99_ns: pre_kill.p99().unwrap_or(0),
            lost: t.lost,
            applied: applied_indices(c),
            counters: t.counters.clone(),
        },
        run_s: t.run_s,
        answered: t.responses,
        leader: c.leader().unwrap_or(0),
    }
}

/// (e) The workload's traffic on the single-node baseline (its whole
/// ladder) and, for the two synthetic ladders, on vanilla Raft.
fn baselines(w: Workload, seed: u64, scale: Scale, values: &mut Values) {
    let unrep: Vec<Point> = w
        .ladder_krps()
        .iter()
        .map(|&r| run_point(w.opts(Some(Setup::Unrep), r, seed, scale), Drive::Plain).0)
        .collect();
    let unrep_mid = unrep
        .iter()
        .find(|p| p.rate_krps == w.mid_krps())
        .expect("the mid rate is on the ladder");
    values.set("unrep.mean_us", unrep_mid.exp.mean_ns / 1e3);
    values.set(
        "unrep.slo_krps",
        if w.is_ladder() {
            slo_krps(&unrep)
        } else {
            unrep_mid.exp.achieved_rps / 1e3
        },
    );
    values.set("unrep.host_us_per_req", unrep_mid.host_us_per_req());
    if matches!(w, Workload::Small | Workload::Bulk) {
        let opts = w.opts(Some(Setup::Vanilla), w.mid_krps(), seed, scale);
        let p = run_point(opts, Drive::Plain).0;
        let leader = p.exp.server_counters[p.exp.leader.unwrap_or(0) as usize];
        values.set("vanilla.mean_us", p.exp.mean_ns / 1e3);
        values.set("vanilla.host_us_per_req", p.host_us_per_req());
        values.set(
            "vanilla.leader_tx_bytes_per_req",
            leader.tx_bytes as f64 / p.exp.responses.max(1) as f64,
        );
    }
}

/// Measures every per-layer metric of `w` at its mid rate.
pub fn per_layer(w: Workload, seed: u64, scale: Scale) -> PerLayer {
    let mut values = Values::default();
    let mut checks = Vec::new();
    let mut report = String::new();
    let unit_seed = if w.is_ladder() {
        seed
    } else {
        Workload::timeline_seed(seed, 0)
    };
    let opts = w.opts(None, w.mid_krps(), unit_seed, scale);
    let plan = w.failover_plan(&opts, scale);

    // The reference: the same unit on a plain `Cluster::build` world.
    let reference = if w.is_ladder() {
        let (p, c) = run_point(opts.clone(), Drive::Plain);
        point_unit(&p, &c)
    } else {
        let (t, c) = run_failover(w, unit_seed, scale, Drive::Plain);
        timeline_unit(&t, &c)
    };

    // The traced run: wrapped world, gauges sampled every 1 ms.
    let log = SpanLog::new();
    let kinds = Rc::new(RefCell::new(KindCounts::default()));
    let mut c = build_traced(&opts, &log, &kinds);
    c.settle();
    log.reset();
    *kinds.borrow_mut() = KindCounts::default();
    let events_at_start = c.sim.events_processed();
    let records_at_start = c.tracer().total_recorded();
    let (arena_hits, arena_misses) = (c.sim.arena_mut().hits(), c.sim.arena_mut().misses());
    let mut gauges = Gauges::default();
    let profile_before = ProfileSnapshot::now();
    let wall = Instant::now();
    let (traced, timeline) = {
        let _root = log.enter(Layer::Run, 0);
        let mut sample = |c: &mut Cluster| {
            let _s = log.enter(Layer::Gauges, 0);
            gauges.sample(c);
        };
        if w.is_ladder() {
            let p = drive_point(&mut c, Drive::Sampled(&mut sample));
            (point_unit(&p, &c), None)
        } else {
            let t = drive_failover(&mut c, &plan, w.bound(), Drive::Sampled(&mut sample));
            (timeline_unit(&t, &c), Some(t))
        }
    };
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let profile = ProfileSnapshot::now().delta_since(&profile_before);

    // Equivalence guard: the traced numbers describe the same system.
    checks.push(Check::new(
        "traced assembly reproduces Cluster::build exactly",
        traced.fingerprint == reference.fingerprint,
        if traced.fingerprint == reference.fingerprint {
            format!(
                "events {} sent {} answered {}",
                traced.fingerprint.events, traced.fingerprint.sent, traced.fingerprint.responses
            )
        } else {
            format!(
                "traced {:?}\nreference {:?}",
                traced.fingerprint, reference.fingerprint
            )
        },
    ));
    // Span accounting: self times close on the independently timed wall.
    let run = log.totals(Layer::Run);
    let self_sum = log.self_sum_ns() as f64;
    checks.push(Check::new(
        "span self times sum to the traced wall within 2 %",
        run.calls == 1 && (self_sum - wall_ns).abs() <= 0.02 * wall_ns,
        format!(
            "self sum {:.3} ms, wall {:.3} ms",
            self_sum / 1e6,
            wall_ns / 1e6
        ),
    ));
    let _ = std::fs::create_dir_all(out_dir());
    let path = out_dir().join(format!("spans-{}.csv", w.name()));
    if let Err(e) = log.write_csv(&path) {
        checks.push(Check::new(
            "spans written",
            false,
            format!("{}: {e}", path.display()),
        ));
    }

    // (a) host-time spans
    let req = traced.answered.max(1) as f64;
    let events = (c.sim.events_processed() - events_at_start) as f64;
    let us_per_req = |ns: u64| ns as f64 / 1e3 / req;
    let (server, service, client, switch) = (
        log.totals(Layer::Server),
        log.totals(Layer::Service),
        log.totals(Layer::Client),
        log.totals(Layer::Switch),
    );
    values.set("simnet.engine.self_us_per_req", us_per_req(run.self_ns));
    values.set("simnet.engine.events_per_req", events / req);
    values.set(
        "simnet.engine.self_ns_per_event",
        run.self_ns as f64 / events,
    );
    values.set("testbed.server.self_us_per_req", us_per_req(server.self_ns));
    values.set("testbed.server.calls_per_req", server.calls as f64 / req);
    values.set(
        "testbed.server.leader_share",
        log.server_self_ns(traced.leader) as f64 / server.self_ns.max(1) as f64,
    );
    values.set("service.exec_us_per_req", us_per_req(service.self_ns));
    values.set("service.execs_per_req", service.calls as f64 / req);
    values.set("testbed.client.self_us_per_req", us_per_req(client.self_ns));
    values.set("testbed.switch.self_us_per_req", us_per_req(switch.self_ns));
    values.set("testbed.switch.pkts_per_req", switch.calls as f64 / req);
    values.set("trace.overhead_ratio", traced.run_s / reference.run_s);
    let _ = writeln!(
        report,
        "traced run: {:.1} ms wall, {:.0} requests, shares of wall:",
        wall_ns / 1e6,
        req
    );
    for l in crate::spans::LAYERS {
        let t = log.totals(l);
        let _ = writeln!(
            report,
            "  {:<18} {:>9} calls {:>7.3} us/req self {:>5.1} %",
            if l == Layer::Run {
                "simnet.engine"
            } else {
                l.name()
            },
            t.calls,
            us_per_req(t.self_ns),
            100.0 * t.self_ns as f64 / run.total_ns.max(1) as f64,
        );
    }

    // (b) exact counters
    values.set("simnet.sched_ops_per_req", profile.sched_ops as f64 / req);
    values.set(
        "simnet.wheel_cascades_per_kevent",
        profile.wheel_cascades as f64 * 1e3 / events,
    );
    values.set(
        "simnet.tracer_locks_per_req",
        profile.tracer_locks as f64 / req,
    );
    values.set(
        "simnet.trace_records_per_req",
        (c.tracer().total_recorded() - records_at_start) as f64 / req,
    );
    values.set("bytes.allocs_per_req", profile.alloc_calls as f64 / req);
    values.set(
        "bytes.alloc_bytes_per_req",
        profile.alloc_bytes as f64 / req,
    );
    let (hits, misses) = (
        (c.sim.arena_mut().hits() - arena_hits) as f64,
        (c.sim.arena_mut().misses() - arena_misses) as f64,
    );
    values.set("bytes.arena_hit_ratio", hits / (hits + misses).max(1.0));
    let counted = traced.fingerprint.responses.max(1) as f64;
    let counters = &traced.fingerprint.counters;
    let leader = counters[traced.leader as usize];
    values.set(
        "net.leader_rx_msgs_per_req",
        leader.rx_msgs as f64 / counted,
    );
    values.set(
        "net.leader_tx_msgs_per_req",
        leader.tx_msgs as f64 / counted,
    );
    values.set(
        "net.leader_tx_bytes_per_req",
        leader.tx_bytes as f64 / counted,
    );
    let follower_tx = counters
        .iter()
        .enumerate()
        .filter(|(i, _)| *i as u32 != traced.leader)
        .map(|(_, k)| k.tx_bytes)
        .max()
        .unwrap_or(0);
    values.set(
        "net.max_follower_tx_bytes_per_req",
        follower_tx as f64 / counted,
    );
    values.set(
        "net.rx_dropped",
        counters.iter().map(|k| k.rx_dropped_backlog).sum::<u64>() as f64,
    );
    let k = *kinds.borrow();
    let _ = writeln!(report, "delivered copies by kind: {k:?}");
    values.set("net.msgs.raft_per_req", k.raft as f64 / req);
    values.set("net.msgs.agg_commit_per_req", k.agg_commit as f64 / req);
    values.set("net.msgs.recovery_per_kreq", k.recovery as f64 * 1e3 / req);
    let stats: Vec<hovercraft::HcStats> = c
        .servers
        .iter()
        .map(|&s| c.sim.agent::<ServerAgent>(s).node().stats())
        .collect();
    let sum = |f: fn(&hovercraft::HcStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let replies = sum(|s| s.responses).max(1.0);
    values.set(
        "core.reply_share_max",
        stats.iter().map(|s| s.responses).max().unwrap_or(0) as f64 / replies,
    );
    values.set(
        "core.ro_skipped_share",
        sum(|s| s.ro_skipped) / (sum(|s| s.ro_skipped) + sum(|s| s.executed)).max(1.0),
    );
    values.set(
        "core.recoveries_per_kreq",
        sum(|s| s.recoveries_sent) * 1e3 / req,
    );
    values.set(
        "core.apply_stalls_per_kreq",
        sum(|s| s.apply_stalls) * 1e3 / req,
    );
    values.set("core.snap.installs", sum(|s| s.installs));
    values.set("core.snap.chunks_sent", sum(|s| s.chunks_sent));
    if matches!(opts.setup, Setup::HovercraftPp(_)) {
        // The aggregator is the last program of the pipeline.
        let idx = usize::from(c.fc_prog_index().is_some());
        let agg = c.sim.switch_program_mut::<AggProgram>(idx).agg.stats();
        values.set("core.agg.fanouts_per_req", agg.fanouts as f64 / req);
        values.set("core.agg.commits_per_req", agg.commits_sent as f64 / req);
    }
    values.set(
        "core.fc.nack_share",
        traced.fingerprint.nacks as f64 / traced.fingerprint.sent.max(1) as f64,
    );
    if let Some(idx) = c.fc_prog_index() {
        // FEEDBACK is absorbed in the switch, so no delivered copy counts it.
        let fc = c.sim.switch_program_mut::<FcProgram>(idx).fc.stats();
        values.set("net.msgs.feedback_per_req", fc.feedback as f64 / req);
    }

    // (c) virtual-time gauges
    values.set(
        "core.replier_queue_depth_max",
        gauges.replier_queue_depth_max as f64,
    );
    values.set("core.pool_unordered_max", gauges.pool_unordered_max as f64);
    values.set("core.fc.in_flight_max", f64::from(gauges.fc_in_flight_max));
    values.set("raft.follower_lag_max", gauges.follower_lag_max as f64);
    values.set("raft.commit_lag_max", gauges.commit_lag_max as f64);
    values.set(
        "raft.elections",
        timeline.as_ref().map_or(0.0, |t| t.term_delta as f64),
    );
    drop(c);

    // (f) the fault run
    if let Some(t) = &timeline {
        values.set("failover.gap_ms", t.gap_ms);
        values.set("failover.lost_replies", t.lost as f64);
        values.set("failover.degraded_krps", t.degraded_krps);
        values.set("failover.rejoin_ms", t.rejoin_ms.unwrap_or(0.0));
    }

    // (d) isolated drivers, (e) baselines
    drivers::run_all(&opts, &mut values);
    baselines(w, unit_seed, scale, &mut values);

    // Counted as the end-to-end run counts them: at the mid rate nothing
    // may go unanswered; across a kill, nothing beyond the allowance.
    let unanswered = traced.fingerprint.nacks + traced.fingerprint.lost;
    let failed = if w.is_ladder() {
        unanswered
    } else {
        traced
            .fingerprint
            .lost
            .saturating_sub(lost_replies_allowed(w))
    };
    PerLayer {
        values,
        attempted: traced.fingerprint.sent,
        failed,
        checks,
        report,
    }
}
