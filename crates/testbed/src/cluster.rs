//! Cluster assembly: builds a complete deployment — servers, clients,
//! middleboxes, multicast groups — on the simulated fabric.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hovercraft::{HcConfig, HcNode, Mode, Service, WireMsg};
use minikv::{CostModel, KvService};
use simnet::{
    Addr, FabricParams, NicParams, NodeId, Sim, SimDur, SimTime, SwitchProgram, Tracer,
    DEFAULT_TRACE_CAP,
};
use workload::{RecordSpec, SynthService, SynthSpec, YcsbGen, YcsbWorkload};

use crate::client::{ClientAgent, ClientResults, ClientWorkload, RetryPolicy};
use crate::invariants::{InvariantChecker, Violation};
use crate::programs::{AggProgram, FcProgram};
use crate::server::{ServerAgent, UnrepAgent};
use crate::setup::{addrs, Setup};

/// How often checked runs stop the simulation to evaluate the cross-node
/// invariants. Small enough that a violation is localized to one slice of
/// protocol activity, large enough to keep checking overhead moderate.
const CHECK_STEP: SimDur = SimDur::millis(1);

/// How many trailing trace events a replay bundle includes.
const BUNDLE_TAIL: usize = 512;

/// Which application runs on the servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceKind {
    /// The synthetic microbenchmark service (Figures 7–12).
    Synth,
    /// The Redis-like store with YCSB module ops (Figure 13).
    Kv,
}

/// What the clients send.
#[derive(Clone, Debug)]
pub enum WorkloadKind {
    /// Synthetic requests with the given parameters.
    Synth(SynthSpec),
    /// A YCSB stream over a preloaded keyspace.
    Ycsb {
        /// Workload letter (E for the paper's headline experiment).
        workload: YcsbWorkload,
        /// Records preloaded before the run.
        records: u64,
    },
}

impl WorkloadKind {
    fn instantiate(&self, seed: u64) -> ClientWorkload {
        match self {
            WorkloadKind::Synth(spec) => ClientWorkload::Synth(spec.clone()),
            WorkloadKind::Ycsb { workload, records } => ClientWorkload::Ycsb(Box::new(
                YcsbGen::new(*workload, *records, RecordSpec::default(), seed),
            )),
        }
    }
}

/// Build-time options for a cluster.
#[derive(Clone, Debug)]
pub struct ClusterOpts {
    /// System setup under test.
    pub setup: Setup,
    /// Number of servers (1 for [`Setup::Unrep`]).
    pub n: u32,
    /// Number of load-generating clients; the total rate is split evenly.
    pub clients: u32,
    /// Total offered load, requests/second.
    pub rate_rps: f64,
    /// Application.
    pub service: ServiceKind,
    /// Client workload.
    pub workload: WorkloadKind,
    /// Bounded-queue bound B (§3.4).
    pub bound: usize,
    /// Reply load balancing (None → the mode's default; Figure 7 sets
    /// `Some(false)`).
    pub lb_replies: Option<bool>,
    /// Read-only load balancing override.
    pub lb_reads: Option<bool>,
    /// Deploy the flow-control middlebox with this in-flight cap.
    pub flow_cap: Option<u32>,
    /// When clients begin sending.
    pub load_start: SimTime,
    /// Warm-up excluded from measurement.
    pub warmup: SimDur,
    /// Measured window.
    pub measure: SimDur,
    /// Client retransmission policy (None → clients never retry; chaos
    /// tests turn this on so requests survive faults).
    pub retry: Option<RetryPolicy>,
    /// Snapshot every this many applied entries (0 = never; the
    /// pre-snapshot behavior). Enables log compaction and snapshot-based
    /// follower state transfer.
    pub snapshot_interval: u64,
    /// Snapshot state-transfer chunk size override, bytes (0 = the
    /// [`HcConfig`] default). Chaos tests shrink it so even a small
    /// state-machine blob crosses the wire in many chunks, widening the
    /// window in which faults can interrupt a transfer.
    pub snap_chunk_bytes: usize,
    /// Master seed.
    pub seed: u64,
}

impl ClusterOpts {
    /// Sensible defaults for a microbenchmark point: measurement starts
    /// after 100 ms of load warm-up.
    pub fn new(setup: Setup, n: u32, rate_rps: f64) -> ClusterOpts {
        ClusterOpts {
            setup,
            n: if setup == Setup::Unrep { 1 } else { n },
            clients: 2,
            rate_rps,
            service: ServiceKind::Synth,
            workload: WorkloadKind::Synth(SynthSpec::baseline()),
            bound: 128,
            lb_replies: None,
            lb_reads: None,
            // HovercRaft needs explicit multicast flow control to survive
            // overload (§6.3) — vanilla Raft's implicit leader-drop flow
            // control disappears once clients multicast to everyone. The
            // cap comfortably exceeds the 500µs-SLO bandwidth-delay
            // product at 1 MRPS (≈500 requests).
            flow_cap: setup.multicast_requests().then_some(2_000),
            load_start: SimTime::ZERO + SimDur::millis(150),
            warmup: SimDur::millis(100),
            measure: SimDur::millis(500),
            retry: None,
            snapshot_interval: 0,
            snap_chunk_bytes: 0,
            seed: 42,
        }
    }

    /// End of the measured window.
    pub fn load_end(&self) -> SimTime {
        self.load_start + self.warmup + self.measure
    }
}

/// A built cluster, ready to run.
pub struct Cluster {
    /// The simulator.
    pub sim: Sim<WireMsg>,
    /// Server node ids (== addresses == Raft ids).
    pub servers: Vec<NodeId>,
    /// Client node ids.
    pub clients: Vec<NodeId>,
    /// Pipeline index of the aggregator program, if deployed.
    agg_prog: Option<usize>,
    /// Pipeline index of the flow-control program, if deployed.
    fc_prog: Option<usize>,
    /// Shared protocol-event trace (servers and switch programs feed it).
    tracer: Tracer,
    /// Cross-node invariant checker driven by the checked run methods.
    checker: InvariantChecker,
    opts: ClusterOpts,
}

/// The application state every server starts from, built once per world
/// (outside simulated time) and cloned wherever a service is needed: each
/// replica, the unreplicated baseline, and every crash–restart rejoin (a
/// restarted node's state machine starts from this same image and
/// re-applies its log from index 1, or restores its snapshot over it).
enum ServiceImage {
    /// The synthetic service holds no state worth sharing.
    Synth,
    /// The store, preloaded with the YCSB records when the workload has
    /// any. A clone shares the record buffers and owns its map, so a write
    /// on one replica stays private to it.
    Kv(KvService),
}

impl ServiceImage {
    fn new(opts: &ClusterOpts) -> ServiceImage {
        match opts.service {
            ServiceKind::Synth => ServiceImage::Synth,
            ServiceKind::Kv => {
                let mut kv = KvService::new(CostModel::default());
                if let WorkloadKind::Ycsb { records, .. } = &opts.workload {
                    let gen = YcsbGen::new(YcsbWorkload::E, *records, RecordSpec::default(), 0);
                    // A throwaway arena: the preload's replies are dropped.
                    let mut arena = bytes::ByteArena::new();
                    for cmd in gen.load_phase() {
                        kv.execute(&cmd.encode(), false, &mut arena);
                    }
                }
                ServiceImage::Kv(kv)
            }
        }
    }

    /// A fresh service in the image's state.
    fn instance(&self) -> Box<dyn Service> {
        match self {
            ServiceImage::Synth => Box::new(SynthService::default()),
            ServiceImage::Kv(kv) => Box::new(kv.clone()),
        }
    }
}

/// NIC profile for client generators: the paper uses a pool of Lancet
/// machines that is never the bottleneck, so clients get a faster NIC and
/// cheap per-packet processing.
fn client_nic() -> NicParams {
    NicParams {
        link_bps: 40_000_000_000,
        rx_cpu_per_frag: SimDur::nanos(80),
        tx_cpu_per_frag: SimDur::nanos(80),
        rx_ring: 8192,
        ..NicParams::default()
    }
}

impl Cluster {
    /// Builds the deployment: servers, switch programs, groups, clients.
    pub fn build(opts: ClusterOpts) -> Cluster {
        let mut sim: Sim<WireMsg> = Sim::new(FabricParams::default(), opts.seed);
        let n = opts.n;
        let members: Vec<u32> = (0..n).collect();
        let image = ServiceImage::new(&opts);

        // Servers occupy node ids 0..n so Raft ids equal addresses.
        let mut servers = Vec::with_capacity(n as usize);
        for id in &members {
            let agent: Box<dyn simnet::Agent<WireMsg>> = match opts.setup.mode() {
                None => Box::new(UnrepAgent::new(image.instance())),
                Some(mode) => {
                    let mut rc = raft::Config::new(*id, members.clone());
                    rc.seed = opts.seed.wrapping_mul(31).wrapping_add(*id as u64 * 7 + 3);
                    let mut cfg = HcConfig::new(rc, mode);
                    cfg.bound = opts.bound;
                    cfg.policy = opts.setup.policy();
                    if let Some(lb) = opts.lb_replies {
                        cfg.lb_replies = lb && mode.is_hovercraft();
                    }
                    if let Some(lb) = opts.lb_reads {
                        cfg.lb_reads = lb && mode.is_hovercraft();
                    }
                    cfg.agg_addr = (mode == Mode::HovercraftPp).then_some(addrs::AGG.0);
                    cfg.flowctl_addr = opts.flow_cap.map(|_| addrs::VIP.0);
                    cfg.snapshot_interval = opts.snapshot_interval;
                    if opts.snap_chunk_bytes > 0 {
                        cfg.snap_chunk_bytes = opts.snap_chunk_bytes;
                    }
                    Box::new(ServerAgent::new(cfg, image.instance()))
                }
            };
            servers.push(sim.add_node(agent));
        }
        sim.add_group(addrs::GROUP, servers.clone());

        // One shared trace: every server, switch program, and the fault
        // injector record into it; the invariant checker and failure dumps
        // read from it.
        let tracer = Tracer::default();
        sim.set_tracer(tracer.clone());
        if opts.setup != Setup::Unrep {
            for &s in &servers {
                sim.agent_mut::<ServerAgent>(s).set_tracer(tracer.clone());
            }
            // Crash–restart rejoin: rebuild the agent from the crashed
            // node's durable state (term, vote, log suffix, snapshot,
            // incarnation epoch); everything else — pool, ledger, commit
            // index — restarts empty and is reconstructed by re-applying
            // the log above the snapshot, with missing bodies re-fetched
            // via the recovery protocol (§5). The epoch check makes a
            // restore from a stale incarnation a traced, fatal error
            // instead of a silent reinitialization. The hook owns the
            // world's image from here on.
            let hook_tracer = tracer.clone();
            sim.set_restart_hook(Box::new(move |node, now, old| {
                let crashed = old
                    .as_any()
                    .downcast_ref::<ServerAgent>()
                    .expect("restart hook only handles server nodes")
                    .node();
                let durable = crashed.durable_state();
                let new_epoch = crashed.epoch() + 1;
                let restored = HcNode::restore(
                    crashed.config().clone(),
                    image.instance(),
                    now.as_nanos(),
                    durable,
                    new_epoch,
                )
                .unwrap_or_else(|rej| {
                    let ev = rej.event();
                    let (render, a, b, c) = ev.detail_parts();
                    hook_tracer.record_lazy(now, node, ev.kind(), ev.key(), render, a, b, c);
                    panic!("n{node}: {rej}");
                });
                let mut agent = ServerAgent::from_node(restored);
                agent.set_tracer(hook_tracer.clone());
                Box::new(agent)
            }));
        }

        // Switch pipeline: flow control first, then the aggregator.
        let mut fc_prog = None;
        if let Some(cap) = opts.flow_cap {
            let idx = sim.add_switch_program(Box::new(FcProgram::new(cap)));
            sim.switch_program_mut::<FcProgram>(idx)
                .set_tracer(tracer.clone());
            fc_prog = Some(idx);
        }
        let mut agg_prog = None;
        if matches!(opts.setup, Setup::HovercraftPp(_)) {
            let idx = sim.add_switch_program(Box::new(AggProgram::new(members)));
            sim.switch_program_mut::<AggProgram>(idx)
                .set_tracer(tracer.clone());
            agg_prog = Some(idx);
        }

        // Clients: the target is patched after the leader settles (vanilla
        // mode needs the elected leader's address).
        let target = Self::default_target(&opts, servers[0]);
        let mut clients = Vec::with_capacity(opts.clients as usize);
        let per_client = opts.rate_rps / opts.clients as f64;
        for c in 0..opts.clients {
            let wl = opts.workload.instantiate(opts.seed * 1000 + c as u64);
            let mut agent = ClientAgent::new(
                target,
                per_client,
                opts.load_start,
                opts.load_end(),
                opts.load_start + opts.warmup,
                wl,
                opts.seed * 77 + c as u64,
            );
            if let Some(policy) = opts.retry {
                agent.set_retry(policy);
            }
            clients.push(sim.add_node_with(Box::new(agent), client_nic()));
        }

        Cluster {
            sim,
            servers,
            clients,
            agg_prog,
            fc_prog,
            tracer,
            checker: InvariantChecker::new(),
            opts,
        }
    }

    /// Fail-stops the in-network aggregator (HovercRaft++ only): from now
    /// on everything addressed to it is blackholed. The cluster detects
    /// the silence through elections and falls back to point-to-point
    /// communication (§5).
    pub fn fail_aggregator(&mut self) {
        let idx = self.agg_prog.expect("no aggregator in this setup");
        self.sim.switch_program_mut::<AggProgram>(idx).failed = true;
    }

    /// Replaces the failed aggregator with a fresh (empty) device; the next
    /// newly elected leader will adopt it after a successful VoteProbe.
    pub fn replace_aggregator(&mut self) {
        let idx = self.agg_prog.expect("no aggregator in this setup");
        self.sim.switch_program_mut::<AggProgram>(idx).reset();
    }

    fn default_target(opts: &ClusterOpts, first_server: NodeId) -> Addr {
        match opts.setup {
            Setup::Unrep | Setup::Vanilla => Addr::node(first_server),
            _ if opts.flow_cap.is_some() => addrs::VIP,
            _ => addrs::GROUP,
        }
    }

    /// Runs until a leader is elected (replicated setups) and points every
    /// client at the right target. Call before the load starts.
    ///
    /// # Panics
    /// Panics if no leader emerges within the settle budget.
    pub fn settle(&mut self) {
        if self.opts.setup == Setup::Unrep {
            return;
        }
        let deadline = self.opts.load_start - SimDur::millis(10);
        while self.sim.now() < deadline {
            self.sim.run_for(SimDur::millis(10));
            if self.leader().is_some() {
                break;
            }
        }
        let leader = self.leader().expect("no leader elected during settle");
        if self.opts.setup == Setup::Vanilla {
            for &c in &self.clients.clone() {
                self.sim
                    .agent_mut::<ClientAgent>(c)
                    .set_target(Addr::node(leader));
            }
        }
    }

    /// The current leader, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.servers
            .iter()
            .copied()
            .filter(|&s| {
                self.sim.is_alive(s)
                    && self.opts.setup != Setup::Unrep
                    && self.sim.agent::<ServerAgent>(s).node().is_leader()
            })
            .max_by_key(|&s| self.sim.agent::<ServerAgent>(s).node().raft().term())
    }

    /// Runs the whole load (settle → warm-up → measurement → drain).
    pub fn run_to_completion(&mut self) {
        self.settle();
        let end = self.opts.load_end() + SimDur::millis(20);
        // Reset traffic counters at the start of the measured window so
        // Table-1 accounting covers steady state only.
        self.sim.run_until(self.opts.load_start + self.opts.warmup);
        self.sim.reset_counters();
        self.sim.run_until(end);
    }

    /// The shared protocol-event trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Pipeline index of the flow-control program, if deployed.
    pub fn fc_prog_index(&self) -> Option<usize> {
        self.fc_prog
    }

    /// Pipeline index of the aggregator program, if deployed.
    pub fn agg_prog_index(&self) -> Option<usize> {
        self.agg_prog
    }

    /// Evaluates every cross-node invariant once, returning the first
    /// violation. Prefer the `*_checked` run methods, which call this
    /// after every simulation step and panic with a replay bundle.
    pub fn check_invariants(&mut self) -> Result<(), Violation> {
        let mut checker = std::mem::take(&mut self.checker);
        let result = checker.check(self);
        self.checker = checker;
        result
    }

    /// Checks invariants now; on violation, dumps a replay bundle and
    /// panics with the violation and the bundle path.
    pub fn assert_invariants(&mut self) {
        if let Err(v) = self.check_invariants() {
            let path = self.dump_bundle(&format!("violation-{}", v.invariant));
            panic!(
                "protocol invariant violated: {v}\nreplay bundle: {}",
                path.display()
            );
        }
    }

    /// Runs until `t`, stopping every `CHECK_STEP` (1 ms) to evaluate the
    /// cross-node invariants (panicking with a replay bundle on the first
    /// violation). A burst that records half a trace ring of events before
    /// the step ends gets an extra check, so the checker's trace scan sees
    /// every event before the ring evicts it.
    pub fn run_until_checked(&mut self, t: SimTime) {
        while self.sim.now() < t {
            let next = (self.sim.now() + CHECK_STEP).min(t);
            loop {
                let tracer = &self.tracer;
                let limit = tracer.total_recorded() + DEFAULT_TRACE_CAP as u64 / 2;
                let done = self
                    .sim
                    .run_until_or(next, || tracer.total_recorded() >= limit);
                self.assert_invariants();
                if done {
                    break;
                }
            }
        }
    }

    /// Runs for `dur` with invariant checking (see
    /// [`Cluster::run_until_checked`]).
    pub fn run_checked(&mut self, dur: SimDur) {
        let end = self.sim.now() + dur;
        self.run_until_checked(end);
    }

    /// [`Cluster::run_to_completion`] with invariant checking after every
    /// simulation step.
    pub fn run_to_completion_checked(&mut self) {
        self.settle();
        self.assert_invariants();
        self.run_until_checked(self.opts.load_start + self.opts.warmup);
        self.sim.reset_counters();
        let end = self.opts.load_end() + SimDur::millis(20);
        self.run_until_checked(end);
    }

    /// Writes a replayable failure bundle — the build options, master
    /// seed, per-node protocol state, and the trace tail — and returns its
    /// path. The content is a pure function of the (deterministic)
    /// simulation state, so re-running the same options and seed
    /// reproduces it bit-for-bit.
    pub fn dump_bundle(&self, reason: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/invariant-dumps");
        let _ = std::fs::create_dir_all(&dir);
        let safe: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let path = dir.join(format!("{safe}-seed{}.txt", self.opts.seed));

        let mut s = String::new();
        let _ = writeln!(s, "# HovercRaft replay bundle");
        let _ = writeln!(s, "reason: {reason}");
        let _ = writeln!(s, "virtual_time_ns: {}", self.sim.now().as_nanos());
        let _ = writeln!(s, "seed: {}", self.opts.seed);
        let _ = writeln!(s, "opts: {:?}", self.opts);
        let _ = writeln!(s, "replay: rebuild Cluster with these opts (same seed) and");
        let _ = writeln!(s, "        run to virtual_time_ns; the trace is reproduced");
        let _ = writeln!(
            s,
            "        exactly (see DESIGN.md, \"Debugging a failing seed\")."
        );
        let _ = writeln!(s, "\n## node state");
        for &sv in &self.servers {
            let alive = self.sim.is_alive(sv);
            if self.opts.setup == Setup::Unrep {
                let _ = writeln!(s, "n{sv}: unreplicated alive={alive}");
                continue;
            }
            let n = self.sim.agent::<ServerAgent>(sv).node();
            let _ = writeln!(
                s,
                "n{sv}: alive={alive} role={:?} term={} commit={} applied={} \
                 announced={} last={}",
                n.role(),
                n.raft().term(),
                n.raft().commit_index(),
                n.applied_index(),
                n.raft().announced_index(),
                n.raft().log().last_index(),
            );
        }
        let total = self.tracer.total_recorded();
        let shown = self.tracer.len().min(BUNDLE_TAIL);
        let _ = writeln!(s, "\n## trace tail ({shown} of {total} events)");
        // Streamed straight out of the ring into one buffer; the bundle
        // path is the only place these lazily recorded details are ever
        // rendered.
        s.push_str(&self.tracer.render_tail(BUNDLE_TAIL));
        if let Err(err) = std::fs::write(&path, &s) {
            eprintln!("failed to write replay bundle {}: {err}", path.display());
        }
        path
    }

    /// Merged client results.
    pub fn client_results(&mut self) -> ClientResults {
        let mut merged = ClientResults::default();
        for &c in &self.clients.clone() {
            let r = self.sim.agent_mut::<ClientAgent>(c).results();
            merged.sent += r.sent;
            merged.responses += r.responses;
            merged.nacks += r.nacks;
            merged.retries += r.retries;
            merged.duplicates += r.duplicates;
            merged.latencies.extend(r.latencies);
        }
        merged
    }

    /// The build options.
    pub fn opts(&self) -> &ClusterOpts {
        &self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use minikv::{Command, Reply};

    #[test]
    fn image_instances_share_records_and_keep_writes_private() {
        let mut opts = ClusterOpts::new(Setup::Unrep, 1, 1.0);
        opts.service = ServiceKind::Kv;
        opts.workload = WorkloadKind::Ycsb {
            workload: YcsbWorkload::E,
            records: 100,
        };
        let image = ServiceImage::new(&opts);
        let ServiceImage::Kv(kv) = &image else {
            panic!("a Kv world builds a Kv image");
        };
        // The stores of two instances, as `instance` clones them.
        let (mut a, mut b) = (kv.store().clone(), kv.store().clone());
        let read = Command::Scan(
            Bytes::from_static(b"usertable"),
            Bytes::from(workload::key_of(7)),
            1,
        );
        match (a.execute(&read).0, b.execute(&read).0) {
            (Reply::Array(ra), Reply::Array(rb)) => match (&ra[..], &rb[..]) {
                ([_, Reply::Bulk(ra)], [_, Reply::Bulk(rb)]) => {
                    assert_eq!(ra.as_ptr(), rb.as_ptr(), "one allocation per record");
                }
                other => panic!("preloaded record missing: {other:?}"),
            },
            other => panic!("unexpected reply: {other:?}"),
        }

        // An INSERT that overwrites a preloaded key stays on its instance.
        let preloaded = kv.snapshot();
        let (mut a, b) = (image.instance(), image.instance());
        let overwrite = Command::Insert(
            Bytes::from_static(b"usertable"),
            Bytes::from(workload::key_of(7)),
            Bytes::from_static(b"rewritten"),
        );
        a.execute(&overwrite.encode(), false, &mut bytes::ByteArena::new());
        assert_ne!(a.snapshot(), preloaded);
        assert_eq!(b.snapshot(), preloaded, "the other instance is unchanged");
        assert_eq!(kv.snapshot(), preloaded, "so is the image");
    }
}
