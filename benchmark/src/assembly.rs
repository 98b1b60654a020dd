//! The traced deployment: the same cluster `testbed::Cluster::build`
//! assembles, with every agent, service and switch program wrapped so the
//! call into it is bracketed by a host-time span.
//!
//! The wrappers forward `as_any` to what they wrap, so `Cluster`'s own
//! methods (`settle`, `leader`, `client_results`, `summarize`) run
//! unchanged on the traced world. [`build_traced`] therefore builds a
//! plain `Cluster` first — for its tracer, checker and program indices —
//! and replaces its simulator with the wrapped one. The equivalence guard
//! in [`crate::layers`] fails the run if the two ever differ.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::{ByteArena, Bytes};
use hovercraft::{Executed, HcConfig, HcNode, Mode, Service, WireMsg};
use minikv::{CostModel, KvService};
use simnet::{
    Agent, Ctx, FabricParams, NicParams, Packet, Sim, SimDur, SimTime, SwitchEmit, SwitchProgram,
    TimerId, Tracer, Verdict,
};
use testbed::{
    addrs, AggProgram, ClientAgent, ClientWorkload, Cluster, ClusterOpts, FcProgram, ServerAgent,
    ServiceKind, Setup, UnrepAgent, WorkloadKind,
};
use workload::{RecordSpec, SynthService, YcsbGen, YcsbWorkload};

use crate::spans::{Layer, SpanLog};

/// Delivered copies by `WireMsg` kind, counted by a never-dropping filter.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindCounts {
    /// Client requests (one per receiving server).
    pub request: u64,
    /// Client-visible responses.
    pub response: u64,
    /// Flow-control NACKs.
    pub nack: u64,
    /// FEEDBACK addressed to a node (the middlebox absorbs the rest).
    pub feedback: u64,
    /// Raft RPCs.
    pub raft: u64,
    /// AGG_COMMIT multicasts.
    pub agg_commit: u64,
    /// Body-recovery requests and replies.
    pub recovery: u64,
    /// Snapshot chunks and acks.
    pub snapshot: u64,
    /// Aggregator liveness probes and answers.
    pub probe: u64,
}

impl KindCounts {
    fn note(&mut self, msg: &WireMsg) {
        let slot = match msg {
            WireMsg::Request { .. } => &mut self.request,
            WireMsg::Response { .. } => &mut self.response,
            WireMsg::Nack { .. } => &mut self.nack,
            WireMsg::Feedback => &mut self.feedback,
            WireMsg::Raft(_) => &mut self.raft,
            WireMsg::AggCommit { .. } => &mut self.agg_commit,
            WireMsg::RecoveryReq { .. } | WireMsg::RecoveryRep { .. } => &mut self.recovery,
            WireMsg::SnapChunk { .. } | WireMsg::SnapAck { .. } => &mut self.snapshot,
            WireMsg::VoteProbe { .. } | WireMsg::VoteProbeRep { .. } => &mut self.probe,
        };
        *slot += 1;
    }
}

/// An agent whose every handler runs inside a span.
struct Spanned<A> {
    inner: A,
    layer: Layer,
    node: u32,
    log: SpanLog,
}

impl<A: Agent<WireMsg>> Agent<WireMsg> for Spanned<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let _s = self.log.enter(self.layer, self.node);
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, pkt: Packet<WireMsg>, ctx: &mut Ctx<'_, WireMsg>) {
        let _s = self.log.enter(self.layer, self.node);
        self.inner.on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Ctx<'_, WireMsg>) {
        let _s = self.log.enter(self.layer, self.node);
        self.inner.on_timer(id, kind, ctx);
    }
    fn on_app_done(&mut self, token: u64, ctx: &mut Ctx<'_, WireMsg>) {
        let _s = self.log.enter(self.layer, self.node);
        self.inner.on_app_done(token, ctx);
    }
    // Harvesting code downcasts to the wrapped agent, as on a plain world.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A service whose every call runs inside a span.
struct SpannedService {
    inner: Box<dyn Service>,
    node: u32,
    log: SpanLog,
}

impl Service for SpannedService {
    fn execute(&mut self, body: &[u8], read_only: bool, arena: &mut ByteArena) -> Executed {
        let _s = self.log.enter(Layer::Service, self.node);
        self.inner.execute(body, read_only, arena)
    }
    fn snapshot(&self) -> Bytes {
        let _s = self.log.enter(Layer::Service, self.node);
        self.inner.snapshot()
    }
    fn restore(&mut self, snap: &[u8]) {
        let _s = self.log.enter(Layer::Service, self.node);
        self.inner.restore(snap);
    }
}

/// A switch program whose every packet runs inside a span.
struct SpannedProgram<P> {
    inner: P,
    log: SpanLog,
}

impl<P: SwitchProgram<WireMsg>> SwitchProgram<WireMsg> for SpannedProgram<P> {
    fn process(
        &mut self,
        pkt: Packet<WireMsg>,
        now: SimTime,
        out: &mut SwitchEmit<WireMsg>,
    ) -> Verdict<WireMsg> {
        let _s = self.log.enter(Layer::Switch, 0);
        self.inner.process(pkt, now, out)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The application service of one server, preloaded as `Cluster::build`
/// preloads it, inside a span-recording wrapper.
fn build_service(opts: &ClusterOpts, node: u32, log: &SpanLog) -> Box<dyn Service> {
    let mut svc: Box<dyn Service> = match opts.service {
        ServiceKind::Synth => Box::new(SynthService::default()),
        ServiceKind::Kv => Box::new(KvService::new(CostModel::default())),
    };
    if opts.service == ServiceKind::Kv {
        if let WorkloadKind::Ycsb { records, .. } = &opts.workload {
            let gen = YcsbGen::new(YcsbWorkload::E, *records, RecordSpec::default(), 0);
            let mut arena = ByteArena::new();
            for cmd in gen.load_phase() {
                svc.execute(&cmd.encode(), false, &mut arena);
            }
        }
    }
    Box::new(SpannedService {
        inner: svc,
        node,
        log: log.clone(),
    })
}

fn client_workload(kind: &WorkloadKind, seed: u64) -> ClientWorkload {
    match kind {
        WorkloadKind::Synth(spec) => ClientWorkload::Synth(spec.clone()),
        WorkloadKind::Ycsb { workload, records } => ClientWorkload::Ycsb(Box::new(YcsbGen::new(
            *workload,
            *records,
            RecordSpec::default(),
            seed,
        ))),
    }
}

/// The generator NIC of `Cluster::build`: never the bottleneck.
fn client_nic() -> NicParams {
    NicParams {
        link_bps: 40_000_000_000,
        rx_cpu_per_frag: SimDur::nanos(80),
        tx_cpu_per_frag: SimDur::nanos(80),
        rx_ring: 8192,
        ..NicParams::default()
    }
}

/// Builds the deployment `Cluster::build(opts)` builds, every layer
/// wrapped to record spans into `log` and every delivered copy counted
/// into `kinds`.
pub fn build_traced(opts: &ClusterOpts, log: &SpanLog, kinds: &Rc<RefCell<KindCounts>>) -> Cluster {
    let mut cluster = Cluster::build(opts.clone());
    let tracer: Tracer = cluster.tracer().clone();

    let mut sim: Sim<WireMsg> = Sim::new(FabricParams::default(), opts.seed);
    let members: Vec<u32> = (0..opts.n).collect();
    for &id in &members {
        let agent: Box<dyn Agent<WireMsg>> = match opts.setup.mode() {
            None => Box::new(Spanned {
                inner: UnrepAgent::new(build_service(opts, id, log)),
                layer: Layer::Server,
                node: id,
                log: log.clone(),
            }),
            Some(mode) => {
                let mut rc = raft::Config::new(id, members.clone());
                rc.seed = opts
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(id) * 7 + 3);
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
                let mut inner = ServerAgent::new(cfg, build_service(opts, id, log));
                inner.set_tracer(tracer.clone());
                Box::new(Spanned {
                    inner,
                    layer: Layer::Server,
                    node: id,
                    log: log.clone(),
                })
            }
        };
        sim.add_node(agent);
    }
    sim.add_group(addrs::GROUP, members.clone());
    sim.set_tracer(tracer.clone());

    if opts.setup != Setup::Unrep {
        let (hook_opts, hook_tracer, hook_log) = (opts.clone(), tracer.clone(), log.clone());
        sim.set_restart_hook(Box::new(move |node, now, old| {
            let _s = hook_log.enter(Layer::Restart, node);
            let crashed = old
                .as_any()
                .downcast_ref::<ServerAgent>()
                .expect("restart hook only handles server nodes")
                .node();
            let restored = HcNode::restore(
                crashed.config().clone(),
                build_service(&hook_opts, node, &hook_log),
                now.as_nanos(),
                crashed.durable_state(),
                crashed.epoch() + 1,
            )
            .unwrap_or_else(|rej| panic!("n{node}: {rej}"));
            let mut inner = ServerAgent::from_node(restored);
            inner.set_tracer(hook_tracer.clone());
            Box::new(Spanned {
                inner,
                layer: Layer::Server,
                node,
                log: hook_log.clone(),
            })
        }));
    }

    // Same pipeline order as `Cluster::build`, so the program indices the
    // donor cluster remembers stay valid.
    if let Some(cap) = opts.flow_cap {
        let mut inner = FcProgram::new(cap);
        inner.set_tracer(tracer.clone());
        sim.add_switch_program(Box::new(SpannedProgram {
            inner,
            log: log.clone(),
        }));
    }
    if matches!(opts.setup, Setup::HovercraftPp(_)) {
        let mut inner = AggProgram::new(members);
        inner.set_tracer(tracer.clone());
        sim.add_switch_program(Box::new(SpannedProgram {
            inner,
            log: log.clone(),
        }));
    }

    let target = match opts.setup {
        Setup::Unrep | Setup::Vanilla => simnet::Addr::node(0),
        _ if opts.flow_cap.is_some() => addrs::VIP,
        _ => addrs::GROUP,
    };
    let per_client = opts.rate_rps / f64::from(opts.clients);
    for c in 0..u64::from(opts.clients) {
        let mut inner = ClientAgent::new(
            target,
            per_client,
            opts.load_start,
            opts.load_end(),
            opts.load_start + opts.warmup,
            client_workload(&opts.workload, opts.seed * 1000 + c),
            opts.seed * 77 + c,
        );
        if let Some(policy) = opts.retry {
            inner.set_retry(policy);
        }
        let node = sim.num_nodes() as u32;
        sim.add_node_with(
            Box::new(Spanned {
                inner,
                layer: Layer::Client,
                node,
                log: log.clone(),
            }),
            client_nic(),
        );
    }

    let kinds = Rc::clone(kinds);
    sim.set_drop_filter(Some(Box::new(move |pkt, _dst, _now| {
        kinds.borrow_mut().note(&pkt.payload);
        false
    })));

    cluster.sim = sim;
    cluster
}
