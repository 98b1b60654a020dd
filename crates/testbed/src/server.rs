//! Server agents: the replicated HovercRaft node and the unreplicated
//! baseline, adapted onto the simulator's two-thread node model.

use std::any::Any;

use hovercraft::{HcConfig, HcNode, Input, Output, ProtoEvent, Service, WireMsg};
use simnet::{Addr, Agent, Ctx, NodeId, Packet, SimDur, SimTime, TimerId, Tracer};

/// Timer kind for the periodic protocol tick.
const TICK: u64 = 1;

/// How often the network thread runs protocol maintenance (Raft ticks,
/// GC, recovery retries). A quarter of the Raft heartbeat interval keeps
/// heartbeat jitter well under election timeouts.
const TICK_INTERVAL: SimDur = SimDur::micros(250);

/// CPU cost per payload byte serialized into an AppendEntries message.
/// VanillaRaft pays this once per follower per request (the leader copies
/// the client payload through the log into per-follower consensus
/// messages); HovercRaft ships fixed-size metadata and pays nothing —
/// the request-size sensitivity of Figure 8 (§3.2).
const AE_COPY_PER_BYTE_DECINS: u64 = 14; // 1.4 ns/byte

/// Records one protocol event of `node` at `now`: the one way a
/// [`ProtoEvent`] enters the trace. The detail is deferred (a renderer
/// pointer plus raw words), so tracing a full-load run costs word moves,
/// not a `format!` per event.
pub(crate) fn record_proto(tracer: &Tracer, now: SimTime, node: NodeId, ev: &ProtoEvent) {
    let (kind, key, render, [a, b, c]) = ev.parts();
    tracer.record_lazy(now, node, kind, key, render, a, b, c);
}

/// A replicated server: a [`HcNode`] driven by the simulated network
/// thread, with state-machine execution charged to the application thread.
pub struct ServerAgent {
    node: HcNode<Box<dyn Service>>,
    tracer: Option<Tracer>,
    /// Reusable output scratch: steps append into this and `run` drains
    /// it, so steady-state handling never allocates for outputs.
    outs: Vec<Output>,
}

impl ServerAgent {
    /// Wraps a service under the given HovercRaft configuration.
    pub fn new(cfg: HcConfig, service: Box<dyn Service>) -> ServerAgent {
        ServerAgent {
            node: HcNode::new(cfg, service, 0),
            tracer: None,
            outs: Vec::new(),
        }
    }

    /// Wraps an already-constructed node — the crash–restart rejoin path,
    /// where the node is rebuilt with [`HcNode::restore`] from the crashed
    /// agent's durable Raft state.
    pub fn from_node(node: HcNode<Box<dyn Service>>) -> ServerAgent {
        ServerAgent {
            node,
            tracer: None,
            outs: Vec::new(),
        }
    }

    /// Forwards the node's protocol events into `tracer`, stamped with
    /// virtual time, after every step.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Drains buffered protocol events into the tracer (no-op untraced).
    fn flush_events(&mut self, ctx: &Ctx<'_, WireMsg>) {
        if let Some(t) = &self.tracer {
            let me = self.node.id();
            for ev in self.node.drain_events() {
                record_proto(t, ctx.now(), me, &ev);
            }
        }
    }

    /// The protocol node (for result harvesting).
    pub fn node(&self) -> &HcNode<Box<dyn Service>> {
        &self.node
    }

    /// Mutable protocol node access (e.g. dataset preloading through the
    /// service).
    pub fn node_mut(&mut self) -> &mut HcNode<Box<dyn Service>> {
        &mut self.node
    }

    /// Steps the node with one input, then carries out and traces the
    /// outputs. The step ends a batch when the RX ring is empty: under
    /// load the ring is rarely empty, so one AppendEntries per follower
    /// carries a whole batch of entries; at low load every request ships
    /// at once.
    fn step(&mut self, ctx: &mut Ctx<'_, WireMsg>, input: Input) {
        let now = ctx.now().as_nanos();
        let batch_ends = ctx.rx_backlog() == 0;
        self.node
            .step(now, input, batch_ends, &mut self.outs, ctx.arena());
        self.run(ctx);
        self.flush_events(ctx);
    }

    /// Carries out the outputs accumulated in `self.outs`, draining the
    /// buffer in place (capacity is retained for the next step).
    fn run(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        // Only VanillaRaft entries carry payloads; HovercRaft's are
        // metadata-only by construction (§3.2) and need no scan.
        let inline_payloads = !self.node.config().mode.is_hovercraft();
        for o in self.outs.drain(..) {
            match o {
                Output::Send { dst, msg } => {
                    let size = msg.wire_size();
                    // Consensus traffic always belongs to the network
                    // thread (§6): when an application-thread completion
                    // unblocks an announcement, the resulting
                    // AppendEntries are picked up and transmitted by the
                    // network thread, not the app thread. Client-visible
                    // responses and FEEDBACK stay on the thread that
                    // produced them (each thread has its own TX queue).
                    match &msg {
                        WireMsg::Raft(m) => {
                            // Serialization cost of inline payloads.
                            if inline_payloads {
                                if let raft::Message::AppendEntries { entries, .. } = m {
                                    let inline: u64 = entries
                                        .iter()
                                        .filter_map(|e| e.cmd.body.as_ref())
                                        .map(|b| b.len() as u64)
                                        .sum();
                                    if inline > 0 {
                                        ctx.burn(
                                            SimDur::nanos(inline * AE_COPY_PER_BYTE_DECINS / 10),
                                            simnet::ThreadClass::Net,
                                        );
                                    }
                                }
                            }
                            ctx.send_from(Addr(dst), size, msg, simnet::ThreadClass::Net);
                        }
                        WireMsg::RecoveryReq { .. }
                        | WireMsg::RecoveryRep { .. }
                        | WireMsg::SnapChunk { .. }
                        | WireMsg::SnapAck { .. }
                        | WireMsg::VoteProbe { .. } => {
                            ctx.send_from(Addr(dst), size, msg, simnet::ThreadClass::Net);
                        }
                        _ => ctx.send(Addr(dst), size, msg),
                    }
                }
                Output::Execute { index, cost_ns } => {
                    ctx.exec_app(SimDur::nanos(cost_ns), index);
                }
            }
        }
    }
}

impl Agent<WireMsg> for ServerAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        ctx.set_timer(TICK_INTERVAL, TICK);
    }

    fn on_packet(&mut self, pkt: Packet<WireMsg>, ctx: &mut Ctx<'_, WireMsg>) {
        let (src, msg) = (pkt.src.0, pkt.payload);
        self.step(ctx, Input::Message { src, msg });
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Ctx<'_, WireMsg>) {
        debug_assert_eq!(kind, TICK);
        self.step(ctx, Input::Tick);
        ctx.set_timer(TICK_INTERVAL, TICK);
    }

    fn on_app_done(&mut self, token: u64, ctx: &mut Ctx<'_, WireMsg>) {
        self.step(ctx, Input::ExecDone(token));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The unreplicated baseline: a plain R2P2 server with no fault tolerance.
/// Requests are executed on the application thread and answered directly —
/// the `UnRep` setup of §7.
pub struct UnrepAgent {
    service: Box<dyn Service>,
    /// Replies pending app-thread completion, keyed by a rolling token.
    pending: fxhash::FxHashMap<u64, (Addr, r2p2::ReqId, bytes::Bytes)>,
    next_token: u64,
    /// Requests served.
    pub served: u64,
}

impl UnrepAgent {
    /// Wraps a service.
    pub fn new(service: Box<dyn Service>) -> UnrepAgent {
        UnrepAgent {
            service,
            pending: fxhash::FxHashMap::default(),
            next_token: 0,
            served: 0,
        }
    }
}

impl Agent<WireMsg> for UnrepAgent {
    fn on_packet(&mut self, pkt: Packet<WireMsg>, ctx: &mut Ctx<'_, WireMsg>) {
        if let WireMsg::Request { id, kind, body } = pkt.payload {
            let r = self
                .service
                .execute(&body, kind.is_read_only(), ctx.arena());
            let token = self.next_token;
            self.next_token += 1;
            self.pending
                .insert(token, (Addr::node(id.src_ip), id, r.reply));
            ctx.exec_app(SimDur::nanos(r.cost_ns), token);
        }
    }

    fn on_app_done(&mut self, token: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if let Some((client, id, reply)) = self.pending.remove(&token) {
            self.served += 1;
            let msg = WireMsg::Response { id, body: reply };
            let size = msg.wire_size();
            ctx.send(client, size, msg);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
