//! Adapters mounting the HovercRaft dataplane programs (flow control and
//! the ++ aggregator) onto the simulated switch pipeline.

use std::fmt;

use hovercraft::{Aggregator, FcDecision, FlowControl, WireMsg};
use simnet::{Addr, Packet, SimTime, SwitchEmit, SwitchProgram, Tracer, Verdict};

use crate::setup::addrs;

// Deferred-detail renderers for the per-packet dataplane events; the
// switch programs run on every admitted request, so their trace records
// must not format (or allocate) unless the trace is actually displayed.
fn d_in_flight(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "in_flight={a}")
}
fn d_reclaim(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "slots={a} in_flight={b}")
}
fn d_client(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "client=n{a}")
}
fn d_agg_commit(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "term={a} commit={b} dst=n{c}")
}
fn d_dst(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "dst=n{a}")
}
fn d_term_dst(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "term={a} dst=n{b}")
}

/// The flow-control middlebox as a switch pipeline stage. Must be
/// registered *before* the aggregator so admitted requests continue down
/// the pipeline.
pub struct FcProgram {
    /// The middlebox state machine.
    pub fc: FlowControl,
    tracer: Option<Tracer>,
}

impl FcProgram {
    /// A middlebox admitting `cap` in-flight requests into the group.
    pub fn new(cap: u32) -> FcProgram {
        FcProgram {
            fc: FlowControl::new(addrs::GROUP.0, cap),
            tracer: None,
        }
    }

    /// Records admission decisions into `tracer` (as `sw` events stamped
    /// with the VIP address).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    fn trace(
        &self,
        now: SimTime,
        kind: &'static str,
        key: u64,
        render: simnet::DetailFn,
        a: u64,
        b: u64,
    ) {
        if let Some(t) = &self.tracer {
            t.record_lazy(now, addrs::VIP.0, kind, key, render, a, b, 0);
        }
    }
}

impl SwitchProgram<WireMsg> for FcProgram {
    fn process(
        &mut self,
        mut pkt: Packet<WireMsg>,
        now: SimTime,
        out: &mut SwitchEmit<WireMsg>,
    ) -> Verdict<WireMsg> {
        if pkt.dst != addrs::VIP {
            return Verdict::Forward(pkt);
        }
        let reclaimed_before = self.fc.stats().reclaimed;
        let decision = self.fc.on_packet(&pkt.payload, now.as_nanos());
        let reclaimed = self.fc.stats().reclaimed - reclaimed_before;
        if reclaimed > 0 {
            self.trace(
                now,
                "fc_reclaim",
                reclaimed,
                d_reclaim,
                reclaimed,
                self.fc.in_flight() as u64,
            );
        }
        match decision {
            FcDecision::Admit { rewritten_dst } => {
                if let WireMsg::Request { id, .. } = &pkt.payload {
                    self.trace(
                        now,
                        "fc_admit",
                        id.as_u64(),
                        d_in_flight,
                        self.fc.in_flight() as u64,
                        0,
                    );
                }
                pkt.dst = Addr(rewritten_dst);
                Verdict::Forward(pkt)
            }
            FcDecision::Nack { client, id } => {
                self.trace(now, "fc_nack", id.as_u64(), d_client, client as u64, 0);
                let msg = WireMsg::Nack { id };
                let size = msg.wire_size();
                out.emit(addrs::VIP, Addr::node(client), size, msg);
                Verdict::Consume
            }
            FcDecision::Absorbed => {
                self.trace(
                    now,
                    "fc_feedback",
                    0,
                    d_in_flight,
                    self.fc.in_flight() as u64,
                    0,
                );
                Verdict::Consume
            }
            FcDecision::Pass => Verdict::Consume,
        }
    }

    fn reset(&mut self) {
        self.fc.reset();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The HovercRaft++ aggregator as a switch pipeline stage.
pub struct AggProgram {
    /// The aggregation state machine (soft state only).
    pub agg: Aggregator,
    /// Fail-stop flag: a dead device blackholes everything addressed to it
    /// (used by failure-injection tests; §5's aggregator-failure scenario).
    pub failed: bool,
    tracer: Option<Tracer>,
    /// Reusable emission buffer: a packet's fan-out is appended here and
    /// drained onto the wire, so steady state allocates no `Vec` per packet.
    emits: Vec<(u32, WireMsg)>,
}

impl AggProgram {
    /// An aggregator for the given server group.
    pub fn new(members: Vec<u32>) -> AggProgram {
        AggProgram {
            agg: Aggregator::new(members),
            failed: false,
            tracer: None,
            emits: Vec::new(),
        }
    }

    /// Records aggregator fan-out and AGG_COMMIT emissions into `tracer`
    /// (as `sw` events stamped with the AGG address).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }
}

impl SwitchProgram<WireMsg> for AggProgram {
    fn process(
        &mut self,
        pkt: Packet<WireMsg>,
        now: SimTime,
        out: &mut SwitchEmit<WireMsg>,
    ) -> Verdict<WireMsg> {
        if pkt.dst != addrs::AGG {
            return Verdict::Forward(pkt);
        }
        if self.failed {
            return Verdict::Consume; // dead device: blackhole
        }
        self.agg
            .on_packet_into(pkt.src.0, pkt.payload, &mut self.emits);
        for (dst, msg) in self.emits.drain(..) {
            if let Some(t) = &self.tracer {
                let d = dst as u64;
                let (kind, key, render, a, b, c): (_, _, simnet::DetailFn, _, _, _) = match &msg {
                    WireMsg::AggCommit { term, commit, .. } => {
                        ("agg_commit", *commit, d_agg_commit, *term, *commit, d)
                    }
                    WireMsg::Raft(_) => ("agg_fanout", 0, d_dst, d, 0, 0),
                    WireMsg::VoteProbeRep { term } => {
                        ("agg_probe_rep", *term, d_term_dst, *term, d, 0)
                    }
                    _ => ("agg_emit", 0, d_dst, d, 0, 0),
                };
                t.record_lazy(now, addrs::AGG.0, kind, key, render, a, b, c);
            }
            let size = msg.wire_size();
            // Emitted with the aggregator's own source address: followers
            // use it to route successful replies back through the device.
            out.emit(addrs::AGG, Addr::node(dst), size, msg);
        }
        Verdict::Consume
    }

    fn reset(&mut self) {
        self.agg.flush();
        self.failed = false;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
