//! The discrete-event simulation engine.
//!
//! [`Sim`] owns the nodes (agents plus their NIC/CPU resources), the switch
//! (multicast groups, loss model, programmable pipeline), and the event
//! queue. Time advances only by processing events; everything is
//! deterministic given the configuration and the seed.
//!
//! # Resource model
//!
//! Each node has four serial resources, matching the two-thread DPDK design
//! of the paper's §6:
//!
//! * **network thread CPU** — charged per fragment for both RX processing and
//!   TX enqueueing of packets sent from protocol handlers;
//! * **application thread CPU** — runs [`Ctx::exec_app`] work items in FIFO
//!   order; packets sent from `on_app_done` (e.g. client replies) charge this
//!   thread, not the network thread (each thread has its own TX queue);
//! * **TX wire** — one serialization of `size` bytes per send, even for
//!   multicast (the switch replicates);
//! * **RX wire** — one serialization per delivered copy.
//!
//! A packet sent at `t` therefore reaches a receiving agent at
//! `t + tx_cpu + tx_wire + prop + switch + prop + rx_wire + rx_cpu`, with
//! each stage additionally waiting for its resource to free up. Arrivals
//! beyond the RX ring capacity are dropped — this is what makes overload
//! behave like overload instead of an unbounded queue.

use std::collections::VecDeque;
use std::fmt::Debug;

use bytes::ByteArena;
use fxhash::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Agent, Ctx, Effect, ThreadClass, TimerId};
use crate::counters::Counters;
use crate::fault::{FaultCmd, FaultPlan, LinkFault};
use crate::packet::{Addr, NodeId, Packet};
use crate::params::{FabricParams, NicParams};
use crate::switch::{GroupTable, SwitchEmit, SwitchProgram, Verdict};
use crate::time::{SimDur, SimTime};
use crate::trace::Tracer;
use crate::wheel::TimerWheel;

/// Predicate deciding whether a particular delivered copy is dropped;
/// used by tests to inject targeted, deterministic loss.
pub type DropFilter<M> = Box<dyn FnMut(&Packet<M>, NodeId, SimTime) -> bool>;

/// Rebuilds a node's agent on a crash–restart: receives the crashed agent
/// (so durable state can be extracted) and the restart instant, and returns
/// the rebooted agent with all volatile state wiped.
pub type RestartHook<M> = Box<dyn FnMut(NodeId, SimTime, Box<dyn Agent<M>>) -> Box<dyn Agent<M>>>;

/// A scheduled event, stored once in the wheel's arena (32 B). The
/// node-scoped ones (`Start`, `PktDeliver`, `Timer`, `AppDone`) carry the
/// incarnation `epoch` of the node that scheduled them, and dispatch drops
/// every one whose epoch is not the node's current one: nothing a crashed
/// incarnation set in motion runs in the restarted one. There is no other
/// way to retract an event. A packet event names its packet's slot in the
/// engine's [`PacketStore`]; whoever consumes or discards the event
/// releases the slot (`Sim::discard` for an undispatched one).
enum Ev {
    PktAtSwitch(u32),
    PktArrive {
        node: NodeId,
        pkt: u32,
    },
    PktDeliver {
        node: NodeId,
        pkt: u32,
        epoch: u64,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        kind: u64,
        epoch: u64,
    },
    AppDone {
        node: NodeId,
        token: u64,
        epoch: u64,
    },
    Start {
        node: NodeId,
        epoch: u64,
    },
    Fault(Box<FaultCmd>),
}

// Every queued event costs one wheel node of this plus 24 B.
const _: () = assert!(std::mem::size_of::<Ev>() == 32);

impl Ev {
    /// The node and incarnation a node-scoped event was scheduled for.
    fn incarnation(&self) -> Option<(NodeId, u64)> {
        match *self {
            Ev::Start { node, epoch }
            | Ev::PktDeliver { node, epoch, .. }
            | Ev::Timer { node, epoch, .. }
            | Ev::AppDone { node, epoch, .. } => Some((node, epoch)),
            Ev::PktAtSwitch(_) | Ev::PktArrive { .. } | Ev::Fault(_) => None,
        }
    }
}

/// Packets in flight, each parked once from its send until delivery or
/// drop, in stable `u32` slots that packet events name. Freed slots are
/// recycled LIFO, so at a steady state the store allocates nothing.
struct PacketStore<M> {
    slots: Vec<Option<Packet<M>>>,
    free: Vec<u32>,
}

impl<M> PacketStore<M> {
    #[inline]
    fn park(&mut self, pkt: Packet<M>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(pkt);
                id
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn get(&self, id: u32) -> &Packet<M> {
        self.slots[id as usize].as_ref().expect("parked packet")
    }

    /// Takes a packet out and frees its slot; discarding the result
    /// releases a packet that will never be delivered.
    #[inline]
    fn take(&mut self, id: u32) -> Packet<M> {
        let pkt = self.slots[id as usize].take().expect("parked packet");
        self.free.push(id);
        pkt
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

struct AppState {
    queue: VecDeque<(SimDur, u64)>,
    busy: bool,
}

struct NodeSlot<M> {
    agent: Option<Box<dyn Agent<M>>>,
    nic: NicParams,
    alive: bool,
    /// Stalled-but-alive: the node is not scheduled, but its RX ring keeps
    /// filling (and overflowing) with arrivals.
    paused: bool,
    /// Incarnation number; bumped on every crash–restart so events scheduled
    /// by a previous incarnation are discarded (see [`Ev`]).
    epoch: u64,
    /// When each crash–restart happened; `restarted_at.len() == epoch`.
    /// Lets observers attribute a timestamped event to the incarnation
    /// that was live when it occurred (the bounded trace ring may have
    /// evicted the `fault_restart` marker by the time they look).
    restarted_at: Vec<SimTime>,
    /// Events deferred while paused, redelivered on resume in order.
    stalled: Vec<Ev>,
    net_busy: SimTime,
    tx_wire_busy: SimTime,
    rx_wire_busy: SimTime,
    net_backlog: u32,
    app: AppState,
    counters: Counters,
    rng: SmallRng,
    next_timer: u64,
    effects: Vec<Effect<M>>,
}

/// The simulator: nodes, switch, and the event loop.
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    /// Events dispatched so far (the denominator of engine throughput).
    processed: u64,
    fabric: FabricParams,
    nodes: Vec<NodeSlot<M>>,
    groups: GroupTable,
    programs: Vec<Box<dyn SwitchProgram<M>>>,
    queue: TimerWheel<Ev>,
    /// Packets named by the queued packet events and `stalled` lists.
    packets: PacketStore<M>,
    /// Scratch reused across `at_switch` calls (program emissions).
    emit_scratch: Vec<Packet<M>>,
    /// Scratch reused across group fan-outs (resolved member list).
    members_scratch: Vec<NodeId>,
    switch_rng: SmallRng,
    drop_filter: Option<DropFilter<M>>,
    /// Active partition: node → group id. Nodes absent from the map are
    /// connected to everyone (clients typically stay global).
    partition: Option<FxHashMap<NodeId, u32>>,
    /// Active per-link delay/duplication windows.
    link_faults: Vec<LinkFault>,
    restart_hook: Option<RestartHook<M>>,
    tracer: Option<Tracer>,
    /// Per-world buffer pool handed to agents via [`Ctx::arena`]; message
    /// bodies built through it recycle chunks instead of allocating.
    arena: ByteArena,
    seed: u64,
}

impl<M: Clone + Debug + 'static> Sim<M> {
    /// Creates an empty simulation with the given fabric parameters and
    /// master seed. All per-node RNGs derive deterministically from the seed.
    pub fn new(fabric: FabricParams, seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            fabric,
            nodes: Vec::new(),
            groups: GroupTable::default(),
            programs: Vec::new(),
            queue: TimerWheel::new(),
            packets: PacketStore {
                slots: Vec::new(),
                free: Vec::new(),
            },
            emit_scratch: Vec::new(),
            members_scratch: Vec::new(),
            switch_rng: SmallRng::seed_from_u64(seed ^ 0x5151_5151_dead_beef),
            drop_filter: None,
            partition: None,
            link_faults: Vec::new(),
            restart_hook: None,
            tracer: None,
            arena: ByteArena::new(),
            seed,
        }
    }

    /// Adds a node with explicit NIC parameters; returns its id (also its
    /// unicast address value). The agent's `on_start` runs at the current
    /// simulated time.
    pub fn add_node_with(&mut self, agent: Box<dyn Agent<M>>, nic: NicParams) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let rng =
            SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id as u64);
        self.nodes.push(NodeSlot {
            agent: Some(agent),
            nic,
            alive: true,
            paused: false,
            epoch: 0,
            restarted_at: Vec::new(),
            stalled: Vec::new(),
            net_busy: self.now,
            tx_wire_busy: self.now,
            rx_wire_busy: self.now,
            net_backlog: 0,
            app: AppState {
                queue: VecDeque::new(),
                busy: false,
            },
            counters: Counters::default(),
            rng,
            next_timer: 0,
            effects: Vec::new(),
        });
        self.push(self.now, Ev::Start { node: id, epoch: 0 });
        id
    }

    /// Adds a node with the default NIC parameters.
    pub fn add_node(&mut self, agent: Box<dyn Agent<M>>) -> NodeId {
        self.add_node_with(agent, NicParams::default())
    }

    /// Registers (or replaces) a multicast group.
    pub fn add_group(&mut self, addr: Addr, members: Vec<NodeId>) {
        self.groups.set(addr, members);
    }

    /// Appends a program to the switch pipeline; returns its index. Programs
    /// see every packet entering the switch, in registration order. Packets
    /// *emitted* by a program bypass the pipeline (a P4 program does not
    /// recirculate by default).
    pub fn add_switch_program(&mut self, prog: Box<dyn SwitchProgram<M>>) -> usize {
        self.programs.push(prog);
        self.programs.len() - 1
    }

    /// Downcasts a switch program for test inspection.
    ///
    /// # Panics
    /// Panics if the index is out of range or the type does not match.
    pub fn switch_program_mut<T: 'static>(&mut self, idx: usize) -> &mut T {
        self.programs[idx]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("switch program type mismatch")
    }

    /// Sets the independent per-copy loss probability at the switch output.
    pub fn set_loss_rate(&mut self, p: f64) {
        self.fabric.loss_rate = p;
    }

    /// Installs (or clears) a targeted drop filter; the filter sees each
    /// about-to-be-delivered copy and returns `true` to drop it.
    pub fn set_drop_filter(&mut self, f: Option<DropFilter<M>>) {
        self.drop_filter = f;
    }

    /// Schedules a fail-stop of `node` at time `at`. From that instant the
    /// node neither receives, sends, executes, nor fires timers. Times in
    /// the past are clamped to `now` so randomly generated fault schedules
    /// can't abort the harness; killing an already-dead node is a no-op.
    pub fn kill_at(&mut self, node: NodeId, at: SimTime) {
        self.schedule_fault(at, FaultCmd::Kill { node });
    }

    /// Schedules a single fault transition (clamped to `now` if `at` is in
    /// the past).
    pub fn schedule_fault(&mut self, at: SimTime, cmd: FaultCmd) {
        self.push(at.max(self.now), Ev::Fault(Box::new(cmd)));
    }

    /// Schedules every event of a [`FaultPlan`].
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (at, cmd) in &plan.events {
            self.schedule_fault(*at, cmd.clone());
        }
    }

    /// Schedules a crash–restart of `node`: volatile state is wiped and the
    /// registered [`RestartHook`] rebuilds the agent from durable state.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) {
        self.schedule_fault(at, FaultCmd::Restart { node });
    }

    /// Registers the hook that rebuilds agents on [`FaultCmd::Restart`].
    pub fn set_restart_hook(&mut self, hook: RestartHook<M>) {
        self.restart_hook = Some(hook);
    }

    /// Attaches a tracer; fault transitions are recorded into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Whether `node` is still alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node as usize].alive
    }

    /// How many times `node` has crash–restarted (its incarnation number).
    pub fn restarts(&self, node: NodeId) -> u64 {
        self.nodes[node as usize].epoch
    }

    /// When each crash–restart of `node` happened, oldest first. The
    /// incarnation live at time `t` is the number of entries `<= t`.
    pub fn restart_times(&self, node: NodeId) -> &[SimTime] {
        &self.nodes[node as usize].restarted_at
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched by the engine so far — a pure function of
    /// the seed, pinned per chaos seed in `tests/determinism_guard.rs`.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Packets parked in the engine: sent and not yet delivered or
    /// dropped. Zero once the queue has drained; a positive count on an
    /// empty queue is a leak.
    #[doc(hidden)]
    pub fn parked_packets(&self) -> usize {
        self.packets.len()
    }

    /// The world's byte-buffer arena, for allocations made outside agent
    /// callbacks (preloading, scripted injection). Agents use
    /// [`Ctx::arena`].
    pub fn arena_mut(&mut self) -> &mut ByteArena {
        &mut self.arena
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Traffic counters of `node`.
    pub fn counters(&self, node: NodeId) -> Counters {
        self.nodes[node as usize].counters
    }

    /// Zeroes all nodes' traffic counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        for n in &mut self.nodes {
            n.counters.reset();
        }
    }

    /// Borrows the agent of `node`, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the type does not match or the agent is mid-callback.
    pub fn agent<T: 'static>(&self, node: NodeId) -> &T {
        self.nodes[node as usize]
            .agent
            .as_ref()
            .expect("agent is mid-callback")
            .as_any()
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    /// Mutably borrows the agent of `node`, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the type does not match or the agent is mid-callback.
    pub fn agent_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.nodes[node as usize]
            .agent
            .as_mut()
            .expect("agent is mid-callback")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("agent type mismatch")
    }

    /// Injects a packet into the fabric as if `from` had just transmitted
    /// it, charging the sender's normal TX CPU and wire costs. Useful for
    /// scripting scenarios from outside the agent callbacks (tests,
    /// examples).
    pub fn inject(&mut self, from: NodeId, dst: Addr, size: u32, payload: M) {
        let mut effects = vec![Effect::Send {
            dst,
            size,
            payload,
            thread: ThreadClass::Net,
        }];
        self.apply_effects(from, &mut effects);
    }

    /// Runs the event loop until the clock reaches `t` (all events strictly
    /// before or at `t` are processed); the clock then reads `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_or(t, || false);
    }

    /// [`Sim::run_until`] that also stops after any event for which `stop`
    /// returns true, with the clock at that event's instant. Returns true
    /// when it reached `t`. Stopping early changes nothing: a later call
    /// resumes with the next event in order.
    pub fn run_until_or(&mut self, t: SimTime, mut stop: impl FnMut() -> bool) -> bool {
        while let Some((at, ev)) = self.pop_next(t) {
            self.now = at;
            self.dispatch(ev);
            if stop() {
                return false;
            }
        }
        self.now = t;
        true
    }

    /// Runs the event loop for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDur) {
        let t = self.now + d;
        self.run_until(t);
    }

    // ---- internals -------------------------------------------------------

    fn push(&mut self, at: SimTime, ev: Ev) {
        crate::profile::note_sched_op();
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_nanos(), seq, ev);
    }

    /// Pops the earliest `(at, seq)` event at or before `limit`.
    fn pop_next(&mut self, limit: SimTime) -> Option<(SimTime, Ev)> {
        let (at, _seq, ev) = self.queue.pop_next(limit.as_nanos())?;
        crate::profile::note_sched_op();
        Some((SimTime::from_nanos(at), ev))
    }

    /// Drops a node-scoped event undispatched, releasing the packet a
    /// `PktDeliver` parked. Returns the packets released (0 or 1).
    fn discard(&mut self, ev: Ev) -> u64 {
        match ev {
            Ev::PktDeliver { pkt, .. } => {
                self.packets.take(pkt);
                1
            }
            _ => 0,
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        self.processed += 1;
        if let Some((node, epoch)) = ev.incarnation() {
            let slot = &mut self.nodes[node as usize];
            // A paused node is alive but not scheduled: its compute events
            // are deferred until resume. (Arrivals still land in the RX ring
            // via `arrive`, so the ring fills and eventually overflows.)
            if slot.paused && !matches!(ev, Ev::Start { .. }) {
                slot.stalled.push(ev);
                return;
            }
            if epoch != slot.epoch {
                let dropped = self.discard(ev);
                self.nodes[node as usize].counters.dropped_restart += dropped;
                return;
            }
        }
        match ev {
            Ev::Start { node, .. } => {
                self.invoke(node, ThreadClass::Net, |a, ctx| a.on_start(ctx));
            }
            Ev::Fault(cmd) => self.apply_fault(*cmd),
            Ev::PktAtSwitch(pkt) => {
                let pkt = self.packets.take(pkt);
                self.at_switch(pkt);
            }
            Ev::PktArrive { node, pkt } => self.arrive(node, pkt),
            Ev::PktDeliver { node, pkt, .. } => {
                let pkt = self.packets.take(pkt);
                let slot = &mut self.nodes[node as usize];
                slot.net_backlog = slot.net_backlog.saturating_sub(1);
                if !slot.alive {
                    slot.counters.dropped_dead += 1;
                    return;
                }
                slot.counters.rx_msgs += 1;
                slot.counters.rx_bytes += pkt.size as u64;
                self.invoke(node, ThreadClass::Net, move |a, ctx| a.on_packet(pkt, ctx));
            }
            Ev::Timer { node, id, kind, .. } => {
                self.invoke(node, ThreadClass::Net, move |a, ctx| {
                    a.on_timer(id, kind, ctx)
                });
            }
            Ev::AppDone { node, token, epoch } => {
                if !self.nodes[node as usize].alive {
                    return;
                }
                let extra = self.invoke(node, ThreadClass::App, move |a, ctx| {
                    a.on_app_done(token, ctx)
                });
                let slot = &mut self.nodes[node as usize];
                slot.app.busy = false;
                if let Some((cost, token)) = slot.app.queue.pop_front() {
                    slot.app.busy = true;
                    let at = self.now + extra + cost;
                    self.push(at, Ev::AppDone { node, token, epoch });
                }
            }
        }
    }

    /// Applies one fault transition and records it into the tracer.
    fn apply_fault(&mut self, cmd: FaultCmd) {
        let now = self.now;
        match &cmd {
            FaultCmd::Kill { node } => {
                let slot = &mut self.nodes[*node as usize];
                slot.alive = false;
                slot.paused = false;
                let stalled = std::mem::take(&mut slot.stalled);
                let dropped: u64 = stalled.into_iter().map(|ev| self.discard(ev)).sum();
                self.nodes[*node as usize].counters.dropped_dead += dropped;
            }
            FaultCmd::Restart { node } => {
                let n = *node;
                let slot = &mut self.nodes[n as usize];
                let old = slot.agent.take().expect("restart during agent callback");
                slot.epoch += 1;
                slot.restarted_at.push(now);
                slot.alive = true;
                slot.paused = false;
                let stalled = std::mem::take(&mut slot.stalled);
                slot.net_backlog = 0;
                slot.app.queue.clear();
                slot.app.busy = false;
                slot.effects.clear();
                slot.net_busy = now;
                slot.tx_wire_busy = now;
                slot.rx_wire_busy = now;
                let dropped: u64 = stalled.into_iter().map(|ev| self.discard(ev)).sum();
                self.nodes[n as usize].counters.dropped_restart += dropped;
                let hook = self
                    .restart_hook
                    .as_mut()
                    .expect("FaultCmd::Restart requires Sim::set_restart_hook");
                let fresh = hook(n, now, old);
                let slot = &mut self.nodes[n as usize];
                slot.agent = Some(fresh);
                let epoch = slot.epoch;
                self.push(now, Ev::Start { node: n, epoch });
            }
            FaultCmd::Pause { node } => {
                let slot = &mut self.nodes[*node as usize];
                if slot.alive {
                    slot.paused = true;
                }
            }
            FaultCmd::Resume { node } => {
                let n = *node as usize;
                if self.nodes[n].paused {
                    self.nodes[n].paused = false;
                    let stalled = std::mem::take(&mut self.nodes[n].stalled);
                    for ev in stalled {
                        // Re-pushed at `now` with fresh seqs: relative order
                        // among the deferred events is preserved.
                        self.push(now, ev);
                    }
                }
            }
            FaultCmd::Partition { groups } => {
                let mut map = FxHashMap::default();
                for (gi, g) in groups.iter().enumerate() {
                    for &n in g {
                        map.insert(n, gi as u32);
                    }
                }
                self.partition = Some(map);
            }
            FaultCmd::Heal => self.partition = None,
            FaultCmd::Link { fault } => {
                self.link_faults.retain(|lf| lf.until > now);
                self.link_faults.push(fault.clone());
            }
        }
        if let Some(tr) = &self.tracer {
            let (kind, node, render, [a, b, c]) = cmd.trace_parts();
            tr.record_lazy(now, node, kind, 0, render, a, b, c);
        }
    }

    /// Whether a copy from `sender` may reach `receiver` under the current
    /// partition (unlisted nodes are connected to everyone).
    fn connected(&self, sender: NodeId, receiver: NodeId) -> bool {
        match &self.partition {
            Some(map) => match (map.get(&sender), map.get(&receiver)) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            },
            None => true,
        }
    }

    /// Runs one agent callback and applies its effects. Returns the extra
    /// app-thread CPU time consumed by sends issued from an app callback.
    fn invoke(
        &mut self,
        node: NodeId,
        thread: ThreadClass,
        f: impl FnOnce(&mut dyn Agent<M>, &mut Ctx<'_, M>),
    ) -> SimDur {
        let slot = &mut self.nodes[node as usize];
        if !slot.alive {
            return SimDur::ZERO;
        }
        let mut agent = slot.agent.take().expect("re-entrant agent callback");
        let mut effects = std::mem::take(&mut slot.effects);
        {
            let mut ctx = Ctx {
                now: self.now,
                node,
                thread,
                rx_backlog: slot.net_backlog,
                effects: &mut effects,
                rng: &mut slot.rng,
                next_timer: &mut slot.next_timer,
                arena: &mut self.arena,
            };
            f(agent.as_mut(), &mut ctx);
        }
        let slot = &mut self.nodes[node as usize];
        slot.agent = Some(agent);
        let extra = self.apply_effects(node, &mut effects);
        effects.clear();
        self.nodes[node as usize].effects = effects;
        extra
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect<M>>) -> SimDur {
        let now = self.now;
        let mut app_extra = SimDur::ZERO;
        for eff in effects.drain(..) {
            match eff {
                Effect::Send {
                    dst,
                    size,
                    payload,
                    thread: charge,
                } => {
                    let slot = &mut self.nodes[node as usize];
                    let (frags, wire) = slot.nic.frags_and_wire_time(size);
                    let tx_cpu = slot.nic.tx_cpu_per_frag * frags as u64;
                    // CPU stage: charged to the thread that owns the send
                    // (usually the calling thread; see `Ctx::send_from`).
                    let cpu_done = match charge {
                        ThreadClass::Net => {
                            let t = slot.net_busy.max(now) + tx_cpu;
                            slot.net_busy = t;
                            t
                        }
                        ThreadClass::App => {
                            app_extra += tx_cpu;
                            now + app_extra
                        }
                    };
                    // Wire stage: one serialization regardless of fan-out.
                    let t2 = slot.tx_wire_busy.max(cpu_done) + wire;
                    slot.tx_wire_busy = t2;
                    slot.counters.tx_msgs += 1;
                    slot.counters.tx_bytes += size as u64;
                    let pkt = Packet {
                        src: Addr::node(node),
                        dst,
                        size,
                        payload,
                        sent_at: now,
                    };
                    let at = t2 + self.fabric.prop_delay;
                    let pkt = self.packets.park(pkt);
                    self.push(at, Ev::PktAtSwitch(pkt));
                }
                Effect::Timer { delay, kind, id } => {
                    let epoch = self.nodes[node as usize].epoch;
                    self.push(
                        now + delay,
                        Ev::Timer {
                            node,
                            id,
                            kind,
                            epoch,
                        },
                    );
                }
                Effect::AppWork { cost, token } => {
                    let slot = &mut self.nodes[node as usize];
                    if slot.app.busy {
                        slot.app.queue.push_back((cost, token));
                    } else {
                        slot.app.busy = true;
                        let epoch = slot.epoch;
                        self.push(now + cost, Ev::AppDone { node, token, epoch });
                    }
                }
                Effect::Burn { cost, thread: t } => {
                    let slot = &mut self.nodes[node as usize];
                    match t {
                        ThreadClass::Net => {
                            slot.net_busy = slot.net_busy.max(now) + cost;
                        }
                        ThreadClass::App => {
                            app_extra += cost;
                        }
                    }
                }
            }
        }
        app_extra
    }

    fn at_switch(&mut self, pkt: Packet<M>) {
        // Pipeline: programs may rewrite, consume, or emit packets. The
        // emission buffer is reused across calls (it is empty between them).
        let mut emit = SwitchEmit {
            packets: std::mem::take(&mut self.emit_scratch),
        };
        let mut cursor = Some(pkt);
        for prog in &mut self.programs {
            match cursor {
                Some(p) => match prog.process(p, self.now, &mut emit) {
                    Verdict::Forward(p2) => cursor = Some(p2),
                    Verdict::Consume => cursor = None,
                },
                None => break,
            }
        }
        // Emitted packets forward first, the pipeline survivor last — the
        // order the single-vec implementation always produced.
        let mut emitted = emit.packets;
        for p in emitted.drain(..) {
            self.forward(p);
        }
        self.emit_scratch = emitted;
        if let Some(p) = cursor {
            self.forward(p);
        }
    }

    /// Forwards one packet out of the switch: stamps switch-originated
    /// packets, resolves the destination, and schedules delivery copies.
    /// Unicast moves the payload straight through (zero clones); multicast
    /// clones n-1 times, moving the packet into the final copy.
    fn forward(&mut self, mut p: Packet<M>) {
        if p.sent_at == SimTime::ZERO {
            p.sent_at = self.now;
        }
        let sender = p.src.as_node();
        if let Some(n) = p.dst.as_node() {
            self.deliver_copy(p, sender, n);
            return;
        }
        let mut members = std::mem::take(&mut self.members_scratch);
        members.clear();
        if let Some(ms) = self.groups.get(p.dst) {
            members.extend(ms.iter().copied().filter(|n| Some(*n) != sender));
        }
        if let Some((&last, rest)) = members.split_last() {
            for &m in rest {
                self.deliver_copy(p.clone(), sender, m);
            }
            self.deliver_copy(p, sender, last);
        }
        self.members_scratch = members;
    }

    /// Applies one copy's fate — partition check, loss, link-fault delay and
    /// duplication — and schedules its arrival at `m`. The RNG draw order per
    /// member matches the historical per-member loop exactly; replay digests
    /// depend on it.
    fn deliver_copy(&mut self, p: Packet<M>, sender: Option<NodeId>, m: NodeId) {
        // Partition check: copies between disconnected groups are
        // silently dropped at the switch.
        if let Some(s) = sender {
            if !self.connected(s, m) {
                self.nodes[m as usize].counters.dropped_partition += 1;
                return;
            }
        }
        // Independent loss per delivered copy.
        let lost = (self.fabric.loss_rate > 0.0
            && self.switch_rng.gen::<f64>() < self.fabric.loss_rate)
            || self
                .drop_filter
                .as_mut()
                .map(|f| f(&p, m, self.now))
                .unwrap_or(false);
        if lost {
            self.nodes[m as usize].counters.dropped_loss += 1;
            return;
        }
        // Per-link fault windows: extra delay and duplication.
        let mut at = self.now + self.fabric.switch_delay + self.fabric.prop_delay;
        let mut dup_prob = 0.0f64;
        for lf in &self.link_faults {
            if self.now < lf.until
                && lf.src.is_none_or(|s| sender == Some(s))
                && lf.dst.is_none_or(|d| d == m)
            {
                at += lf.extra_delay;
                dup_prob = dup_prob.max(lf.dup_prob);
            }
        }
        if dup_prob > 0.0 && self.switch_rng.gen::<f64>() < dup_prob {
            self.nodes[m as usize].counters.duplicated += 1;
            let pkt = self.packets.park(p.clone());
            self.push(at, Ev::PktArrive { node: m, pkt });
        }
        let pkt = self.packets.park(p);
        self.push(at, Ev::PktArrive { node: m, pkt });
    }

    fn arrive(&mut self, node: NodeId, pkt: u32) {
        let slot = &mut self.nodes[node as usize];
        if !slot.alive {
            slot.counters.dropped_dead += 1;
            self.packets.take(pkt);
            return;
        }
        if slot.net_backlog >= slot.nic.rx_ring {
            slot.counters.rx_dropped_backlog += 1;
            self.packets.take(pkt);
            return;
        }
        let (frags, wire) = slot.nic.frags_and_wire_time(self.packets.get(pkt).size);
        let t5 = slot.rx_wire_busy.max(self.now) + wire;
        slot.rx_wire_busy = t5;
        let t6 = slot.net_busy.max(t5) + slot.nic.rx_cpu_per_frag * frags as u64;
        slot.net_busy = t6;
        slot.net_backlog += 1;
        let epoch = slot.epoch;
        self.push(t6, Ev::PktDeliver { node, pkt, epoch });
    }
}
