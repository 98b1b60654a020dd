//! The agent abstraction: protocol code running on a simulated node.
//!
//! An [`Agent`] is the software of one node. The engine invokes its handlers
//! at the simulated instants where the node's network thread (or application
//! thread) would run them, and the agent reacts through the [`Ctx`] handed to
//! every handler: sending packets, arming timers, and scheduling application
//! work.
//!
//! # Thread model
//!
//! Following the paper's implementation (§6), every node has **two logical
//! threads**: a *network thread* that owns the RX ring and runs the protocol
//! logic, and an *application thread* that executes state-machine operations.
//! `on_packet`, `on_timer`, and `on_start` run on the network thread;
//! `on_app_done` runs on the application thread. Packet sends issued from a
//! handler charge per-fragment CPU time to the thread the handler runs on —
//! each thread has its own TX queue, as in the DPDK setup of §6 — while both
//! share the single NIC wire.

use std::any::Any;

use bytes::ByteArena;
use rand::rngs::SmallRng;

use crate::packet::{Addr, NodeId, Packet};
use crate::time::{SimDur, SimTime};

/// Identifier of an armed timer, unique per simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// Which logical thread a handler is running on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadClass {
    /// The network/protocol thread.
    Net,
    /// The application/state-machine thread.
    App,
}

/// Effects an agent requests from a handler; drained by the engine after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send {
        dst: Addr,
        size: u32,
        payload: M,
        thread: ThreadClass,
    },
    Timer {
        delay: SimDur,
        kind: u64,
        id: TimerId,
    },
    AppWork {
        cost: SimDur,
        token: u64,
    },
    Burn {
        cost: SimDur,
        thread: ThreadClass,
    },
}

/// Handler context: the node's view of the simulator.
///
/// A `Ctx` is only valid for the duration of one handler invocation.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) thread: ThreadClass,
    pub(crate) rx_backlog: u32,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) arena: &'a mut ByteArena,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[inline]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The logical thread this handler is running on.
    #[inline]
    pub fn thread(&self) -> ThreadClass {
        self.thread
    }

    /// Packets already in the node's RX ring behind the one being handled
    /// (or, from a timer or application handler, waiting in it): the ring
    /// occupancy a real driver sees after a poll. 0 means the network
    /// thread has caught up with its input — the end of an RX batch.
    #[inline]
    pub fn rx_backlog(&self) -> u32 {
        self.rx_backlog
    }

    /// The node's deterministic random-number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The world's byte-buffer arena. Message bodies, framed payloads, and
    /// service replies built through it recycle per-world chunks instead
    /// of hitting the global allocator per packet (see
    /// [`bytes::ByteArena`]).
    #[inline]
    pub fn arena(&mut self) -> &mut ByteArena {
        self.arena
    }

    /// Transmits a message of `size` bytes to `dst` (a node or a multicast
    /// group). Per-fragment CPU time is charged to the calling thread; the
    /// wire is serialized once regardless of group fan-out (the switch
    /// replicates multicast copies).
    pub fn send(&mut self, dst: Addr, size: u32, payload: M) {
        let thread = self.thread;
        self.effects.push(Effect::Send {
            dst,
            size,
            payload,
            thread,
        });
    }

    /// Like [`Ctx::send`], but charges the per-fragment TX CPU time to the
    /// given thread regardless of which thread the handler runs on. Models
    /// work the other thread picks up asynchronously — e.g. protocol
    /// messages the network thread emits after polling the application
    /// thread's applied index (§6 of the paper: the network thread owns all
    /// consensus I/O).
    pub fn send_from(&mut self, dst: Addr, size: u32, payload: M, thread: ThreadClass) {
        self.effects.push(Effect::Send {
            dst,
            size,
            payload,
            thread,
        });
    }

    /// Consumes `cost` of CPU time on `thread` without producing a packet —
    /// models protocol work proportional to data handled (e.g. copying
    /// request payloads into per-follower AppendEntries buffers, the very
    /// cost HovercRaft's metadata-only replication eliminates).
    pub fn burn(&mut self, cost: SimDur, thread: ThreadClass) {
        self.effects.push(Effect::Burn { cost, thread });
    }

    /// Arms a one-shot timer firing after `delay`; `kind` is returned to
    /// [`Agent::on_timer`] so one agent can multiplex several timer uses.
    pub fn set_timer(&mut self, delay: SimDur, kind: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::Timer { delay, kind, id });
        id
    }

    /// Schedules `cost` of work on the node's application thread. Work items
    /// run serially in submission order; when this one finishes,
    /// [`Agent::on_app_done`] is invoked with `token`.
    pub fn exec_app(&mut self, cost: SimDur, token: u64) {
        self.effects.push(Effect::AppWork { cost, token });
    }
}

/// Protocol software running on one simulated node.
///
/// All handlers are optional except [`Agent::on_packet`]; the defaults do
/// nothing. Agents must be `'static` so experiment code can downcast them
/// back out of the simulator to harvest results (see [`crate::Sim::agent`]).
pub trait Agent<M>: Any {
    /// Called once at simulation start (or at the instant the node is added,
    /// if later). Typical use: arm election or injection timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A packet addressed to this node (or to a group it belongs to) has
    /// been processed by the network thread.
    fn on_packet(&mut self, pkt: Packet<M>, ctx: &mut Ctx<'_, M>);

    /// A timer armed with [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Ctx<'_, M>) {}

    /// An application work item scheduled with [`Ctx::exec_app`] finished.
    fn on_app_done(&mut self, _token: u64, _ctx: &mut Ctx<'_, M>) {}

    /// Upcast for result extraction; implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for result extraction; implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
