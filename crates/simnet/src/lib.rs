//! # simnet — a deterministic discrete-event datacenter fabric simulator
//!
//! This crate is the hardware substrate of the HovercRaft reproduction: it
//! stands in for the paper's physical testbed (DPDK kernel-bypass servers
//! with 10 GbE NICs behind a cut-through ToR switch, plus a Tofino P4
//! accelerator). Protocol code is written as [`Agent`]s — pure event
//! handlers — and the engine charges every packet its CPU, wire, and
//! propagation costs, so the leader I/O and CPU bottlenecks the paper
//! analyzes (§2.1.2) emerge from the model rather than being scripted.
//!
//! Key properties:
//!
//! * **Deterministic** — a run is a pure function of (topology, parameters,
//!   seed). All randomness flows from per-node `SmallRng`s.
//! * **Two-thread CPU model** — each node has a network thread and an
//!   application thread, like the paper's DPDK implementation (§6).
//! * **Real multicast** — one TX serialization at the sender, replication in
//!   the switch, independent per-copy loss; exactly the property HovercRaft
//!   exploits to separate replication from ordering.
//! * **Programmable dataplane** — [`SwitchProgram`]s process packets at line
//!   rate with zero server cost, hosting the HovercRaft++ aggregator and the
//!   flow-control middlebox.
//!
//! ## Example
//!
//! ```
//! use simnet::{Agent, Ctx, FabricParams, Packet, Sim, SimDur, SimTime, Addr};
//!
//! // An echo server and a client that measures one round trip.
//! struct Echo;
//! impl Agent<u32> for Echo {
//!     fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Ctx<'_, u32>) {
//!         ctx.send(pkt.src, pkt.size, pkt.payload + 1);
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! struct Client { rtt: Option<SimDur>, server: Addr }
//! impl Agent<u32> for Client {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         ctx.send(self.server, 64, 7);
//!     }
//!     fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Ctx<'_, u32>) {
//!         assert_eq!(pkt.payload, 8);
//!         self.rtt = Some(ctx.now() - SimTime::ZERO);
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Sim::new(FabricParams::default(), 1);
//! let server = sim.add_node(Box::new(Echo));
//! let client = sim.add_node(Box::new(Client { rtt: None, server: Addr::node(server) }));
//! sim.run_for(SimDur::millis(1));
//! let rtt = sim.agent::<Client>(client).rtt.expect("reply received");
//! assert!(rtt < SimDur::micros(10)); // µs-scale fabric, §2.3
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod agent;
mod counters;
mod engine;
mod fault;
mod packet;
mod params;
mod profile;
mod switch;
mod time;
mod trace;
mod wheel;

pub use agent::{Agent, Ctx, ThreadClass, TimerId};
pub use counters::Counters;
pub use engine::{DropFilter, RestartHook, Sim};
pub use fault::{FaultCmd, FaultPlan, FaultPlanConfig, LinkFault};
pub use packet::{Addr, NodeId, Packet};
pub use params::{FabricParams, NicParams};
pub use profile::{CountingAlloc, ProfileSnapshot};
pub use switch::{GroupTable, SwitchEmit, SwitchProgram, Verdict};
pub use time::{SimDur, SimTime};
pub use trace::{DetailFn, TraceEvent, Tracer, DEFAULT_TRACE_CAP};
pub use wheel::TimerWheel;
