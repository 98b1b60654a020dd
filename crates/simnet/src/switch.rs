//! The ToR switch: forwarding, multicast, loss, and programmable dataplane.
//!
//! All nodes hang off a single cut-through switch (the paper's testbed uses
//! one Quanta ToR plus a Tofino accelerator bolted onto it). Unicast packets
//! are forwarded to their destination port; multicast packets are replicated
//! to every group member except the sender. Before forwarding, packets pass
//! through an ordered pipeline of [`SwitchProgram`]s — this is where the
//! HovercRaft++ in-network aggregator and the flow-control middlebox plug in,
//! processing packets at line rate with zero server-CPU cost, exactly like a
//! P4 dataplane.

use crate::packet::{Addr, NodeId, Packet};
use crate::time::SimTime;

/// Packets emitted by a switch program, forwarded as if they originated at
/// the switch itself (no server CPU or wire cost at any host).
pub struct SwitchEmit<M> {
    pub(crate) packets: Vec<Packet<M>>,
}

impl<M> SwitchEmit<M> {
    /// Emits a packet from the switch. `src` should identify the logical
    /// originator (e.g. the aggregator keeps the leader's address so
    /// followers treat the message as coming from the leader).
    pub fn emit(&mut self, src: Addr, dst: Addr, size: u32, payload: M) {
        self.packets.push(Packet {
            src,
            dst,
            size,
            payload,
            sent_at: SimTime::ZERO, // stamped by the engine on emission
        });
    }
}

/// What a switch program decided about the packet it was handed.
pub enum Verdict<M> {
    /// Pass the (possibly rewritten) packet to the next pipeline stage and
    /// ultimately to normal forwarding.
    Forward(Packet<M>),
    /// The program consumed the packet; nothing is forwarded (packets added
    /// via [`SwitchEmit`] still go out).
    Consume,
}

/// A P4-style in-network program attached to the switch pipeline.
///
/// Programs run in registration order on every packet entering the switch.
/// They hold only *soft state* (the paper's correctness argument for
/// HovercRaft++ depends on this): a driver that models a device reboot or
/// replacement, e.g. after a simulated switch failure, reaches the program
/// with `Sim::switch_program_mut` and calls [`SwitchProgram::reset`].
pub trait SwitchProgram<M>: 'static {
    /// Processes one packet at line rate.
    fn process(&mut self, pkt: Packet<M>, now: SimTime, out: &mut SwitchEmit<M>) -> Verdict<M>;

    /// Flushes all soft state, as a reboot/replacement of the device would.
    fn reset(&mut self) {}

    /// Upcast for inspection in tests.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for inspection in tests.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Multicast group table: group address → member nodes.
#[derive(Default, Debug, Clone)]
pub struct GroupTable {
    groups: Vec<(Addr, Vec<NodeId>)>,
}

impl GroupTable {
    /// Registers (or replaces) a multicast group.
    pub fn set(&mut self, addr: Addr, members: Vec<NodeId>) {
        assert!(addr.is_group(), "group table entries must be group addrs");
        if let Some(slot) = self.groups.iter_mut().find(|(a, _)| *a == addr) {
            slot.1 = members;
        } else {
            self.groups.push((addr, members));
        }
    }

    /// Looks up the member list of a group.
    pub fn get(&self, addr: Addr) -> Option<&[NodeId]> {
        self.groups
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, m)| m.as_slice())
    }

    /// Resolves a destination to the list of receiving nodes, excluding
    /// `sender` from multicast fan-out (IGMP-style source suppression, which
    /// the paper's aggregator relies on when re-multicasting).
    pub fn resolve(&self, dst: Addr, sender: Option<NodeId>) -> Vec<NodeId> {
        match dst.as_node() {
            Some(n) => vec![n],
            None => self
                .get(dst)
                .map(|m| m.iter().copied().filter(|n| Some(*n) != sender).collect())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_resolves_to_single_node() {
        let t = GroupTable::default();
        assert_eq!(t.resolve(Addr::node(4), None), vec![4]);
        // A sender can unicast to itself; suppression only applies to groups.
        assert_eq!(t.resolve(Addr::node(4), Some(4)), vec![4]);
    }

    #[test]
    fn group_resolution_excludes_sender() {
        let mut t = GroupTable::default();
        t.set(Addr::group(0), vec![0, 1, 2]);
        assert_eq!(t.resolve(Addr::group(0), Some(1)), vec![0, 2]);
        assert_eq!(t.resolve(Addr::group(0), None), vec![0, 1, 2]);
    }

    #[test]
    fn unknown_group_resolves_to_nothing() {
        let t = GroupTable::default();
        assert!(t.resolve(Addr::group(9), None).is_empty());
    }

    #[test]
    fn set_replaces_members() {
        let mut t = GroupTable::default();
        t.set(Addr::group(0), vec![0, 1]);
        t.set(Addr::group(0), vec![2]);
        assert_eq!(t.get(Addr::group(0)), Some(&[2][..]));
    }

    #[test]
    #[should_panic(expected = "group table entries")]
    fn set_rejects_unicast_addr() {
        let mut t = GroupTable::default();
        t.set(Addr::node(1), vec![0]);
    }
}
