//! The multicast flow-control middlebox (§6.3).
//!
//! With replication separated from ordering, overload no longer self-limits
//! at the leader (dropping there was vanilla Raft's implicit flow control),
//! and uncoordinated drops of multicast copies would grind the cluster into
//! the recovery path. The paper's fix is a middlebox — run on the same
//! programmable switch — that fronts the fault-tolerance group behind a
//! virtual IP:
//!
//! * client requests to the VIP are **admitted** (destination rewritten to
//!   the group multicast address, in-flight counter incremented) while the
//!   counter is under the threshold, and **NACKed** back to the client
//!   otherwise, preventing throughput collapse;
//! * every R2P2 `FEEDBACK` from a replier decrements the counter — one is
//!   sent per completed request.
//!
//! An admitted request whose designated replier dies before sending
//! FEEDBACK would leak its in-flight slot forever — enough such losses
//! (e.g. a leader kill with queued assignments, the Figure 12 scenario)
//! would wedge admission permanently. The middlebox therefore keeps the
//! admission timestamps and **reclaims** any slot older than a timeout:
//! strictly an overestimate of in-flight work, never an underestimate, so
//! admission always recovers. Reclaims are counted in [`FcStats`] so tests
//! can detect leaks, and the conservation identity
//! `admitted − (feedback − spurious_feedback) − reclaimed == in_flight`
//! holds at all times (the invariant checker asserts it).
//!
//! Like the aggregator, this is a pure dataplane struct the testbed adapts
//! onto the simulated switch.

use std::collections::VecDeque;

use r2p2::ReqId;

use crate::msg::WireMsg;

/// What the middlebox decided about a packet addressed to the VIP.
#[derive(Clone, Debug, PartialEq)]
pub enum FcDecision {
    /// Forward the request, rewritten to the group address.
    Admit {
        /// The multicast group to deliver to.
        rewritten_dst: u32,
    },
    /// Shed the request; send a NACK back to the client.
    Nack {
        /// Client address to NACK.
        client: u32,
        /// The request being refused.
        id: ReqId,
    },
    /// A FEEDBACK was absorbed (counter decremented); nothing forwarded.
    Absorbed,
    /// Not a message the middlebox handles; forward unchanged.
    Pass,
}

/// Counters for observability and the Figure 12 experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct FcStats {
    /// Requests admitted into the group.
    pub admitted: u64,
    /// Requests NACKed.
    pub nacked: u64,
    /// Feedback messages absorbed.
    pub feedback: u64,
    /// Slots reclaimed: aged out past the reclaim timeout (replier died
    /// before feeding back) or wiped by a device [`reset`](FlowControl::reset).
    pub reclaimed: u64,
    /// Feedback absorbed while no slot was outstanding (e.g. the slot was
    /// already reclaimed, or arrived after a device reset). A nonzero value
    /// with zero `reclaimed` indicates double feedback — a protocol bug.
    pub spurious_feedback: u64,
}

/// Slot-reclaim timeout: far above any healthy request's admission →
/// feedback round trip (µs–ms under load), far below experiment durations,
/// and comfortably longer than a leader election, so slots orphaned by a
/// crash come back without masking real in-flight work.
pub const RECLAIM_NS: u64 = 10_000_000;

/// The flow-control middlebox program.
pub struct FlowControl {
    group: u32,
    cap: u32,
    in_flight: u32,
    /// Admission timestamps of outstanding slots, oldest first. Feedback
    /// and reclaim both retire the oldest slot — the middlebox does not
    /// match feedback to a specific request, it only counts population.
    admitted_at: VecDeque<u64>,
    stats: FcStats,
}

impl FlowControl {
    /// Creates a middlebox admitting at most `cap` in-flight requests and
    /// rewriting admitted requests to multicast address `group`; slots
    /// older than [`RECLAIM_NS`] are reclaimed.
    pub fn new(group: u32, cap: u32) -> FlowControl {
        FlowControl {
            group,
            cap,
            in_flight: 0,
            admitted_at: VecDeque::new(),
            stats: FcStats::default(),
        }
    }

    /// Requests currently admitted but not yet fed back or reclaimed.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Activity counters.
    pub fn stats(&self) -> FcStats {
        self.stats
    }

    /// Resets the in-flight gauge (device replacement). Wiped slots count
    /// as reclaimed so the conservation identity survives the reset.
    pub fn reset(&mut self) {
        self.stats.reclaimed += self.in_flight as u64;
        self.in_flight = 0;
        self.admitted_at.clear();
    }

    /// Retires slots whose admission is older than the reclaim timeout.
    fn reclaim(&mut self, now: u64) {
        while let Some(&t) = self.admitted_at.front() {
            if now.saturating_sub(t) < RECLAIM_NS {
                break;
            }
            self.admitted_at.pop_front();
            self.in_flight = self.in_flight.saturating_sub(1);
            self.stats.reclaimed += 1;
        }
    }

    /// Processes one packet addressed to the VIP at virtual time `now`.
    pub fn on_packet(&mut self, msg: &WireMsg, now: u64) -> FcDecision {
        self.reclaim(now);
        match msg {
            WireMsg::Request { id, .. } => {
                if self.in_flight >= self.cap {
                    self.stats.nacked += 1;
                    FcDecision::Nack {
                        client: id.src_ip,
                        id: *id,
                    }
                } else {
                    self.in_flight += 1;
                    self.admitted_at.push_back(now);
                    self.stats.admitted += 1;
                    FcDecision::Admit {
                        rewritten_dst: self.group,
                    }
                }
            }
            WireMsg::Feedback => {
                if self.in_flight > 0 {
                    self.in_flight -= 1;
                    self.admitted_at.pop_front();
                } else {
                    self.stats.spurious_feedback += 1;
                }
                self.stats.feedback += 1;
                FcDecision::Absorbed
            }
            _ => FcDecision::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::OpKind;
    use bytes::Bytes;

    fn req(n: u16) -> WireMsg {
        WireMsg::Request {
            id: ReqId::new(77, 1, n),
            kind: OpKind::ReadWrite,
            body: Bytes::from_static(b"x"),
        }
    }

    fn conserved(fc: &FlowControl) -> bool {
        let s = fc.stats();
        s.admitted - (s.feedback - s.spurious_feedback) - s.reclaimed == fc.in_flight() as u64
    }

    #[test]
    fn admits_until_cap_then_nacks() {
        let mut fc = FlowControl::new(0x8000_0000, 2);
        assert!(matches!(fc.on_packet(&req(1), 0), FcDecision::Admit { .. }));
        assert!(matches!(fc.on_packet(&req(2), 0), FcDecision::Admit { .. }));
        match fc.on_packet(&req(3), 0) {
            FcDecision::Nack { client, id } => {
                assert_eq!(client, 77);
                assert_eq!(id.rid, 3);
            }
            other => panic!("expected NACK, got {other:?}"),
        }
        assert_eq!(fc.in_flight(), 2);
        assert_eq!(fc.stats().nacked, 1);
        assert!(conserved(&fc));
    }

    #[test]
    fn feedback_reopens_admission() {
        let mut fc = FlowControl::new(0x8000_0000, 1);
        assert!(matches!(fc.on_packet(&req(1), 0), FcDecision::Admit { .. }));
        assert!(matches!(fc.on_packet(&req(2), 0), FcDecision::Nack { .. }));
        assert_eq!(fc.on_packet(&WireMsg::Feedback, 0), FcDecision::Absorbed);
        assert!(matches!(fc.on_packet(&req(3), 0), FcDecision::Admit { .. }));
        assert!(conserved(&fc));
    }

    #[test]
    fn rewrites_to_group_address() {
        let mut fc = FlowControl::new(0x8000_0007, 8);
        match fc.on_packet(&req(1), 0) {
            FcDecision::Admit { rewritten_dst } => assert_eq!(rewritten_dst, 0x8000_0007),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn underflow_is_counted_as_spurious() {
        let mut fc = FlowControl::new(0, 1);
        assert_eq!(fc.on_packet(&WireMsg::Feedback, 0), FcDecision::Absorbed);
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.stats().spurious_feedback, 1);
        assert!(conserved(&fc));
    }

    #[test]
    fn other_traffic_passes() {
        let mut fc = FlowControl::new(0, 1);
        let m = WireMsg::VoteProbe { term: 1 };
        assert_eq!(fc.on_packet(&m, 0), FcDecision::Pass);
    }

    #[test]
    fn dead_replier_slot_is_reclaimed_and_admission_resumes() {
        // Fill the window, never feed back (the replier "died"), and check
        // that admission wedges until the reclaim timeout passes.
        let mut fc = FlowControl::new(0x8000_0000, 2);
        assert!(matches!(fc.on_packet(&req(1), 0), FcDecision::Admit { .. }));
        assert!(matches!(
            fc.on_packet(&req(2), 10),
            FcDecision::Admit { .. }
        ));
        assert!(matches!(
            fc.on_packet(&req(3), 500),
            FcDecision::Nack { .. }
        ));
        // First slot (t=0) ages out at t=RECLAIM_NS; second (t=10) ten
        // nanoseconds later.
        assert!(matches!(
            fc.on_packet(&req(4), RECLAIM_NS + 5),
            FcDecision::Admit { .. }
        ));
        assert_eq!(fc.stats().reclaimed, 1);
        assert!(matches!(
            fc.on_packet(&req(5), RECLAIM_NS + 10),
            FcDecision::Admit { .. }
        ));
        assert_eq!(fc.stats().reclaimed, 2);
        assert_eq!(fc.in_flight(), 2);
        assert!(conserved(&fc));
    }

    #[test]
    fn late_feedback_after_reclaim_keeps_counts_conserved() {
        let mut fc = FlowControl::new(0, 4);
        fc.on_packet(&req(1), 0);
        // The slot ages out...
        assert!(matches!(
            fc.on_packet(&req(2), RECLAIM_NS + 100),
            FcDecision::Admit { .. }
        ));
        assert_eq!(fc.stats().reclaimed, 1);
        // ...then its feedback limps in; the young slot must survive.
        fc.on_packet(&WireMsg::Feedback, RECLAIM_NS + 110);
        assert_eq!(fc.in_flight(), 0);
        // Population counting: the late feedback retired the young slot in
        // its place, which is fine — counts stay conserved.
        assert!(conserved(&fc));
    }

    #[test]
    fn reset_preserves_conservation() {
        let mut fc = FlowControl::new(0, 8);
        fc.on_packet(&req(1), 0);
        fc.on_packet(&req(2), 0);
        fc.reset();
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.stats().reclaimed, 2);
        assert!(conserved(&fc));
    }
}
