//! Property-based tests for the R2P2 codec and reassembly invariants.

use proptest::prelude::*;

use r2p2::{
    body_hash, msg_wire_size, packetize_in, Header, MsgType, Policy, Reassembler, ReqId, HEADER_LEN,
};

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    prop_oneof![
        Just(MsgType::Request),
        Just(MsgType::Response),
        Just(MsgType::Feedback),
        Just(MsgType::Nack),
        Just(MsgType::Ack),
        Just(MsgType::RaftReq),
        Just(MsgType::RaftRep),
        Just(MsgType::RecoveryReq),
        Just(MsgType::RecoveryRep),
    ]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Unrestricted),
        Just(Policy::Sticky),
        Just(Policy::Replicated),
        Just(Policy::ReplicatedRo),
    ]
}

proptest! {
    /// Every well-formed header survives an encode/decode round trip.
    #[test]
    fn header_roundtrip(
        ty in arb_msg_type(),
        policy in arb_policy(),
        flags in 0u8..4,
        rid in any::<u16>(),
        pkt_id in any::<u16>(),
        n_pkts in any::<u16>(),
        src_port in any::<u16>(),
    ) {
        let h = Header { ty, policy, flags, rid, pkt_id, n_pkts, src_port };
        prop_assert_eq!(Header::decode(&h.encode()).unwrap(), h);
    }

    /// Packetize → shuffle → reassemble reproduces the body exactly, once.
    #[test]
    fn packetize_reassemble_roundtrip(
        body in proptest::collection::vec(any::<u8>(), 0..20_000),
        mtu in (HEADER_LEN + 1)..4096usize,
        order in any::<u64>(),
        ip in any::<u32>(),
        port in any::<u16>(),
        rid in any::<u16>(),
    ) {
        let id = ReqId::new(ip, port, rid);
        let mut arena = bytes::ByteArena::new();
        let mut frags =
            packetize_in(MsgType::Request, Policy::Replicated, id, &body, mtu, &mut arena);
        // Deterministic pseudo-shuffle driven by `order`.
        let n = frags.len();
        for i in 0..n {
            let j = (order as usize).wrapping_mul(i + 1) % n;
            frags.swap(i, j);
        }
        let mut r = Reassembler::new();
        let mut delivered = Vec::new();
        for f in frags {
            if let Some(m) = r.push_in(ip, f, &mut arena).unwrap() {
                delivered.push(m);
            }
        }
        prop_assert_eq!(delivered.len(), 1);
        prop_assert_eq!(&delivered[0].body[..], &body[..]);
        prop_assert_eq!(delivered[0].id, id);
        prop_assert_eq!(r.pending(), 0);
    }

    /// Wire size is body + one header per fragment and is monotone in body
    /// length for a fixed MTU.
    #[test]
    fn wire_size_invariants(len in 0usize..50_000, mtu in 64usize..9000) {
        let s = msg_wire_size(len, mtu);
        prop_assert!(s as usize >= len + HEADER_LEN);
        prop_assert!(msg_wire_size(len + 1, mtu) >= s);
    }

    /// Hash equality implies (with overwhelming probability) body equality;
    /// we check the contrapositive on small perturbations.
    #[test]
    fn body_hash_sensitive_to_single_byte(
        mut body in proptest::collection::vec(any::<u8>(), 1..1000),
        idx in any::<prop::sample::Index>(),
    ) {
        let h0 = body_hash(&body);
        let i = idx.index(body.len());
        body[i] = body[i].wrapping_add(1);
        prop_assert_ne!(h0, body_hash(&body));
    }
}
