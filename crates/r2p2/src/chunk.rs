//! Message packetization and reassembly (REQ0/REQN).
//!
//! R2P2 splits a message larger than one MTU into a first packet (REQ0) that
//! carries the header plus the leading payload bytes, followed by REQN
//! packets. The receiver reassembles by `(3-tuple, pkt_id)` and releases the
//! message when all `n_pkts` fragments are present. Fragments may arrive in
//! any order; duplicates are ignored.

use fxhash::FxHashMap;

use bytes::{ByteArena, Bytes};

use crate::header::{Header, FLAG_FIRST, FLAG_LAST, HEADER_LEN};
use crate::id::ReqId;
use crate::{MsgType, Policy, R2p2Error, Result};

/// One wire packet: header plus its payload slice.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    /// Decoded packet header.
    pub header: Header,
    /// This fragment's payload bytes.
    pub payload: Bytes,
}

/// Splits `body` into fragments of at most `mtu` bytes of wire size each
/// (header included). Always produces at least one fragment, even for an
/// empty body. Every fragment payload is drawn from `arena` — a sender
/// framing messages on a hot path reuses one arena so per-fragment copies
/// recycle pooled chunks instead of hitting the allocator.
///
/// # Panics
/// Panics if `mtu` is not strictly larger than the header, or if the body
/// needs more than `u16::MAX` fragments.
pub fn packetize_in(
    ty: MsgType,
    policy: Policy,
    id: ReqId,
    body: &[u8],
    mtu: usize,
    arena: &mut ByteArena,
) -> Vec<Fragment> {
    assert!(mtu > HEADER_LEN, "mtu must exceed the header size");
    let room = mtu - HEADER_LEN;
    let n_pkts = body.len().div_ceil(room).max(1);
    assert!(n_pkts <= u16::MAX as usize, "message too large");
    let mut out = Vec::with_capacity(n_pkts);
    for i in 0..n_pkts {
        let lo = i * room;
        let hi = ((i + 1) * room).min(body.len());
        let mut flags = 0;
        if i == 0 {
            flags |= FLAG_FIRST;
        }
        if i == n_pkts - 1 {
            flags |= FLAG_LAST;
        }
        out.push(Fragment {
            header: Header {
                ty,
                policy,
                flags,
                rid: id.rid,
                pkt_id: i as u16,
                n_pkts: n_pkts as u16,
                src_port: id.src_port,
            },
            payload: arena.alloc(&body[lo..hi]),
        });
    }
    out
}

/// A message reassembled from its fragments.
#[derive(Clone, Debug, PartialEq)]
pub struct Reassembled {
    /// Message type (from the first fragment).
    pub ty: MsgType,
    /// Policy (from the first fragment).
    pub policy: Policy,
    /// The identifying 3-tuple.
    pub id: ReqId,
    /// The complete message body.
    pub body: Bytes,
}

struct Partial {
    ty: MsgType,
    policy: Policy,
    n_pkts: u16,
    have: u16,
    parts: Vec<Option<Bytes>>,
}

/// Reassembles multi-packet messages keyed by the R2P2 3-tuple.
#[derive(Default)]
pub struct Reassembler {
    partial: FxHashMap<ReqId, Partial>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages currently awaiting more fragments.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Feeds one fragment; `src_ip` completes the 3-tuple. Returns the full
    /// message once its last missing fragment arrives, its body assembled
    /// from `arena`. Single-fragment messages pass their payload through
    /// zero-copy; only multi-packet completions draw an arena buffer.
    pub fn push_in(
        &mut self,
        src_ip: u32,
        frag: Fragment,
        arena: &mut ByteArena,
    ) -> Result<Option<Reassembled>> {
        let h = frag.header;
        let id = ReqId::new(src_ip, h.src_port, h.rid);
        if h.n_pkts == 0 || h.pkt_id >= h.n_pkts {
            return Err(R2p2Error::BadFragment {
                pkt_id: h.pkt_id,
                n_pkts: h.n_pkts,
            });
        }
        // Fast path: single-packet message with no partial state.
        if h.n_pkts == 1 && !self.partial.contains_key(&id) {
            return Ok(Some(Reassembled {
                ty: h.ty,
                policy: h.policy,
                id,
                body: frag.payload,
            }));
        }
        let p = self.partial.entry(id).or_insert_with(|| Partial {
            ty: h.ty,
            policy: h.policy,
            n_pkts: h.n_pkts,
            have: 0,
            parts: vec![None; h.n_pkts as usize],
        });
        if h.n_pkts != p.n_pkts {
            return Err(R2p2Error::BadFragment {
                pkt_id: h.pkt_id,
                n_pkts: h.n_pkts,
            });
        }
        let slot = &mut p.parts[h.pkt_id as usize];
        if slot.is_none() {
            *slot = Some(frag.payload);
            p.have += 1;
        }
        if p.have < p.n_pkts {
            return Ok(None);
        }
        let p = self.partial.remove(&id).expect("just inserted");
        let total: usize = p
            .parts
            .iter()
            .map(|x| x.as_ref().expect("all parts present").len())
            .sum();
        let body = arena.alloc_with(total, |buf| {
            let mut off = 0;
            for part in &p.parts {
                let part = part.as_ref().expect("all parts present");
                buf[off..off + part.len()].copy_from_slice(part);
                off += part.len();
            }
        });
        Ok(Some(Reassembled {
            ty: p.ty,
            policy: p.policy,
            id,
            body,
        }))
    }

    /// Drops partial state for `id` (e.g. on timeout).
    pub fn evict(&mut self, id: ReqId) {
        self.partial.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> ReqId {
        ReqId::new(3, 777, 21)
    }

    #[test]
    fn small_message_is_single_fragment() {
        let frags = packetize_in(
            MsgType::Request,
            Policy::Replicated,
            id(),
            b"abc",
            1500,
            &mut ByteArena::new(),
        );
        assert_eq!(frags.len(), 1);
        assert!(frags[0].header.is_first() && frags[0].header.is_last());
        assert_eq!(frags[0].header.n_pkts, 1);
    }

    #[test]
    fn empty_body_still_sends_one_packet() {
        let frags = packetize_in(
            MsgType::Request,
            Policy::Unrestricted,
            id(),
            b"",
            1500,
            &mut ByteArena::new(),
        );
        assert_eq!(frags.len(), 1);
        assert!(frags[0].payload.is_empty());
    }

    #[test]
    fn large_message_fragments_and_reassembles_in_order() {
        let body: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let frags = packetize_in(
            MsgType::Response,
            Policy::Unrestricted,
            id(),
            &body,
            1500,
            &mut ByteArena::new(),
        );
        assert_eq!(frags.len(), 4); // ceil(5000 / 1484)
        assert!(frags[0].header.is_first());
        assert!(frags.last().unwrap().header.is_last());
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            done = r.push_in(3, f, &mut ByteArena::new()).unwrap();
        }
        let m = done.expect("complete");
        assert_eq!(&m.body[..], &body[..]);
        assert_eq!(m.id, id());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_and_duplicate_fragments() {
        let body: Vec<u8> = (0..4000u32).map(|i| (i * 7) as u8).collect();
        let mut frags = packetize_in(
            MsgType::Request,
            Policy::Replicated,
            id(),
            &body,
            1500,
            &mut ByteArena::new(),
        );
        frags.reverse();
        let dup = frags[1].clone();
        frags.insert(1, dup);
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            if let Some(m) = r.push_in(3, f, &mut ByteArena::new()).unwrap() {
                assert!(done.is_none(), "delivered twice");
                done = Some(m);
            }
        }
        assert_eq!(&done.expect("complete").body[..], &body[..]);
    }

    #[test]
    fn interleaved_messages_from_different_clients() {
        let body_a: Vec<u8> = vec![0xaa; 3000];
        let body_b: Vec<u8> = vec![0xbb; 3000];
        let fa = packetize_in(
            MsgType::Request,
            Policy::Replicated,
            id(),
            &body_a,
            1500,
            &mut ByteArena::new(),
        );
        let fb = packetize_in(
            MsgType::Request,
            Policy::Replicated,
            id(),
            &body_b,
            1500,
            &mut ByteArena::new(),
        );
        let mut r = Reassembler::new();
        let mut done = Vec::new();
        // Same (port, rid) but different src ips — must not mix.
        for (ip, f) in fa
            .into_iter()
            .map(|f| (1, f))
            .chain(fb.into_iter().map(|f| (2, f)))
        {
            if let Some(m) = r.push_in(ip, f, &mut ByteArena::new()).unwrap() {
                done.push(m);
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|m| m.id.src_ip == 1 && m.body[0] == 0xaa));
        assert!(done.iter().any(|m| m.id.src_ip == 2 && m.body[0] == 0xbb));
    }

    #[test]
    fn rejects_inconsistent_fragment() {
        let mut r = Reassembler::new();
        let h = Header {
            ty: MsgType::Request,
            policy: Policy::Unrestricted,
            flags: FLAG_FIRST,
            rid: 1,
            pkt_id: 5,
            n_pkts: 3,
            src_port: 1,
        };
        let frag = Fragment {
            header: h,
            payload: Bytes::new(),
        };
        let err = r.push_in(1, frag, &mut ByteArena::new()).unwrap_err();
        assert!(matches!(err, R2p2Error::BadFragment { .. }));
    }

    #[test]
    fn pooled_framing_matches_fresh_framing() {
        // Recycled arena chunks must be indistinguishable from fresh
        // allocations: frame and reassemble the same message repeatedly
        // through one arena and compare against a fresh arena's
        // output every round.
        let mut arena = ByteArena::new();
        let body: Vec<u8> = (0..5000u32).map(|i| (i * 13) as u8).collect();
        for round in 0..20 {
            let fresh = packetize_in(
                MsgType::Response,
                Policy::Unrestricted,
                id(),
                &body,
                1500,
                &mut ByteArena::new(),
            );
            let pooled = packetize_in(
                MsgType::Response,
                Policy::Unrestricted,
                id(),
                &body,
                1500,
                &mut arena,
            );
            assert_eq!(fresh, pooled, "round {round}");
            let mut r = Reassembler::new();
            let mut done = None;
            for f in pooled {
                done = r.push_in(3, f, &mut arena).unwrap();
            }
            assert_eq!(
                &done.expect("complete").body[..],
                &body[..],
                "round {round}"
            );
        }
        assert!(arena.hits() > 0, "recycling never engaged");
    }

    #[test]
    fn evict_discards_partial_state() {
        let body = vec![1u8; 3000];
        let frags = packetize_in(
            MsgType::Request,
            Policy::Replicated,
            id(),
            &body,
            1500,
            &mut ByteArena::new(),
        );
        let mut r = Reassembler::new();
        assert!(r
            .push_in(3, frags[0].clone(), &mut ByteArena::new())
            .unwrap()
            .is_none());
        assert_eq!(r.pending(), 1);
        r.evict(id());
        assert_eq!(r.pending(), 0);
    }
}
