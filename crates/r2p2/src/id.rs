//! Request identity: the R2P2 3-tuple.
//!
//! R2P2 uniquely identifies an RPC by `(req_id, src_port, src_ip)` (§3.2).
//! HovercRaft's separation of replication from ordering hangs off this:
//! the leader's `append_entries` carries only these identifiers (plus a
//! body hash to rule out collisions) and followers use them to look up the
//! payload in their unordered set.

/// The unique identity of one RPC: R2P2's `(req_id, src_port, src_ip)`.
///
/// Clients are responsible for uniqueness (§5); the namespace — 16-bit rid
/// per (ip, port) pair with ports cycling — is large enough in practice, and
/// the leader additionally propagates a body hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ReqId {
    /// Client node address (stands in for the source IP).
    pub src_ip: u32,
    /// Client-chosen source port.
    pub src_port: u16,
    /// Per-(ip, port) request counter.
    pub rid: u16,
}

impl ReqId {
    /// Builds a request id.
    pub fn new(src_ip: u32, src_port: u16, rid: u16) -> ReqId {
        ReqId {
            src_ip,
            src_port,
            rid,
        }
    }

    /// Packs the 3-tuple into a single u64 (useful as a map key or token).
    pub fn as_u64(self) -> u64 {
        ((self.src_ip as u64) << 32) | ((self.src_port as u64) << 16) | self.rid as u64
    }

    /// Unpacks a value produced by [`ReqId::as_u64`].
    pub fn from_u64(v: u64) -> ReqId {
        ReqId {
            src_ip: (v >> 32) as u32,
            src_port: (v >> 16) as u16,
            rid: v as u16,
        }
    }
}

/// Allocates unique request ids for one client endpoint, cycling the rid
/// counter and stepping the port when it wraps so ids stay unique far beyond
/// 2^16 outstanding requests.
#[derive(Debug, Clone)]
pub struct ReqIdAlloc {
    src_ip: u32,
    port: u16,
    rid: u16,
}

impl ReqIdAlloc {
    /// Creates an allocator for a client with address `src_ip`, starting at
    /// `base_port`.
    pub fn new(src_ip: u32, base_port: u16) -> ReqIdAlloc {
        ReqIdAlloc {
            src_ip,
            port: base_port,
            rid: 0,
        }
    }

    /// Returns the next unique id.
    pub fn allocate(&mut self) -> ReqId {
        let id = ReqId::new(self.src_ip, self.port, self.rid);
        let (rid, wrapped) = self.rid.overflowing_add(1);
        self.rid = rid;
        if wrapped {
            self.port = self.port.wrapping_add(1);
        }
        id
    }
}

/// Hash of a request body; carried next to the [`ReqId`] in HovercRaft
/// metadata to rule out identifier collisions (§5: "the leader can also
/// include a hash of the request body").
///
/// This is [`fxhash::hash_bytes`]: one multiply per 8 body bytes, the length
/// folded in, so the cost of ordering a request grows with its size eight
/// times slower than a byte-serial hash would. Only the node that builds an
/// `EntryDesc` (the leader) calls it. The values differ from the FNV-1a ones
/// this function returned before PR 13; nothing pinned them (the trace
/// digest covers `(seq, at, node, kind, key)`, `tests/mc_digest.txt` pins
/// state counts).
#[inline]
pub fn body_hash(body: &[u8]) -> u64 {
    fxhash::hash_bytes(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn u64_roundtrip() {
        let id = ReqId::new(0xdead_beef, 9999, 12345);
        assert_eq!(ReqId::from_u64(id.as_u64()), id);
    }

    #[test]
    fn allocator_produces_unique_ids_past_u16_wrap() {
        let mut alloc = ReqIdAlloc::new(7, 1000);
        let mut seen = HashSet::new();
        for _ in 0..70_000 {
            assert!(seen.insert(alloc.allocate()), "duplicate id");
        }
    }

    #[test]
    fn allocators_on_different_ips_never_collide() {
        let mut a = ReqIdAlloc::new(1, 1000);
        let mut b = ReqIdAlloc::new(2, 1000);
        for _ in 0..100 {
            assert_ne!(a.allocate(), b.allocate());
        }
    }

    #[test]
    fn body_hash_discriminates() {
        assert_ne!(body_hash(b"hello"), body_hash(b"hellp"));
        assert_eq!(body_hash(b""), body_hash(b""));
        assert_ne!(body_hash(b"a"), body_hash(b"aa"));
    }

    /// Synthetic bodies are mostly zero bytes, and a word-wide
    /// rotate-xor-multiply fold started at zero would map all of these to
    /// zero: length and tail must count.
    #[test]
    fn body_hash_tells_zero_filled_and_padded_bodies_apart() {
        let bodies: [&[u8]; 8] = [
            b"", b"\0", b"a", b"a\0", &[0; 8], &[0; 16], &[0; 512], &[0; 513],
        ];
        let hashes: HashSet<u64> = bodies.iter().map(|b| body_hash(b)).collect();
        assert_eq!(hashes.len(), bodies.len(), "collision among {bodies:?}");
        assert!(!hashes.contains(&0), "a zero hash reads as 'no hash'");
    }

    /// Every byte of the body reaches the hash: whole words, the tail and
    /// the last byte of either.
    #[test]
    fn body_hash_sees_every_offset() {
        for len in 1..=33usize {
            let body = vec![0u8; len];
            let h0 = body_hash(&body);
            for i in 0..len {
                let mut b = body.clone();
                b[i] = 1;
                assert_ne!(body_hash(&b), h0, "len {len}, offset {i}");
            }
        }
    }

    /// A 7-byte tail is padded into a word whose last byte is the tail
    /// length; an 8-byte body ending in that byte must not imitate it.
    #[test]
    fn body_hash_tail_padding_is_unambiguous() {
        for n in 1..8u8 {
            let short = vec![b'x'; n as usize];
            let mut padded = short.clone();
            padded.resize(7, 0);
            padded.push(n);
            assert_ne!(body_hash(&short), body_hash(&padded), "tail of {n}");
        }
    }
}
