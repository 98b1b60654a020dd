//! The synthetic microbenchmark service (§7: "synthetic microbenchmarks
//! depend on a synthetic service with configurable CPU service execution
//! time, request, and reply sizes").
//!
//! The per-request service time and reply size are sampled *client-side*
//! and encoded into the request body, so every replica that executes the
//! same request spins for the same duration and produces the same reply —
//! the SMR determinism contract, kept even for a synthetic workload.
//!
//! Body layout (little-endian): `[cost_ns u64][reply_size u32][padding]`,
//! padded to the configured request size.

use bytes::{ByteArena, Bytes};
use hovercraft::{Executed, Service};
use rand::rngs::SmallRng;

use crate::dist::ServiceDist;

/// Minimum body size that still carries its parameters.
pub const SYNTH_MIN_BODY: usize = 12;

/// Builds a synthetic request body of exactly `req_size` bytes (clamped up
/// to the 12-byte parameter header) encoding the service time and reply
/// size.
pub fn encode_request(cost_ns: u64, reply_size: u32, req_size: usize) -> Bytes {
    let mut arena = ByteArena::new();
    encode_request_in(cost_ns, reply_size, req_size, &mut arena)
}

/// [`encode_request`], but building the body in a pooled buffer from
/// `arena` — the form the open-loop client uses so per-request bodies
/// recycle instead of hitting the global allocator.
pub fn encode_request_in(
    cost_ns: u64,
    reply_size: u32,
    req_size: usize,
    arena: &mut ByteArena,
) -> Bytes {
    let len = req_size.max(SYNTH_MIN_BODY);
    arena.alloc_with(len, |b| {
        b[..8].copy_from_slice(&cost_ns.to_le_bytes());
        b[8..12].copy_from_slice(&reply_size.to_le_bytes());
    })
}

/// Decodes the parameters from a synthetic request body.
pub fn decode_request(body: &[u8]) -> Option<(u64, u32)> {
    if body.len() < SYNTH_MIN_BODY {
        return None;
    }
    let cost = u64::from_le_bytes(body[..8].try_into().ok()?);
    let reply = u32::from_le_bytes(body[8..12].try_into().ok()?);
    Some((cost, reply))
}

/// A generator for synthetic requests with the experiment's parameters.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Service-time distribution.
    pub dist: ServiceDist,
    /// Request body size, bytes (the paper's 24 B default and the 64/512 B
    /// points of Figure 8).
    pub req_size: usize,
    /// Reply body size, bytes (8 B default; 6 kB in Figure 10).
    pub reply_size: u32,
    /// Fraction of requests that are read-only (0.75 in Figure 11).
    pub ro_fraction: f64,
}

impl SynthSpec {
    /// The §7.1 baseline: S = 1µs, 24-byte requests, 8-byte replies, no
    /// read-only operations.
    pub fn baseline() -> SynthSpec {
        SynthSpec {
            dist: ServiceDist::Fixed { ns: 1_000 },
            req_size: 24,
            reply_size: 8,
            ro_fraction: 0.0,
        }
    }

    /// Draws one request: `(body, read_only)`.
    pub fn sample(&self, rng: &mut SmallRng) -> (Bytes, bool) {
        let mut arena = ByteArena::new();
        self.sample_in(rng, &mut arena)
    }

    /// [`SynthSpec::sample`] with the body built from a pooled buffer.
    pub fn sample_in(&self, rng: &mut SmallRng, arena: &mut ByteArena) -> (Bytes, bool) {
        use rand::Rng;
        let cost = self.dist.sample(rng);
        let ro = self.ro_fraction > 0.0 && rng.gen::<f64>() < self.ro_fraction;
        (
            encode_request_in(cost, self.reply_size, self.req_size, arena),
            ro,
        )
    }
}

/// The synthetic service: spins for the encoded time, returns the encoded
/// number of bytes.
#[derive(Debug, Default)]
pub struct SynthService {
    /// Operations executed.
    pub ops: u64,
    /// Mutating operations executed (used by replication tests).
    pub writes: u64,
    /// Digest folded over the bodies of mutating operations, in apply
    /// order ([`fxhash::fold_bytes`], chained; 0 until the first write).
    /// Replicas with the same mutation prefix agree on it exactly, so
    /// recovery tests can compare a restored/transferred node bit-exactly
    /// against a replaying reference.
    pub state_hash: u64,
}

impl Service for SynthService {
    fn execute(&mut self, body: &[u8], read_only: bool, arena: &mut ByteArena) -> Executed {
        self.ops += 1;
        if !read_only {
            self.writes += 1;
            // A zero start needs no basis here: the fold ends with the
            // body length, so even an all-zero first body moves the state.
            self.state_hash = fxhash::fold_bytes(self.state_hash, body);
        }
        let (cost_ns, reply_size) = decode_request(body).unwrap_or((1_000, 8));
        Executed {
            reply: arena.alloc_zeroed(reply_size as usize),
            cost_ns,
        }
    }

    /// Snapshot = `(writes, state_hash)`, little-endian. `ops` is
    /// deliberately excluded: it counts read-only executions too, which
    /// diverge per node under replier-only read execution (§3.5), so it is
    /// not replicated state.
    fn snapshot(&self) -> Bytes {
        let mut b = Vec::with_capacity(16);
        b.extend_from_slice(&self.writes.to_le_bytes());
        b.extend_from_slice(&self.state_hash.to_le_bytes());
        Bytes::from(b)
    }

    fn restore(&mut self, snap: &[u8]) {
        if snap.len() == 16 {
            self.writes = u64::from_le_bytes(snap[..8].try_into().expect("8 bytes"));
            self.state_hash = u64::from_le_bytes(snap[8..16].try_into().expect("8 bytes"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn request_roundtrip() {
        let b = encode_request(10_000, 6_000, 24);
        assert_eq!(b.len(), 24);
        assert_eq!(decode_request(&b), Some((10_000, 6_000)));
    }

    #[test]
    fn tiny_request_size_is_clamped() {
        let b = encode_request(5, 8, 1);
        assert_eq!(b.len(), SYNTH_MIN_BODY);
        assert_eq!(decode_request(&b), Some((5, 8)));
    }

    #[test]
    fn pooled_and_fresh_requests_are_byte_identical() {
        let mut arena = ByteArena::new();
        // Drop each pooled body so the next one recycles its chunk; a
        // recycled buffer must still produce the exact same bytes.
        for i in 0..100u64 {
            let fresh = encode_request(i, 8, 24);
            let pooled = encode_request_in(i, 8, 24, &mut arena);
            assert_eq!(fresh, pooled);
        }
        assert!(arena.hits() > 90, "bodies recycled: {} hits", arena.hits());
    }

    #[test]
    fn service_obeys_encoded_parameters() {
        let mut arena = ByteArena::new();
        let mut s = SynthService::default();
        let r = s.execute(&encode_request(7_500, 100, 64), false, &mut arena);
        assert_eq!(r.cost_ns, 7_500);
        assert_eq!(r.reply.len(), 100);
        assert_eq!(s.ops, 1);
        assert_eq!(s.writes, 1);
        s.execute(&encode_request(1, 8, 24), true, &mut arena);
        assert_eq!(s.writes, 1, "read-only not counted as write");
    }

    #[test]
    fn snapshot_carries_writes_and_hash_but_not_ops() {
        let mut arena = ByteArena::new();
        let mut a = SynthService::default();
        a.execute(&encode_request(1, 8, 24), false, &mut arena);
        a.execute(&encode_request(2, 8, 24), false, &mut arena);
        a.execute(&encode_request(3, 8, 24), true, &mut arena); // RO: no state change
        let mut b = SynthService::default();
        b.restore(&a.snapshot());
        assert_eq!(b.writes, 2);
        assert_eq!(b.state_hash, a.state_hash);
        assert_eq!(b.ops, 0, "ops is per-node, not replicated state");
        // Divergent mutation order ⇒ different hash (order-sensitive fold).
        let mut c = SynthService::default();
        c.execute(&encode_request(2, 8, 24), false, &mut arena);
        c.execute(&encode_request(1, 8, 24), false, &mut arena);
        assert_ne!(c.state_hash, a.state_hash);
    }

    /// The state fold is the replicated state of the synthetic service:
    /// same writes in the same order give the same digest whatever reads
    /// each replica ran in between, and a restored replica continues the
    /// fold exactly where the snapshot left it.
    #[test]
    fn state_fold_agrees_across_replicas_and_survives_restore() {
        let mut arena = ByteArena::new();
        // Sizes on both sides of a word boundary, mostly zero bytes.
        let writes: Vec<Bytes> = [24, 512, 513, 12]
            .iter()
            .zip(1u64..)
            .map(|(&size, cost)| encode_request(cost, 8, size))
            .collect();
        let read = encode_request(99, 8, 512);

        let mut a = SynthService::default();
        let mut b = SynthService::default();
        assert_eq!(a.state_hash, 0);
        b.execute(&read, true, &mut arena);
        assert_eq!(b.state_hash, 0, "a read-only execution folds nothing");
        let mut seen = vec![0];
        for w in &writes[..2] {
            a.execute(w, false, &mut arena);
            b.execute(w, false, &mut arena);
            b.execute(&read, true, &mut arena);
            assert_eq!(a.state_hash, b.state_hash);
            assert!(!seen.contains(&a.state_hash), "every write moves the fold");
            seen.push(a.state_hash);
        }

        let mut restored = SynthService::default();
        restored.restore(&a.snapshot());
        for w in &writes[2..] {
            a.execute(w, false, &mut arena);
            restored.execute(w, false, &mut arena);
        }
        assert_eq!(restored.state_hash, a.state_hash);
        assert_eq!(restored.snapshot(), a.snapshot());

        // Two zero-padded bodies that differ only in length are different
        // writes.
        let mut c = SynthService::default();
        let mut d = SynthService::default();
        c.execute(&encode_request(1, 8, 512), false, &mut arena);
        d.execute(&encode_request(1, 8, 520), false, &mut arena);
        assert_ne!(c.state_hash, d.state_hash);
    }

    #[test]
    fn spec_samples_ro_fraction() {
        let spec = SynthSpec {
            dist: ServiceDist::Fixed { ns: 1_000 },
            req_size: 24,
            reply_size: 8,
            ro_fraction: 0.75,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let ro = (0..10_000).filter(|_| spec.sample(&mut rng).1).count();
        assert!((7_200..7_800).contains(&ro), "{ro} read-only of 10k");
    }

    #[test]
    fn baseline_matches_paper_parameters() {
        let b = SynthSpec::baseline();
        assert_eq!(b.req_size, 24);
        assert_eq!(b.reply_size, 8);
        assert_eq!(b.dist.mean_ns(), 1_000);
        assert_eq!(b.ro_fraction, 0.0);
    }
}
