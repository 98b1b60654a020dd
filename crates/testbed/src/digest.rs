//! Trace digests: a compact fingerprint of a whole protocol run.
//!
//! The simulation is deterministic, so the full stream of trace events —
//! including the ones the bounded ring evicts — is a pure function of
//! `(ClusterOpts, seed)`. [`TraceDigest`] folds that stream into one 64-bit
//! FNV-1a value by harvesting the ring incrementally, which lets tests and
//! benches assert *bit-exact* protocol behaviour across refactors and
//! optimizations without retaining gigabytes of events.
//!
//! The digest covers each event's structured identity — virtual timestamp,
//! emitting node, kind tag, and numeric key — and deliberately *not* the
//! human-readable detail text: detail is rendered lazily for display only,
//! and hashing it would force the rendering the hot path exists to avoid.

use simnet::Tracer;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a digest over the structured trace stream.
#[derive(Clone, Copy, Debug)]
pub struct TraceDigest {
    hash: u64,
    count: u64,
    cursor: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            hash: FNV_OFFSET,
            count: 0,
            cursor: 0,
        }
    }
}

fn fnv_u64(mut hash: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl TraceDigest {
    /// A fresh digest (cursor at the start of the stream).
    pub fn new() -> TraceDigest {
        TraceDigest::default()
    }

    /// Folds every event recorded since the last call into the digest.
    /// Call at least once per ring-capacity worth of events, or evicted
    /// events are silently skipped (the final count exposes that: compare
    /// against [`Tracer::total_recorded`]).
    pub fn absorb(&mut self, tracer: &Tracer) {
        let mut hash = self.hash;
        let mut count = self.count;
        let mut cursor = self.cursor;
        tracer.for_each_since(self.cursor, |e| {
            hash = fnv_u64(hash, e.seq);
            hash = fnv_u64(hash, e.at.as_nanos());
            hash = fnv_u64(hash, e.node as u64);
            hash = fnv_bytes(hash, e.kind.as_bytes());
            hash = fnv_u64(hash, e.key);
            count += 1;
            cursor = e.seq + 1;
        });
        self.hash = hash;
        self.count = count;
        self.cursor = cursor;
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Events folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The trace fingerprint of a run plus the raw volume counters a
/// determinism guard pins (see [`crate::chaos::Report`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigestReport {
    /// FNV-1a over the structured event stream.
    pub digest: u64,
    /// Events folded into the digest (== events recorded when harvesting
    /// kept up with the ring).
    pub events: u64,
    /// Total events ever recorded by the tracer.
    pub total_recorded: u64,
    /// Engine events dispatched over the whole run.
    pub sim_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn none(_: &mut std::fmt::Formatter<'_>, _: u64, _: u64, _: u64) -> std::fmt::Result {
        Ok(())
    }

    fn record(t: &Tracer, node: u32, kind: &'static str, key: u64) {
        t.record_lazy(SimTime::ZERO, node, kind, key, none, 0, 0, 0);
    }

    #[test]
    fn digest_tracks_events_and_order() {
        let t = Tracer::new(64);
        let mut d = TraceDigest::new();
        d.absorb(&t);
        let empty = d.value();
        record(&t, 1, "a", 7);
        d.absorb(&t);
        assert_ne!(d.value(), empty);
        assert_eq!(d.count(), 1);

        // Same events, same digest; different order, different digest.
        let run = |kinds: [&'static str; 2]| {
            let t = Tracer::new(64);
            for k in kinds {
                record(&t, 1, k, 0);
            }
            let mut d = TraceDigest::new();
            d.absorb(&t);
            d.value()
        };
        assert_eq!(run(["x", "y"]), run(["x", "y"]));
        assert_ne!(run(["x", "y"]), run(["y", "x"]));
    }

    #[test]
    fn incremental_absorb_equals_one_shot() {
        let t = Tracer::new(64);
        let mut inc = TraceDigest::new();
        for i in 0..10u64 {
            record(&t, 2, "ev", i);
            if i % 3 == 0 {
                inc.absorb(&t);
            }
        }
        inc.absorb(&t);
        let mut one = TraceDigest::new();
        one.absorb(&t);
        assert_eq!(inc.value(), one.value());
        assert_eq!(inc.count(), one.count());
    }
}
