//! A recycling byte-buffer arena for per-world allocation pooling.
//!
//! The simulator's hot path allocates the same shapes over and over:
//! request bodies, reply bodies, kvstore values, r2p2 frames. Each one is
//! a `Vec<u8>` build followed by an `Arc<[u8]>` move — two global-allocator
//! round trips per body — and the `--profile` allocator counters attribute
//! the bulk of the engine's heap traffic to exactly this churn. A
//! [`ByteArena`] replaces both with a pool of reusable `Arc<[u8]>` chunks:
//!
//! * **Size-classed registries.** Buffers come in power-of-two classes
//!   (16 B … 64 KiB). An allocation probes a few registry entries of its
//!   class for a buffer whose reference count has dropped back to one —
//!   meaning every [`Bytes`] previously handed out from it is gone — and
//!   recycles it in place via [`Arc::get_mut`]. No `unsafe`, no free
//!   lists: the `Arc` strong count *is* the liveness bit.
//! * **Deterministic contents.** A recycled buffer is zeroed over the
//!   requested length before the caller's fill runs, so pooled and fresh
//!   allocations are byte-identical — replay digests cannot observe
//!   whether pooling happened.
//! * **Graceful fallback.** Oversized or pool-exhausted requests fall back
//!   to a plain allocation; a bounded registry (512 chunks per class) caps
//!   the memory an arena keeps for reuse at
//!   [`ByteArena::MAX_POOLED_BYTES`], 512 × (16 B + 32 B + … + 64 KiB)
//!   = 67 100 672 B ≈ 64 MiB of chunk payload, whatever the workload.
//!   Only a workload that holds hundreds of large buffers at once comes
//!   near it; chunks held outside the registry are not counted.
//!
//! # Lifetime rules
//!
//! A `Bytes` handed out by the arena may outlive anything — the world, the
//! arena itself, a snapshot epoch — because it owns a strong reference to
//! its chunk. Recycling is purely opportunistic: a chunk returns to
//! circulation the instant its last outstanding `Bytes` drops, and the
//! arena never observes (or cares) *when* that happens. Teardown is
//! equally simple: dropping the arena drops the registries, and each chunk
//! is freed when its last external holder goes away.

use std::sync::Arc;

use crate::Bytes;

/// Smallest size class, log2 (16 B).
const MIN_CLASS: u32 = 4;
/// Largest size class, log2 (64 KiB); larger requests bypass the pool.
const MAX_CLASS: u32 = 16;
/// Maximum pooled buffers per size class.
const CLASS_CAP: usize = 512;
/// Registry entries probed per allocation before giving up and
/// heap-allocating. Small and fixed: the pool must never turn an O(1)
/// allocation into an O(pool) scan under pressure.
const PROBE: usize = 8;

struct Pool {
    bufs: Vec<Arc<[u8]>>,
    /// Rotating probe start, so consecutive allocations don't all fight
    /// over the same (possibly still-referenced) entries.
    cursor: usize,
}

/// A per-world pool of recyclable byte buffers; see the module docs.
pub struct ByteArena {
    pools: Vec<Pool>,
    hits: u64,
    misses: u64,
}

impl Default for ByteArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteArena {
    /// The most chunk payload the registries can retain: 512 chunks of
    /// every class, 16 B to 64 KiB.
    pub const MAX_POOLED_BYTES: usize = CLASS_CAP * ((2 << MAX_CLASS) - (1 << MIN_CLASS));

    /// An empty arena. Chunks are created on demand, so an unused arena
    /// costs a few hundred bytes.
    pub fn new() -> ByteArena {
        ByteArena {
            pools: (MIN_CLASS..=MAX_CLASS)
                .map(|_| Pool {
                    bufs: Vec::new(),
                    cursor: 0,
                })
                .collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Size class for a request of `len` bytes, or `None` if the request
    /// should bypass the pool.
    #[inline]
    fn class_of(len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let c = len.next_power_of_two().trailing_zeros().max(MIN_CLASS);
        (c <= MAX_CLASS).then(|| (c - MIN_CLASS) as usize)
    }

    /// Allocations served from a recycled chunk.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Allocations that fell back to the global allocator (fresh chunk or
    /// oversized request).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Copies `data` into a pooled buffer and returns it as [`Bytes`].
    pub fn alloc(&mut self, data: &[u8]) -> Bytes {
        self.alloc_inner(data.len(), false, |buf| buf.copy_from_slice(data))
    }

    /// Returns a zeroed pooled buffer of `len` bytes as [`Bytes`].
    pub fn alloc_zeroed(&mut self, len: usize) -> Bytes {
        self.alloc_inner(len, true, |_| {})
    }

    /// Returns a pooled buffer of `len` bytes as [`Bytes`], contents
    /// produced by `fill` over an initially zeroed slice. Use this to
    /// build framed bodies in place instead of staging them through a
    /// scratch `Vec`.
    pub fn alloc_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        self.alloc_inner(len, true, fill)
    }

    fn alloc_inner(&mut self, len: usize, zero: bool, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let Some(class) = Self::class_of(len) else {
            // Oversized: plain allocation, exact length.
            self.misses += 1;
            return Bytes::build(len, fill);
        };
        let pool = &mut self.pools[class];
        let n = pool.bufs.len();
        for i in 0..n.min(PROBE) {
            let idx = (pool.cursor + i) % n;
            if let Some(buf) = Arc::get_mut(&mut pool.bufs[idx]) {
                // Strong count is 1: no Bytes references this chunk any
                // more, so reusing it cannot be observed.
                if zero {
                    buf[..len].fill(0);
                }
                fill(&mut buf[..len]);
                pool.cursor = (idx + 1) % n;
                self.hits += 1;
                return Bytes::shared(pool.bufs[idx].clone(), len);
            }
        }
        // Every probed chunk is still referenced (or the pool is young):
        // allocate a fresh class-sized chunk and register it for future
        // recycling if there is room.
        self.misses += 1;
        let chunk = fresh(1usize << (class as u32 + MIN_CLASS), len, fill);
        let out = Bytes::shared(chunk.clone(), len);
        if pool.bufs.len() < CLASS_CAP {
            pool.bufs.push(chunk);
            pool.cursor = 0;
        }
        out
    }
}

/// A zeroed `size`-byte chunk with `fill` run over its first `len` bytes.
/// One allocation: a `TrustedLen` iterator collects straight into the
/// `Arc`, where `Arc::from(vec)` would allocate twice and copy.
pub(crate) fn fresh(size: usize, len: usize, fill: impl FnOnce(&mut [u8])) -> Arc<[u8]> {
    let mut chunk: Arc<[u8]> = std::iter::repeat_n(0, size).collect();
    fill(&mut Arc::get_mut(&mut chunk).expect("a fresh chunk is unique")[..len]);
    chunk
}

impl std::fmt::Debug for ByteArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteArena")
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_content_exactly() {
        let mut a = ByteArena::new();
        let b = a.alloc(b"hello arena");
        assert_eq!(&b[..], b"hello arena");
        let z = a.alloc_zeroed(40);
        assert_eq!(&z[..], &[0u8; 40]);
        let w = a.alloc_with(12, |buf| buf[..4].copy_from_slice(b"head"));
        assert_eq!(&w[..4], b"head");
        assert_eq!(&w[4..], &[0u8; 8]);
    }

    #[test]
    fn recycles_after_last_reference_drops() {
        let mut a = ByteArena::new();
        let b1 = a.alloc(b"first");
        assert_eq!(a.misses(), 1);
        // Still referenced: the next allocation cannot reuse the chunk.
        let b2 = a.alloc(b"second");
        assert_eq!(a.misses(), 2);
        drop(b1);
        drop(b2);
        let b3 = a.alloc(b"third");
        assert_eq!(a.hits(), 1, "chunk recycled once references dropped");
        assert_eq!(&b3[..], b"third");
    }

    #[test]
    fn recycled_buffers_are_scrubbed() {
        let mut a = ByteArena::new();
        drop(a.alloc(&[0xFFu8; 16]));
        let z = a.alloc_zeroed(16);
        assert_eq!(&z[..], &[0u8; 16], "stale contents must not leak");
        drop(z);
        let part = a.alloc_with(16, |buf| buf[0] = 1);
        assert_eq!(&part[1..], &[0u8; 15]);
    }

    #[test]
    fn clones_and_slices_keep_the_chunk_alive() {
        let mut a = ByteArena::new();
        let b = a.alloc(b"0123456789");
        let s = b.slice(2..5);
        drop(b);
        // The slice still references the chunk, so it must not be reused.
        let other = a.alloc(b"XXXXXXXXXX");
        assert_eq!(&s[..], b"234");
        assert_eq!(&other[..], b"XXXXXXXXXX");
        assert_eq!(a.hits(), 0);
    }

    #[test]
    fn zero_len_and_oversized_fall_back() {
        let mut a = ByteArena::new();
        assert_eq!(a.alloc(&[]).len(), 0);
        let big = a.alloc_zeroed((1 << 16) + 1);
        assert_eq!(big.len(), (1 << 16) + 1);
        drop(big);
        let big2 = a.alloc_zeroed((1 << 16) + 1);
        assert_eq!(big2.len(), (1 << 16) + 1);
        assert_eq!(a.hits(), 0, "oversized requests bypass the pool");
    }

    #[test]
    fn registry_is_bounded() {
        let mut a = ByteArena::new();
        let held: Vec<_> = (0..2 * CLASS_CAP).map(|_| a.alloc(&[7u8; 64])).collect();
        assert_eq!(held.len(), 2 * CLASS_CAP);
        assert!(a.pools.iter().all(|p| p.bufs.len() <= CLASS_CAP));
    }

    #[test]
    fn pooled_memory_bound_is_64_mib() {
        let per_class: usize = (MIN_CLASS..=MAX_CLASS).map(|c| CLASS_CAP << c).sum();
        assert_eq!(ByteArena::MAX_POOLED_BYTES, per_class);
        assert_eq!(ByteArena::MAX_POOLED_BYTES, 67_100_672);
        assert_eq!(ByteArena::MAX_POOLED_BYTES.div_ceil(1 << 20), 64);
    }

    #[test]
    fn steady_state_reuses_a_small_working_set() {
        let mut a = ByteArena::new();
        for i in 0..10_000u32 {
            let b = a.alloc(&i.to_le_bytes());
            assert_eq!(&b[..], &i.to_le_bytes());
            // b drops here: next iteration should recycle it.
        }
        assert!(a.hits() >= 9_990, "hits {} misses {}", a.hits(), a.misses());
    }
}
