//! Deterministic FxHash-style hashing for the simulator's hot-path maps.
//!
//! The std `HashMap` default (`RandomState`/SipHash) is wrong for this
//! codebase twice over:
//!
//! * **Cost** — SipHash burns ~1–2 ns per word on keys that are almost
//!   always a single integer (`NodeId`, `LogIndex`, `TimerId`, a packed
//!   `ReqId`). The engine and protocol layers probe these maps on every
//!   simulated packet.
//! * **Determinism** — `RandomState` is seeded per process, so *iteration
//!   order* differs from run to run. Any code path that iterates a map and
//!   acts on the order (recovery retransmission fan-out, for instance)
//!   silently breaks the simulator's bit-exact replay contract across
//!   processes, even though each single process is self-consistent.
//!
//! [`FxHasher`] is the multiply-rotate hash used by rustc (Firefox
//! heritage), reimplemented here from the published algorithm. It is not
//! DoS-resistant — irrelevant inside a closed simulation — and with
//! [`BuildHasherDefault`] it is zero-seeded, so map iteration order is a
//! pure function of the insertion/removal history: identical in every
//! process, which is exactly the property the determinism guard pins.
//!
//! Use the [`FxHashMap`]/[`FxHashSet`] aliases; they are drop-in
//! replacements (`FxHashMap::default()` instead of `HashMap::new()`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The 64-bit multiplier from splitmix64 / rustc's FxHasher: odd, with a
/// good avalanche profile when combined with the 5-bit rotate below.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast, deterministic, non-cryptographic hasher (rustc's FxHash scheme:
/// rotate-xor-multiply per word).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// Starting state of [`hash_bytes`] (the 64-bit FNV offset basis). Any
/// non-zero value works; it has to be non-zero because a
/// rotate-xor-multiply step maps a zero state and a zero word to zero, so
/// an all-zero prefix would leave a zero state untouched.
const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `state` and returns the new state: [`FxHasher`]'s
/// `write` (8 little-endian bytes per multiply, a short tail padded into
/// one word) followed by the byte count as a word of its own.
///
/// The trailing count is what makes this usable as a content hash. `write`
/// alone marks a short tail by storing its length in the padding, which an
/// eighth data byte can imitate (`b"abcdefg"` and `b"abcdefg\x07"` leave
/// the same state), and it cannot tell runs of zero words apart once the
/// state is zero; with the count folded in, two inputs of different length
/// collide only by chance. The value depends on the bytes alone, not on the
/// platform's endianness or word size, and is pinned by unit tests.
///
/// Chaining (`fold_bytes(fold_bytes(s, a), b)`) is order-sensitive, which is
/// what a digest over a sequence of records wants.
#[inline]
pub fn fold_bytes(state: u64, bytes: &[u8]) -> u64 {
    let mut h = FxHasher { hash: state };
    h.write(bytes);
    h.add_to_hash(bytes.len() as u64);
    h.hash
}

/// Content hash of one byte string: [`fold_bytes`] from `FOLD_BASIS`.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fold_bytes(FOLD_BASIS, bytes)
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the byte count in so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&(1u32, 2u16)), hash_of(&(2u32, 1u16)));
    }

    /// The fold is specified on bytes (little-endian words, explicit
    /// tail and length), so these values hold on every platform. They were
    /// cross-checked against an independent implementation of the comment
    /// on [`fold_bytes`]; `EntryDesc.hash` and `SynthService::state_hash`
    /// are built from them.
    #[test]
    fn fold_bytes_pinned_vectors() {
        assert_eq!(hash_bytes(b""), 0x098f_3af4_374f_d9ad);
        assert_eq!(hash_bytes(b"a"), 0xf394_6fa7_f1d6_9726);
        assert_eq!(hash_bytes(b"hovercraft"), 0xa88a_eabb_7bf4_ca9b);
        let counting: Vec<u8> = (0..21).collect(); // two words and a 5-byte tail
        assert_eq!(hash_bytes(&counting), 0x44d2_7fc1_127b_9f34);
        assert_eq!(hash_bytes(&[0; 512]), 0xf5ff_c33c_a5b0_bb44);
        assert_eq!(fold_bytes(0, b"hovercraft"), 0x5c85_8e0c_3c96_7210);
    }

    #[test]
    fn fold_bytes_chains_in_order() {
        let ab = fold_bytes(hash_bytes(b"a"), b"b");
        let ba = fold_bytes(hash_bytes(b"b"), b"a");
        assert_eq!(ab, 0xbfdb_bfa6_7c17_0511);
        assert_ne!(ab, ba);
        assert_ne!(ab, hash_bytes(b"ab"), "record boundaries count");
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m = FxHashMap::default();
            for i in (0..100u64).rev() {
                m.insert(i * 7919, i);
            }
            for i in 0..50u64 {
                m.remove(&(i * 2 * 7919));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        // Same history => same order; std RandomState would differ between
        // these two instances, let alone between processes.
        assert_eq!(build(), build());
    }

    #[test]
    fn spreads_small_integers() {
        // The hasher must not map consecutive small keys onto consecutive
        // buckets' worth of identical low bits.
        let hashes: Vec<u64> = (0..64u64).map(|i| hash_of(&i)).collect();
        let mut low7 = hashes.iter().map(|h| h >> 57).collect::<Vec<_>>();
        low7.sort_unstable();
        low7.dedup();
        assert!(low7.len() > 32, "top bits collapse: {}", low7.len());
    }
}
