//! Hierarchical timer wheel: the engine's event scheduler.
//!
//! A discrete-event simulator spends a large share of its wall-clock budget
//! ordering future events. The classic `BinaryHeap` costs O(log n) per
//! push *and* per pop, and every sift moves entries around the backing
//! array. This wheel replaces both with O(1) amortized slot arithmetic
//! while reproducing the heap's pop order **bit-exactly** — the engine's
//! determinism digests (`chaos_digest`, mc digests, determinism_guard) are
//! the acceptance bar for any scheduler swap, so equivalence is not a
//! statistical claim but a structural one (see the invariants below and
//! the property tests at the bottom).
//!
//! # Structure
//!
//! A wide near level plus coarse overflow levels. Level 0 buckets deadlines
//! by bits `[0, 12)` of their absolute nanosecond timestamp — 4096 slots
//! resolving single nanoseconds across a 4.1 µs window, sized so that
//! packet-scale deltas (NIC serialization, fabric hops, app-thread bursts)
//! insert directly into level 0 and pop without ever cascading. Overflow
//! level `L ≥ 1` buckets by bits `[12+6(L−1), 12+6L)`; 12 + 6 × 9 = 66 bits
//! covers every representable `u64` deadline in 10 levels. A pending entry
//! lives at the *highest level where its timestamp differs from the wheel's
//! origin* (`base`):
//!
//! ```text
//! level(at) = 0                                  if (at XOR base) < 4096
//!             (highest_set_bit(at XOR base) − 12)/6 + 1   otherwise
//! slot(at)  = at & 4095                          at level 0
//!             (at >> (12 + 6·(level−1))) & 63    at level ≥ 1
//! ```
//!
//! The XOR trick (as in Linux/Tokio wheels) avoids ever computing a delta
//! that could wrap: because the invariant `at >= base` holds for every
//! stored entry, the highest differing bit alone identifies the coarsest
//! level at which `at` and `base` fall into different slots, and slot
//! indices at every level are monotonically ≥ the origin's — so a
//! `trailing_zeros` scan over a per-level occupancy bitmap (two-tier for
//! the 4096-bit level 0) finds the earliest slot with no wrap-around case
//! analysis.
//!
//! # Exact (time, seq) order
//!
//! Two structural facts make the pop order identical to a heap ordered by
//! `(at, seq)`:
//!
//! * A **level-0 slot holds exactly one timestamp.** Level 0 means all bits
//!   ≥ 12 agree with `base`, and the slot index pins bits 0–11, so `at` is
//!   fully determined. Draining a level-0 slot therefore yields entries of
//!   one instant; sorting them by `seq` alone (seqs are unique) gives the
//!   exact total order for that instant.
//! * A **cascade moves the origin to the start of the earliest occupied
//!   window.** All other entries are strictly later, so redistributing the
//!   window's entries with the new origin (each lands at a strictly lower
//!   level) never reorders anything across windows.
//!
//! # Safety of lazy advancement
//!
//! `base` only advances inside [`TimerWheel::pop_next`], and only up to
//! `limit` (the engine's `run_until` bound). The engine never schedules
//! before its clock (an insert may land *at* it), and its clock never
//! falls behind `base` — so `at >= base` holds for all inserts and the
//! wheel never needs the "timer in the past" slot-clamping of wall-clock
//! wheels. An insert at the instant being drained lands in the level-0
//! slot that instant just vacated; it pops once `current` is empty, after
//! every entry of the instant scheduled before it.

use std::collections::VecDeque;

/// Bits resolved by the near level: 4096 slots, one nanosecond each.
const L0_BITS: u32 = 12;
/// Near-level slot count.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Bits per overflow level: 64 slots.
const BITS: u32 = 6;
/// Overflow-level slot count.
const SLOTS: usize = 1 << BITS;
/// Total levels: 12 + 6 × 9 = 66 bits ≥ the full `u64` timestamp range.
const LEVELS: usize = 10;
/// Words in the level-0 occupancy bitmap (4096 bits).
const L0_WORDS: usize = L0_SLOTS / 64;

/// One pending event: absolute deadline, global push sequence number, and
/// the caller's payload handle (the engine's slab slot).
#[derive(Clone, Copy, Debug)]
struct Entry {
    at: u64,
    seq: u64,
    token: u32,
}

/// A hierarchical timer wheel ordering `(at, seq, token)` triples by
/// `(at, seq)`, exactly like a min-heap on that key.
///
/// `pop_next(limit)` never returns entries later than `limit` and never
/// advances the wheel's origin past `limit`, so interleaving pops with
/// inserts at or after the last popped instant is always safe.
pub struct TimerWheel {
    /// Origin timestamp; invariant: every stored entry has `at >= base`.
    base: u64,
    /// Level-0 occupancy: 4096 bits in 64 words...
    l0_occ: Box<[u64; L0_WORDS]>,
    /// ...plus a summary word (bit `w` set iff `l0_occ[w] != 0`).
    l0_sum: u64,
    /// Overflow-level slot occupancy bitmaps (`occ[0]` unused).
    occ: [u64; LEVELS],
    /// Summary bitmap: bit 0 iff level 0 is occupied, bit `L ≥ 1` iff
    /// `occ[L] != 0`.
    level_occ: u16,
    /// Buckets: 4096 level-0 slots, then `SLOTS` per overflow level.
    slots: Box<[Vec<Entry>]>,
    /// The drained earliest instant, in seq order. Non-empty only between
    /// a drain and the pops that consume it; all entries share one `at`
    /// (== `base`).
    current: VecDeque<Entry>,
    /// Total entries stored (levels + `current`).
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel with origin 0.
    pub fn new() -> TimerWheel {
        TimerWheel {
            base: 0,
            l0_occ: Box::new([0; L0_WORDS]),
            l0_sum: 0,
            occ: [0; LEVELS],
            level_occ: 0,
            slots: (0..L0_SLOTS + (LEVELS - 1) * SLOTS)
                .map(|_| Vec::new())
                .collect(),
            current: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level and slot index (within the level) for `at` relative to `base`.
    #[inline]
    fn place(base: u64, at: u64) -> (usize, usize) {
        let d = at ^ base;
        if d < L0_SLOTS as u64 {
            (0, (at & (L0_SLOTS as u64 - 1)) as usize)
        } else {
            let level = ((63 - d.leading_zeros() - L0_BITS) / BITS) as usize + 1;
            let shift = L0_BITS as usize + BITS as usize * (level - 1);
            (level, ((at >> shift) & (SLOTS as u64 - 1)) as usize)
        }
    }

    /// Flat bucket index for a (level, slot) pair.
    #[inline]
    fn bucket(level: usize, slot: usize) -> usize {
        if level == 0 {
            slot
        } else {
            L0_SLOTS + (level - 1) * SLOTS + slot
        }
    }

    /// Inserts an entry. `at` must be `>= ` the wheel's origin, which the
    /// engine guarantees by never scheduling before its clock.
    #[inline]
    pub fn insert(&mut self, at: u64, seq: u64, token: u32) {
        debug_assert!(
            at >= self.base,
            "insert at {at} behind wheel origin {}",
            self.base
        );
        let (level, slot) = Self::place(self.base, at);
        self.slots[Self::bucket(level, slot)].push(Entry { at, seq, token });
        if level == 0 {
            self.l0_occ[slot / 64] |= 1 << (slot % 64);
            self.l0_sum |= 1 << (slot / 64);
            self.level_occ |= 1;
        } else {
            self.occ[level] |= 1 << slot;
            self.level_occ |= 1 << level;
        }
        self.len += 1;
    }

    /// Start of the level-`level` (≥ 1), slot-`slot` window under the
    /// current origin: origin bits above the level's range, `slot` within
    /// it, zeros below.
    #[inline]
    fn window_start(&self, level: usize, slot: usize) -> u64 {
        let lo_shift = L0_BITS as usize + BITS as usize * (level - 1);
        let hi_shift = lo_shift + BITS as usize;
        let high = if hi_shift >= 64 {
            0
        } else {
            (self.base >> hi_shift) << hi_shift
        };
        high | ((slot as u64) << lo_shift)
    }

    /// Pops the earliest `(at, seq)` entry with `at <= limit`, or `None`
    /// if the wheel is empty or its earliest entry is later than `limit`.
    /// The origin never advances past `limit`.
    pub fn pop_next(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
        loop {
            if let Some(e) = self.current.pop_front() {
                self.len -= 1;
                return Some((e.at, e.seq, e.token));
            }
            if self.level_occ == 0 {
                return None;
            }
            let level = self.level_occ.trailing_zeros() as usize;
            if level == 0 {
                // A level-0 slot is a single instant: bits ≥ 12 match the
                // origin, bits 0–11 are the slot index.
                let word = self.l0_sum.trailing_zeros() as usize;
                let bit = self.l0_occ[word].trailing_zeros() as usize;
                let slot = word * 64 + bit;
                let at = (self.base & !(L0_SLOTS as u64 - 1)) | slot as u64;
                if at > limit {
                    return None;
                }
                let mut v = std::mem::take(&mut self.slots[slot]);
                self.l0_occ[word] &= !(1 << bit);
                if self.l0_occ[word] == 0 {
                    self.l0_sum &= !(1 << word);
                    if self.l0_sum == 0 {
                        self.level_occ &= !1;
                    }
                }
                // Unique seqs: unstable sort is deterministic here.
                v.sort_unstable_by_key(|e| e.seq);
                self.base = at;
                self.current.extend(v.drain(..));
                self.slots[slot] = v; // keep the bucket's capacity
                continue;
            }
            let slot = self.occ[level].trailing_zeros() as usize;
            let idx = Self::bucket(level, slot);
            // Overflow level: cascade the earliest window down one or more
            // levels, re-anchoring the origin at the window start. Refuse
            // to advance past `limit` — entries in this window may still
            // be preceded by events the caller will schedule before it.
            let ws = self.window_start(level, slot);
            if ws > limit {
                return None;
            }
            let mut v = std::mem::take(&mut self.slots[idx]);
            self.occ[level] &= !(1 << slot);
            if self.occ[level] == 0 {
                self.level_occ &= !(1 << level);
            }
            self.base = ws;
            crate::profile::note_wheel_cascades(v.len() as u64);
            for e in v.drain(..) {
                let (l2, s2) = Self::place(self.base, e.at);
                debug_assert!(l2 < level, "cascade must descend");
                self.slots[Self::bucket(l2, s2)].push(e);
                if l2 == 0 {
                    self.l0_occ[s2 / 64] |= 1 << (s2 % 64);
                    self.l0_sum |= 1 << (s2 / 64);
                    self.level_occ |= 1;
                } else {
                    self.occ[l2] |= 1 << s2;
                    self.level_occ |= 1 << l2;
                }
            }
            self.slots[idx] = v;
        }
    }
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Reference scheduler: a min-heap on (at, seq).
    #[derive(Default)]
    struct RefHeap(BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>);

    impl RefHeap {
        fn insert(&mut self, at: u64, seq: u64, token: u32) {
            self.0.push(std::cmp::Reverse((at, seq, token)));
        }
        fn pop_next(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
            match self.0.peek() {
                Some(std::cmp::Reverse((at, _, _))) if *at <= limit => {
                    let std::cmp::Reverse(e) = self.0.pop().unwrap();
                    Some(e)
                }
                _ => None,
            }
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(50, 1, 10);
        w.insert(50, 0, 11);
        w.insert(10, 2, 12);
        assert_eq!(w.pop_next(u64::MAX), Some((10, 2, 12)));
        assert_eq!(w.pop_next(u64::MAX), Some((50, 0, 11)));
        assert_eq!(w.pop_next(u64::MAX), Some((50, 1, 10)));
        assert_eq!(w.pop_next(u64::MAX), None);
        assert!(w.is_empty());
    }

    #[test]
    fn limit_bounds_pops_and_origin() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 0, 1);
        assert_eq!(w.pop_next(999), None, "beyond limit");
        // A later insert *before* the far entry must still win: the origin
        // may not have advanced past the limit.
        w.insert(2_000, 1, 2);
        assert_eq!(w.pop_next(u64::MAX), Some((2_000, 1, 2)));
        assert_eq!(w.pop_next(u64::MAX), Some((1_000_000, 0, 1)));
    }

    #[test]
    fn maximum_delay_lands_in_top_level_and_pops() {
        let mut w = TimerWheel::new();
        // Bit 63 set: only the top level (bits 60..66) can hold it.
        w.insert(u64::MAX, 1, 7);
        w.insert(u64::MAX - 1, 0, 8);
        w.insert(5, 2, 9);
        assert_eq!(w.pop_next(u64::MAX), Some((5, 2, 9)));
        assert_eq!(w.pop_next(u64::MAX), Some((u64::MAX - 1, 0, 8)));
        assert_eq!(w.pop_next(u64::MAX), Some((u64::MAX, 1, 7)));
        assert_eq!(w.pop_next(u64::MAX), None);
    }

    #[test]
    fn same_instant_drain_is_seq_sorted_across_cascades() {
        let mut w = TimerWheel::new();
        // Seq 0 lands at a high level (far from origin 0); advance the
        // origin, then insert seq 1 at the same instant directly into
        // level 0. The drain must still yield seq order.
        w.insert(100_000, 0, 1);
        w.insert(10, 9, 2);
        assert_eq!(w.pop_next(u64::MAX), Some((10, 9, 2)));
        w.insert(100_000, 1, 3);
        assert_eq!(w.pop_next(u64::MAX), Some((100_000, 0, 1)));
        assert_eq!(w.pop_next(u64::MAX), Some((100_000, 1, 3)));
    }

    /// The structural equivalence claim, checked directly: any interleaving
    /// of inserts and bounded pops yields exactly the heap's pop sequence.
    fn equivalence_round(seed: u64, ops: usize) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        let mut clock = 0u64; // engine's "now": inserts land at or after it
        let mut seq = 0u64;
        for i in 0..ops {
            if rng.gen_bool(0.6) {
                // Mixed horizons: some at the clock itself (possibly
                // mid-instant), mostly near, some far, a few extreme.
                let delta = match rng.gen_range(0u32..10) {
                    0 => 0,
                    1..=5 => rng.gen_range(1..4_000),
                    6..=8 => rng.gen_range(1..5_000_000),
                    _ => rng.gen_range(1..(u64::MAX - clock).max(2)),
                };
                let at = clock + delta;
                wheel.insert(at, seq, i as u32);
                heap.insert(at, seq, i as u32);
                seq += 1;
            } else {
                let limit = clock.saturating_add(rng.gen_range(0..100_000));
                let w = wheel.pop_next(limit);
                let h = heap.pop_next(limit);
                assert_eq!(w, h, "divergence at op {i} (seed {seed})");
                if let Some((at, _, _)) = w {
                    clock = clock.max(at);
                } else {
                    clock = clock.max(limit);
                }
            }
        }
        // Drain both completely.
        loop {
            let w = wheel.pop_next(u64::MAX);
            let h = heap.pop_next(u64::MAX);
            assert_eq!(w, h, "drain divergence (seed {seed})");
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn equivalent_to_binary_heap_on_random_streams() {
        for seed in 0..50 {
            equivalence_round(seed, 400);
        }
    }

    #[test]
    fn equivalent_on_same_instant_storms() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        // Many entries on few distinct instants: exercises slot Vecs with
        // mixed push/cascade arrival order.
        for seq in 0..2_000u64 {
            let at = 1 + rng.gen_range(0u64..8) * 700;
            wheel.insert(at, seq, seq as u32);
            heap.insert(at, seq, seq as u32);
        }
        loop {
            let w = wheel.pop_next(u64::MAX);
            assert_eq!(w, heap.pop_next(u64::MAX));
            if w.is_none() {
                break;
            }
        }
    }
}
