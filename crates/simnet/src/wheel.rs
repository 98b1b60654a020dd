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
//! # Storage
//!
//! Each entry is stored once, from insert to pop: one node `{at, seq,
//! next, val}` in a single arena `Vec` (56 B for the engine's 32 B
//! event), with freed nodes recycled through a LIFO free list threaded
//! through `next`. A bucket is a head/tail pair of `u32` node indices,
//! and linking appends at the tail, so a cascade relinks nodes in list
//! order and copies no payload, and the drained instant (`current`) is
//! itself a list head. At a steady state the wheel allocates nothing.
//!
//! # Exact (time, seq) order
//!
//! Two structural facts make the pop order identical to a heap ordered by
//! `(at, seq)`:
//!
//! * A **level-0 slot holds exactly one timestamp.** Level 0 means all bits
//!   ≥ 12 agree with `base`, and the slot index pins bits 0–11, so `at` is
//!   fully determined. Draining a level-0 slot therefore yields entries of
//!   one instant; ordering them by `seq` alone (seqs are unique) gives the
//!   exact total order for that instant. Appends keep a bucket in `seq`
//!   order whenever seqs arrive increasing, as the engine's always do; a
//!   link behind a tail with a higher `seq` (an out-of-order insert, or a
//!   cascade landing behind later inserts) flags the bucket, and only a
//!   flagged bucket is sorted when drained.
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
/// The null node index: the end of a list.
const NIL: u32 = u32::MAX;

/// One arena slot: a pending entry (absolute deadline, global push
/// sequence number, payload) linked into its bucket's list, or a free
/// slot (`val: None`) linked into the free list.
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    val: Option<T>,
}

/// A singly linked list of arena nodes, appended at the tail.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// A hierarchical timer wheel holding `(at, seq, val)` entries and
/// popping them in `(at, seq)` order, exactly like a min-heap on that key.
///
/// `pop_next(limit)` never returns entries later than `limit` and never
/// advances the wheel's origin past `limit`, so interleaving pops with
/// inserts at or after the last popped instant is always safe.
pub struct TimerWheel<T = u32> {
    /// Origin timestamp; invariant: every stored entry has `at >= base`.
    base: u64,
    /// Level-0 occupancy: 4096 bits in 64 words...
    l0_occ: Box<[u64; L0_WORDS]>,
    /// ...plus a summary word (bit `w` set iff `l0_occ[w] != 0`).
    l0_sum: u64,
    /// Level-0 buckets whose list is out of seq order: set when a link
    /// appends behind a tail with a higher seq, cleared by the drain.
    l0_unsorted: Box<[u64; L0_WORDS]>,
    /// Overflow-level slot occupancy bitmaps (`occ[0]` unused).
    occ: [u64; LEVELS],
    /// Summary bitmap: bit 0 iff level 0 is occupied, bit `L ≥ 1` iff
    /// `occ[L] != 0`.
    level_occ: u16,
    /// Buckets: 4096 level-0 slots, then `SLOTS` per overflow level.
    buckets: Box<[List]>,
    /// The drained earliest instant, in seq order: all its entries share
    /// one `at` (== `base`). `NIL` except between a drain and the pops
    /// that consume it.
    current: u32,
    /// Every entry lives here exactly once, from insert to pop.
    nodes: Vec<Node<T>>,
    /// Head of the LIFO list of free `nodes`, threaded through `next`.
    free: u32,
    /// Scratch for re-sorting an out-of-order level-0 bucket.
    sort_scratch: Vec<u32>,
    /// Total entries stored (levels + `current`).
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with origin 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            base: 0,
            l0_occ: Box::new([0; L0_WORDS]),
            l0_sum: 0,
            l0_unsorted: Box::new([0; L0_WORDS]),
            occ: [0; LEVELS],
            level_occ: 0,
            buckets: vec![List::EMPTY; L0_SLOTS + (LEVELS - 1) * SLOTS].into_boxed_slice(),
            current: NIL,
            nodes: Vec::new(),
            free: NIL,
            sort_scratch: Vec::new(),
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
    pub fn insert(&mut self, at: u64, seq: u64, val: T) {
        debug_assert!(
            at >= self.base,
            "insert at {at} behind wheel origin {}",
            self.base
        );
        let node = Node {
            at,
            seq,
            next: NIL,
            val: Some(val),
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            debug_assert!(slot.val.is_none(), "free node holds a payload");
            self.free = slot.next;
            *slot = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.link(idx, at, seq);
        self.len += 1;
    }

    /// Appends node `idx` (deadline `at`, sequence `seq`, its `next`
    /// already `NIL`) to the tail of the bucket `at` maps to under the
    /// current origin, and marks the bucket occupied. A level-0 bucket
    /// appended out of seq order is flagged for the drain's sort.
    #[inline]
    fn link(&mut self, idx: u32, at: u64, seq: u64) {
        let (level, slot) = Self::place(self.base, at);
        let list = &mut self.buckets[Self::bucket(level, slot)];
        if list.tail == NIL {
            list.head = idx;
        } else {
            let tail = &mut self.nodes[list.tail as usize];
            tail.next = idx;
            if level == 0 && tail.seq > seq {
                self.l0_unsorted[slot / 64] |= 1 << (slot % 64);
            }
        }
        list.tail = idx;
        if level == 0 {
            self.l0_occ[slot / 64] |= 1 << (slot % 64);
            self.l0_sum |= 1 << (slot / 64);
            self.level_occ |= 1;
        } else {
            self.occ[level] |= 1 << slot;
            self.level_occ |= 1 << level;
        }
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

    /// Relinks the list starting at `head` in seq order and returns its
    /// new head.
    fn sort_by_seq(&mut self, head: u32) -> u32 {
        let mut order = std::mem::take(&mut self.sort_scratch);
        let mut idx = head;
        while idx != NIL {
            order.push(idx);
            idx = self.nodes[idx as usize].next;
        }
        // Unique seqs: unstable sort is deterministic here.
        order.sort_unstable_by_key(|&i| self.nodes[i as usize].seq);
        let mut next = NIL;
        for &i in order.iter().rev() {
            self.nodes[i as usize].next = next;
            next = i;
        }
        order.clear();
        self.sort_scratch = order;
        next
    }

    /// Pops the earliest `(at, seq)` entry with `at <= limit`, or `None`
    /// if the wheel is empty or its earliest entry is later than `limit`.
    /// The origin never advances past `limit`.
    pub fn pop_next(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        loop {
            if self.current != NIL {
                let idx = self.current;
                let node = &mut self.nodes[idx as usize];
                self.current = node.next;
                node.next = self.free;
                self.free = idx;
                self.len -= 1;
                let val = node.val.take().expect("linked node holds a payload");
                return Some((node.at, node.seq, val));
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
                let list = std::mem::replace(&mut self.buckets[slot], List::EMPTY);
                self.l0_occ[word] &= !(1 << bit);
                if self.l0_occ[word] == 0 {
                    self.l0_sum &= !(1 << word);
                    if self.l0_sum == 0 {
                        self.level_occ &= !1;
                    }
                }
                self.base = at;
                self.current = if self.l0_unsorted[word] & (1 << bit) != 0 {
                    self.l0_unsorted[word] &= !(1 << bit);
                    self.sort_by_seq(list.head)
                } else {
                    list.head
                };
                continue;
            }
            let slot = self.occ[level].trailing_zeros() as usize;
            // Overflow level: cascade the earliest window down one or more
            // levels, re-anchoring the origin at the window start. Refuse
            // to advance past `limit` — entries in this window may still
            // be preceded by events the caller will schedule before it.
            let ws = self.window_start(level, slot);
            if ws > limit {
                return None;
            }
            let list = std::mem::replace(&mut self.buckets[Self::bucket(level, slot)], List::EMPTY);
            self.occ[level] &= !(1 << slot);
            if self.occ[level] == 0 {
                self.level_occ &= !(1 << level);
            }
            self.base = ws;
            let mut moved = 0;
            let mut idx = list.head;
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let next = std::mem::replace(&mut node.next, NIL);
                let (at, seq) = (node.at, node.seq);
                debug_assert!(Self::place(self.base, at).0 < level, "cascade must descend");
                self.link(idx, at, seq);
                moved += 1;
                idx = next;
            }
            crate::profile::note_wheel_cascades(moved);
        }
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
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
        // Many entries on few distinct instants: exercises bucket lists with
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

    /// The wheel owns its payloads: over random insert/pop streams, each
    /// one comes out of `pop_next` at most once, and whatever is still
    /// pending is dropped with the wheel, so every `Rc` the test kept
    /// ends with a strong count of 1.
    #[test]
    fn payloads_are_returned_once_or_dropped_with_the_wheel() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::rc::Rc;
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut wheel = TimerWheel::new();
            let mut kept = Vec::new();
            let mut popped = vec![false; 400];
            let mut clock = 0u64;
            for i in 0..400usize {
                if rng.gen_bool(0.6) {
                    let delta = match rng.gen_range(0u32..10) {
                        0 => 0,
                        1..=5 => rng.gen_range(1..4_000),
                        6..=8 => rng.gen_range(1..5_000_000),
                        _ => rng.gen_range(1..(u64::MAX - clock).max(2)),
                    };
                    let rc = Rc::new(i);
                    kept.push(Rc::clone(&rc));
                    wheel.insert(clock + delta, i as u64, rc);
                } else {
                    let limit = clock.saturating_add(rng.gen_range(0..100_000));
                    match wheel.pop_next(limit) {
                        Some((at, _, rc)) => {
                            assert!(!popped[*rc], "payload {} popped twice", *rc);
                            popped[*rc] = true;
                            assert_eq!(Rc::strong_count(&rc), 2);
                            clock = clock.max(at);
                        }
                        None => clock = clock.max(limit),
                    }
                }
            }
            assert_eq!(
                wheel.len(),
                kept.len() - popped.iter().filter(|p| **p).count()
            );
            drop(wheel);
            assert!(
                kept.iter().all(|rc| Rc::strong_count(rc) == 1),
                "seed {seed}"
            );
        }
    }
}
