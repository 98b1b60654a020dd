//! The unordered request pool (§3.2, §5).
//!
//! With replication separated from ordering, every node receives client
//! requests directly from the multicast group and parks them here, keyed by
//! the R2P2 3-tuple, until an `append_entries` assigns them a log position.
//! Entries that never get ordered (e.g. the multicast reached this node but
//! the leader dropped the request) are garbage-collected after a timeout;
//! early GC is safe — it merely re-triggers the recovery protocol (§5).
//!
//! Bodies of *ordered* requests move to a retained archive so the node can
//! serve `recovery_request`s from peers that missed the multicast, and so
//! the applier can execute entries in log order. The archive keeps only the
//! body: an ordered request's kind is its log entry's `desc.kind`, and no
//! GC ever expires an ordered body, so its arrival time is not kept. It
//! files bodies in blocks of consecutive ids ([`crate::archive`]), so the
//! per-request lookups of a few clients' recent ids stay in cache.
//!
//! The pool is the node's one record of a request's state (DESIGN.md
//! §14.3): parked; ordered, with the body archived, awaited from a peer, or
//! restored and not yet asked for; compacted to a tombstone. Every path
//! that binds an id to this node's log tells the pool, so the unordered set
//! never holds an id the log names.

use std::collections::hash_map::Entry;

use fxhash::{FxHashMap, FxHashSet};

use bytes::Bytes;
use r2p2::ReqId;

use crate::archive::Archive;
use crate::cmd::OpKind;

/// A parked client request.
#[derive(Clone, Debug)]
pub struct PooledReq {
    /// Operation kind from the request's POLICY field.
    pub kind: OpKind,
    /// Request payload.
    pub body: Bytes,
    /// Arrival time (ns), for GC.
    pub arrived: u64,
}

/// A node's record of every request it knows (see the module docs).
#[derive(Clone)]
pub struct UnorderedPool {
    unordered: FxHashMap<ReqId, PooledReq>,
    archive: Archive,
    /// Ordered here, body asked of a peer: id → time of the last
    /// RecoveryReq. Its iteration order is the order of retries. A client
    /// copy may archive the body first; the id stays until a RecoveryRep
    /// or an install whose log no longer names it.
    awaited: FxHashMap<ReqId, u64>,
    /// Ordered by a log entry a restart brought back, body not held and not
    /// yet asked for: recovery starts when apply or an AppendEntries
    /// reaches the entry. Boxed, and allocated only by a restore: a pool
    /// that never restores pays one word.
    restored: Option<Box<FxHashSet<ReqId>>>,
    /// Dedupe tombstones for bodies dropped by snapshot compaction: id →
    /// compaction time. The archive doubles as the duplicate-suppression
    /// set, so a body cannot simply vanish when its log entry is compacted
    /// — a delayed duplicate or client retry would get re-ordered and
    /// re-executed. Tombstones keep the id (16 bytes, no body) until the
    /// GC timeout expires them, which bounds memory by the request rate
    /// times the timeout instead of the full history.
    compacted: FxHashMap<ReqId, u64>,
    /// The keys of `compacted`, sorted: snapshot capture merges them with
    /// the interval's ids instead of sorting the whole set again. Each
    /// compaction sorts only its fresh ids and merges them in; GC filters
    /// it on the pass that scans `compacted`. Derived state, like the
    /// bounds below.
    compacted_sorted: Vec<ReqId>,
    /// Lower bounds on the oldest `arrived` in `unordered` and the oldest
    /// stamp in `compacted` (`u64::MAX`: nothing stamped since a scan left
    /// the map empty). Every writer of a stamp lowers the bound and entries
    /// that leave do not raise it, so it only goes stale downwards: while
    /// `now − bound` is within the timeout nothing in the map can be past
    /// it and [`UnorderedPool::gc`] does not touch the map. Derived state —
    /// two pools with equal maps may carry different bounds — so it stays
    /// out of [`UnorderedPool::hash_state`].
    unordered_oldest: u64,
    compacted_oldest: u64,
}

impl Default for UnorderedPool {
    fn default() -> Self {
        Self {
            unordered: FxHashMap::default(),
            archive: Archive::default(),
            awaited: FxHashMap::default(),
            restored: None,
            compacted: FxHashMap::default(),
            compacted_sorted: Vec::new(),
            unordered_oldest: u64::MAX,
            compacted_oldest: u64::MAX,
        }
    }
}

/// One side of [`UnorderedPool::gc`]: drops the entries of `map` strictly
/// older than `timeout` at `now`, unless `oldest` (see the field docs) says
/// none can be. Returns how many entries it examined: none, or the whole map
/// once the bound crosses the boundary, after which the bound is exact again.
fn expire<V>(
    map: &mut FxHashMap<ReqId, V>,
    oldest: &mut u64,
    stamp: impl Fn(&V) -> u64,
    now: u64,
    timeout: u64,
) -> usize {
    if now.saturating_sub(*oldest) <= timeout {
        return 0;
    }
    let examined = map.len();
    let mut survivors_oldest = u64::MAX;
    map.retain(|_, v| {
        let s = stamp(v);
        let keep = now.saturating_sub(s) <= timeout;
        if keep {
            survivors_oldest = survivors_oldest.min(s);
        }
        keep
    });
    *oldest = survivors_oldest;
    examined
}

/// Merges `add` into `ids`, both sorted and duplicate-free, keeping `ids`
/// sorted and duplicate-free: one linear pass from the back, in place, no
/// comparison sort.
pub(crate) fn merge_sorted_ids(ids: &mut Vec<ReqId>, add: &[ReqId]) {
    // `ids[..i]` is the unmerged front; everything from `k` on is final.
    let mut i = ids.len();
    // Exact: the merge copies `ids` anyway, and doubling would leave the
    // tombstone mirror up to twice its live size.
    ids.reserve_exact(add.len());
    ids.extend_from_slice(add);
    let mut k = ids.len();
    for &id in add.iter().rev() {
        while i > 0 && ids[i - 1] > id {
            i -= 1;
            k -= 1;
            ids[k] = ids[i];
        }
        if i > 0 && ids[i - 1] == id {
            continue;
        }
        k -= 1;
        ids[k] = id;
    }
    // Each duplicate skipped left one slot between the front and the rest.
    ids.drain(i..k);
}

impl UnorderedPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a client request awaiting ordering and returns the parked copy
    /// — the first one, when this is a duplicate arrival (e.g. a client
    /// retry) — or `None` if the request is already ordered here, in which
    /// case nothing is parked and a body still lacking is archived.
    pub fn insert(&mut self, id: ReqId, kind: OpKind, body: Bytes, now: u64) -> Option<&PooledReq> {
        if self.archive.contains(id) || self.compacted.contains_key(&id) {
            return None;
        }
        if self.awaited.contains_key(&id) || self.unrestore(&id) {
            self.archive.insert(id, body);
            return None;
        }
        self.unordered_oldest = self.unordered_oldest.min(now);
        Some(self.unordered.entry(id).or_insert(PooledReq {
            kind,
            body,
            arrived: now,
        }))
    }

    /// True if a log slot on this node names the request: its body is
    /// archived, awaited or not yet asked for, or a snapshot compacted it.
    /// Used for duplicate suppression on the leader.
    pub fn is_ordered(&self, id: ReqId) -> bool {
        self.archive.contains(id)
            || self.compacted.contains_key(&id)
            || self.awaited.contains_key(&id)
            || self.restored.as_ref().is_some_and(|r| r.contains(&id))
    }

    /// Drops `id`'s restored marker; true if it had one.
    fn unrestore(&mut self, id: &ReqId) -> bool {
        self.restored.as_mut().is_some_and(|r| r.remove(id))
    }

    /// Looks up a request body wherever it lives (the archive first: the
    /// node's callers look up ordered bodies).
    pub fn get(&self, id: ReqId) -> Option<&Bytes> {
        self.archive
            .get(id)
            .or_else(|| self.unordered.get(&id).map(|r| &r.body))
    }

    /// Looks up a request still awaiting ordering.
    pub fn parked(&self, id: ReqId) -> Option<&PooledReq> {
        self.unordered.get(&id)
    }

    /// Marks a request as ordered: moves it from the unordered set to the
    /// archive (it is now referenced by a log entry and must outlive GC so
    /// peers can recover it). Returns false if no body is archived and no
    /// tombstone stands for one ([`UnorderedPool::bind`] then starts
    /// recovery).
    pub fn mark_ordered(&mut self, id: ReqId) -> bool {
        // A parked id is never ordered in any other way (`insert` refuses
        // those; every path into them clears the parked copy), so the
        // common case needs no further look.
        match self.unordered.remove(&id) {
            Some(PooledReq { body, .. }) => {
                self.archive.insert(id, body);
                true
            }
            None => self.archive.contains(id) || self.compacted.contains_key(&id),
        }
    }

    /// Binds `id` to an AppendEntries entry: a parked body moves to the
    /// archive. True when recovery must start now: the id is neither
    /// compacted here nor already awaited, and its body is nowhere here.
    pub fn bind(&mut self, id: ReqId, now: u64) -> bool {
        !self.compacted.contains_key(&id) && self.await_body(id, now)
    }

    /// Like [`UnorderedPool::bind`], for an entry a stalled apply needs: a
    /// tombstone does not stop recovery (peers that compacted the body
    /// answer with their snapshot). The id is then awaited from `now`.
    pub fn await_body(&mut self, id: ReqId, now: u64) -> bool {
        self.mark_ordered(id);
        if self.archive.contains(id) || self.awaited.contains_key(&id) {
            return false;
        }
        self.unrestore(&id);
        self.awaited.insert(id, now);
        true
    }

    /// Marks the ids of the log entries a restart brought back as ordered:
    /// a body not held here is not asked for yet.
    pub fn restore_ordered(&mut self, ids: impl Iterator<Item = ReqId>) {
        for id in ids {
            if !self.mark_ordered(id) && !self.awaited.contains_key(&id) {
                self.restored.get_or_insert_default().insert(id);
            }
        }
    }

    /// The body of an ordered request, for the applier (a parked copy
    /// moves to the archive).
    pub fn ordered_body(&mut self, id: ReqId) -> Option<Bytes> {
        if let Some(body) = self.archive.get(id) {
            return Some(body.clone());
        }
        self.mark_ordered(id);
        self.archive.get(id).cloned()
    }

    /// Files a body recovered from a peer in the archive; true if it was
    /// awaited. A late reply for an id compacted meanwhile is ignored:
    /// nothing would ever drop the body again, and a later recovery request
    /// for the id must be answered with the snapshot.
    pub fn insert_recovered(&mut self, id: ReqId, body: Bytes) -> bool {
        let awaited = self.awaited.remove(&id).is_some();
        self.unrestore(&id);
        if !self.compacted.contains_key(&id) {
            self.unordered.remove(&id);
            self.archive.insert(id, body);
        }
        awaited
    }

    /// The awaited ids with the time each was last asked for, in retry
    /// order.
    pub(crate) fn awaited_mut(&mut self) -> impl ExactSizeIterator<Item = (&ReqId, &mut u64)> {
        self.awaited.iter_mut()
    }

    /// Forgets the awaited ids `named` does not yield: after an install,
    /// those no retained log entry names.
    pub fn retain_awaited(&mut self, named: impl Iterator<Item = ReqId>) {
        let mut unnamed: FxHashSet<ReqId> = self.awaited.keys().copied().collect();
        for id in named {
            if unnamed.is_empty() {
                break;
            }
            unnamed.remove(&id);
        }
        self.awaited.retain(|id, _| !unnamed.contains(id));
    }

    /// Garbage-collects unordered requests **strictly older** than
    /// `timeout` ns: an entry aged exactly `timeout` survives, one aged
    /// `timeout + 1` is collected (boundary pinned by
    /// `gc_boundary_is_strictly_older_than`).
    /// Returns how many were collected.
    ///
    /// Called every tick, so it costs nothing while nothing can be due: a
    /// map is scanned only once its oldest-stamp bound crosses the boundary
    /// (one pass per compaction batch that expires, not one per call).
    /// Also returns how many map entries it examined: the work it did, as
    /// opposed to the work it skipped.
    pub fn gc(&mut self, now: u64, timeout: u64) -> (usize, usize) {
        let before = self.unordered.len();
        let parked = expire(
            &mut self.unordered,
            &mut self.unordered_oldest,
            |r| r.arrived,
            now,
            timeout,
        );
        // Compaction tombstones expire on the same boundary: by then every
        // client retry and delayed duplicate of the request has died out.
        let tombstones = expire(
            &mut self.compacted,
            &mut self.compacted_oldest,
            |t| *t,
            now,
            timeout,
        );
        // Tombstones leave only through `expire`, so the mirror is stale
        // only right after a pass that dropped some.
        if self.compacted_sorted.len() != self.compacted.len() {
            let live = &self.compacted;
            self.compacted_sorted.retain(|id| live.contains_key(id));
        }
        (before - self.unordered.len(), parked + tombstones)
    }

    /// Number of requests awaiting ordering.
    pub fn unordered_len(&self) -> usize {
        self.unordered.len()
    }

    /// Ids of all requests awaiting ordering, sorted (deterministic across
    /// replicas). A new leader proposes these — requests the failed leader
    /// received but never ordered (§5).
    pub fn unordered_ids(&self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self.unordered.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of ordered (archived) request bodies retained.
    pub fn archived_len(&self) -> usize {
        self.archive.len()
    }

    /// Ids of all live (unexpired) compaction tombstones, sorted.
    pub fn tombstones(&self) -> &[ReqId] {
        &self.compacted_sorted
    }

    /// Adds ids that just entered `compacted` to its sorted mirror: sorts
    /// only the fresh batch and merges it in.
    fn mirror_fresh(&mut self, mut fresh: Vec<ReqId>) {
        fresh.sort_unstable();
        merge_sorted_ids(&mut self.compacted_sorted, &fresh);
    }

    /// Number of live (unexpired) compaction tombstones.
    pub fn tombstone_len(&self) -> usize {
        self.compacted.len()
    }

    /// Seeds the dedupe tombstones carried inside an installed snapshot:
    /// every id is marked ordered-and-compacted, and any parked unordered
    /// or archived copy this node still holds is dropped (an awaited id is
    /// left to [`UnorderedPool::retain_awaited`]). This is what
    /// makes snapshot installation safe for exactly-one-reply: an
    /// installer that never received the log entries below the snapshot
    /// horizon has no way to enumerate their ids from its own log, so
    /// without the carried set a request covered by the snapshot could
    /// linger in its unordered pool — and a later leader election would
    /// re-propose (and re-execute) it via [`UnorderedPool::unordered_ids`].
    /// Returns how many parked bodies were dropped.
    pub fn seed_tombstones(&mut self, ids: &[ReqId], now: u64) -> usize {
        let mut dropped = 0;
        let mut fresh = Vec::with_capacity(ids.len());
        for id in ids {
            if self.unordered.remove(id).is_some() {
                dropped += 1;
            }
            if self.archive.remove(*id).is_some() {
                dropped += 1;
            }
            self.unrestore(id);
            if let Entry::Vacant(slot) = self.compacted.entry(*id) {
                slot.insert(now);
                fresh.push(*id);
            }
        }
        if !ids.is_empty() {
            self.compacted_oldest = self.compacted_oldest.min(now);
        }
        self.mirror_fresh(fresh);
        dropped
    }

    /// Feeds the pool's full content into `h` for model-checker state
    /// fingerprints: every map and set as an id-sorted vector, parked
    /// arrival times, recovery and tombstone stamps as ages relative to
    /// `now` (only age drives GC and retries, and GC never expires an
    /// ordered id).
    pub fn hash_state(&self, now: u64, h: &mut dyn std::hash::Hasher) {
        let mut parked: Vec<(&ReqId, &PooledReq)> = self.unordered.iter().collect();
        parked.sort_unstable_by_key(|&(id, _)| id.as_u64());
        h.write_usize(parked.len());
        for (id, r) in parked {
            h.write_u64(id.as_u64());
            h.write_u8(r.kind as u8);
            h.write(&r.body);
            h.write_u64(now.saturating_sub(r.arrived));
        }
        h.write_usize(self.archive.len());
        for (id, body) in self.archive.sorted() {
            h.write_u64(id);
            h.write(body);
        }
        let restored = self.restored.iter().flat_map(|r| r.iter());
        let mut restored: Vec<u64> = restored.map(|id| id.as_u64()).collect();
        restored.sort_unstable();
        h.write_usize(restored.len());
        restored.iter().for_each(|&id| h.write_u64(id));
        for stamps in [&self.awaited, &self.compacted] {
            let mut aged: Vec<(u64, u64)> = stamps
                .iter()
                .map(|(id, &t)| (id.as_u64(), now.saturating_sub(t)))
                .collect();
            aged.sort_unstable();
            h.write_usize(aged.len());
            for (id, age) in aged {
                h.write_u64(id);
                h.write_u64(age);
            }
        }
    }

    /// Drops the archived bodies of the given ordered requests, leaving
    /// dedupe tombstones behind (expired by [`UnorderedPool::gc`]). Called
    /// when a snapshot compacts the log entries referencing them: peers
    /// that still need those operations receive the snapshot
    /// (InstallSnapshot) instead of per-request body recovery, so the
    /// bodies can finally leave memory. This is the payload half of the
    /// dual compaction schedule — bodies and ordering metadata compact
    /// independently. Returns how many bodies were dropped.
    pub fn compact_archive(&mut self, ids: &[ReqId], now: u64) -> usize {
        let before = self.archive.len();
        let mut fresh = Vec::with_capacity(ids.len());
        for id in ids {
            // An archived id is never tombstoned, so every drop is a new
            // tombstone.
            if self.archive.remove(*id).is_some() {
                self.compacted.insert(*id, now);
                fresh.push(*id);
            }
        }
        let dropped = before - self.archive.len();
        if dropped > 0 {
            self.compacted_oldest = self.compacted_oldest.min(now);
        }
        self.mirror_fresh(fresh);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u16) -> ReqId {
        ReqId::new(1, 1, n)
    }

    fn body() -> Bytes {
        Bytes::from_static(b"req")
    }

    #[test]
    fn insert_then_order() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        assert!(p.get(id(1)).is_some());
        assert_eq!(p.unordered_len(), 1);
        assert!(p.mark_ordered(id(1)));
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.archived_len(), 1);
        assert!(p.get(id(1)).is_some(), "still serveable for recovery");
    }

    #[test]
    fn a_block_emptied_by_compaction_is_reused() {
        let mut p = UnorderedPool::new();
        // rids 0..=15 fill one archive block, rid 16 opens the next.
        let ids: Vec<ReqId> = (0..=16).map(id).collect();
        for &i in &ids {
            p.insert(i, OpKind::ReadWrite, body(), 0);
            assert!(p.mark_ordered(i));
        }
        assert_eq!(p.archive.slab_len(), 2);
        assert_eq!(p.compact_archive(&ids[..15], 10), 15);
        assert!(p.get(id(15)).is_some(), "the block still holds rid 15");
        assert_eq!(p.compact_archive(&ids[15..16], 20), 1);
        // A later id in a fresh block (rids 32..=47) takes the emptied
        // block's slab slot and sees none of its old bodies.
        p.insert_recovered(id(40), Bytes::from_static(b"later"));
        assert_eq!(p.archive.slab_len(), 2, "no new block allocated");
        assert_eq!(&p.get(id(40)).unwrap()[..], b"later");
        assert!(p.get(id(16)).is_some());
        for n in (0..16).chain(32..40).chain(41..48) {
            assert!(p.get(id(n)).is_none(), "rid {n}");
        }
        assert_eq!(p.archived_len(), 2);
        assert!(p.is_ordered(id(0)), "compacted ids stay tombstoned");
    }

    #[test]
    fn ordering_a_missing_request_fails() {
        let mut p = UnorderedPool::new();
        assert!(!p.mark_ordered(id(9)));
    }

    #[test]
    fn mark_ordered_is_idempotent() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadOnly, body(), 0);
        assert!(p.mark_ordered(id(1)));
        assert!(p.mark_ordered(id(1)));
        assert_eq!(p.archived_len(), 1);
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"first"), 0);
        // The retry is handed the copy that was kept, not its own.
        let kept = p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"second"), 5);
        assert_eq!(&kept.expect("still parked").body[..], b"first");
        assert_eq!(&p.get(id(1)).unwrap()[..], b"first");
    }

    #[test]
    fn insert_after_archive_is_ignored() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        p.mark_ordered(id(1));
        let late = p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"late dup"), 9);
        assert!(late.is_none(), "reported as already ordered");
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(&p.get(id(1)).unwrap()[..], b"req");
    }

    #[test]
    fn gc_only_touches_unordered() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        p.insert(id(2), OpKind::ReadWrite, body(), 500);
        p.mark_ordered(id(1));
        let (n, _) = p.gc(1200, 600);
        assert_eq!(n, 1, "only the stale unordered one");
        assert!(p.get(id(1)).is_some(), "archived survives GC");
        assert!(p.get(id(2)).is_none());
    }

    #[test]
    fn gc_boundary_is_strictly_older_than() {
        // Pins the documented boundary: "older than timeout" means an entry
        // aged exactly `timeout` is still alive, and is collected one
        // nanosecond later.
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 1000);
        assert_eq!(p.gc(1000 + 600, 600).0, 0, "age == timeout survives");
        assert!(p.get(id(1)).is_some());
        assert_eq!(p.gc(1000 + 601, 600).0, 1, "age == timeout + 1 collected");
        assert!(p.get(id(1)).is_none());
    }

    #[test]
    fn archive_compaction_drops_bodies_but_keeps_dedupe() {
        let mut p = UnorderedPool::new();
        for n in 1..=3 {
            p.insert(id(n), OpKind::ReadWrite, body(), 0);
            p.mark_ordered(id(n));
        }
        assert_eq!(p.compact_archive(&[id(1), id(2), id(9)], 100), 2);
        assert!(p.get(id(1)).is_none(), "body is gone");
        assert!(p.get(id(3)).is_some(), "uncompacted body survives");
        // The tombstone still suppresses duplicates: a delayed copy or a
        // client retry of a compacted request must not be re-ordered and
        // re-executed (exactly-one-reply).
        assert!(p.is_ordered(id(1)));
        let dup = p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"dup"), 200);
        assert!(dup.is_none(), "a tombstone reports already ordered too");
        assert_eq!(p.unordered_len(), 0);
        assert!(p.mark_ordered(id(1)), "treated as already ordered");
        // Tombstones expire on the GC boundary, bounding their memory.
        p.gc(100 + 601, 600);
        assert!(!p.is_ordered(id(1)));
    }

    #[test]
    fn seeded_tombstones_purge_parked_copies_and_suppress_duplicates() {
        let mut p = UnorderedPool::new();
        // A copy of a snapshot-covered request is still parked unordered
        // (this node never saw the entry that ordered it).
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        // Another covered request sits archived locally.
        p.insert(id(2), OpKind::ReadWrite, body(), 0);
        p.mark_ordered(id(2));
        assert_eq!(p.seed_tombstones(&[id(1), id(2), id(7)], 50), 2);
        assert_eq!(p.unordered_len(), 0, "no re-proposal candidate remains");
        assert_eq!(p.archived_len(), 0);
        assert!(p.is_ordered(id(1)), "tombstone suppresses late duplicates");
        assert!(p.is_ordered(id(7)));
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"dup"), 60);
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.tombstones(), [id(1), id(2), id(7)]);
        // Seeded tombstones expire on the normal GC boundary.
        p.gc(50 + 601, 600);
        assert!(!p.is_ordered(id(7)));
    }

    #[test]
    fn gc_work_is_one_pass_per_expiring_batch() {
        const TIMEOUT: u64 = 500_000_000;
        const TICK: u64 = 250_000;
        // 50 000 tombstones in 17 batches, one every 72 ticks (18 ms), the
        // way periodic snapshots leave them.
        let batches: Vec<Vec<ReqId>> = (0..17u32)
            .map(|b| {
                let n = if b == 16 { 2_944 } else { 2_941 };
                (0..n).map(|i| ReqId::new(b, 0, i)).collect()
            })
            .collect();
        let mut p = UnorderedPool::new();
        // 2 000 ticks, 250 us apart, none with anything due: the last one
        // finds the first batch aged exactly `TIMEOUT`, which survives.
        for tick in 0..=2_000u64 {
            let now = tick * TICK;
            if tick % 72 == 0 {
                if let Some(ids) = batches.get((tick / 72) as usize) {
                    p.seed_tombstones(ids, now);
                }
            }
            assert_eq!(p.gc(now, TIMEOUT), (0, 0), "nothing due, nothing examined");
        }
        assert_eq!(p.tombstone_len(), 50_000);
        // One nanosecond later the first batch is past the boundary: one
        // pass over the map drops exactly that batch.
        assert_eq!(p.gc(TIMEOUT + 1, TIMEOUT).1, 50_000);
        assert_eq!(p.tombstone_len(), 50_000 - batches[0].len());
        assert!(batches[0].iter().all(|&i| !p.is_ordered(i)));
        assert!(batches[1..].iter().flatten().all(|&i| p.is_ordered(i)));
        // The bound is now the second batch's stamp: idle until it is due.
        for tick in 2_001..=2_072 {
            assert_eq!(p.gc(tick * TICK, TIMEOUT).1, 0);
        }
        assert_eq!(p.gc(2_073 * TICK, TIMEOUT).1, 50_000 - batches[0].len());
        assert_eq!(
            p.tombstone_len(),
            50_000 - batches[0].len() - batches[1].len()
        );
    }

    #[test]
    fn merge_is_the_sorted_union() {
        let ids = |ns: &[u16]| ns.iter().map(|&n| id(n)).collect::<Vec<_>>();
        for (a, b) in [
            (&[][..], &[][..]),
            (&[1, 4, 6], &[]),
            (&[], &[2, 3]),
            (&[1, 4, 6], &[0, 2, 5, 9]),
            (&[1, 4, 6], &[1, 4, 5, 6, 7]),
            (&[5, 6], &[1, 2]),
        ] {
            let mut merged = ids(a);
            merge_sorted_ids(&mut merged, &ids(b));
            let mut expected = ids(a);
            expected.extend(ids(b));
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(merged, expected, "{a:?} ∪ {b:?}");
        }
    }

    #[test]
    fn recovered_bodies_land_in_archive() {
        let mut p = UnorderedPool::new();
        p.insert_recovered(id(3), body());
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.archived_len(), 1);
        assert!(p.mark_ordered(id(3)));
    }

    #[test]
    fn a_body_for_an_id_ordered_here_is_archived_not_parked() {
        let mut p = UnorderedPool::new();
        // Bound by an AppendEntries before any copy arrived: awaited.
        assert!(p.bind(id(1), 10), "recovery starts");
        assert!(!p.bind(id(1), 20), "and is not started twice");
        // Bound by a restored log entry: ordered, not yet asked.
        p.restore_ordered([id(2)].into_iter());
        assert!(p.is_ordered(id(1)) && p.is_ordered(id(2)));
        for n in [1, 2] {
            assert!(p.insert(id(n), OpKind::ReadWrite, body(), 30).is_none());
        }
        assert!(p.unordered_ids().is_empty(), "nothing to re-propose");
        assert_eq!(p.archived_len(), 2);
        // The awaited recovery completes when its reply lands; the body
        // the client copy brought stays.
        assert!(p.insert_recovered(id(1), Bytes::from_static(b"peer")));
        assert!(!p.insert_recovered(id(1), Bytes::from_static(b"peer")));
        assert_eq!(&p.get(id(1)).unwrap()[..], b"req");
        // A restored id the apply path reaches first becomes awaited.
        p.restore_ordered([id(3)].into_iter());
        assert!(p.bind(id(3), 40));
        // A stalled apply asks for a body a tombstone stands for (peers
        // answer with a snapshot); an AppendEntries does not.
        p.seed_tombstones(&[id(4)], 50);
        assert!(!p.bind(id(4), 60));
        assert!(p.await_body(id(4), 60));
    }

    #[test]
    fn late_recovery_does_not_resurrect_a_compacted_body() {
        let mut p = UnorderedPool::new();
        p.seed_tombstones(&[id(4)], 5);
        p.insert_recovered(id(4), body());
        assert_eq!(p.archived_len(), 0);
        assert!(p.get(id(4)).is_none());
        assert_eq!(p.tombstones(), &[id(4)]);
    }
}
