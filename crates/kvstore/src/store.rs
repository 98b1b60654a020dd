//! The deterministic in-memory record map and command executor.
//!
//! Records live under composite keys `"<table>/<key>"` in a `BTreeMap`, so
//! SCAN is a plain ordered range walk and its result is identical across
//! replicas — the determinism requirement of state-machine replication.
//!
//! The executor runs on the wire body: a command's arguments are borrowed
//! from it, INSERT copies only the key and record it stores, and SCAN
//! writes its reply straight into one pooled buffer.

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::{BufMut, ByteArena, Bytes};

use crate::command::{put_bytes, take_u32, take_u64, take_u8, CodecError, Op};

/// The snapshot's per-record tag byte. It is the only tag there is; it
/// stays in the format so the blob (which restarted nodes stream and
/// figures measure) keeps its layout.
const TAG_RECORD: u8 = 0;

/// Execution metrics for one command, consumed by the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Bytes of argument payload written into the store.
    pub bytes_written: usize,
    /// Bytes of stored data read/returned.
    pub bytes_read: usize,
    /// Records touched.
    pub records: usize,
}

/// The data store. A clone shares every key and record buffer with the
/// original (they are refcounted [`Bytes`]) but owns its map, so a write
/// to either leaves the other unchanged.
#[derive(Clone, Default)]
pub struct Store {
    map: BTreeMap<Bytes, Bytes>,
    /// Reusable buffer for a SCAN's composite start key, which the wire
    /// body holds in two pieces.
    start: Vec<u8>,
}

/// Writes the composite key `table/key` into `out`.
fn put_table_key(out: &mut impl BufMut, table: &[u8], key: &[u8]) {
    out.put_slice(table);
    out.put_u8(b'/');
    out.put_slice(key);
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store holds no record.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The record stored under the composite key `table/key`.
    pub fn get(&self, table_key: &[u8]) -> Option<&Bytes> {
        self.map.get(table_key)
    }

    /// Serializes every record into a snapshot blob: `[u64 n]`, then per
    /// record `[u32 klen][key][u8 0][u32 vlen][record]`, in key order, so
    /// replicas that applied the same mutation prefix produce
    /// byte-identical blobs — the determinism requirement of
    /// snapshot-based state transfer. The blob is sized first and written
    /// into one exact buffer, so a snapshot costs its own size once.
    pub fn snapshot(&self) -> Bytes {
        let len = 8 + self
            .map
            .iter()
            .map(|(k, rec)| 4 + k.len() + 1 + 4 + rec.len())
            .sum::<usize>();
        Bytes::build(len, |mut out| {
            out.put_u64(self.map.len() as u64);
            for (k, rec) in &self.map {
                put_bytes(&mut out, k);
                out.put_u8(TAG_RECORD);
                put_bytes(&mut out, rec);
            }
            debug_assert!(out.is_empty(), "snapshot sized exactly");
        })
    }

    /// Replaces the records with the contents of a [`Store::snapshot`]
    /// blob. Returns `false` (leaving the store empty) if the blob is
    /// malformed — truncated, or with bytes after its last record — which
    /// only a corrupted transfer can produce, since the encoder is the only
    /// writer.
    ///
    /// The blob is copied once, into one buffer, and every key and record
    /// is a slice of it: one allocation per restore instead of two per
    /// record. The trade-off is that the buffer lives until its last
    /// restored key or record is dropped, so a store whose restored records
    /// were all overwritten but one still holds the whole blob.
    pub fn restore(&mut self, snap: &[u8]) -> bool {
        /// The next length-prefixed field of `blob`, which `cur` ends.
        fn take_slice(blob: &Bytes, cur: &mut &[u8]) -> Option<Bytes> {
            let len = take_u32(cur)? as usize;
            let at = blob.len() - cur.len();
            *cur = cur.get(len..)?;
            Some(blob.slice(at..at + len))
        }
        fn take_record(blob: &Bytes, cur: &mut &[u8]) -> Option<(Bytes, Bytes)> {
            let key = take_slice(blob, cur)?;
            if take_u8(cur)? != TAG_RECORD {
                return None;
            }
            Some((key, take_slice(blob, cur)?))
        }
        self.map.clear();
        let blob = Bytes::copy_from_slice(snap);
        let mut cur = &blob[..];
        let Some(n) = take_u64(&mut cur) else {
            return snap.is_empty();
        };
        let framed = (0..n).all(|_| {
            let record = take_record(&blob, &mut cur);
            record.map(|(key, rec)| self.map.insert(key, rec)).is_some()
        }) && cur.is_empty();
        if !framed {
            self.map.clear();
        }
        framed
    }

    /// Executes one encoded command (a [`crate::Command::encode`] body),
    /// returning the encoded reply, written into a buffer from `arena`,
    /// and the execution metrics. A body that does not decode changes
    /// nothing and yields [`crate::Command::decode`]'s error.
    pub fn execute(
        &mut self,
        body: &[u8],
        arena: &mut ByteArena,
    ) -> Result<(Bytes, ExecMetrics), CodecError> {
        let mut m = ExecMetrics::default();
        let reply = match Op::decode(body)? {
            Op::Insert(table, key, rec) => {
                m.bytes_written = rec.len();
                m.records = 1;
                let key = Bytes::build(table.len() + 1 + key.len(), |mut out| {
                    put_table_key(&mut out, table, key)
                });
                self.map.insert(key, Bytes::copy_from_slice(rec));
                arena.alloc(b"+")
            }
            Op::Scan(table, key, n) => {
                // Ordered range walk over the table's composite keys, run
                // twice: once to size the reply, once to write it.
                self.start.clear();
                put_table_key(&mut self.start, table, key);
                let start = &self.start[..];
                let prefix = &start[..=table.len()];
                let in_table = || {
                    self.map
                        .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
                        .take_while(|(key, _)| key.starts_with(prefix))
                        .take(n as usize)
                };
                for (key, rec) in in_table() {
                    m.bytes_read += key.len() + rec.len();
                    m.records += 1;
                }
                // `*` and the item count, then per record `$`-prefixed key
                // and record bulks with their lengths.
                let len = 5 + m.records * 10 + m.bytes_read;
                arena.alloc_with(len, |mut out| {
                    out.put_u8(b'*');
                    out.put_u32(2 * m.records as u32);
                    for (key, rec) in in_table() {
                        out.put_u8(b'$');
                        put_bytes(&mut out, key);
                        out.put_u8(b'$');
                        put_bytes(&mut out, rec);
                    }
                    debug_assert!(out.is_empty(), "scan reply sized exactly");
                })
            }
        };
        Ok((reply, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use crate::reply::Reply;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Runs `cmd` through the executor and decodes its reply.
    fn exec(s: &mut Store, cmd: &Command) -> (Reply, ExecMetrics) {
        let (wire, m) = s
            .execute(&cmd.encode(), &mut ByteArena::new())
            .expect("an encoded command decodes");
        (Reply::decode(&wire).expect("the reply decodes"), m)
    }

    /// The key/record items of a SCAN reply.
    fn items(reply: Reply) -> Vec<Reply> {
        match reply {
            Reply::Array(items) => items,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ycsbe_insert_and_scan() {
        let mut s = Store::new();
        for i in [3u32, 1, 4, 1, 5, 9, 2, 6] {
            let key = format!("user{i:04}");
            exec(
                &mut s,
                &Command::Insert(b("usertable"), b(&key), b("record")),
            );
        }
        assert_eq!(s.len(), 7); // 1 duplicate
        let (r, m) = exec(&mut s, &Command::Scan(b("usertable"), b("user0002"), 3));
        let items = items(r);
        assert_eq!(items.len(), 6, "3 key/record pairs");
        assert_eq!(items[0], Reply::Bulk(b("usertable/user0002")));
        assert_eq!(items[2], Reply::Bulk(b("usertable/user0003")));
        assert_eq!(items[4], Reply::Bulk(b("usertable/user0004")));
        assert_eq!(m.records, 3);
        assert!(m.bytes_read > 0);
    }

    #[test]
    fn scan_respects_table_boundary() {
        let mut s = Store::new();
        exec(&mut s, &Command::Insert(b("aaa"), b("k9"), b("r")));
        exec(&mut s, &Command::Insert(b("bbb"), b("k1"), b("r")));
        let (r, _) = exec(&mut s, &Command::Scan(b("aaa"), b("k0"), 10));
        assert_eq!(items(r).len(), 2, "only table aaa");
    }

    #[test]
    fn scan_count_limits_results() {
        let mut s = Store::new();
        for i in 0..50 {
            let key = format!("user{i:04}");
            exec(&mut s, &Command::Insert(b("t"), b(&key), b("r")));
        }
        let (r, m) = exec(&mut s, &Command::Scan(b("t"), b("user0000"), 10));
        assert_eq!(items(r).len(), 20);
        assert_eq!(m.records, 10, "YCSB-E max scan length honoured");
    }

    /// A restarted node is streamed these exact bytes, so the blob format,
    /// written out by hand, is the oracle.
    #[test]
    fn snapshot_of_two_records_is_pinned() {
        let mut s = Store::new();
        exec(&mut s, &Command::Insert(b("t"), b("b"), b("yz")));
        exec(&mut s, &Command::Insert(b("t"), b("a"), b("x")));
        let snap = s.snapshot();
        assert_eq!(
            &snap[..],
            b"\0\0\0\0\0\0\0\x02\
              \0\0\0\x03t/a\0\0\0\0\x01x\
              \0\0\0\x03t/b\0\0\0\0\x02yz"
        );
        let mut r = Store::new();
        assert!(r.restore(&snap));
        assert_eq!(r.len(), 2);
        assert_eq!(
            exec(&mut r, &Command::Scan(b("t"), b("b"), 1)).0,
            Reply::Array(vec![Reply::Bulk(b("t/b")), Reply::Bulk(b("yz"))])
        );
        assert_eq!(
            r.snapshot(),
            snap,
            "restored store re-encodes byte-identically"
        );
    }

    /// Restore copies the blob once: every key and record is a slice of
    /// that one copy, at its offset in the blob.
    #[test]
    fn restored_records_point_into_one_buffer() {
        let mut s = Store::new();
        exec(&mut s, &Command::Insert(b("t"), b("b"), b("yz")));
        exec(&mut s, &Command::Insert(b("t"), b("a"), b("x")));
        let snap = s.snapshot();
        let mut r = Store::new();
        assert!(r.restore(&snap));
        let fields: Vec<&Bytes> = r.map.iter().flat_map(|(k, v)| [k, v]).collect();
        let base = fields[0].as_ptr() as usize - 12;
        let offsets: Vec<usize> = fields.iter().map(|f| f.as_ptr() as usize - base).collect();
        assert_eq!(
            offsets,
            [12, 20, 25, 33],
            "t/a, x, t/b, yz where the blob has them"
        );
        assert_ne!(
            fields[0].as_ptr(),
            snap[12..].as_ptr(),
            "a copy, not the caller's blob"
        );
    }

    #[test]
    fn snapshot_encoding_is_deterministic_across_insertion_orders() {
        // Same final state reached via different key insertion orders must
        // serialize identically (BTreeMap order, not insertion order).
        let mut a = Store::new();
        let mut z = Store::new();
        for i in 0..20 {
            exec(
                &mut a,
                &Command::Insert(b("t"), b(&format!("k{i:02}")), b("v")),
            );
            exec(
                &mut z,
                &Command::Insert(b("t"), b(&format!("k{:02}", 19 - i)), b("v")),
            );
        }
        assert_eq!(a.snapshot(), z.snapshot());
    }

    #[test]
    fn malformed_snapshot_is_rejected() {
        let mut s = Store::new();
        exec(&mut s, &Command::Insert(b("t"), b("k"), b("v")));
        let snap = s.snapshot();
        let mut r = Store::new();
        assert!(!r.restore(&snap[..snap.len() - 1]), "truncated blob");
        assert!(r.is_empty(), "failed restore leaves the store empty");
        let mut appended = snap.to_vec();
        appended.push(0);
        assert!(!r.restore(&appended), "trailing byte after the last record");
        assert!(
            r.is_empty(),
            "a blob with trailing bytes leaves the store empty"
        );
        assert!(r.restore(&[]) || r.is_empty());
        assert!(Store::new().restore(&Store::new().snapshot()), "empty ok");
    }

    /// Tags 1–3 once carried lists, hashes and sets; no writer emits them.
    #[test]
    fn non_record_tags_are_rejected() {
        for tag in 1..=3u8 {
            // One key, then the tag and an empty (zero-count) payload.
            let mut blob = b"\0\0\0\0\0\0\0\x01\0\0\0\x01k".to_vec();
            blob.extend_from_slice(&[tag, 0, 0, 0, 0]);
            let mut r = Store::new();
            exec(&mut r, &Command::Insert(b("t"), b("k"), b("v")));
            assert!(!r.restore(&blob), "tag {tag}");
            assert!(r.is_empty(), "tag {tag} leaves the store empty");
        }
    }

    #[test]
    fn execution_is_deterministic_across_instances() {
        // Same command sequence on two stores → identical replies; the SMR
        // determinism contract.
        let cmds: Vec<Command> = (0..100)
            .flat_map(|i| {
                let key = format!("user{:04}", (i * 37) % 50);
                vec![
                    Command::Insert(b("t"), b(&key), b("r")),
                    Command::Scan(b("t"), b(&key), 5),
                ]
            })
            .collect();
        let mut s1 = Store::new();
        let mut s2 = Store::new();
        for c in &cmds {
            assert_eq!(exec(&mut s1, c).0, exec(&mut s2, c).0);
        }
        assert_eq!(s1.len(), s2.len());
    }
}
