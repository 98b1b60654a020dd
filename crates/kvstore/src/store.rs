//! The deterministic in-memory keyspace and command executor.
//!
//! The keyspace is a `BTreeMap` so every iteration-order-sensitive command
//! (SCAN, HGETALL, SMEMBERS-style results) is identical across replicas —
//! the determinism requirement of state-machine replication. YCSB-E records
//! live under composite keys `"<table>/<key>"`, which makes SCAN a plain
//! ordered range walk exactly like a Redis sorted structure would give.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::{BufMut, Bytes};

use crate::command::Command;
use crate::reply::Reply;
use crate::value::Value;

/// Snapshot type tags, one per [`Value`] variant.
const TAG_STR: u8 = 0;
const TAG_LIST: u8 = 1;
const TAG_HASH: u8 = 2;
const TAG_SET: u8 = 3;

/// Execution metrics for one command, consumed by the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Bytes of argument payload written into the store.
    pub bytes_written: usize,
    /// Bytes of stored data read/returned.
    pub bytes_read: usize,
    /// Records (keys/elements/fields) touched.
    pub records: usize,
}

/// The data store. A clone shares every key and value buffer with the
/// original (they are refcounted [`Bytes`]) but owns its map, so a write
/// to either leaves the other unchanged.
#[derive(Clone, Default)]
pub struct Store {
    map: BTreeMap<Bytes, Value>,
}

fn wrongtype(found: &Value) -> Reply {
    Reply::Err(format!("WRONGTYPE found {}", found.type_name()))
}

/// Composite key for YCSB-E table records.
fn table_key(table: &Bytes, key: &Bytes) -> Bytes {
    let mut k = Vec::with_capacity(table.len() + 1 + key.len());
    k.extend_from_slice(table);
    k.push(b'/');
    k.extend_from_slice(key);
    Bytes::from(k)
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the keyspace is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serializes the whole keyspace into a snapshot blob. The encoding
    /// walks the `BTreeMap` (and the ordered structures inside each value)
    /// in key order, so replicas that applied the same mutation prefix
    /// produce byte-identical blobs — the determinism requirement of
    /// snapshot-based state transfer.
    pub fn snapshot(&self) -> Bytes {
        let mut out: Vec<u8> = Vec::new();
        out.put_u64(self.map.len() as u64);
        let put_bytes = |out: &mut Vec<u8>, b: &Bytes| {
            out.put_u32(b.len() as u32);
            out.put_slice(b);
        };
        for (k, v) in &self.map {
            put_bytes(&mut out, k);
            match v {
                Value::Str(s) => {
                    out.put_u8(TAG_STR);
                    put_bytes(&mut out, s);
                }
                Value::List(l) => {
                    out.put_u8(TAG_LIST);
                    out.put_u32(l.len() as u32);
                    for e in l {
                        put_bytes(&mut out, e);
                    }
                }
                Value::Hash(h) => {
                    out.put_u8(TAG_HASH);
                    out.put_u32(h.len() as u32);
                    for (f, val) in h {
                        put_bytes(&mut out, f);
                        put_bytes(&mut out, val);
                    }
                }
                Value::Set(s) => {
                    out.put_u8(TAG_SET);
                    out.put_u32(s.len() as u32);
                    for e in s {
                        put_bytes(&mut out, e);
                    }
                }
            }
        }
        Bytes::from(out)
    }

    /// Replaces the keyspace with the contents of a [`Store::snapshot`]
    /// blob. Returns `false` (leaving the store empty) if the blob is
    /// malformed — which only a corrupted transfer can produce, since the
    /// encoder is the only writer.
    pub fn restore(&mut self, snap: &[u8]) -> bool {
        self.map.clear();
        let mut cur = snap;
        let Some(n) = take_u64(&mut cur) else {
            return snap.is_empty();
        };
        for _ in 0..n {
            let Some(key) = take_bytes(&mut cur) else {
                self.map.clear();
                return false;
            };
            let value = match take_u8(&mut cur) {
                Some(TAG_STR) => take_bytes(&mut cur).map(Value::Str),
                Some(TAG_LIST) => take_seq(&mut cur).map(|v| Value::List(v.into_iter().collect())),
                Some(TAG_HASH) => take_u32(&mut cur).and_then(|n| {
                    let mut h = BTreeMap::new();
                    for _ in 0..n {
                        let f = take_bytes(&mut cur)?;
                        let v = take_bytes(&mut cur)?;
                        h.insert(f, v);
                    }
                    Some(Value::Hash(h))
                }),
                Some(TAG_SET) => take_seq(&mut cur).map(|v| Value::Set(v.into_iter().collect())),
                _ => None,
            };
            let Some(value) = value else {
                self.map.clear();
                return false;
            };
            self.map.insert(key, value);
        }
        true
    }

    /// Executes one command, returning the reply and execution metrics.
    pub fn execute(&mut self, cmd: &Command) -> (Reply, ExecMetrics) {
        let mut m = ExecMetrics::default();
        let reply = self.run(cmd, &mut m);
        (reply, m)
    }

    #[allow(clippy::too_many_lines)]
    fn run(&mut self, cmd: &Command, m: &mut ExecMetrics) -> Reply {
        match cmd {
            Command::Set(k, v) => {
                m.bytes_written = v.len();
                m.records = 1;
                self.map.insert(k.clone(), Value::Str(v.clone()));
                Reply::Ok
            }
            Command::Get(k) => match self.map.get(k) {
                None => Reply::Nil,
                Some(Value::Str(s)) => {
                    m.bytes_read = s.len();
                    m.records = 1;
                    Reply::Bulk(s.clone())
                }
                Some(v) => wrongtype(v),
            },
            Command::Del(k) => {
                let n = self.map.remove(k).is_some() as i64;
                m.records = n as usize;
                Reply::Int(n)
            }
            Command::Exists(k) => Reply::Int(self.map.contains_key(k) as i64),
            Command::Incr(k) => match self.map.get_mut(k) {
                None => {
                    self.map
                        .insert(k.clone(), Value::Str(Bytes::from_static(b"1")));
                    m.records = 1;
                    Reply::Int(1)
                }
                Some(Value::Str(s)) => {
                    let Ok(cur) = std::str::from_utf8(s).unwrap_or("x").parse::<i64>() else {
                        return Reply::Err("value is not an integer".to_string());
                    };
                    let next = cur + 1;
                    *s = Bytes::from(next.to_string());
                    m.records = 1;
                    Reply::Int(next)
                }
                Some(v) => wrongtype(v),
            },
            Command::Append(k, v) => match self.map.get_mut(k) {
                None => {
                    m.bytes_written = v.len();
                    self.map.insert(k.clone(), Value::Str(v.clone()));
                    Reply::Int(v.len() as i64)
                }
                Some(Value::Str(s)) => {
                    let mut joined = Vec::with_capacity(s.len() + v.len());
                    joined.extend_from_slice(s);
                    joined.extend_from_slice(v);
                    m.bytes_written = v.len();
                    let len = joined.len();
                    *s = Bytes::from(joined);
                    Reply::Int(len as i64)
                }
                Some(v) => wrongtype(v),
            },
            Command::LPush(k, v) | Command::RPush(k, v) => {
                let front = matches!(cmd, Command::LPush(..));
                let entry = self
                    .map
                    .entry(k.clone())
                    .or_insert_with(|| Value::List(VecDeque::new()));
                match entry {
                    Value::List(l) => {
                        m.bytes_written = v.len();
                        m.records = 1;
                        if front {
                            l.push_front(v.clone());
                        } else {
                            l.push_back(v.clone());
                        }
                        Reply::Int(l.len() as i64)
                    }
                    other => wrongtype(other),
                }
            }
            Command::LPop(k) => match self.map.get_mut(k) {
                None => Reply::Nil,
                Some(Value::List(l)) => match l.pop_front() {
                    Some(v) => {
                        m.bytes_read = v.len();
                        m.records = 1;
                        Reply::Bulk(v)
                    }
                    None => Reply::Nil,
                },
                Some(v) => wrongtype(v),
            },
            Command::LLen(k) => match self.map.get(k) {
                None => Reply::Int(0),
                Some(Value::List(l)) => Reply::Int(l.len() as i64),
                Some(v) => wrongtype(v),
            },
            Command::LRange(k, lo, hi) => match self.map.get(k) {
                None => Reply::Array(vec![]),
                Some(Value::List(l)) => {
                    let lo = *lo as usize;
                    let hi = (*hi as usize).min(l.len().saturating_sub(1));
                    let mut items = Vec::new();
                    if lo <= hi {
                        for e in l.iter().skip(lo).take(hi - lo + 1) {
                            m.bytes_read += e.len();
                            m.records += 1;
                            items.push(Reply::Bulk(e.clone()));
                        }
                    }
                    Reply::Array(items)
                }
                Some(v) => wrongtype(v),
            },
            Command::HSet(k, f, v) => {
                let entry = self
                    .map
                    .entry(k.clone())
                    .or_insert_with(|| Value::Hash(BTreeMap::new()));
                match entry {
                    Value::Hash(h) => {
                        m.bytes_written = f.len() + v.len();
                        m.records = 1;
                        let fresh = h.insert(f.clone(), v.clone()).is_none();
                        Reply::Int(fresh as i64)
                    }
                    other => wrongtype(other),
                }
            }
            Command::HGet(k, f) => match self.map.get(k) {
                None => Reply::Nil,
                Some(Value::Hash(h)) => match h.get(f) {
                    Some(v) => {
                        m.bytes_read = v.len();
                        m.records = 1;
                        Reply::Bulk(v.clone())
                    }
                    None => Reply::Nil,
                },
                Some(v) => wrongtype(v),
            },
            Command::HDel(k, f) => match self.map.get_mut(k) {
                None => Reply::Int(0),
                Some(Value::Hash(h)) => {
                    let n = h.remove(f).is_some() as i64;
                    m.records = n as usize;
                    Reply::Int(n)
                }
                Some(v) => wrongtype(v),
            },
            Command::HLen(k) => match self.map.get(k) {
                None => Reply::Int(0),
                Some(Value::Hash(h)) => Reply::Int(h.len() as i64),
                Some(v) => wrongtype(v),
            },
            Command::HGetAll(k) => match self.map.get(k) {
                None => Reply::Array(vec![]),
                Some(Value::Hash(h)) => {
                    let mut items = Vec::with_capacity(h.len() * 2);
                    for (f, v) in h {
                        m.bytes_read += f.len() + v.len();
                        m.records += 1;
                        items.push(Reply::Bulk(f.clone()));
                        items.push(Reply::Bulk(v.clone()));
                    }
                    Reply::Array(items)
                }
                Some(v) => wrongtype(v),
            },
            Command::SAdd(k, v) => {
                let entry = self
                    .map
                    .entry(k.clone())
                    .or_insert_with(|| Value::Set(BTreeSet::new()));
                match entry {
                    Value::Set(s) => {
                        m.bytes_written = v.len();
                        m.records = 1;
                        Reply::Int(s.insert(v.clone()) as i64)
                    }
                    other => wrongtype(other),
                }
            }
            Command::SRem(k, v) => match self.map.get_mut(k) {
                None => Reply::Int(0),
                Some(Value::Set(s)) => {
                    let n = s.remove(v) as i64;
                    m.records = n as usize;
                    Reply::Int(n)
                }
                Some(v) => wrongtype(v),
            },
            Command::SIsMember(k, v) => match self.map.get(k) {
                None => Reply::Int(0),
                Some(Value::Set(s)) => Reply::Int(s.contains(v) as i64),
                Some(v) => wrongtype(v),
            },
            Command::SCard(k) => match self.map.get(k) {
                None => Reply::Int(0),
                Some(Value::Set(s)) => Reply::Int(s.len() as i64),
                Some(v) => wrongtype(v),
            },
            Command::Insert(t, k, rec) => {
                // The YCSB-E module op: one atomic record insert.
                m.bytes_written = rec.len();
                m.records = 1;
                self.map.insert(table_key(t, k), Value::Str(rec.clone()));
                Reply::Ok
            }
            Command::Scan(t, k, n) => {
                // Ordered range walk over the table's composite keys.
                let start = table_key(t, k);
                let mut prefix = t.to_vec();
                prefix.push(b'/');
                let mut items = Vec::new();
                for (key, val) in self.map.range(start..) {
                    if items.len() / 2 >= *n as usize || !key.starts_with(&prefix) {
                        break;
                    }
                    match val {
                        Value::Str(rec) => {
                            m.bytes_read += key.len() + rec.len();
                            m.records += 1;
                            items.push(Reply::Bulk(key.clone()));
                            items.push(Reply::Bulk(rec.clone()));
                        }
                        other => return wrongtype(other),
                    }
                }
                Reply::Array(items)
            }
            Command::DbSize => Reply::Int(self.map.len() as i64),
            Command::FlushAll => {
                m.records = self.map.len();
                self.map.clear();
                Reply::Ok
            }
            Command::Ping => Reply::Bulk(Bytes::from_static(b"PONG")),
        }
    }
}

// Snapshot decoding primitives: each consumes from the front of `cur` and
// returns `None` on underrun.

fn take_u8(cur: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = cur.split_first()?;
    *cur = rest;
    Some(b)
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (head, rest) = cur.split_at_checked(4)?;
    *cur = rest;
    Some(u32::from_be_bytes(head.try_into().expect("4 bytes")))
}

fn take_u64(cur: &mut &[u8]) -> Option<u64> {
    let (head, rest) = cur.split_at_checked(8)?;
    *cur = rest;
    Some(u64::from_be_bytes(head.try_into().expect("8 bytes")))
}

fn take_bytes(cur: &mut &[u8]) -> Option<Bytes> {
    let len = take_u32(cur)? as usize;
    let (head, rest) = cur.split_at_checked(len)?;
    *cur = rest;
    Some(Bytes::copy_from_slice(head))
}

fn take_seq(cur: &mut &[u8]) -> Option<Vec<Bytes>> {
    let n = take_u32(cur)?;
    let mut v = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        v.push(take_bytes(cur)?);
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn string_ops() {
        let mut s = Store::new();
        assert_eq!(s.execute(&Command::Get(b("k"))).0, Reply::Nil);
        assert_eq!(s.execute(&Command::Set(b("k"), b("v1"))).0, Reply::Ok);
        assert_eq!(s.execute(&Command::Get(b("k"))).0, Reply::Bulk(b("v1")));
        assert_eq!(s.execute(&Command::Exists(b("k"))).0, Reply::Int(1));
        assert_eq!(
            s.execute(&Command::Append(b("k"), b("+2"))).0,
            Reply::Int(4)
        );
        assert_eq!(s.execute(&Command::Get(b("k"))).0, Reply::Bulk(b("v1+2")));
        assert_eq!(s.execute(&Command::Del(b("k"))).0, Reply::Int(1));
        assert_eq!(s.execute(&Command::Del(b("k"))).0, Reply::Int(0));
    }

    #[test]
    fn incr_semantics() {
        let mut s = Store::new();
        assert_eq!(s.execute(&Command::Incr(b("c"))).0, Reply::Int(1));
        assert_eq!(s.execute(&Command::Incr(b("c"))).0, Reply::Int(2));
        assert_eq!(s.execute(&Command::Get(b("c"))).0, Reply::Bulk(b("2")));
        s.execute(&Command::Set(b("c"), b("not-a-number")));
        assert!(s.execute(&Command::Incr(b("c"))).0.is_err());
    }

    #[test]
    fn list_ops() {
        let mut s = Store::new();
        s.execute(&Command::RPush(b("l"), b("b")));
        s.execute(&Command::RPush(b("l"), b("c")));
        s.execute(&Command::LPush(b("l"), b("a")));
        assert_eq!(s.execute(&Command::LLen(b("l"))).0, Reply::Int(3));
        let (r, m) = s.execute(&Command::LRange(b("l"), 0, 10));
        assert_eq!(
            r,
            Reply::Array(vec![
                Reply::Bulk(b("a")),
                Reply::Bulk(b("b")),
                Reply::Bulk(b("c"))
            ])
        );
        assert_eq!(m.records, 3);
        assert_eq!(s.execute(&Command::LPop(b("l"))).0, Reply::Bulk(b("a")));
        assert_eq!(
            s.execute(&Command::LRange(b("l"), 1, 1)).0,
            Reply::Array(vec![Reply::Bulk(b("c"))])
        );
    }

    #[test]
    fn hash_ops() {
        let mut s = Store::new();
        assert_eq!(
            s.execute(&Command::HSet(b("h"), b("f1"), b("v1"))).0,
            Reply::Int(1)
        );
        assert_eq!(
            s.execute(&Command::HSet(b("h"), b("f1"), b("v2"))).0,
            Reply::Int(0)
        );
        s.execute(&Command::HSet(b("h"), b("f0"), b("v0")));
        assert_eq!(
            s.execute(&Command::HGet(b("h"), b("f1"))).0,
            Reply::Bulk(b("v2"))
        );
        assert_eq!(s.execute(&Command::HLen(b("h"))).0, Reply::Int(2));
        // Deterministic (sorted) field order.
        assert_eq!(
            s.execute(&Command::HGetAll(b("h"))).0,
            Reply::Array(vec![
                Reply::Bulk(b("f0")),
                Reply::Bulk(b("v0")),
                Reply::Bulk(b("f1")),
                Reply::Bulk(b("v2")),
            ])
        );
        assert_eq!(s.execute(&Command::HDel(b("h"), b("f0"))).0, Reply::Int(1));
        assert_eq!(s.execute(&Command::HLen(b("h"))).0, Reply::Int(1));
    }

    #[test]
    fn set_ops() {
        let mut s = Store::new();
        assert_eq!(s.execute(&Command::SAdd(b("s"), b("x"))).0, Reply::Int(1));
        assert_eq!(s.execute(&Command::SAdd(b("s"), b("x"))).0, Reply::Int(0));
        s.execute(&Command::SAdd(b("s"), b("y")));
        assert_eq!(s.execute(&Command::SCard(b("s"))).0, Reply::Int(2));
        assert_eq!(
            s.execute(&Command::SIsMember(b("s"), b("x"))).0,
            Reply::Int(1)
        );
        assert_eq!(s.execute(&Command::SRem(b("s"), b("x"))).0, Reply::Int(1));
        assert_eq!(
            s.execute(&Command::SIsMember(b("s"), b("x"))).0,
            Reply::Int(0)
        );
    }

    #[test]
    fn wrongtype_errors() {
        let mut s = Store::new();
        s.execute(&Command::Set(b("k"), b("v")));
        assert!(s.execute(&Command::LPush(b("k"), b("x"))).0.is_err());
        assert!(s.execute(&Command::HGet(b("k"), b("f"))).0.is_err());
        assert!(s.execute(&Command::SAdd(b("k"), b("m"))).0.is_err());
        // The failed commands must not have clobbered the value.
        assert_eq!(s.execute(&Command::Get(b("k"))).0, Reply::Bulk(b("v")));
    }

    #[test]
    fn ycsbe_insert_and_scan() {
        let mut s = Store::new();
        for i in [3u32, 1, 4, 1, 5, 9, 2, 6] {
            let key = format!("user{i:04}");
            s.execute(&Command::Insert(b("usertable"), b(&key), b("record")));
        }
        assert_eq!(s.execute(&Command::DbSize).0, Reply::Int(7)); // 1 duplicate
        let (r, m) = s.execute(&Command::Scan(b("usertable"), b("user0002"), 3));
        match r {
            Reply::Array(items) => {
                assert_eq!(items.len(), 6, "3 key/record pairs");
                assert_eq!(items[0], Reply::Bulk(b("usertable/user0002")));
                assert_eq!(items[2], Reply::Bulk(b("usertable/user0003")));
                assert_eq!(items[4], Reply::Bulk(b("usertable/user0004")));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.records, 3);
        assert!(m.bytes_read > 0);
    }

    #[test]
    fn scan_respects_table_boundary() {
        let mut s = Store::new();
        s.execute(&Command::Insert(b("aaa"), b("k9"), b("r")));
        s.execute(&Command::Insert(b("bbb"), b("k1"), b("r")));
        let (r, _) = s.execute(&Command::Scan(b("aaa"), b("k0"), 10));
        match r {
            Reply::Array(items) => assert_eq!(items.len(), 2, "only table aaa"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_count_limits_results() {
        let mut s = Store::new();
        for i in 0..50 {
            let key = format!("user{i:04}");
            s.execute(&Command::Insert(b("t"), b(&key), b("r")));
        }
        let (r, m) = s.execute(&Command::Scan(b("t"), b("user0000"), 10));
        match r {
            Reply::Array(items) => assert_eq!(items.len(), 20),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.records, 10, "YCSB-E max scan length honoured");
    }

    #[test]
    fn flush_and_dbsize() {
        let mut s = Store::new();
        s.execute(&Command::Set(b("a"), b("1")));
        s.execute(&Command::Set(b("b"), b("2")));
        assert_eq!(s.execute(&Command::DbSize).0, Reply::Int(2));
        assert_eq!(s.execute(&Command::FlushAll).0, Reply::Ok);
        assert!(s.is_empty());
    }

    #[test]
    fn snapshot_round_trips_every_value_type() {
        let mut s = Store::new();
        s.execute(&Command::Set(b("str"), b("hello")));
        s.execute(&Command::RPush(b("list"), b("x")));
        s.execute(&Command::RPush(b("list"), b("y")));
        s.execute(&Command::HSet(b("hash"), b("f"), b("v")));
        s.execute(&Command::SAdd(b("set"), b("m")));
        s.execute(&Command::Insert(b("t"), b("user0001"), b("rec")));
        let snap = s.snapshot();
        let mut r = Store::new();
        assert!(r.restore(&snap));
        assert_eq!(r.len(), s.len());
        assert_eq!(
            r.execute(&Command::Get(b("str"))).0,
            Reply::Bulk(b("hello"))
        );
        assert_eq!(
            r.execute(&Command::LRange(b("list"), 0, 9)).0,
            Reply::Array(vec![Reply::Bulk(b("x")), Reply::Bulk(b("y"))])
        );
        assert_eq!(
            r.execute(&Command::HGet(b("hash"), b("f"))).0,
            Reply::Bulk(b("v"))
        );
        assert_eq!(
            r.execute(&Command::SIsMember(b("set"), b("m"))).0,
            Reply::Int(1)
        );
        assert_eq!(
            r.snapshot(),
            snap,
            "restored store re-encodes byte-identically"
        );
    }

    #[test]
    fn snapshot_encoding_is_deterministic_across_insertion_orders() {
        // Same final state reached via different key insertion orders must
        // serialize identically (BTreeMap order, not insertion order).
        let mut a = Store::new();
        let mut z = Store::new();
        for i in 0..20 {
            a.execute(&Command::Set(b(&format!("k{i:02}")), b("v")));
            z.execute(&Command::Set(b(&format!("k{:02}", 19 - i)), b("v")));
        }
        assert_eq!(a.snapshot(), z.snapshot());
    }

    #[test]
    fn malformed_snapshot_is_rejected() {
        let mut s = Store::new();
        s.execute(&Command::Set(b("k"), b("v")));
        let snap = s.snapshot();
        let mut r = Store::new();
        assert!(!r.restore(&snap[..snap.len() - 1]), "truncated blob");
        assert!(r.is_empty(), "failed restore leaves the store empty");
        assert!(r.restore(&[]) || r.is_empty());
        assert!(Store::new().restore(&Store::new().snapshot()), "empty ok");
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
                    Command::Incr(b("ctr")),
                ]
            })
            .collect();
        let mut s1 = Store::new();
        let mut s2 = Store::new();
        for c in &cmds {
            assert_eq!(s1.execute(c).0, s2.execute(c).0);
        }
        assert_eq!(s1.len(), s2.len());
    }
}
