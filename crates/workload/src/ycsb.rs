//! YCSB workload generators (Cooper et al., SoCC '10), specialized for the
//! paper's §7.5 experiment: **YCSB-E on Redis**.
//!
//! Workload E models threaded conversations: 95 % `SCAN` (read the latest
//! posts of a thread: ordered, read-only, load-balanceable) and 5 %
//! `INSERT` (a new post: ordered read-write). Records are 1 kB — 10 fields
//! of 100 bytes (§7.5); scans return at most 10 records. Workloads A–D are
//! provided for extensions/ablations.

use bytes::Bytes;
use minikv::Command;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::zipf::{fnv_scramble, Zipfian};

/// The standard YCSB field layout (§7.5: 1 kB records, 10 × 100 B fields).
#[derive(Clone, Copy, Debug)]
pub struct RecordSpec {
    /// Fields per record.
    pub fields: usize,
    /// Bytes per field.
    pub field_len: usize,
}

impl Default for RecordSpec {
    fn default() -> Self {
        RecordSpec {
            fields: 10,
            field_len: 100,
        }
    }
}

impl RecordSpec {
    /// Total record payload size.
    pub fn record_len(&self) -> usize {
        self.fields * self.field_len
    }

    /// Builds a deterministic record for `key_rank` (field bytes derived
    /// from the rank so replicas can be diffed).
    pub fn build(&self, key_rank: u64) -> Bytes {
        Bytes::build(self.record_len(), |rec| self.fill(key_rank, rec))
    }

    /// Writes [`RecordSpec::build`]'s record into `rec`, which is
    /// [`RecordSpec::record_len`] bytes long.
    fn fill(&self, key_rank: u64, rec: &mut [u8]) {
        for f in 0..self.fields {
            let field = &mut rec[f * self.field_len..(f + 1) * self.field_len];
            field.fill((key_rank as u8).wrapping_add(f as u8));
        }
    }
}

/// A standard YCSB workload letter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbWorkload {
    /// 50 % read / 50 % update, zipfian.
    A,
    /// 95 % read / 5 % update, zipfian.
    B,
    /// 100 % read, zipfian.
    C,
    /// 95 % read / 5 % insert, latest.
    D,
    /// 95 % scan / 5 % insert, zipfian start keys — the paper's benchmark.
    E,
}

/// One generated operation.
#[derive(Clone, Debug)]
pub struct YcsbOp {
    /// The encoded store command.
    pub body: Bytes,
    /// Whether the op is read-only (drives the R2P2 POLICY tag).
    pub read_only: bool,
}

/// Stateful YCSB operation generator.
#[derive(Clone)]
pub struct YcsbGen {
    workload: YcsbWorkload,
    spec: RecordSpec,
    table: Bytes,
    /// Keys 0..insert_cursor exist.
    insert_cursor: u64,
    zipf: Zipfian,
    max_scan_len: u32,
    rng: SmallRng,
}

/// Formats the canonical YCSB key for a rank.
pub fn key_of(rank: u64) -> String {
    format!("user{rank:012}")
}

/// [`key_of`] formatted on the stack: `user` and at most 20 digits.
struct StackKey([u8; 24], usize);

impl StackKey {
    fn new(rank: u64) -> StackKey {
        use std::io::Write;
        let mut buf = [0; 24];
        let mut rest = &mut buf[..];
        write!(rest, "user{rank:012}").expect("any u64 key fits in 24 bytes");
        let len = 24 - rest.len();
        StackKey(buf, len)
    }

    fn as_bytes(&self) -> &[u8] {
        &self.0[..self.1]
    }
}

impl YcsbGen {
    /// Creates a generator over an initially loaded keyspace of
    /// `record_count` records.
    pub fn new(workload: YcsbWorkload, record_count: u64, spec: RecordSpec, seed: u64) -> YcsbGen {
        use rand::SeedableRng;
        assert!(record_count > 0);
        YcsbGen {
            workload,
            spec,
            table: Bytes::from_static(b"usertable"),
            insert_cursor: record_count,
            zipf: Zipfian::ycsb(record_count),
            max_scan_len: 10,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A clone of this generator that draws from `seed`. The zipfian
    /// constants are O(records) to compute and are copied instead, so a
    /// fresh generator's reseeded clone yields exactly the op stream of
    /// `YcsbGen::new(.., seed)` at a fraction of the cost.
    pub fn reseeded(&self, seed: u64) -> YcsbGen {
        use rand::SeedableRng;
        YcsbGen {
            rng: SmallRng::seed_from_u64(seed),
            ..self.clone()
        }
    }

    /// Commands that load the initial dataset (the YCSB load phase).
    pub fn load_phase(&self) -> Vec<Command> {
        (0..self.zipf.n())
            .map(|r| {
                Command::Insert(
                    self.table.clone(),
                    Bytes::from(key_of(r)),
                    self.spec.build(r),
                )
            })
            .collect()
    }

    fn zipf_key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        fnv_scramble(rank, self.zipf.n())
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let roll: f64 = self.rng.gen();
        match self.workload {
            YcsbWorkload::A => {
                if roll < 0.5 {
                    self.read_op()
                } else {
                    self.update_op()
                }
            }
            YcsbWorkload::B => {
                if roll < 0.95 {
                    self.read_op()
                } else {
                    self.update_op()
                }
            }
            YcsbWorkload::C => self.read_op(),
            YcsbWorkload::D => {
                if roll < 0.95 {
                    self.latest_read_op()
                } else {
                    self.insert_op()
                }
            }
            YcsbWorkload::E => {
                if roll < 0.95 {
                    self.scan_op()
                } else {
                    self.insert_op()
                }
            }
        }
    }

    /// A SCAN of up to `n` records from key `rank`, written in place.
    fn scan(&self, rank: u64, n: u32) -> YcsbOp {
        YcsbOp {
            body: Command::encode_scan(&self.table, StackKey::new(rank).as_bytes(), n),
            read_only: true,
        }
    }

    /// An INSERT of key `rank`'s record, written in place.
    fn insert(&self, rank: u64) -> YcsbOp {
        let key = StackKey::new(rank);
        YcsbOp {
            body: Command::encode_insert_with(
                &self.table,
                key.as_bytes(),
                self.spec.record_len(),
                |rec| self.spec.fill(rank, rec),
            ),
            read_only: false,
        }
    }

    fn read_op(&mut self) -> YcsbOp {
        let k = self.zipf_key();
        self.scan(k, 1)
    }

    fn latest_read_op(&mut self) -> YcsbOp {
        // "Latest": skew towards recently inserted keys.
        let back = self.zipf.sample(&mut self.rng).min(self.insert_cursor - 1);
        self.scan(self.insert_cursor - 1 - back, 1)
    }

    fn update_op(&mut self) -> YcsbOp {
        let k = self.zipf_key();
        self.insert(k)
    }

    fn insert_op(&mut self) -> YcsbOp {
        let k = self.insert_cursor;
        self.insert_cursor += 1;
        self.zipf.grow(self.insert_cursor);
        self.insert(k)
    }

    fn scan_op(&mut self) -> YcsbOp {
        let k = self.zipf_key();
        let len = self.rng.gen_range(1..=self.max_scan_len);
        self.scan(k, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::ByteArena;
    use minikv::{Reply, Store};

    #[test]
    fn record_spec_builds_1kb_records() {
        let spec = RecordSpec::default();
        assert_eq!(spec.record_len(), 1_000);
        assert_eq!(spec.build(7).len(), 1_000);
        let small = RecordSpec {
            fields: 3,
            field_len: 2,
        };
        assert_eq!(
            &small.build(255)[..],
            [255, 255, 0, 0, 1, 1],
            "rank + field"
        );
    }

    /// The rank an op's key names, and the op decoded.
    fn rank_of(body: &[u8]) -> (u64, Command) {
        let cmd = Command::decode(body).expect("a generated body decodes");
        let (Command::Scan(_, key, _) | Command::Insert(_, key, _)) = &cmd;
        let digits = std::str::from_utf8(&key[4..]).expect("decimal");
        (digits.parse().expect("a rank"), cmd)
    }

    /// Each body is what `Command::encode` writes for the op built the
    /// plain way: the key by `key_of`, the record by `RecordSpec::build`.
    #[test]
    fn in_place_bodies_equal_command_encode() {
        use YcsbWorkload::*;
        let table = || Bytes::from_static(b"usertable");
        for workload in [A, B, C, D, E] {
            let spec = RecordSpec {
                fields: 3,
                field_len: 7,
            };
            let mut g = YcsbGen::new(workload, 10_000, spec, 9);
            for _ in 0..2_000 {
                let op = g.next_op();
                let (rank, cmd) = rank_of(&op.body);
                let want = match cmd {
                    Command::Scan(_, _, n) => Command::Scan(table(), Bytes::from(key_of(rank)), n),
                    Command::Insert(..) => {
                        Command::Insert(table(), Bytes::from(key_of(rank)), spec.build(rank))
                    }
                };
                assert_eq!(op.body, want.encode(), "{workload:?} rank {rank}");
                assert_eq!(op.read_only, want.is_read_only());
            }
        }
        let g = YcsbGen::new(E, 10, RecordSpec::default(), 0);
        for rank in [0, 9_999, 1_000_000_000_000, 123_456_789_012_345, u64::MAX] {
            let key = || Bytes::from(key_of(rank));
            assert_eq!(
                g.scan(rank, 7).body,
                Command::Scan(table(), key(), 7).encode()
            );
            let insert = Command::Insert(table(), key(), g.spec.build(rank));
            assert_eq!(g.insert(rank).body, insert.encode(), "rank {rank}");
            assert_eq!(StackKey::new(rank).as_bytes(), key_of(rank).as_bytes());
        }
        assert_eq!(key_of(1_000_000_000_000).len(), 17, "past 16 B");
        assert_eq!(key_of(u64::MAX).len(), 24);
    }

    #[test]
    fn workload_e_mix_is_95_5() {
        let mut g = YcsbGen::new(YcsbWorkload::E, 1_000, RecordSpec::default(), 42);
        let mut scans = 0;
        let mut inserts = 0;
        for _ in 0..10_000 {
            let op = g.next_op();
            let cmd = Command::decode(&op.body).unwrap();
            match cmd {
                Command::Scan(_, _, n) => {
                    assert!(op.read_only);
                    assert!((1..=10).contains(&n));
                    scans += 1;
                }
                Command::Insert(..) => {
                    assert!(!op.read_only);
                    inserts += 1;
                }
            }
        }
        assert!((9_300..9_700).contains(&scans), "{scans} scans");
        assert_eq!(scans + inserts, 10_000);
    }

    #[test]
    fn inserts_extend_the_keyspace_monotonically() {
        let mut g = YcsbGen::new(YcsbWorkload::E, 10, RecordSpec::default(), 1);
        let mut seen = Vec::new();
        for _ in 0..2_000 {
            if let Command::Insert(_, k, _) = Command::decode(&g.next_op().body).unwrap() {
                seen.push(String::from_utf8_lossy(&k).into_owned());
            }
        }
        assert!(!seen.is_empty());
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "inserted keys are sequential (new posts)");
    }

    #[test]
    fn load_phase_populates_a_store_scannable_by_ops() {
        let spec = RecordSpec {
            fields: 2,
            field_len: 10,
        };
        let mut g = YcsbGen::new(YcsbWorkload::E, 100, spec, 5);
        let mut store = Store::new();
        let mut arena = ByteArena::new();
        for cmd in g.load_phase() {
            store.execute(&cmd.encode(), &mut arena).unwrap();
        }
        assert_eq!(store.len(), 100);
        // Every generated scan hits loaded data.
        for _ in 0..200 {
            let op = g.next_op();
            let (reply, _) = store.execute(&op.body, &mut arena).unwrap();
            match Reply::decode(&reply).unwrap() {
                Reply::Array(items) => assert!(!items.is_empty(), "scan hit data"),
                Reply::Ok => {} // insert
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_reseeded_clone_replays_a_fresh_generator() {
        use YcsbWorkload::*;
        for workload in [A, B, C, D, E] {
            let base = YcsbGen::new(workload, 10_000, RecordSpec::default(), 0);
            for seed in [1, 42_000, 42_003] {
                let mut fresh = YcsbGen::new(workload, 10_000, RecordSpec::default(), seed);
                let mut clone = base.reseeded(seed);
                for i in 0..10_000 {
                    let (a, b) = (fresh.next_op(), clone.next_op());
                    assert!(
                        a.body == b.body && a.read_only == b.read_only,
                        "{workload:?} seed {seed}: op {i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_a_mixes_reads_and_updates() {
        let mut g = YcsbGen::new(YcsbWorkload::A, 100, RecordSpec::default(), 3);
        let ro = (0..2_000).filter(|_| g.next_op().read_only).count();
        assert!((800..1200).contains(&ro), "{ro} reads of 2000");
    }

    #[test]
    fn workload_c_is_all_reads() {
        let mut g = YcsbGen::new(YcsbWorkload::C, 100, RecordSpec::default(), 3);
        assert!((0..500).all(|_| g.next_op().read_only));
    }
}
