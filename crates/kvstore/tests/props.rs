//! The executor, which runs on wire bytes, against a reference model: a
//! `BTreeMap` of composite keys, [`Command`] as the request codec and
//! [`Reply::decode`] as the reply oracle.

use std::collections::BTreeMap;

use bytes::{ByteArena, Bytes};
use hovercraft::Service;
use minikv::{CodecError, Command, ExecMetrics, KvService, Reply, Store};
use proptest::prelude::*;

/// Tables whose composite keys sit next to each other (`a/` < `a/b/` <
/// `ab/`), one that is a prefix of another, and the empty table.
const TABLES: [&[u8]; 4] = [b"a", b"ab", b"a/b", b""];
const KEYS: [&[u8]; 8] = [b"", b"k", b"k0", b"k1", b"k/x", b"l", b"\xff", b"\0"];

/// The store as a plain map from `table/key` to record.
#[derive(Default)]
struct Model(BTreeMap<Vec<u8>, Vec<u8>>);

fn composite(table: &[u8], key: &[u8]) -> Vec<u8> {
    [table, b"/", key].concat()
}

impl Model {
    fn execute(&mut self, cmd: &Command) -> (Reply, ExecMetrics) {
        let mut m = ExecMetrics::default();
        match cmd {
            Command::Insert(t, k, rec) => {
                self.0.insert(composite(t, k), rec.to_vec());
                m.bytes_written = rec.len();
                m.records = 1;
                (Reply::Ok, m)
            }
            Command::Scan(t, k, n) => {
                let prefix = composite(t, b"");
                let mut items = Vec::new();
                for (key, rec) in self
                    .0
                    .range(composite(t, k)..)
                    .filter(|(key, _)| key.starts_with(&prefix))
                    .take(*n as usize)
                {
                    m.bytes_read += key.len() + rec.len();
                    m.records += 1;
                    items.push(Reply::Bulk(Bytes::copy_from_slice(key)));
                    items.push(Reply::Bulk(Bytes::copy_from_slice(rec)));
                }
                (Reply::Array(items), m)
            }
        }
    }

    /// The snapshot blob format, written out from the model.
    fn snapshot(&self) -> Vec<u8> {
        let mut blob = (self.0.len() as u64).to_be_bytes().to_vec();
        for (key, rec) in &self.0 {
            blob.extend_from_slice(&(key.len() as u32).to_be_bytes());
            blob.extend_from_slice(key);
            blob.push(0);
            blob.extend_from_slice(&(rec.len() as u32).to_be_bytes());
            blob.extend_from_slice(rec);
        }
        blob
    }
}

/// A command from drawn indices: `kind` 0 is an INSERT of `rec_len`
/// bytes, anything else a SCAN of up to `n` records.
fn command(kind: u8, table: usize, key: usize, n: u32, rec_len: usize) -> Command {
    let (t, k) = (
        Bytes::copy_from_slice(TABLES[table]),
        Bytes::copy_from_slice(KEYS[key]),
    );
    if kind == 0 {
        let rec: Vec<u8> = (0..rec_len).map(|i| (i * 7 + n as usize) as u8).collect();
        Command::Insert(t, k, Bytes::from(rec))
    } else {
        Command::Scan(t, k, n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// Every reply decodes to the model's, with the model's metrics, and
    /// the final state snapshots to the model's blob. A table holds at most
    /// eight keys, so a SCAN of up to 13 runs past its end; `n = 0` scans
    /// nothing.
    #[test]
    fn executor_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..TABLES.len(), 0usize..KEYS.len(), 0u32..14, 0usize..24),
            1..80,
        ),
    ) {
        let mut store = Store::new();
        let mut model = Model::default();
        let mut arena = ByteArena::new();
        for (i, &(kind, table, key, n, rec_len)) in ops.iter().enumerate() {
            let cmd = command(kind, table, key, n, rec_len);
            let (wire, metrics) = store.execute(&cmd.encode(), &mut arena).expect("decodes");
            let (want, want_metrics) = model.execute(&cmd);
            prop_assert_eq!(Reply::decode(&wire), Some(want), "op {} {:?}", i, cmd);
            prop_assert_eq!(metrics, want_metrics, "op {} {:?}", i, cmd);
        }
        prop_assert_eq!(store.len(), model.0.len());
        prop_assert_eq!(&store.snapshot()[..], &model.snapshot()[..]);
    }

    /// Every prefix of a command's body, and the body with a byte
    /// appended, fails as `Command::decode` fails: the same `CodecError`,
    /// the same error reply and cost, and no change to the store.
    #[test]
    fn malformed_bodies_fail_as_command_decode_does(
        kind in 0u8..2,
        table in 0usize..TABLES.len(),
        key in 0usize..KEYS.len(),
        n in 0u32..300,
        rec_len in 0usize..40,
        extra in any::<u8>(),
    ) {
        let body = command(kind, table, key, n, rec_len).encode().to_vec();
        let mut svc = KvService::default();
        let mut arena = ByteArena::new();
        svc.execute(&command(0, 0, 1, 0, 3).encode(), false, &mut arena);
        let before = svc.snapshot();
        let mut appended = body.clone();
        appended.push(extra);
        let bad = (0..body.len()).map(|end| &body[..end]).chain([&appended[..]]);
        for (i, bad) in bad.enumerate() {
            let want = Command::decode(bad).expect_err("malformed");
            let shape = if i == body.len() { CodecError::BadArity } else { CodecError::Truncated };
            prop_assert_eq!(&want, &shape, "{} of {} bytes", i, body.len());
            let mut store = svc.store().clone();
            prop_assert_eq!(store.execute(bad, &mut arena).err(), Some(want.clone()));
            let r = svc.execute(bad, false, &mut arena);
            prop_assert_eq!(Reply::decode(&r.reply), Some(Reply::Err(format!("ERR {want}"))));
            prop_assert_eq!(r.cost_ns, 500);
            prop_assert_eq!(svc.decode_errors, i as u64 + 1);
            prop_assert_eq!(&svc.snapshot()[..], &before[..]);
        }
    }
}
