//! Adapter exposing the store as an SMR-replicable RPC service.
//!
//! This is the moral equivalent of the paper's "port of Redis to R2P2"
//! (§7.5): the store itself knows nothing about replication; this thin
//! wrapper executes command bytes, turns a malformed body into an error
//! reply, and reports the CPU cost — and the very same object runs
//! unreplicated or under any HovercRaft mode without modification.

use hovercraft::{Executed, Service};

use crate::command::Op;
use crate::cost::CostModel;
use crate::reply::Reply;
use crate::store::Store;

/// The store wrapped as a [`Service`]. Clones are independent replicas
/// of the state (see [`Store`]), cheap because the records are shared.
#[derive(Clone)]
pub struct KvService {
    store: Store,
    cost: CostModel,
    /// Commands that failed to decode (protocol errors).
    pub decode_errors: u64,
}

impl Default for KvService {
    fn default() -> Self {
        KvService::new(CostModel::default())
    }
}

impl KvService {
    /// Wraps a fresh store with the given cost model.
    pub fn new(cost: CostModel) -> KvService {
        KvService {
            store: Store::new(),
            cost,
            decode_errors: 0,
        }
    }

    /// The underlying store (for test inspection).
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Service for KvService {
    fn execute(&mut self, body: &[u8], read_only: bool, arena: &mut bytes::ByteArena) -> Executed {
        debug_assert!(
            !read_only || !matches!(Op::decode(body), Ok(Op::Insert(..))),
            "client tagged a mutating command read-only: {body:?}"
        );
        match self.store.execute(body, arena) {
            Ok((reply, metrics)) => Executed {
                reply,
                cost_ns: self.cost.cost_ns(&metrics),
            },
            Err(e) => {
                self.decode_errors += 1;
                Executed {
                    reply: Reply::Err(format!("ERR {e}")).encode_in(arena),
                    cost_ns: 500,
                }
            }
        }
    }

    fn snapshot(&self) -> bytes::Bytes {
        self.store.snapshot()
    }

    /// Installs a snapshot blob. A blob the store refuses would leave an
    /// empty store and a replica silently diverged from its group, so it
    /// stops the replica instead (fail-stop, like `HcNode::restore` on a
    /// blob that does not frame).
    fn restore(&mut self, snap: &[u8]) {
        assert!(
            self.store.restore(snap),
            "malformed store snapshot ({} B): truncated or trailing bytes",
            snap.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{CodecError, Command};
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Runs `cmd` through the service's byte interface.
    fn run(svc: &mut KvService, cmd: Command) -> Executed {
        let mut arena = bytes::ByteArena::new();
        svc.execute(&cmd.encode(), cmd.is_read_only(), &mut arena)
    }

    fn pair(key: &str, rec: &str) -> Option<Reply> {
        Some(Reply::Array(vec![Reply::Bulk(b(key)), Reply::Bulk(b(rec))]))
    }

    #[test]
    fn executes_encoded_commands() {
        let mut svc = KvService::default();
        let r = run(&mut svc, Command::Insert(b("t"), b("k"), b("v")));
        assert_eq!(Reply::decode(&r.reply), Some(Reply::Ok));
        assert!(r.cost_ns > 0);
        let r = run(&mut svc, Command::Scan(b("t"), b("k"), 1));
        assert_eq!(Reply::decode(&r.reply), pair("t/k", "v"));
    }

    /// Reply sizes set virtual time, so the wire bytes, written out by
    /// hand, are the oracle.
    #[test]
    fn reply_bytes_are_pinned() {
        let mut svc = KvService::default();
        let r = run(&mut svc, Command::Insert(b("t"), b("k"), b("v")));
        assert_eq!(&r.reply[..], b"+");
        let r = run(&mut svc, Command::Scan(b("t"), b("k"), 10));
        assert_eq!(&r.reply[..], b"*\0\0\0\x02$\0\0\0\x03t/k$\0\0\0\x01v");
        let r = svc.execute(&[0x01], false, &mut bytes::ByteArena::new());
        assert_eq!(&r.reply[..], b"-\0\0\0\x17ERR unknown opcode 0x01");
    }

    /// INSERT (0x40) and SCAN (0x41) are the whole command set: every other
    /// opcode, and any malformed body, costs 500 ns and gets `ERR`.
    #[test]
    fn decode_errors_are_reported_not_fatal() {
        let mut arena = bytes::ByteArena::new();
        let mut svc = KvService::default();
        let others = (0..=u8::MAX).filter(|op| !(0x40..=0x41).contains(op));
        for op in others {
            assert_eq!(Command::decode(&[op]), Err(CodecError::BadOpcode(op)));
            let r = svc.execute(&[op], false, &mut arena);
            assert!(Reply::decode(&r.reply).unwrap().is_err(), "{op:#04x}");
            assert_eq!(r.cost_ns, 500);
        }
        let r = svc.execute(&[0x41, 0x00], true, &mut arena);
        assert!(Reply::decode(&r.reply).unwrap().is_err());
        assert_eq!(svc.decode_errors, 255);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn service_snapshot_round_trips_through_trait() {
        let mut a = KvService::default();
        run(&mut a, Command::Insert(b("t"), b("k"), b("v")));
        run(&mut a, Command::Insert(b("u"), b("m"), b("w")));
        let snap = a.snapshot();
        let mut restored = KvService::default();
        restored.restore(&snap);
        let r = run(&mut restored, Command::Scan(b("t"), b("k"), 1));
        assert_eq!(Reply::decode(&r.reply), pair("t/k", "v"));
        assert_eq!(restored.snapshot(), snap, "deterministic re-encode");
    }

    /// A blob of one record, `t/k` → `v`, through the trait.
    fn one_record_blob() -> Bytes {
        let mut a = KvService::default();
        run(&mut a, Command::Insert(b("t"), b("k"), b("v")));
        a.snapshot()
    }

    #[test]
    #[should_panic(expected = "malformed store snapshot (20 B)")]
    fn truncated_blob_stops_the_replica() {
        let snap = one_record_blob();
        Service::restore(&mut KvService::default(), &snap[..snap.len() - 1]);
    }

    #[test]
    #[should_panic(expected = "malformed store snapshot (22 B)")]
    fn blob_with_a_trailing_byte_stops_the_replica() {
        let mut blob = one_record_blob().to_vec();
        blob.push(0);
        Service::restore(&mut KvService::default(), &blob);
    }

    #[test]
    fn scan_cost_exceeds_point_read_cost() {
        let mut svc = KvService::default();
        for i in 0..20 {
            let rec = Bytes::from(vec![0u8; 1000]);
            run(
                &mut svc,
                Command::Insert(b("t"), b(&format!("user{i:04}")), rec),
            );
        }
        // YCSB's point read is a one-record SCAN.
        let mut scan = |n| run(&mut svc, Command::Scan(b("t"), b("user0000"), n)).cost_ns;
        assert!(scan(10) > 3 * scan(1));
    }
}
