//! Adapter exposing the store as an SMR-replicable RPC service.
//!
//! This is the moral equivalent of the paper's "port of Redis to R2P2"
//! (§7.5): the store itself knows nothing about replication; this thin
//! wrapper decodes command bytes, executes them, encodes the reply, and
//! reports the CPU cost — and the very same object runs unreplicated or
//! under any HovercRaft mode without modification.

use hovercraft::{Executed, Service};

use crate::command::Command;
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
        match Command::decode(body) {
            Ok(cmd) => {
                debug_assert!(
                    !read_only || cmd.is_read_only(),
                    "client tagged a mutating command read-only: {cmd:?}"
                );
                let (reply, metrics) = self.store.execute(&cmd);
                Executed {
                    reply: reply.encode_in(arena),
                    cost_ns: self.cost.cost_ns(&metrics),
                }
            }
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

    fn restore(&mut self, snap: &[u8]) {
        self.store.restore(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn executes_encoded_commands() {
        let mut arena = bytes::ByteArena::new();
        let mut svc = KvService::default();
        let set = Command::Set(b("k"), b("v")).encode();
        let r = svc.execute(&set, false, &mut arena);
        assert_eq!(Reply::decode(&r.reply), Some(Reply::Ok));
        assert!(r.cost_ns > 0);
        let get = Command::Get(b("k")).encode();
        let r = svc.execute(&get, true, &mut arena);
        assert_eq!(Reply::decode(&r.reply), Some(Reply::Bulk(b("v"))));
    }

    #[test]
    fn decode_errors_are_reported_not_fatal() {
        let mut arena = bytes::ByteArena::new();
        let mut svc = KvService::default();
        let r = svc.execute(&[0xff, 0x00], false, &mut arena);
        assert!(Reply::decode(&r.reply).unwrap().is_err());
        assert_eq!(svc.decode_errors, 1);
    }

    #[test]
    fn service_snapshot_round_trips_through_trait() {
        use hovercraft::Service as _;
        let mut arena = bytes::ByteArena::new();
        let mut a = KvService::default();
        a.execute(&Command::Set(b("k"), b("v")).encode(), false, &mut arena);
        a.execute(&Command::SAdd(b("s"), b("m")).encode(), false, &mut arena);
        let snap = a.snapshot();
        let mut restored = KvService::default();
        restored.restore(&snap);
        let r = restored.execute(&Command::Get(b("k")).encode(), true, &mut arena);
        assert_eq!(Reply::decode(&r.reply), Some(Reply::Bulk(b("v"))));
        assert_eq!(restored.snapshot(), snap, "deterministic re-encode");
    }

    #[test]
    fn scan_cost_exceeds_point_read_cost() {
        let mut arena = bytes::ByteArena::new();
        let mut svc = KvService::default();
        for i in 0..20 {
            let key = format!("user{i:04}");
            let rec = vec![0u8; 1000];
            let cmd = Command::Insert(b("t"), b(&key), Bytes::from(rec)).encode();
            svc.execute(&cmd, false, &mut arena);
        }
        let scan = svc.execute(
            &Command::Scan(b("t"), b("user0000"), 10).encode(),
            true,
            &mut arena,
        );
        let get = svc.execute(&Command::Exists(b("t/user0000")).encode(), true, &mut arena);
        assert!(scan.cost_ns > 3 * get.cost_ns);
    }
}
