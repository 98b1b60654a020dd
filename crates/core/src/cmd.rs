//! Log commands: the unit HovercRaft replicates.
//!
//! HovercRaft's central protocol change (§3.2) is that the Raft log carries
//! **fixed-size request metadata** instead of request payloads: the R2P2
//! 3-tuple that names the RPC, a body hash to rule out collisions, the
//! operation kind (read-write vs read-only, §3.5), and the designated
//! replier stamped by the leader before first transmission (§3.3).
//! VanillaRaft mode ships the same descriptor *plus* the payload inline,
//! which is exactly what makes its AppendEntries cost scale with request
//! size (Figure 8).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use r2p2::ReqId;
use raft::RaftId;

/// Whether an operation may mutate the state machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Reads and/or writes state; must execute on every replica.
    ReadWrite,
    /// Pure read; ordered in the log but executed only by the designated
    /// replier (§3.5). Clients assert this via `REPLICATED_REQ_R`; a wrong
    /// assertion is an application bug the protocol cannot detect (§5).
    ReadOnly,
}

impl OpKind {
    /// True for read-only operations.
    pub fn is_read_only(self) -> bool {
        self == OpKind::ReadOnly
    }
}

/// Fixed-size log-entry metadata (Figure 4): request identity, body hash,
/// kind, and the designated replier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EntryDesc {
    /// The R2P2 3-tuple naming the request.
    pub id: ReqId,
    /// `r2p2::body_hash` of the request body, computed by the proposing
    /// leader (§5, collision guard).
    pub hash: u64,
    /// Read-only vs read-write.
    pub kind: OpKind,
    /// Designated replier; `None` until the leader announces the entry,
    /// immutable afterwards (§3.3).
    pub replier: Option<RaftId>,
}

impl EntryDesc {
    /// Builds a descriptor for a fresh, not-yet-announced request.
    pub fn new(id: ReqId, hash: u64, kind: OpKind) -> EntryDesc {
        EntryDesc {
            id,
            hash,
            kind,
            replier: None,
        }
    }

    /// Wire size of one descriptor inside an AppendEntries message:
    /// 8 (3-tuple) + 8 (hash) + 8 (term) + 8 (index) + 1 (kind) + 4
    /// (replier) + padding ≈ 40 bytes.
    pub const WIRE_SIZE: u32 = 40;
}

/// What a [`Cmd`] holds: the descriptor always, the payload only in
/// VanillaRaft mode. HovercRaft resolves the payload through the unordered
/// pool.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CmdRecord {
    /// Fixed-size metadata; always replicated.
    pub desc: EntryDesc,
    /// The request payload, inlined only by VanillaRaft mode.
    pub body: Option<Bytes>,
}

/// A replicated command: a handle to one immutable, reference-counted
/// [`CmdRecord`], allocated once at propose time. The leader's log, every
/// AppendEntries copy, every follower's log and every model-checker state
/// clone share it, so a retained request pays for its record once per
/// world, not once per node.
///
/// Reads go through `Deref` (`cmd.desc`, `cmd.body`). The one write path
/// is [`Cmd::make_mut`], which copies a shared record first, so a write
/// to one node's entry never reaches another's (§3.3 replier immutability
/// holds by construction). Equality, hashing and `Debug` are by content.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cmd(Arc<CmdRecord>);

impl Cmd {
    /// A metadata-only command (HovercRaft mode).
    pub fn meta(desc: EntryDesc) -> Cmd {
        Cmd(Arc::new(CmdRecord { desc, body: None }))
    }

    /// A command carrying its payload inline (VanillaRaft mode).
    pub fn full(desc: EntryDesc, body: Bytes) -> Cmd {
        Cmd(Arc::new(CmdRecord {
            desc,
            body: Some(body),
        }))
    }

    /// Copy-on-write access: mutates this handle's record in place when no
    /// other handle shares it, and a private copy of it otherwise.
    pub fn make_mut(&mut self) -> &mut CmdRecord {
        Arc::make_mut(&mut self.0)
    }

    /// Bytes this command occupies inside an AppendEntries message.
    pub fn wire_size(&self) -> u32 {
        EntryDesc::WIRE_SIZE + self.body.as_ref().map(|b| b.len() as u32).unwrap_or(0)
    }
}

impl Deref for Cmd {
    type Target = CmdRecord;
    fn deref(&self) -> &CmdRecord {
        &self.0
    }
}

impl fmt::Debug for Cmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cmd")
            .field("desc", &self.desc)
            .field("body", &self.body)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> ReqId {
        ReqId::new(9, 42, 7)
    }

    #[test]
    fn meta_command_size_is_fixed() {
        let c = Cmd::meta(EntryDesc::new(id(), 1, OpKind::ReadWrite));
        assert_eq!(c.wire_size(), EntryDesc::WIRE_SIZE);
    }

    #[test]
    fn full_command_size_scales_with_body() {
        let c = Cmd::full(
            EntryDesc::new(id(), 1, OpKind::ReadWrite),
            Bytes::from(vec![0u8; 512]),
        );
        assert_eq!(c.wire_size(), EntryDesc::WIRE_SIZE + 512);
    }

    #[test]
    fn make_mut_never_writes_through_a_shared_record() {
        let leader = Cmd::meta(EntryDesc::new(id(), 1, OpKind::ReadWrite));
        let mut follower = leader.clone();
        assert!(std::ptr::eq(&*leader, &*follower), "clones share");
        follower.make_mut().desc.replier = Some(2);
        assert_eq!(leader.desc.replier, None, "the leader's copy is untouched");
        assert_eq!(follower.desc.replier, Some(2));
        let before: *const CmdRecord = &*follower;
        follower.make_mut().desc.hash ^= 1;
        assert!(std::ptr::eq(before, &*follower), "written in place");
        assert!(format!("{leader:?}").starts_with("Cmd { desc: EntryDesc {"));
    }

    #[test]
    fn kind_predicates() {
        assert!(OpKind::ReadOnly.is_read_only());
        assert!(!OpKind::ReadWrite.is_read_only());
    }
}
