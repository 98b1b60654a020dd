//! # r2p2 — Request/Response Pair Protocol for datacenter RPCs
//!
//! A simulation-grade reimplementation of R2P2 (Kogias et al., USENIX ATC
//! '19): a UDP-based transport that makes RPCs first-class network citizens
//! so that policy — load balancing, and with HovercRaft, state-machine
//! replication — can be enforced *inside* the transport, below the
//! application.
//!
//! The pieces HovercRaft builds on (paper §3.1, §6.1):
//!
//! * **Request identity**: every RPC is named by the 3-tuple
//!   `(req_id, src_port, src_ip)` ([`ReqId`]), independent of which server
//!   answers. This is what lets the reply source differ from the request
//!   destination — the mechanism behind reply load balancing.
//! * **POLICY field**: clients tag requests [`Policy::Replicated`] /
//!   [`Policy::ReplicatedRo`] to request total ordering (read-write vs
//!   read-only).
//! * **Message types**: consensus RPCs ([`MsgType::RaftReq`] /
//!   [`MsgType::RaftRep`]) share the transport with client RPCs and are
//!   classified by in-network devices.
//! * **FEEDBACK**: a repurposable control message, used by HovercRaft's
//!   flow-control middlebox (§6.3) and by JBSQ queue-depth bookkeeping.
//!
//! The crate provides the header codec ([`Header`]), packetization and
//! reassembly ([`packetize_in`], [`Reassembler`]), id allocation
//! ([`ReqIdAlloc`]), and wire-size accounting ([`msg_wire_size`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chunk;
mod header;
mod id;
mod wire;

pub use chunk::{packetize_in, Fragment, Reassembled, Reassembler};
pub use header::{Header, MsgType, Policy, FLAG_FIRST, FLAG_LAST, HEADER_LEN, MAGIC};
pub use id::{body_hash, ReqId, ReqIdAlloc};
pub use wire::{control_wire_size, msg_wire_size};

/// Errors produced while decoding or reassembling R2P2 traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R2p2Error {
    /// The first byte was not the R2P2 magic.
    BadMagic(u8),
    /// Unknown message-type nibble.
    BadMsgType(u8),
    /// Unknown policy nibble.
    BadPolicy(u8),
    /// Buffer shorter than a header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Fragment indices inconsistent with the message they belong to.
    BadFragment {
        /// Claimed fragment index.
        pkt_id: u16,
        /// Claimed fragment count.
        n_pkts: u16,
    },
}

impl std::fmt::Display for R2p2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            R2p2Error::BadMagic(m) => write!(f, "bad R2P2 magic byte {m:#04x}"),
            R2p2Error::BadMsgType(t) => write!(f, "unknown message type {t}"),
            R2p2Error::BadPolicy(p) => write!(f, "unknown policy {p}"),
            R2p2Error::Truncated { need, have } => {
                write!(f, "truncated packet: need {need} bytes, have {have}")
            }
            R2p2Error::BadFragment { pkt_id, n_pkts } => {
                write!(f, "inconsistent fragment {pkt_id}/{n_pkts}")
            }
        }
    }
}

impl std::error::Error for R2p2Error {}

/// Convenience alias for fallible R2P2 operations.
pub type Result<T> = std::result::Result<T, R2p2Error>;
