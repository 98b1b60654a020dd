//! The command set and its binary codec.
//!
//! Commands are encoded as `[opcode u8][arg]*` where each byte-string
//! argument is `u32`-length-prefixed — binary-safe and cheap to parse, the
//! moral equivalent of RESP for a kernel-bypass deployment. The two
//! commands are the paper's user-defined Redis module (§7.5): each executes
//! as one atomic, isolated command.

use bytes::{BufMut, Bytes};

/// A parsed command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Insert a record: `table`, `key`, and the serialized field map —
    /// atomically, as a single state-machine operation.
    Insert(Bytes, Bytes, Bytes),
    /// Scan up to `count` records of `table` starting at `key` (inclusive),
    /// returning key/record pairs — the threaded-conversation read.
    Scan(Bytes, Bytes, u32),
}

impl Command {
    /// True if the command cannot mutate state — safe to tag
    /// `REPLICATED_REQ_R` and load-balance (§3.5).
    pub fn is_read_only(&self) -> bool {
        matches!(self, Command::Scan(..))
    }
}

/// Codec errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than a frame demanded.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Argument count or shape mismatch.
    BadArity,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated command"),
            CodecError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            CodecError::BadArity => write!(f, "wrong argument shape"),
        }
    }
}
impl std::error::Error for CodecError {}

const OP_INSERT: u8 = 0x40;
const OP_SCAN: u8 = 0x41;

/// A command decoded in place: every argument borrows the wire body, so
/// executing one copies only what the store keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op<'a> {
    /// [`Command::Insert`]'s table, key and record.
    Insert(&'a [u8], &'a [u8], &'a [u8]),
    /// [`Command::Scan`]'s table, start key and count.
    Scan(&'a [u8], &'a [u8], u32),
}

impl<'a> Op<'a> {
    /// Decodes the binary wire form; [`Command::decode`] is this plus a
    /// copy of each argument.
    pub(crate) fn decode(buf: &'a [u8]) -> Result<Op<'a>, CodecError> {
        let Some((&opcode, mut rest)) = buf.split_first() else {
            return Err(CodecError::Truncated);
        };
        let r = &mut rest;
        let arg = |r: &mut &'a [u8]| take_slice(r).ok_or(CodecError::Truncated);
        let op = match opcode {
            OP_INSERT => Op::Insert(arg(r)?, arg(r)?, arg(r)?),
            OP_SCAN => Op::Scan(arg(r)?, arg(r)?, take_u32(r).ok_or(CodecError::Truncated)?),
            other => return Err(CodecError::BadOpcode(other)),
        };
        if !r.is_empty() {
            return Err(CodecError::BadArity);
        }
        Ok(op)
    }
}

// Big-endian primitives shared with the reply and snapshot codecs: each
// `take_*` consumes from the front of `cur` and returns `None` on underrun.

pub(crate) fn put_bytes(out: &mut impl BufMut, b: &[u8]) {
    out.put_u32(b.len() as u32);
    out.put_slice(b);
}

pub(crate) fn take_u8(cur: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = cur.split_first()?;
    *cur = rest;
    Some(b)
}

pub(crate) fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (head, rest) = cur.split_at_checked(4)?;
    *cur = rest;
    Some(u32::from_be_bytes(head.try_into().expect("4 bytes")))
}

pub(crate) fn take_u64(cur: &mut &[u8]) -> Option<u64> {
    let (head, rest) = cur.split_at_checked(8)?;
    *cur = rest;
    Some(u64::from_be_bytes(head.try_into().expect("8 bytes")))
}

pub(crate) fn take_slice<'a>(cur: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = take_u32(cur)? as usize;
    let (head, rest) = cur.split_at_checked(len)?;
    *cur = rest;
    Some(head)
}

pub(crate) fn take_bytes(cur: &mut &[u8]) -> Option<Bytes> {
    take_slice(cur).map(Bytes::copy_from_slice)
}

impl Command {
    /// Encodes into the binary wire form.
    pub fn encode(&self) -> Bytes {
        match self {
            Command::Insert(t, k, rec) => {
                Command::encode_insert_with(t, k, rec.len(), |out| out.copy_from_slice(rec))
            }
            Command::Scan(t, k, n) => Command::encode_scan(t, k, *n),
        }
    }

    /// The wire form of `Insert(table, key, record)`, in one exact-size
    /// buffer, where `fill` writes the `record_len`-byte record in place.
    pub fn encode_insert_with(
        table: &[u8],
        key: &[u8],
        record_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Bytes {
        let len = 1 + 4 + table.len() + 4 + key.len() + 4 + record_len;
        Bytes::build(len, |mut out| {
            out.put_u8(OP_INSERT);
            put_bytes(&mut out, table);
            put_bytes(&mut out, key);
            out.put_u32(record_len as u32);
            fill(out);
        })
    }

    /// The wire form of `Scan(table, key, n)`, in one exact-size buffer.
    pub fn encode_scan(table: &[u8], key: &[u8], n: u32) -> Bytes {
        Bytes::build(1 + 4 + table.len() + 4 + key.len() + 4, |mut out| {
            out.put_u8(OP_SCAN);
            put_bytes(&mut out, table);
            put_bytes(&mut out, key);
            out.put_u32(n);
            debug_assert!(out.is_empty(), "scan sized exactly");
        })
    }

    /// Decodes from the binary wire form.
    pub fn decode(buf: &[u8]) -> Result<Command, CodecError> {
        let copy = Bytes::copy_from_slice;
        Ok(match Op::decode(buf)? {
            Op::Insert(t, k, rec) => Command::Insert(copy(t), copy(k), copy(rec)),
            Op::Scan(t, k, n) => Command::Scan(copy(t), copy(k), n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn roundtrip_every_variant() {
        let cmds = vec![
            Command::Insert(b("usertable"), b("user42"), b("record-bytes")),
            Command::Scan(b("usertable"), b("user42"), 10),
        ];
        for c in cmds {
            let enc = c.encode();
            assert_eq!(Command::decode(&enc).unwrap(), c, "{c:?}");
        }
    }

    /// Request sizes set virtual time, so the wire bytes, written out by
    /// hand, are the oracle.
    #[test]
    fn insert_and_scan_encodings_are_pinned() {
        let insert = Command::Insert(b("t"), b("k1"), b("rec"));
        assert_eq!(
            &insert.encode()[..],
            b"\x40\0\0\0\x01t\0\0\0\x02k1\0\0\0\x03rec"
        );
        let scan = Command::Scan(b("t"), b("k1"), 258);
        assert_eq!(
            &scan.encode()[..],
            b"\x41\0\0\0\x01t\0\0\0\x02k1\0\0\x01\x02"
        );
    }

    #[test]
    fn binary_safe_arguments() {
        let c = Command::Insert(
            Bytes::from(vec![0u8, 255]),
            Bytes::from(vec![10u8, 13]),
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(Command::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Command::decode(&[]), Err(CodecError::Truncated));
        assert_eq!(
            Command::decode(&[OP_SCAN, 0, 0, 0, 10, b'x']),
            Err(CodecError::Truncated)
        );
        // A SCAN missing its count.
        let enc = Command::Scan(b("t"), b("k"), 1).encode();
        assert_eq!(
            Command::decode(&enc[..enc.len() - 1]),
            Err(CodecError::Truncated)
        );
        // Trailing junk is rejected.
        let mut enc = enc.to_vec();
        enc.push(0);
        assert_eq!(Command::decode(&enc), Err(CodecError::BadArity));
    }

    #[test]
    fn read_only_classification() {
        assert!(Command::Scan(b("t"), b("k"), 10).is_read_only());
        assert!(!Command::Insert(b("t"), b("k"), b("r")).is_read_only());
    }
}
