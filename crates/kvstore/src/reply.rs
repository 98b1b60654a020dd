//! Replies and their wire encoding.

use bytes::{ByteArena, Bytes};

use crate::command::{take_bytes, take_u32, take_u8};

/// A command's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Success (INSERT).
    Ok,
    /// A single binary string.
    Bulk(Bytes),
    /// An ordered collection of results (SCAN's key/record pairs).
    Array(Vec<Reply>),
    /// An error (a request that did not decode).
    Err(String),
}

impl Reply {
    /// True for error replies.
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err(_))
    }

    /// Exact wire size of [`Reply::encode_in`]'s output.
    pub fn encoded_len(&self) -> usize {
        match self {
            Reply::Ok => 1,
            Reply::Bulk(body) => 1 + 4 + body.len(),
            Reply::Array(items) => 1 + 4 + items.iter().map(Reply::encoded_len).sum::<usize>(),
            Reply::Err(msg) => 1 + 4 + msg.len(),
        }
    }

    /// Encodes to wire bytes (a compact binary analogue of RESP), written
    /// directly into a pooled buffer from `arena` — no staging `Vec`, no
    /// per-reply heap allocation once the pool is warm.
    pub fn encode_in(&self, arena: &mut ByteArena) -> Bytes {
        let len = self.encoded_len();
        arena.alloc_with(len, |buf| {
            let mut cur = buf;
            self.encode_into_slice(&mut cur);
            debug_assert!(cur.is_empty(), "encoded_len mismatch");
        })
    }

    fn encode_into_slice(&self, out: &mut &mut [u8]) {
        fn put(out: &mut &mut [u8], src: &[u8]) {
            let (head, tail) = std::mem::take(out).split_at_mut(src.len());
            head.copy_from_slice(src);
            *out = tail;
        }
        fn put_prefixed(out: &mut &mut [u8], tag: &[u8], body: &[u8]) {
            put(out, tag);
            put(out, &(body.len() as u32).to_be_bytes());
            put(out, body);
        }
        match self {
            Reply::Ok => put(out, b"+"),
            Reply::Bulk(body) => put_prefixed(out, b"$", body),
            Reply::Array(items) => {
                put(out, b"*");
                put(out, &(items.len() as u32).to_be_bytes());
                for it in items {
                    it.encode_into_slice(out);
                }
            }
            Reply::Err(msg) => put_prefixed(out, b"-", msg.as_bytes()),
        }
    }

    /// Decodes wire bytes produced by [`Reply::encode_in`].
    pub fn decode(buf: &[u8]) -> Option<Reply> {
        let mut cur = buf;
        let r = Self::decode_one(&mut cur)?;
        cur.is_empty().then_some(r)
    }

    fn decode_one(cur: &mut &[u8]) -> Option<Reply> {
        Some(match take_u8(cur)? {
            b'+' => Reply::Ok,
            b'$' => Reply::Bulk(take_bytes(cur)?),
            b'*' => {
                let n = take_u32(cur)?;
                Reply::Array(
                    (0..n)
                        .map(|_| Self::decode_one(cur))
                        .collect::<Option<_>>()?,
                )
            }
            b'-' => Reply::Err(String::from_utf8_lossy(&take_bytes(cur)?).into_owned()),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        let replies = vec![
            Reply::Ok,
            Reply::Bulk(Bytes::from_static(b"hello\0world")),
            Reply::Err("ERR unknown opcode 0x01".to_string()),
            Reply::Array(vec![
                Reply::Bulk(Bytes::from_static(b"k")),
                Reply::Ok,
                Reply::Array(vec![]),
            ]),
        ];
        let mut arena = ByteArena::new();
        for r in replies {
            let wire = r.encode_in(&mut arena);
            assert_eq!(Reply::decode(&wire), Some(r.clone()), "{r:?}");
        }
    }

    /// The wire format, written out by hand, is the oracle.
    #[test]
    fn pooled_encode_matches_vec_encode() {
        let mut arena = ByteArena::new();
        let replies: Vec<(Reply, Vec<u8>)> = vec![
            (Reply::Ok, b"+".to_vec()),
            (
                Reply::Bulk(Bytes::from_static(b"payload")),
                b"$\0\0\0\x07payload".to_vec(),
            ),
            (
                Reply::Err("ERR oops".to_string()),
                b"-\0\0\0\x08ERR oops".to_vec(),
            ),
            (
                Reply::Array(vec![
                    Reply::Bulk(Bytes::from_static(b"nested")),
                    Reply::Array(vec![Reply::Bulk(Bytes::from_static(b"1")), Reply::Ok]),
                ]),
                b"*\0\0\0\x02$\0\0\0\x06nested*\0\0\0\x02$\0\0\0\x011+".to_vec(),
            ),
        ];
        for (r, wire) in &replies {
            assert_eq!(r.encoded_len(), wire.len(), "{r:?}");
            // Twice, so the second pass exercises a recycled buffer.
            for _ in 0..2 {
                assert_eq!(&r.encode_in(&mut arena)[..], &wire[..], "{r:?}");
            }
        }
        assert!(arena.hits() > 0, "second passes must recycle");
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = Reply::Ok.encode_in(&mut ByteArena::new()).to_vec();
        enc.push(9);
        assert_eq!(Reply::decode(&enc), None);
    }

    #[test]
    fn err_predicate() {
        assert!(Reply::Err("x".into()).is_err());
        assert!(!Reply::Ok.is_err());
    }
}
