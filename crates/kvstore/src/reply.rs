//! Replies and their wire encoding.

use bytes::{ByteArena, Bytes};

/// A command's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Generic success.
    Ok,
    /// Key/field/element absent.
    Nil,
    /// An integer result (counts, lengths, INCR).
    Int(i64),
    /// A single binary string.
    Bulk(Bytes),
    /// An ordered collection of results (LRANGE, HGETALL, SCAN).
    Array(Vec<Reply>),
    /// An error, e.g. WRONGTYPE.
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
            Reply::Ok | Reply::Nil => 1,
            Reply::Int(_) => 1 + 8,
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
        match self {
            Reply::Ok => put(out, b"+"),
            Reply::Nil => put(out, b"_"),
            Reply::Int(i) => {
                put(out, b":");
                put(out, &i.to_be_bytes());
            }
            Reply::Bulk(body) => {
                put(out, b"$");
                put(out, &(body.len() as u32).to_be_bytes());
                put(out, body);
            }
            Reply::Array(items) => {
                put(out, b"*");
                put(out, &(items.len() as u32).to_be_bytes());
                for it in items {
                    it.encode_into_slice(out);
                }
            }
            Reply::Err(msg) => {
                put(out, b"-");
                put(out, &(msg.len() as u32).to_be_bytes());
                put(out, msg.as_bytes());
            }
        }
    }

    /// Decodes wire bytes produced by [`Reply::encode_in`].
    pub fn decode(buf: &[u8]) -> Option<Reply> {
        let (r, rest) = Self::decode_one(buf)?;
        rest.is_empty().then_some(r)
    }

    fn decode_one(buf: &[u8]) -> Option<(Reply, &[u8])> {
        let (&tag, rest) = buf.split_first()?;
        match tag {
            b'+' => Some((Reply::Ok, rest)),
            b'_' => Some((Reply::Nil, rest)),
            b':' => {
                let v = i64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some((Reply::Int(v), &rest[8..]))
            }
            b'$' => {
                let len = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let body = rest.get(4..4 + len)?;
                Some((Reply::Bulk(Bytes::copy_from_slice(body)), &rest[4 + len..]))
            }
            b'*' => {
                let n = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let mut cur = &rest[4..];
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let (it, nxt) = Self::decode_one(cur)?;
                    items.push(it);
                    cur = nxt;
                }
                Some((Reply::Array(items), cur))
            }
            b'-' => {
                let len = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let msg = rest.get(4..4 + len)?;
                Some((
                    Reply::Err(String::from_utf8_lossy(msg).into_owned()),
                    &rest[4 + len..],
                ))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        let replies = vec![
            Reply::Ok,
            Reply::Nil,
            Reply::Int(-42),
            Reply::Bulk(Bytes::from_static(b"hello\0world")),
            Reply::Err("WRONGTYPE expected list, found string".to_string()),
            Reply::Array(vec![
                Reply::Bulk(Bytes::from_static(b"k")),
                Reply::Int(7),
                Reply::Array(vec![Reply::Nil]),
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
            (Reply::Nil, b"_".to_vec()),
            (Reply::Int(i64::MIN), b":\x80\0\0\0\0\0\0\0".to_vec()),
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
                    Reply::Array(vec![Reply::Int(1), Reply::Ok]),
                ]),
                b"*\0\0\0\x02$\0\0\0\x06nested*\0\0\0\x02:\0\0\0\0\0\0\0\x01+".to_vec(),
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
