//! Value types stored in the keyspace.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;

/// A stored value: the Redis-style basic data structures (§7.5: "Redis is
/// an in-memory data store that supports basic data-structures ... lists,
/// hashmaps, and sets").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A binary-safe string.
    Str(Bytes),
    /// A deque of binary strings (LPUSH/RPUSH etc.).
    List(VecDeque<Bytes>),
    /// A field → value map. `BTreeMap` keeps iteration deterministic
    /// across replicas — a requirement of state-machine replication.
    Hash(BTreeMap<Bytes, Bytes>),
    /// A set of binary strings, deterministically ordered.
    Set(BTreeSet<Bytes>),
}

impl Value {
    /// Human-readable type name, used in WRONGTYPE errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Hash(_) => "hash",
            Value::Set(_) => "set",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Str(Bytes::new()).type_name(), "string");
        assert_eq!(Value::List(VecDeque::new()).type_name(), "list");
        assert_eq!(Value::Hash(BTreeMap::new()).type_name(), "hash");
        assert_eq!(Value::Set(BTreeSet::new()).type_name(), "set");
    }
}
