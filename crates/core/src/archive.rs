//! The pool's archive of ordered bodies, clustered by request id.
//!
//! A client allocates consecutive `rid`s (`r2p2::ReqIdAlloc`), so its
//! consecutive requests differ only in the low bits of the packed 3-tuple.
//! The archive files each body in a [`Block`] of [`BLOCK_SLOTS`] slots: the
//! id without its low four bits picks the block, those bits the slot. A
//! few clients' live blocks then stay cache-resident however long the
//! history grows, and the table an id is looked up in has one entry per
//! sixteen ids. Blocks live in one slab; a block that compaction empties
//! goes on a free list, threaded through the blocks, for the next fresh key.

use fxhash::FxHashMap;

use bytes::Bytes;
use r2p2::ReqId;

/// Ids per block: the low four bits of the packed id.
pub(crate) const BLOCK_SLOTS: usize = 16;

/// The block holding `id` and its slot in it.
fn locate(id: ReqId) -> (u64, usize) {
    let v = id.as_u64();
    (v >> 4, (v & (BLOCK_SLOTS as u64 - 1)) as usize)
}

/// The bodies of sixteen consecutive ids; a slot is filled when its bit in
/// `present` is set (an empty slot holds the static empty `Bytes`).
#[derive(Clone)]
pub(crate) struct Block {
    bodies: [Bytes; BLOCK_SLOTS],
    present: u16,
    /// While the block is free: the free list's next link (see
    /// `Archive::free`). It fits in the padding after `present`.
    next_free: u32,
}

impl Block {
    const EMPTY: Block = Block {
        bodies: [const { Bytes::new() }; BLOCK_SLOTS],
        present: 0,
        next_free: 0,
    };
}

/// Ordered bodies by id (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct Archive {
    /// Block key (`id.as_u64() >> 4`) → slab position.
    index: FxHashMap<u64, u32>,
    blocks: Vec<Block>,
    /// One past the slab position of the first emptied block, 0 when there
    /// is none: reused before the slab grows.
    free: u32,
    len: u32,
}

impl Archive {
    /// The archived body of `id`.
    pub(crate) fn get(&self, id: ReqId) -> Option<&Bytes> {
        let (key, slot) = locate(id);
        let block = &self.blocks[*self.index.get(&key)? as usize];
        (block.present & (1 << slot) != 0).then(|| &block.bodies[slot])
    }

    pub(crate) fn contains(&self, id: ReqId) -> bool {
        self.get(id).is_some()
    }

    /// Files `body` under `id` unless a body is archived there already.
    pub(crate) fn insert(&mut self, id: ReqId, body: Bytes) {
        let (key, slot) = locate(id);
        let at = match self.index.get(&key) {
            Some(&b) => b,
            None => {
                let b = match self.free.checked_sub(1) {
                    Some(b) => {
                        self.free = self.blocks[b as usize].next_free;
                        b
                    }
                    None => {
                        // Doubles from one block: a first push would reserve
                        // four (1.5 KB) for a pool that may archive one body.
                        if self.blocks.len() == self.blocks.capacity() {
                            self.blocks.reserve_exact(self.blocks.len().max(1));
                        }
                        self.blocks.push(Block::EMPTY);
                        (self.blocks.len() - 1) as u32
                    }
                };
                self.index.insert(key, b);
                b
            }
        };
        let block = &mut self.blocks[at as usize];
        if block.present & (1 << slot) == 0 {
            block.present |= 1 << slot;
            block.bodies[slot] = body;
            self.len += 1;
        }
    }

    /// Takes `id`'s body out; a block left empty returns to the free list.
    pub(crate) fn remove(&mut self, id: ReqId) -> Option<Bytes> {
        let (key, slot) = locate(id);
        let &at = self.index.get(&key)?;
        let block = &mut self.blocks[at as usize];
        if block.present & (1 << slot) == 0 {
            return None;
        }
        block.present &= !(1 << slot);
        let body = std::mem::take(&mut block.bodies[slot]);
        if block.present == 0 {
            block.next_free = self.free;
            self.free = at + 1;
            self.index.remove(&key);
        }
        self.len -= 1;
        Some(body)
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Every archived `(id, body)`, sorted by id.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (u64, &Bytes)> {
        let mut keys: Vec<(u64, u32)> = self.index.iter().map(|(&k, &b)| (k, b)).collect();
        keys.sort_unstable();
        keys.into_iter().flat_map(move |(key, b)| {
            let block = &self.blocks[b as usize];
            (0..BLOCK_SLOTS)
                .filter(move |&s| block.present & (1 << s) != 0)
                .map(move |s| (key << 4 | s as u64, &block.bodies[s]))
        })
    }

    /// Slab positions in use or free, for tests of block reuse.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.blocks.len()
    }
}
