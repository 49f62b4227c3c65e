//! Byte-faithful sparse block content store.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use parking_lot::Mutex;

use crate::{fill_synthetic, BLOCK_SIZE};

const SHARD_COUNT: usize = 64;

/// Sparse, sharded map from physical block number to block content.
///
/// Blocks that were never written read back as the deterministic
/// [`synthetic_block`](crate::synthetic_block) pattern, so read-only
/// workloads over very large files consume no memory here. Written blocks
/// are stored exactly, so the key-value store and compression workloads see
/// correct round-trip data.
#[derive(Debug)]
pub struct SparseStore {
    shards: Vec<Mutex<HashMap<u64, Box<[u8]>>>>,
}

impl SparseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, pblock: u64) -> &Mutex<HashMap<u64, Box<[u8]>>> {
        // Multiply-shift hash: adjacent blocks land on different shards.
        let h = pblock.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % SHARD_COUNT]
    }

    /// Reads one block into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn read_block(&self, pblock: u64, out: &mut [u8]) {
        assert_eq!(out.len(), BLOCK_SIZE, "read buffer must be one block");
        let shard = self.shard(pblock).lock();
        match shard.get(&pblock) {
            Some(data) => out.copy_from_slice(data),
            None => fill_synthetic(pblock, out),
        }
    }

    /// Reads one block, allocating.
    pub fn read_block_vec(&self, pblock: u64) -> Vec<u8> {
        let mut out = vec![0u8; BLOCK_SIZE];
        self.read_block(pblock, &mut out);
        out
    }

    /// Overwrites one block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn write_block(&self, pblock: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE, "write buffer must be one block");
        let mut shard = self.shard(pblock).lock();
        shard.insert(pblock, data.into());
    }

    /// Writes a partial block at `offset` within the block, preserving the
    /// rest of the block's current content.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the block.
    pub fn write_partial(&self, pblock: u64, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= BLOCK_SIZE,
            "partial write out of block bounds: offset {offset} + len {}",
            data.len()
        );
        let mut shard = self.shard(pblock).lock();
        match shard.entry(pblock) {
            Entry::Occupied(block) => {
                block.into_mut()[offset..offset + data.len()].copy_from_slice(data);
            }
            // A whole-block write keeps none of the synthetic content.
            Entry::Vacant(slot) if data.len() == BLOCK_SIZE => {
                slot.insert(data.into());
            }
            Entry::Vacant(slot) => {
                let mut fresh = vec![0u8; BLOCK_SIZE];
                fill_synthetic(pblock, &mut fresh);
                fresh[offset..offset + data.len()].copy_from_slice(data);
                slot.insert(fresh.into_boxed_slice());
            }
        }
    }

    /// Discards stored content for a block (reads revert to synthetic).
    pub fn discard(&self, pblock: u64) {
        self.shard(pblock).lock().remove(&pblock);
    }

    /// Returns the explicitly stored content of a block, if any. Blocks
    /// that would read back synthetic return `None` — cross-tier copies
    /// use this to move only real data (the synthetic pattern is identical
    /// on every device).
    pub fn get_block(&self, pblock: u64) -> Option<Vec<u8>> {
        self.shard(pblock)
            .lock()
            .get(&pblock)
            .map(|data| data.to_vec())
    }

    /// Number of blocks with explicitly stored content.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

impl Default for SparseStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_block;

    #[test]
    fn unwritten_block_reads_synthetic() {
        let store = SparseStore::new();
        assert_eq!(store.read_block_vec(42), synthetic_block(42));
        assert_eq!(store.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let store = SparseStore::new();
        let data = vec![7u8; BLOCK_SIZE];
        store.write_block(3, &data);
        assert_eq!(store.read_block_vec(3), data);
        assert_eq!(store.resident_blocks(), 1);
    }

    #[test]
    fn partial_write_preserves_rest_of_block() {
        let store = SparseStore::new();
        store.write_partial(9, 100, b"hello");
        let block = store.read_block_vec(9);
        assert_eq!(&block[100..105], b"hello");
        // Rest of the block is still the synthetic pattern.
        let synth = synthetic_block(9);
        assert_eq!(&block[..100], &synth[..100]);
        assert_eq!(&block[105..], &synth[105..]);
    }

    #[test]
    fn whole_block_partial_write_replaces_the_block() {
        let store = SparseStore::new();
        let data = vec![9u8; BLOCK_SIZE];
        store.write_partial(4, 0, b"old");
        store.write_partial(4, 0, &data);
        store.write_partial(6, 0, &data);
        assert_eq!(store.read_block_vec(4), data);
        assert_eq!(store.read_block_vec(6), data);
        assert_eq!(store.resident_blocks(), 2);
    }

    #[test]
    fn discard_reverts_to_synthetic() {
        let store = SparseStore::new();
        store.write_block(5, &vec![1u8; BLOCK_SIZE]);
        store.discard(5);
        assert_eq!(store.read_block_vec(5), synthetic_block(5));
    }

    #[test]
    #[should_panic(expected = "one block")]
    fn read_rejects_short_buffer() {
        let store = SparseStore::new();
        let mut short = vec![0u8; 16];
        store.read_block(0, &mut short);
    }

    #[test]
    #[should_panic(expected = "out of block bounds")]
    fn partial_write_rejects_overflow() {
        let store = SparseStore::new();
        store.write_partial(0, BLOCK_SIZE - 2, b"xyz");
    }

    #[test]
    fn concurrent_writers_to_distinct_blocks() {
        use std::sync::Arc;
        let store = Arc::new(SparseStore::new());
        crossbeam::scope(|scope| {
            for thread_id in 0..8u64 {
                let store = Arc::clone(&store);
                scope.spawn(move |_| {
                    for i in 0..64u64 {
                        let block = thread_id * 64 + i;
                        store.write_block(block, &vec![thread_id as u8; BLOCK_SIZE]);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.resident_blocks(), 8 * 64);
        for thread_id in 0..8u64 {
            let block = store.read_block_vec(thread_id * 64);
            assert!(block.iter().all(|&b| b == thread_id as u8));
        }
    }
}
