//! Storage-server data plane.
//!
//! The framework's clients speak to storage servers at block granularity
//! (§4.2: "Storage Servers provide data storage at block level"). The
//! [`StorageBackend`] trait abstracts that data plane; the in-memory
//! implementation stands in for the remote filers, with a per-disk
//! *speed* used to emulate the arrival order speculative reads exploit
//! and counters for the bytes a cancellation saves.

use std::collections::HashMap;

use robustore_simkit::rng::uniform01;
use robustore_simkit::SeedSequence;

use crate::error::StoreError;

/// A refused or failed block write: the error plus the owned payload,
/// handed back so the caller can redirect the *same bytes* to another
/// disk (the rateless routing of §4.1.1) without re-encoding, or recycle
/// the allocation. The buffer is only consumed by a write that succeeds.
#[derive(Debug)]
pub struct RefusedWrite {
    /// Why the write did not happen.
    pub error: StoreError,
    /// The unconsumed payload, exactly as submitted.
    pub data: Vec<u8>,
}

impl RefusedWrite {
    /// Bundle an error with the returned payload.
    pub fn new(error: StoreError, data: Vec<u8>) -> Self {
        RefusedWrite { error, data }
    }
}

impl From<RefusedWrite> for StoreError {
    fn from(r: RefusedWrite) -> Self {
        r.error
    }
}

/// One disk's slice of a sharded backend: the same block-level
/// operations as [`StorageBackend`], scoped to a single disk so every
/// shard can sit behind its own lock and accesses to *different* disks
/// proceed concurrently (see `crate::sharded::ShardedBackend`, which
/// routes by disk id).
///
/// A shard knows its global disk id ([`DiskShard::disk_id`]) so wrappers
/// keyed by disk — fault switches, shared counters — keep working after
/// the split.
pub trait DiskShard: Send {
    /// The global disk id this shard serves.
    fn disk_id(&self) -> usize;

    /// Store `data` under key `block`. On failure the buffer comes back
    /// inside [`RefusedWrite`] — ownership transfers to the shard only on
    /// success.
    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite>;

    /// Group commit: write `batch` in submission order under one dispatch
    /// (one lock acquisition, one simulated queue flush), returning one
    /// result per processed entry.
    ///
    /// The default loops [`DiskShard::write_block`] and **stops at the
    /// first hard fault** (any error other than the refusal shape
    /// [`StoreError::MissingBlock`]), so the returned vector may be
    /// shorter than the batch — unprocessed tail entries were never
    /// attempted, exactly as if they had been submitted one at a time
    /// after an aborting fault. Refusals are per-entry and do not stop
    /// the batch.
    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        let mut out = Vec::with_capacity(batch.len());
        for (block, data) in batch {
            let result = self.write_block(block, data);
            let hard =
                matches!(&result, Err(rw) if !matches!(rw.error, StoreError::MissingBlock { .. }));
            out.push(result);
            if hard {
                break;
            }
        }
        out
    }

    /// Fetch block `block` into a caller-provided buffer (e.g. one
    /// recycled from a `BlockPool`), resized to the block's length.
    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError>;

    /// Presence probe: does this shard currently hold a readable copy of
    /// `block`? Cheap risk assessment for the repair service — it must
    /// not count as a read or consume injected-fault budgets (fault
    /// wrappers delegate straight to the wrapped store). The default
    /// attempts a full read into scratch, which is correct but not cheap;
    /// stores with an index should override it.
    fn has_block(&self, block: u64) -> bool {
        let mut scratch = Vec::new();
        self.read_block_into(block, &mut scratch).is_ok()
    }

    /// Remove a block.
    fn delete_block(&mut self, block: u64) -> Result<(), StoreError>;

    /// Nominal bandwidth, bytes/second.
    fn speed(&self) -> f64;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Account one block read (reads go through `&self`, so the system
    /// reports them explicitly).
    fn count_read(&mut self) {}

    /// Blocks read through this shard so far.
    fn reads(&self) -> u64 {
        0
    }

    /// Blocks written through this shard so far.
    fn writes(&self) -> u64 {
        0
    }

    /// Failure injection: take the disk offline or bring it back.
    fn set_offline(&mut self, _offline: bool) {}

    /// Fault injection: silently lose each stored block with probability
    /// `fraction` (latent sector errors rather than a whole outage),
    /// deterministically from `seq`. Returns the lost block keys in
    /// ascending order; shards without loss support lose nothing.
    fn drop_random_blocks(&mut self, _fraction: f64, _seq: &SeedSequence) -> Vec<u64> {
        Vec::new()
    }

    /// Fault injection: silently flip one byte in each stored block with
    /// probability `fraction` (at-rest bit rot — the block still reads,
    /// but with wrong bytes only checksum verification can catch),
    /// deterministically from `seq`. Returns the corrupted block keys in
    /// ascending order; shards without corruption support corrupt
    /// nothing.
    fn corrupt_random_blocks(&mut self, _fraction: f64, _seq: &SeedSequence) -> Vec<u64> {
        Vec::new()
    }
}

/// Block-granular storage under the client.
///
/// The client never does I/O through this trait directly: the system
/// splits every backend into per-disk [`DiskShard`]s at startup
/// ([`StorageBackend::try_shard`]) and drives those through the I/O
/// ring. The block methods here serve a backend's own setup and tests.
pub trait StorageBackend {
    /// Number of disks in the system.
    fn num_disks(&self) -> usize;

    /// Store `data` as block `block` of disk `disk`. On failure the
    /// buffer comes back inside [`RefusedWrite`] — ownership transfers to
    /// the backend only on success.
    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite>;

    /// Fetch block `block` of disk `disk`.
    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError>;

    /// Split this backend into independent per-disk shards, consuming its
    /// guts: each [`DiskShard`] owns one disk's state and can be locked
    /// separately, so accesses touching different disks never serialise
    /// on one big lock. This is the backend contract: a backend must
    /// return exactly one shard per disk, and the system refuses to start
    /// over one that returns `None`. After the split the husk must not be
    /// used for I/O.
    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>>;

    /// Remove a block (updates delete obsolete coded blocks, §4.3.4).
    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError>;

    /// Nominal bandwidth of a disk, bytes/second — what the metadata
    /// server reports as "expected performance".
    fn disk_speed(&self, disk: usize) -> f64;

    /// Bytes currently stored on a disk.
    fn disk_used(&self, disk: usize) -> u64;
}

/// In-memory backend: one block map per disk plus a nominal speed.
/// Read/write counters, outages and fault injection live on its shards.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    disks: Vec<DiskStore>,
}

#[derive(Debug, Default)]
struct DiskStore {
    blocks: HashMap<u64, Vec<u8>>,
    speed: f64,
    used: u64,
    offline: bool,
}

impl DiskStore {
    /// `disk` is the store's global id — used only for error values and
    /// the seeded fault streams.
    fn write(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        if self.offline {
            return Err(RefusedWrite::new(
                StoreError::MissingBlock { disk, block },
                data,
            ));
        }
        self.used += data.len() as u64;
        if let Some(old) = self.blocks.insert(block, data) {
            self.used -= old.len() as u64;
        }
        Ok(())
    }

    fn has(&self, block: u64) -> bool {
        !self.offline && self.blocks.contains_key(&block)
    }

    fn read_into(&self, disk: usize, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let data = if self.offline {
            None
        } else {
            self.blocks.get(&block)
        }
        .ok_or(StoreError::MissingBlock { disk, block })?;
        buf.clear();
        buf.extend_from_slice(data);
        Ok(())
    }

    fn delete(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        match self.blocks.remove(&block) {
            Some(old) => {
                self.used -= old.len() as u64;
                Ok(())
            }
            None => Err(StoreError::MissingBlock { disk, block }),
        }
    }

    fn drop_random(&mut self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let mut rng = seq.fork("block-loss", disk as u64);
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable(); // HashMap order is not deterministic; draws must be
        let mut lost = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let data = self.blocks.remove(&key).expect("key just listed");
                self.used -= data.len() as u64;
                lost.push(key);
            }
        }
        lost
    }

    fn corrupt_random(&mut self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let mut rng = seq.fork("bit-rot", disk as u64);
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut rotted = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let data = self.blocks.get_mut(&key).expect("key just listed");
                if !data.is_empty() {
                    let pos = (uniform01(&mut rng) * data.len() as f64) as usize;
                    let last = data.len() - 1;
                    data[pos.min(last)] ^= 0x40;
                    rotted.push(key);
                }
            }
        }
        rotted
    }
}

/// One in-memory disk split out of an [`InMemoryBackend`] by
/// [`StorageBackend::try_shard`]. Lost blocks read as
/// [`StoreError::MissingBlock`], which the degraded-read path skips over;
/// rotted blocks keep their length and keep reading, with one byte
/// flipped. Victims depend only on the disk's contents, `fraction`, and
/// `seq` (dedicated `"block-loss"` and `"bit-rot"` streams); stored blocks
/// survive an outage, only I/O is refused.
#[derive(Debug)]
struct InMemoryShard {
    disk: usize,
    store: DiskStore,
    reads: u64,
    writes: u64,
}

impl DiskShard for InMemoryShard {
    fn disk_id(&self) -> usize {
        self.disk
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.store.write(self.disk, block, data)?;
        self.writes += 1;
        Ok(())
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        self.store.read_into(self.disk, block, buf)
    }

    fn has_block(&self, block: u64) -> bool {
        self.store.has(block)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.store.delete(self.disk, block)
    }

    fn speed(&self) -> f64 {
        self.store.speed
    }

    fn used(&self) -> u64 {
        self.store.used
    }

    fn count_read(&mut self) {
        self.reads += 1;
    }

    fn reads(&self) -> u64 {
        self.reads
    }

    fn writes(&self) -> u64 {
        self.writes
    }

    fn set_offline(&mut self, offline: bool) {
        self.store.offline = offline;
    }

    fn drop_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.store.drop_random(self.disk, fraction, seq)
    }

    fn corrupt_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.store.corrupt_random(self.disk, fraction, seq)
    }
}

impl InMemoryBackend {
    /// A backend with the given per-disk nominal speeds (bytes/second).
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "need at least one disk");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        InMemoryBackend {
            disks: speeds
                .into_iter()
                .map(|speed| DiskStore {
                    blocks: HashMap::new(),
                    speed,
                    used: 0,
                    offline: false,
                })
                .collect(),
        }
    }

    /// A uniform backend of `n` disks at `speed` bytes/second.
    pub fn uniform(n: usize, speed: f64) -> Self {
        InMemoryBackend::new(vec![speed; n])
    }
}

impl StorageBackend for InMemoryBackend {
    fn num_disks(&self) -> usize {
        self.disks.len()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        match self.disks.get_mut(disk) {
            Some(d) => d.write(disk, block, data),
            None => Err(RefusedWrite::new(
                StoreError::MissingBlock { disk, block },
                data,
            )),
        }
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        self.disks
            .get(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .read_into(disk, block, &mut buf)?;
        Ok(buf)
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.disks
            .get_mut(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .delete(disk, block)
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        Some(
            self.disks
                .drain(..)
                .enumerate()
                .map(|(disk, store)| {
                    Box::new(InMemoryShard {
                        disk,
                        store,
                        reads: 0,
                        writes: 0,
                    }) as Box<dyn DiskShard>
                })
                .collect(),
        )
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.disks[disk].speed
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.disks[disk].used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split a backend the way the system does and hand back its disks.
    fn shards(mut b: InMemoryBackend) -> Vec<Box<dyn DiskShard>> {
        b.try_shard().expect("in-memory backends shard")
    }

    #[test]
    fn write_read_delete_roundtrip() {
        let mut b = InMemoryBackend::uniform(2, 10e6);
        b.write_block(0, 7, vec![1, 2, 3]).unwrap();
        assert_eq!(b.read_block(0, 7).unwrap(), vec![1, 2, 3]);
        assert_eq!(b.disk_used(0), 3);
        b.delete_block(0, 7).unwrap();
        assert!(matches!(
            b.read_block(0, 7),
            Err(StoreError::MissingBlock { .. })
        ));
        assert_eq!(b.disk_used(0), 0);
    }

    #[test]
    fn shards_carry_blocks_and_adjust_usage() {
        let mut b = InMemoryBackend::uniform(2, 10e6);
        b.write_block(1, 5, vec![4; 10]).unwrap();
        let mut disks = shards(b);
        assert_eq!(disks.len(), 2);
        assert_eq!((disks[1].disk_id(), disks[1].used()), (1, 10));
        assert!(disks[1].has_block(5));
        disks[0].write_block(1, vec![0; 100]).unwrap();
        disks[0].write_block(1, vec![0; 40]).unwrap();
        assert_eq!(disks[0].used(), 40);
        assert_eq!(disks[0].writes(), 2);
    }

    #[test]
    fn read_into_reuses_capacity() {
        let mut disks = shards(InMemoryBackend::uniform(1, 10e6));
        disks[0].write_block(3, vec![9, 8, 7]).unwrap();
        let mut buf = Vec::with_capacity(16);
        let ptr = buf.as_ptr();
        disks[0].read_block_into(3, &mut buf).unwrap();
        assert_eq!(buf, vec![9, 8, 7]);
        assert_eq!(buf.as_ptr(), ptr, "capacity sufficed; no reallocation");
        assert!(matches!(
            disks[0].read_block_into(99, &mut buf),
            Err(StoreError::MissingBlock { .. })
        ));
    }

    #[test]
    fn offline_shard_keeps_blocks_but_refuses_io() {
        let mut disks = shards(InMemoryBackend::uniform(1, 10e6));
        disks[0].write_block(1, vec![1]).unwrap();
        disks[0].set_offline(true);
        let mut buf = Vec::new();
        assert!(disks[0].read_block_into(1, &mut buf).is_err());
        assert!(!disks[0].has_block(1));
        let refused = disks[0].write_block(2, vec![2]).unwrap_err();
        assert_eq!(refused.data, vec![2], "payload handed back");
        disks[0].set_offline(false);
        disks[0].read_block_into(1, &mut buf).unwrap();
        assert_eq!(buf, vec![1]);
    }

    #[test]
    fn invalid_disk_errors() {
        let mut b = InMemoryBackend::uniform(1, 10e6);
        assert!(b.write_block(5, 0, vec![]).is_err());
        assert!(b.read_block(5, 0).is_err());
        assert!(b.delete_block(0, 99).is_err());
    }

    #[test]
    fn speeds_vary() {
        let b = InMemoryBackend::new(vec![1e6, 50e6]);
        assert_eq!(b.disk_speed(0), 1e6);
        assert_eq!(b.disk_speed(1), 50e6);
        assert_eq!(b.num_disks(), 2);
        let disks = shards(b);
        assert_eq!(disks[1].speed(), 50e6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        InMemoryBackend::new(vec![0.0]);
    }

    /// Disk 0 of a two-disk backend holding 64 blocks of 16 bytes.
    fn loaded_disk() -> Box<dyn DiskShard> {
        let mut b = InMemoryBackend::uniform(2, 10e6);
        for key in 0..64 {
            b.write_block(0, key, vec![key as u8; 16]).unwrap();
        }
        shards(b).swap_remove(0)
    }

    fn read(disk: &dyn DiskShard, key: u64) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        disk.read_block_into(key, &mut buf).map(|()| buf)
    }

    #[test]
    fn block_loss_is_deterministic() {
        let seq = SeedSequence::new(11);
        let lost_a = loaded_disk().drop_random_blocks(0.3, &seq);
        let lost_b = loaded_disk().drop_random_blocks(0.3, &seq);
        assert_eq!(lost_a, lost_b);
        assert!(!lost_a.is_empty() && lost_a.len() < 64, "p=0.3 over 64");
        assert!(lost_a.windows(2).all(|w| w[0] < w[1]), "ascending keys");
        let other_seed = loaded_disk().drop_random_blocks(0.3, &SeedSequence::new(12));
        assert_ne!(lost_a, other_seed);
    }

    #[test]
    fn lost_blocks_read_as_missing_and_free_space() {
        let mut disk = loaded_disk();
        let used_before = disk.used();
        let lost = disk.drop_random_blocks(0.5, &SeedSequence::new(7));
        assert_eq!(disk.used(), used_before - 16 * lost.len() as u64);
        for &key in &lost {
            assert!(matches!(
                read(&*disk, key),
                Err(StoreError::MissingBlock { .. })
            ));
        }
        // Empty disk and fraction edge cases.
        let mut empty = shards(InMemoryBackend::uniform(1, 10e6)).swap_remove(0);
        assert!(empty
            .drop_random_blocks(0.5, &SeedSequence::new(7))
            .is_empty());
        assert!(loaded_disk()
            .drop_random_blocks(0.0, &SeedSequence::new(7))
            .is_empty());
        assert_eq!(
            loaded_disk()
                .drop_random_blocks(1.0, &SeedSequence::new(7))
                .len(),
            64
        );
    }

    #[test]
    fn bit_rot_is_deterministic_and_silent() {
        let seq = SeedSequence::new(21);
        let rot_a = loaded_disk().corrupt_random_blocks(0.3, &seq);
        let rot_b = loaded_disk().corrupt_random_blocks(0.3, &seq);
        assert_eq!(rot_a, rot_b);
        assert!(!rot_a.is_empty() && rot_a.len() < 64);
        assert!(rot_a.windows(2).all(|w| w[0] < w[1]), "ascending keys");

        let mut disk = loaded_disk();
        let used_before = disk.used();
        let rotted = disk.corrupt_random_blocks(0.3, &seq);
        // Silent: same usage, same length, reads still succeed — but the
        // bytes differ from the originals.
        assert_eq!(disk.used(), used_before);
        for &key in &rotted {
            let data = read(&*disk, key).unwrap();
            assert_eq!(data.len(), 16);
            assert_ne!(data, vec![key as u8; 16], "block {key} not corrupted");
        }
        // Non-victims are untouched.
        for key in (0..64).filter(|k| !rotted.contains(k)) {
            assert_eq!(read(&*disk, key).unwrap(), vec![key as u8; 16]);
        }
        assert_ne!(
            rot_a,
            loaded_disk().corrupt_random_blocks(0.3, &SeedSequence::new(22))
        );
    }
}
