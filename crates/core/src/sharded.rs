//! Sharded backend dispatch: per-disk locks and group commit.
//!
//! RobuSTore's premise is that erasure-coded accesses fan out over many
//! *independent* disks, so the client must not serialise them behind one
//! backend-wide lock. [`ShardedBackend`] is the submission layer that
//! makes the independence real: it splits a [`StorageBackend`] into
//! per-disk [`DiskShard`]s (via [`StorageBackend::try_shard`], which every
//! backend must support), puts each shard behind its own mutex, and
//! routes every `write_block` / `read_block_into` / `delete_block` by
//! disk id. Two accesses touching different disks — or different blocks
//! of the same access — only contend when they land on the same disk at
//! the same instant, which is exactly the per-disk-queue regime the
//! paper's analysis models.
//!
//! Group commit rides on the same seam: [`ShardedBackend::commit_batch`]
//! hands a run of consecutive same-disk writes to the shard in one lock
//! acquisition ([`DiskShard::commit_batch`]), amortising the per-dispatch
//! cost (lock traffic here; a queue flush or fsync on a real filer). The
//! batch contract keeps failure semantics identical to unbatched writes:
//! entries are processed in order and the batch stops at the first hard
//! fault, so the commit protocol's rollback sees the same world either
//! way.

use parking_lot::Mutex;
use robustore_simkit::SeedSequence;

use crate::backend::{DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

/// The submission layer over a storage backend split into per-disk
/// shards.
///
/// All methods take `&self`: locking is internal and per-operation, so
/// concurrent client accesses interleave at block granularity instead of
/// excluding each other for whole accesses. Per-disk nominal speeds are
/// cached at construction (they are static), so layout planning reads
/// them without touching any lock. A disk id past the end refuses
/// gracefully (missing block, zero usage).
pub struct ShardedBackend {
    shards: Vec<Mutex<Box<dyn DiskShard>>>,
    speeds: Vec<f64>,
}

impl ShardedBackend {
    /// Split `backend` into its per-disk shards.
    ///
    /// # Panics
    ///
    /// If the backend breaks the [`StorageBackend::try_shard`] contract:
    /// it returns `None`, or not exactly one shard per disk.
    pub fn new(mut backend: Box<dyn StorageBackend + Send>) -> Self {
        let speeds: Vec<f64> = (0..backend.num_disks())
            .map(|d| backend.disk_speed(d))
            .collect();
        let shards = backend.try_shard().expect(
            "StorageBackend::try_shard returned None: every backend must split \
             into one DiskShard per disk",
        );
        assert_eq!(
            shards.len(),
            speeds.len(),
            "StorageBackend::try_shard must return one DiskShard per disk"
        );
        ShardedBackend {
            shards: shards.into_iter().map(Mutex::new).collect(),
            speeds,
        }
    }

    fn shard(&self, disk: usize) -> Option<&Mutex<Box<dyn DiskShard>>> {
        self.shards.get(disk)
    }

    /// Number of disks.
    pub fn num_disks(&self) -> usize {
        self.speeds.len()
    }

    /// Nominal bandwidth of a disk, bytes/second (lock-free: cached).
    pub fn disk_speed(&self, disk: usize) -> f64 {
        self.speeds[disk]
    }

    /// Store `data` as block `block` of disk `disk`.
    pub fn write_block(&self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        match self.shard(disk) {
            Some(shard) => shard.lock().write_block(block, data),
            None => Err(RefusedWrite::new(
                StoreError::MissingBlock { disk, block },
                data,
            )),
        }
    }

    /// Group commit: write a batch of consecutive same-disk blocks under
    /// one lock acquisition. Stops at the first hard fault (the result
    /// vector may be shorter than the batch); refusals are per-entry.
    pub fn commit_batch(
        &self,
        disk: usize,
        batch: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<(), RefusedWrite>> {
        match self.shard(disk) {
            Some(shard) => shard.lock().commit_batch(batch),
            None => batch
                .into_iter()
                .map(|(block, data)| {
                    Err(RefusedWrite::new(
                        StoreError::MissingBlock { disk, block },
                        data,
                    ))
                })
                .collect(),
        }
    }

    /// Fetch block `block` of disk `disk` into `buf`.
    pub fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.shard(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .lock()
            .read_block_into(block, buf)
    }

    /// Fetch a block with the shared bounded-retry policy: transient
    /// faults retry up to `max_attempts` total attempts, calling
    /// `backoff(attempt)` before each retry (the caller supplies the
    /// sleep — plain exponential on the ring, nothing during read-repair
    /// audits). A successful read is counted against the disk here, so
    /// the retry accounting and the per-disk read counters cannot drift
    /// between callers. Returns the final result and the number of
    /// retries performed; exhausted retries surface the last
    /// `TransientIo` error.
    pub fn read_block_retry(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
        max_attempts: u32,
        mut backoff: impl FnMut(u32),
    ) -> (Result<(), StoreError>, u64) {
        let max_attempts = max_attempts.max(1);
        let mut attempt = 0u32;
        let mut retries = 0u64;
        let result = loop {
            match self.read_block_into(disk, block, buf) {
                Ok(()) => {
                    self.count_read(disk);
                    break Ok(());
                }
                Err(err @ StoreError::TransientIo { .. }) => {
                    attempt += 1;
                    if attempt >= max_attempts {
                        break Err(err);
                    }
                    retries += 1;
                    backoff(attempt);
                }
                Err(err) => break Err(err),
            }
        };
        (result, retries)
    }

    /// Presence probe: does `disk` currently hold a readable copy of
    /// `block`? Not a read — counters and injected-fault budgets are
    /// untouched (see [`DiskShard::has_block`]).
    pub fn has_block(&self, disk: usize, block: u64) -> bool {
        self.shard(disk).is_some_and(|s| s.lock().has_block(block))
    }

    /// Remove a block.
    pub fn delete_block(&self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.shard(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .lock()
            .delete_block(block)
    }

    /// Bytes currently stored on a disk.
    pub fn disk_used(&self, disk: usize) -> u64 {
        self.shard(disk).map_or(0, |s| s.lock().used())
    }

    /// Account one block read on `disk`.
    pub fn count_read(&self, disk: usize) {
        if let Some(shard) = self.shard(disk) {
            shard.lock().count_read();
        }
    }

    /// Blocks read so far, summed across disks.
    pub fn reads(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().reads()).sum()
    }

    /// Blocks written so far, summed across disks.
    pub fn writes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().writes()).sum()
    }

    /// Failure injection: take a disk offline or bring it back.
    pub fn set_offline(&self, disk: usize, offline: bool) {
        if let Some(shard) = self.shard(disk) {
            shard.lock().set_offline(offline);
        }
    }

    /// Fault injection: seeded random block loss on one disk.
    pub fn drop_random_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.shard(disk)
            .map_or_else(Vec::new, |s| s.lock().drop_random_blocks(fraction, seq))
    }

    /// Fault injection: seeded at-rest bit rot on one disk.
    pub fn corrupt_random_blocks(
        &self,
        disk: usize,
        fraction: f64,
        seq: &SeedSequence,
    ) -> Vec<u64> {
        self.shard(disk)
            .map_or_else(Vec::new, |s| s.lock().corrupt_random_blocks(fraction, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;

    fn sharded(n: usize) -> ShardedBackend {
        ShardedBackend::new(Box::new(InMemoryBackend::uniform(n, 10e6)))
    }

    #[test]
    fn routes_by_disk() {
        let b = sharded(3);
        b.write_block(0, 1, vec![1; 4]).unwrap();
        b.write_block(2, 9, vec![2; 8]).unwrap();
        let mut buf = Vec::new();
        b.read_block_into(2, 9, &mut buf).unwrap();
        assert_eq!(buf, vec![2; 8]);
        assert_eq!(b.disk_used(0), 4);
        assert_eq!(b.disk_used(1), 0);
        assert_eq!(b.disk_used(2), 8);
        assert_eq!(b.writes(), 2);
        b.delete_block(0, 1).unwrap();
        assert_eq!(b.disk_used(0), 0);
        assert!(matches!(
            b.read_block_into(0, 1, &mut buf),
            Err(StoreError::MissingBlock { .. })
        ));
        assert_eq!(b.num_disks(), 3);
        assert_eq!(b.disk_speed(1), 10e6);
    }

    #[test]
    fn invalid_disks_refuse_gracefully() {
        let b = sharded(1);
        assert!(b.write_block(7, 0, vec![0]).is_err());
        let mut buf = Vec::new();
        assert!(b.read_block_into(7, 0, &mut buf).is_err());
        assert!(b.delete_block(7, 0).is_err());
        assert_eq!(b.disk_used(7), 0);
        let results = b.commit_batch(7, vec![(0, vec![1]), (1, vec![2])]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_err()));
    }

    #[test]
    fn commit_batch_matches_sequential_writes() {
        let b = sharded(2);
        let results = b.commit_batch(1, vec![(10, vec![1; 3]), (11, vec![2; 5])]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(b.disk_used(1), 8);
        let mut buf = Vec::new();
        b.read_block_into(1, 11, &mut buf).unwrap();
        assert_eq!(buf, vec![2; 5]);
    }

    #[test]
    fn offline_shard_refuses() {
        let b = sharded(2);
        b.set_offline(0, true);
        assert!(b.write_block(0, 1, vec![1]).is_err());
        b.write_block(1, 1, vec![1]).unwrap();
        b.set_offline(0, false);
        b.write_block(0, 1, vec![1]).unwrap();
    }

    #[test]
    fn count_read_sums_across_shards() {
        let b = sharded(3);
        b.count_read(0);
        b.count_read(2);
        b.count_read(2);
        assert_eq!(b.reads(), 3);
    }
}
