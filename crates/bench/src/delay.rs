//! A latency-injecting backend for the wall-clock experiments.
//!
//! [`DelayBackend`] wraps an [`InMemoryBackend`] and sleeps inside each
//! disk shard: every block read sleeps that disk's read delay, and every
//! write dispatch — a single write or a whole group-commit batch — sleeps
//! the write delay once. The sleep runs under the shard lock, so one disk
//! stays serial while different disks overlap, and memcpy-speed storage
//! shows the encode/I-O overlap, ring fan-out and queueing the
//! experiments measure. Nominal disk speeds stay those of the wrapped
//! backend, so a slow disk is a hidden straggler that only wall-clock time
//! and the ring's live telemetry can see. Presence probes skip the sleep:
//! a repair risk survey is a metadata-speed scan.

use std::time::Duration;

use robustore_core::{DiskShard, InMemoryBackend, RefusedWrite, StorageBackend, StoreError};

/// An [`InMemoryBackend`] whose shards sleep on block reads and write
/// dispatches.
pub struct DelayBackend {
    inner: InMemoryBackend,
    read_delays: Vec<Duration>,
    write_delay: Option<Duration>,
}

impl DelayBackend {
    /// Wrap `inner`: disk `d`'s block reads sleep `read_delays[d]`, and
    /// each write dispatch sleeps `write_delay` when given.
    pub fn new(
        inner: InMemoryBackend,
        read_delays: Vec<Duration>,
        write_delay: Option<Duration>,
    ) -> Self {
        assert_eq!(inner.num_disks(), read_delays.len(), "one delay per disk");
        DelayBackend {
            inner,
            read_delays,
            write_delay,
        }
    }
}

impl StorageBackend for DelayBackend {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(disk, block, data)
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        self.inner.read_block(disk, block)
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let shards = self.inner.try_shard()?;
        Some(
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(DelayShard {
                        read_delay: self.read_delays[inner.disk_id()],
                        write_delay: self.write_delay,
                        inner,
                    }) as Box<dyn DiskShard>
                })
                .collect(),
        )
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(disk, block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.inner.disk_speed(disk)
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.inner.disk_used(disk)
    }
}

/// One disk of a [`DelayBackend`].
struct DelayShard {
    inner: Box<dyn DiskShard>,
    read_delay: Duration,
    write_delay: Option<Duration>,
}

impl DelayShard {
    fn sleep_write(&self) {
        if let Some(delay) = self.write_delay {
            std::thread::sleep(delay);
        }
    }
}

impl DiskShard for DelayShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.sleep_write();
        self.inner.write_block(block, data)
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        // One sleep per dispatch: the queue-flush amortisation that gives
        // group commit something real to win.
        self.sleep_write();
        self.inner.commit_batch(batch)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        if !self.read_delay.is_zero() {
            std::thread::sleep(self.read_delay);
        }
        self.inner.read_block_into(block, buf)
    }

    fn has_block(&self, block: u64) -> bool {
        self.inner.has_block(block)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    fn speed(&self) -> f64 {
        self.inner.speed()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn count_read(&mut self) {
        self.inner.count_read()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}
