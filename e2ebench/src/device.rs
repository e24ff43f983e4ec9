//! Benchmark-owned device wrappers around a backend's per-disk shards.
//!
//! Both wrappers split the wrapped backend with `try_shard` and wrap every
//! returned [`DiskShard`], so the system still runs one shard (and one
//! ring worker) per disk and its per-disk parallelism is unchanged.
//!
//! * [`DelayBackend`] is a device model: each block read sleeps a
//!   per-disk service time. Nominal speeds stay those of the wrapped
//!   backend, so a slow disk is a hidden straggler that only wall-clock
//!   time and the ring's live telemetry can see.
//! * [`TimedBackend`] is the tracing wrapper: per-disk op counts, busy
//!   time, `used()` calls and batch sizes, plus the wall time during which
//!   any disk was busy. It is installed only in traced runs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use robustore_core::{DiskShard, RefusedWrite, StorageBackend, StoreError};

/// Forward the backend operations a wrapper leaves alone to `self.inner`.
/// Only the pre-split husk sees these calls; all I/O goes through shards.
macro_rules! forward_backend {
    () => {
        fn num_disks(&self) -> usize {
            self.inner.num_disks()
        }
        fn write_block(
            &mut self,
            disk: usize,
            block: u64,
            data: Vec<u8>,
        ) -> Result<(), RefusedWrite> {
            self.inner.write_block(disk, block, data)
        }
        fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
            self.inner.read_block(disk, block)
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
    };
}

/// Forward the shard operations a wrapper does not model to `self.inner`,
/// so presence probes and fault hooks keep the wrapped shard's behaviour.
macro_rules! forward_shard {
    () => {
        fn disk_id(&self) -> usize {
            self.inner.disk_id()
        }
        fn has_block(&self, block: u64) -> bool {
            self.inner.has_block(block)
        }
        fn speed(&self) -> f64 {
            self.inner.speed()
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
        fn set_offline(&mut self, offline: bool) {
            self.inner.set_offline(offline)
        }
        fn drop_random_blocks(
            &mut self,
            fraction: f64,
            seq: &robustore_simkit::SeedSequence,
        ) -> Vec<u64> {
            self.inner.drop_random_blocks(fraction, seq)
        }
        fn corrupt_random_blocks(
            &mut self,
            fraction: f64,
            seq: &robustore_simkit::SeedSequence,
        ) -> Vec<u64> {
            self.inner.corrupt_random_blocks(fraction, seq)
        }
    };
}

type Backend = Box<dyn StorageBackend + Send>;

/// Sleeps `read_delays[disk]` in every block read of that disk.
pub struct DelayBackend {
    inner: Backend,
    read_delays: Vec<Duration>,
}

impl DelayBackend {
    pub fn new(inner: Backend, read_delays: Vec<Duration>) -> Self {
        assert_eq!(inner.num_disks(), read_delays.len(), "one delay per disk");
        DelayBackend { inner, read_delays }
    }
}

impl StorageBackend for DelayBackend {
    forward_backend!();

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let delays = self.read_delays.clone();
        let shards = self.inner.try_shard()?;
        Some(
            shards
                .into_iter()
                .map(|inner| {
                    let read_delay = delays[inner.disk_id()];
                    Box::new(DelayShard { inner, read_delay }) as Box<dyn DiskShard>
                })
                .collect(),
        )
    }
}

/// One disk of a [`DelayBackend`]. The sleep happens under the shard lock,
/// so a disk services one read at a time, like a device queue.
struct DelayShard {
    inner: Box<dyn DiskShard>,
    read_delay: Duration,
}

impl DiskShard for DelayShard {
    forward_shard!();

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(block, data)
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        self.inner.commit_batch(batch)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        std::thread::sleep(self.read_delay);
        self.inner.read_block_into(block, buf)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }
}

/// Per-disk counters of a [`TimedBackend`]; times are nanoseconds.
#[derive(Default)]
struct DiskCounters {
    read_ops: AtomicU64,
    read_ns: AtomicU64,
    write_ops: AtomicU64,
    write_batches: AtomicU64,
    write_ns: AtomicU64,
    delete_ops: AtomicU64,
    delete_ns: AtomicU64,
    used_calls: AtomicU64,
    used_ns: AtomicU64,
}

/// Wall time during which at least one disk was busy: the union of all
/// shards' busy intervals, so parallel disk work is not double-counted.
#[derive(Default)]
struct BusyUnion {
    active: usize,
    since: Option<Instant>,
    total: Duration,
}

/// Telemetry shared by every shard of a [`TimedBackend`].
pub struct Telemetry {
    disks: Vec<DiskCounters>,
    union: Mutex<BusyUnion>,
}

/// A point-in-time copy of the telemetry; subtract two to attribute the
/// device work done in between.
#[derive(Debug, Clone, Default)]
pub struct DeviceTotals {
    pub read_ops: u64,
    pub write_ops: u64,
    pub write_batches: u64,
    pub delete_ops: u64,
    pub used_calls: u64,
    pub read_s: f64,
    pub write_s: f64,
    pub delete_s: f64,
    pub used_s: f64,
    /// Wall seconds with any disk busy.
    pub union_s: f64,
    /// Busy seconds per disk (all op kinds).
    pub busy_s: Vec<f64>,
}

impl DeviceTotals {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &DeviceTotals) -> DeviceTotals {
        DeviceTotals {
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            write_batches: self.write_batches - earlier.write_batches,
            delete_ops: self.delete_ops - earlier.delete_ops,
            used_calls: self.used_calls - earlier.used_calls,
            read_s: self.read_s - earlier.read_s,
            write_s: self.write_s - earlier.write_s,
            delete_s: self.delete_s - earlier.delete_s,
            used_s: self.used_s - earlier.used_s,
            union_s: self.union_s - earlier.union_s,
            busy_s: (self.busy_s.iter().zip(&earlier.busy_s))
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &DeviceTotals) {
        self.read_ops += other.read_ops;
        self.write_ops += other.write_ops;
        self.write_batches += other.write_batches;
        self.delete_ops += other.delete_ops;
        self.used_calls += other.used_calls;
        self.read_s += other.read_s;
        self.write_s += other.write_s;
        self.delete_s += other.delete_s;
        self.used_s += other.used_s;
        self.union_s += other.union_s;
        if self.busy_s.len() < other.busy_s.len() {
            self.busy_s.resize(other.busy_s.len(), 0.0);
        }
        for (a, b) in self.busy_s.iter_mut().zip(&other.busy_s) {
            *a += b;
        }
    }
}

impl Telemetry {
    fn new(disks: usize) -> Self {
        Telemetry {
            disks: (0..disks).map(|_| DiskCounters::default()).collect(),
            union: Mutex::new(BusyUnion::default()),
        }
    }

    /// Time `f` as one busy interval of a disk: returns its result and the
    /// elapsed nanoseconds, and folds the interval into the busy union.
    fn busy<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        {
            let mut u = self.union.lock().expect("telemetry lock poisoned");
            if u.active == 0 {
                u.since = Some(start);
            }
            u.active += 1;
        }
        let out = f();
        let end = Instant::now();
        {
            let mut u = self.union.lock().expect("telemetry lock poisoned");
            u.active -= 1;
            if u.active == 0 {
                let since = u.since.take().expect("busy interval was opened");
                u.total += end - since;
            }
        }
        (out, (end - start).as_nanos() as u64)
    }

    pub fn totals(&self) -> DeviceTotals {
        let get = |a: &AtomicU64| a.load(Relaxed);
        let secs = |a: &AtomicU64| a.load(Relaxed) as f64 * 1e-9;
        let mut t = DeviceTotals {
            union_s: {
                let u = self.union.lock().expect("telemetry lock poisoned");
                let open = u.since.map_or(Duration::ZERO, |s| s.elapsed());
                (u.total + open).as_secs_f64()
            },
            ..Default::default()
        };
        for d in &self.disks {
            t.read_ops += get(&d.read_ops);
            t.write_ops += get(&d.write_ops);
            t.write_batches += get(&d.write_batches);
            t.delete_ops += get(&d.delete_ops);
            t.used_calls += get(&d.used_calls);
            t.read_s += secs(&d.read_ns);
            t.write_s += secs(&d.write_ns);
            t.delete_s += secs(&d.delete_ns);
            t.used_s += secs(&d.used_ns);
            t.busy_s
                .push(secs(&d.read_ns) + secs(&d.write_ns) + secs(&d.delete_ns) + secs(&d.used_ns));
        }
        t
    }
}

/// Counts and times every block operation of every disk.
pub struct TimedBackend {
    inner: Backend,
    telemetry: Arc<Telemetry>,
}

impl TimedBackend {
    pub fn new(inner: Backend) -> Self {
        let telemetry = Arc::new(Telemetry::new(inner.num_disks()));
        TimedBackend { inner, telemetry }
    }

    /// The shared counters; valid for the life of the system.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }
}

impl StorageBackend for TimedBackend {
    forward_backend!();

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let shards = self.inner.try_shard()?;
        Some(
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(TimedShard {
                        disk: inner.disk_id(),
                        inner,
                        telemetry: self.telemetry.clone(),
                    }) as Box<dyn DiskShard>
                })
                .collect(),
        )
    }
}

struct TimedShard {
    inner: Box<dyn DiskShard>,
    disk: usize,
    telemetry: Arc<Telemetry>,
}

impl TimedShard {
    fn counters(&self) -> &DiskCounters {
        &self.telemetry.disks[self.disk]
    }
}

impl DiskShard for TimedShard {
    forward_shard!();

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        let telemetry = self.telemetry.clone();
        let (out, ns) = telemetry.busy(|| self.inner.write_block(block, data));
        let c = self.counters();
        c.write_ops.fetch_add(1, Relaxed);
        c.write_batches.fetch_add(1, Relaxed);
        c.write_ns.fetch_add(ns, Relaxed);
        out
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        let blocks = batch.len() as u64;
        let telemetry = self.telemetry.clone();
        let (out, ns) = telemetry.busy(|| self.inner.commit_batch(batch));
        let c = self.counters();
        c.write_ops.fetch_add(blocks, Relaxed);
        c.write_batches.fetch_add(1, Relaxed);
        c.write_ns.fetch_add(ns, Relaxed);
        out
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let (out, ns) = self
            .telemetry
            .busy(|| self.inner.read_block_into(block, buf));
        let c = self.counters();
        c.read_ops.fetch_add(1, Relaxed);
        c.read_ns.fetch_add(ns, Relaxed);
        out
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        let telemetry = self.telemetry.clone();
        let (out, ns) = telemetry.busy(|| self.inner.delete_block(block));
        let c = self.counters();
        c.delete_ops.fetch_add(1, Relaxed);
        c.delete_ns.fetch_add(ns, Relaxed);
        out
    }

    fn used(&self) -> u64 {
        let (out, ns) = self.telemetry.busy(|| self.inner.used());
        let c = self.counters();
        c.used_calls.fetch_add(1, Relaxed);
        c.used_ns.fetch_add(ns, Relaxed);
        out
    }
}
