//! Filesystem-backed storage backend.
//!
//! [`FileBackend`] persists coded blocks as files under a root directory —
//! one subdirectory per simulated disk, one file per block — so a
//! RobuSTore [`crate::System`] can survive process restarts. It is the
//! "real system implementation" seed of §7.3: the same client, metadata,
//! and coding stack, with durable block storage underneath.
//!
//! Layout: `<root>/disk-<id>/<block-key-hex>.blk`, plus a `speeds` file
//! recording the per-disk nominal bandwidths so a reopened store plans the
//! same way.
//!
//! Each disk's byte count is a counter shared by the backend and its
//! shards, seeded by one directory scan at [`FileBackend::open`] and kept
//! current by writes and deletes. The client asks every touched disk for
//! its usage after every write, so a per-call directory scan would make
//! writes slower as the store grows.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::{DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

/// Block storage rooted in a directory. Read/write counters, outages and
/// fault injection live on its shards.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    speeds: Vec<f64>,
    /// Bytes stored per disk, shared with every shard of that disk.
    used: Vec<Arc<AtomicU64>>,
}

fn io_err(disk: usize, block: u64) -> StoreError {
    StoreError::MissingBlock { disk, block }
}

impl FileBackend {
    /// Create a store at `root` with the given per-disk speeds, or reopen
    /// an existing one (in which case the recorded speeds are loaded and
    /// `speeds` must match in count).
    pub fn open(root: impl AsRef<Path>, speeds: Vec<f64>) -> Result<Self, StoreError> {
        assert!(!speeds.is_empty(), "need at least one disk");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        let root = root.as_ref().to_path_buf();
        let meta = root.join("speeds");
        let speeds = if meta.exists() {
            let text = std::fs::read_to_string(&meta).map_err(|_| io_err(0, 0))?;
            let stored: Vec<f64> = text
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            if stored.len() != speeds.len() {
                return Err(StoreError::AccessDenied(format!(
                    "store at {} has {} disks, asked for {}",
                    root.display(),
                    stored.len(),
                    speeds.len()
                )));
            }
            stored
        } else {
            std::fs::create_dir_all(&root).map_err(|_| io_err(0, 0))?;
            let mut f = std::fs::File::create(&meta).map_err(|_| io_err(0, 0))?;
            for s in &speeds {
                let _ = writeln!(f, "{s}");
            }
            speeds
        };
        let mut used = Vec::with_capacity(speeds.len());
        for d in 0..speeds.len() {
            let dir = disk_dir(&root, d);
            std::fs::create_dir_all(&dir).map_err(|_| io_err(d, 0))?;
            used.push(Arc::new(AtomicU64::new(scan_used(&dir))));
        }
        Ok(FileBackend { root, speeds, used })
    }

    /// Disk `disk`'s directory as a shard; `None` past the last disk.
    /// Whole-backend calls go through it, so they share the shards' I/O.
    fn shard(&self, disk: usize) -> Option<FileShard> {
        Some(FileShard {
            root: self.root.clone(),
            disk,
            speed: *self.speeds.get(disk)?,
            used: self.used[disk].clone(),
            offline: false,
            reads: 0,
            writes: 0,
        })
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl StorageBackend for FileBackend {
    fn num_disks(&self) -> usize {
        self.speeds.len()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        match self.shard(disk) {
            Some(mut shard) => shard.write_block(block, data),
            None => Err(RefusedWrite::new(io_err(disk, block), data)),
        }
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        self.shard(disk)
            .ok_or(io_err(disk, block))?
            .read_block_into(block, &mut buf)?;
        Ok(buf)
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.shard(disk)
            .ok_or(io_err(disk, block))?
            .delete_block(block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.speeds[disk]
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.shard(disk).map_or(0, |shard| shard.used())
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        // One shard per disk directory. Shards never touch each other's
        // directories, so per-disk locking is safe on a shared root; the
        // `speeds` file is read-only after open.
        (0..self.speeds.len())
            .map(|disk| Some(Box::new(self.shard(disk)?) as Box<dyn DiskShard>))
            .collect()
    }
}

fn disk_dir(root: &Path, disk: usize) -> PathBuf {
    root.join(format!("disk-{disk}"))
}

/// Total length of the files in `dir`: the directory scan the per-disk
/// counter replaces after open.
fn scan_used(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Length of the file at `path`, 0 when it does not exist.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One disk directory of a [`FileBackend`], as an independent shard.
#[derive(Debug)]
struct FileShard {
    root: PathBuf,
    disk: usize,
    speed: f64,
    /// This disk's byte counter. A value, not an invariant another field
    /// depends on, so plain `Relaxed` updates suffice.
    used: Arc<AtomicU64>,
    offline: bool,
    reads: u64,
    writes: u64,
}

impl FileShard {
    fn block_path(&self, block: u64) -> PathBuf {
        disk_dir(&self.root, self.disk).join(format!("{block:016x}.blk"))
    }

    /// Account a file going from `old` to `new` bytes.
    fn resize(&self, old: u64, new: u64) {
        if new >= old {
            self.used.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.used.fetch_sub(old - new, Ordering::Relaxed);
        }
    }
}

impl DiskShard for FileShard {
    fn disk_id(&self) -> usize {
        self.disk
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        if self.offline {
            return Err(RefusedWrite::new(io_err(self.disk, block), data));
        }
        // Scrub rewrites corrupt copies in place under the same key, so
        // the old length must come off the counter.
        let path = self.block_path(block);
        let old = file_len(&path);
        if std::fs::write(&path, &data).is_err() {
            // A failed write may have truncated or partly written the file.
            self.resize(old, file_len(&path));
            return Err(RefusedWrite::new(io_err(self.disk, block), data));
        }
        self.resize(old, data.len() as u64);
        self.writes += 1;
        Ok(())
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        use std::io::Read as _;
        if self.offline {
            return Err(io_err(self.disk, block));
        }
        let mut f =
            std::fs::File::open(self.block_path(block)).map_err(|_| io_err(self.disk, block))?;
        buf.clear();
        f.read_to_end(buf).map_err(|_| io_err(self.disk, block))?;
        Ok(())
    }

    fn has_block(&self, block: u64) -> bool {
        !self.offline && self.block_path(block).is_file()
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        let path = self.block_path(block);
        let old = file_len(&path);
        std::fs::remove_file(&path).map_err(|_| io_err(self.disk, block))?;
        self.resize(old, 0);
        Ok(())
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
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
        self.offline = offline;
    }

    /// At-rest bit rot on a durable store: flips one byte in each victim
    /// block file in place (length and readability preserved, so the byte
    /// counter needs no adjustment). Victims
    /// depend only on the disk's contents, `fraction`, and `seq`.
    fn corrupt_random_blocks(
        &mut self,
        fraction: f64,
        seq: &robustore_simkit::SeedSequence,
    ) -> Vec<u64> {
        use robustore_simkit::rng::uniform01;
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let dir = disk_dir(&self.root, self.disk);
        let mut keys: Vec<u64> = std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| {
                        let name = e.file_name().into_string().ok()?;
                        let hex = name.strip_suffix(".blk")?;
                        u64::from_str_radix(hex, 16).ok()
                    })
                    .collect()
            })
            .unwrap_or_default();
        keys.sort_unstable();
        // Same rng stream as the in-memory shards (`fork("bit-rot", disk)`).
        let mut rng = seq.fork("bit-rot", self.disk as u64);
        let mut rotted = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let path = self.block_path(key);
                let Ok(mut data) = std::fs::read(&path) else {
                    continue;
                };
                if data.is_empty() {
                    continue;
                }
                let pos = (uniform01(&mut rng) * data.len() as f64) as usize;
                let last = data.len() - 1;
                data[pos.min(last)] ^= 0x40;
                if std::fs::write(&path, &data).is_ok() {
                    rotted.push(key);
                }
            }
        }
        rotted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let unique = format!(
            "robustore-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        );
        std::env::temp_dir().join(unique)
    }

    /// Split a store the way the system does and hand back its disks.
    fn shards(mut b: FileBackend) -> Vec<Box<dyn DiskShard>> {
        b.try_shard().expect("file backends shard")
    }

    fn read(disk: &dyn DiskShard, key: u64) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        disk.read_block_into(key, &mut buf).map(|()| buf)
    }

    #[test]
    fn roundtrip_and_usage() {
        let root = temp_root("rt");
        let mut b = FileBackend::open(&root, vec![10e6, 20e6]).unwrap();
        b.write_block(0, 7, vec![1, 2, 3]).unwrap();
        b.write_block(1, 8, vec![9; 100]).unwrap();
        assert_eq!(b.read_block(0, 7).unwrap(), vec![1, 2, 3]);
        assert_eq!(b.disk_used(1), 100);
        b.delete_block(0, 7).unwrap();
        assert!(b.read_block(0, 7).is_err());
        let mut disks = shards(b);
        assert_eq!(read(&*disks[1], 8).unwrap(), vec![9; 100]);
        disks[0].write_block(9, vec![4; 10]).unwrap();
        assert_eq!(read(&*disks[0], 9).unwrap(), vec![4; 10]);
        assert_eq!((disks[0].used(), disks[0].writes()), (10, 1));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reopen_preserves_blocks_and_speeds() {
        let root = temp_root("reopen");
        {
            let mut b = FileBackend::open(&root, vec![10e6, 40e6]).unwrap();
            b.write_block(1, 42, vec![5, 6, 7]).unwrap();
        }
        let b = FileBackend::open(&root, vec![0.1, 0.1]).unwrap(); // placeholder speeds
        assert_eq!(b.disk_speed(1), 40e6, "recorded speeds win on reopen");
        assert_eq!(b.read_block(1, 42).unwrap(), vec![5, 6, 7]);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reopen_with_wrong_disk_count_fails() {
        let root = temp_root("count");
        FileBackend::open(&root, vec![1e6, 1e6]).unwrap();
        assert!(FileBackend::open(&root, vec![1e6]).is_err());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn bit_rot_flips_bytes_in_place() {
        use robustore_simkit::SeedSequence;
        let root = temp_root("rot");
        let mut b = FileBackend::open(&root, vec![10e6]).unwrap();
        for key in 0..32u64 {
            b.write_block(0, key, vec![key as u8; 16]).unwrap();
        }
        let mut disk = shards(b).swap_remove(0);
        let seq = SeedSequence::new(13);
        let rotted = disk.corrupt_random_blocks(0.5, &seq);
        assert!(!rotted.is_empty() && rotted.len() < 32);
        assert!(rotted.windows(2).all(|w| w[0] < w[1]));
        for &key in &rotted {
            let data = read(&*disk, key).unwrap();
            assert_eq!(data.len(), 16, "rot must not change length");
            assert_ne!(data, vec![key as u8; 16]);
        }
        for key in (0..32).filter(|k| !rotted.contains(k)) {
            assert_eq!(read(&*disk, key).unwrap(), vec![key as u8; 16]);
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn byte_counter_tracks_a_fresh_scan() {
        // A seeded mix of every operation that changes (or must not
        // change) a disk's bytes; after each step the shared counter must
        // equal a full directory scan, across a reopen too.
        use rand::{Rng, SeedableRng};
        use robustore_simkit::SeedSequence;
        let root = temp_root("counter");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB17E);
        let speeds = vec![10e6, 20e6];
        let check = |disks: &[Box<dyn DiskShard>], step: &str| {
            for d in disks {
                let scanned = scan_used(&disk_dir(&root, d.disk_id()));
                assert_eq!(d.used(), scanned, "disk {} after {step}", d.disk_id());
            }
        };
        for round in 0..2 {
            let mut disks = shards(FileBackend::open(&root, speeds.clone()).unwrap());
            check(&disks, "open");
            for step in 0..300 {
                let d = rng.gen_range(0..disks.len());
                let key = rng.gen_range(0..24u64);
                match rng.gen_range(0..10) {
                    // Writes and same-key overwrites of varying lengths.
                    0..=4 => {
                        let len = rng.gen_range(0..300usize);
                        disks[d].write_block(key, vec![step as u8; len]).unwrap();
                    }
                    // Deletes, including of keys that were never written
                    // (the error leaves the counter alone).
                    5..=7 => {
                        let _ = disks[d].delete_block(key);
                    }
                    8 => {
                        let _ = disks[d].delete_block(1000 + key);
                    }
                    _ => {
                        let seq = SeedSequence::new(round * 1000 + step);
                        disks[d].corrupt_random_blocks(0.3, &seq);
                    }
                }
                check(&disks, &format!("round {round} step {step}"));
            }
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn offline_disk_rejects_io() {
        let root = temp_root("offline");
        let mut b = FileBackend::open(&root, vec![10e6]).unwrap();
        b.write_block(0, 1, vec![1]).unwrap();
        let mut disk = shards(b).swap_remove(0);
        disk.set_offline(true);
        assert!(read(&*disk, 1).is_err());
        assert!(!disk.has_block(1));
        assert!(disk.write_block(2, vec![2]).is_err());
        disk.set_offline(false);
        assert_eq!(read(&*disk, 1).unwrap(), vec![1]);
        std::fs::remove_dir_all(root).ok();
    }
}
