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

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::backend::{DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

/// Block storage rooted in a directory. Read/write counters, outages and
/// fault injection live on its shards.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    speeds: Vec<f64>,
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
        for d in 0..speeds.len() {
            std::fs::create_dir_all(root.join(format!("disk-{d}"))).map_err(|_| io_err(d, 0))?;
        }
        Ok(FileBackend { root, speeds })
    }

    /// Disk `disk`'s directory as a shard; `None` past the last disk.
    /// Whole-backend calls go through it, so they share the shards' I/O.
    fn shard(&self, disk: usize) -> Option<FileShard> {
        Some(FileShard {
            root: self.root.clone(),
            disk,
            speed: *self.speeds.get(disk)?,
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

/// One disk directory of a [`FileBackend`], as an independent shard.
#[derive(Debug)]
struct FileShard {
    root: PathBuf,
    disk: usize,
    speed: f64,
    offline: bool,
    reads: u64,
    writes: u64,
}

impl FileShard {
    fn block_path(&self, block: u64) -> PathBuf {
        self.root
            .join(format!("disk-{}", self.disk))
            .join(format!("{block:016x}.blk"))
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
        if std::fs::write(self.block_path(block), &data).is_err() {
            return Err(RefusedWrite::new(io_err(self.disk, block), data));
        }
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
        std::fs::remove_file(self.block_path(block)).map_err(|_| io_err(self.disk, block))
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn used(&self) -> u64 {
        let dir = self.root.join(format!("disk-{}", self.disk));
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
    /// block file in place (length and readability preserved). Victims
    /// depend only on the disk's contents, `fraction`, and `seq`.
    fn corrupt_random_blocks(
        &mut self,
        fraction: f64,
        seq: &robustore_simkit::SeedSequence,
    ) -> Vec<u64> {
        use robustore_simkit::rng::uniform01;
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let dir = self.root.join(format!("disk-{}", self.disk));
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
