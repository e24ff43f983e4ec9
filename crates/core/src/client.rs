//! The RobuSTore client and its access procedures (§4.3).
//!
//! Clients do the heavy lifting in RobuSTore (Figure 4-3): they query the
//! metadata server, plan the layout, encode and decode on their own CPU
//! ("end-to-end" placement of coding, §4.2), and drive speculative access.
//! [`System`] bundles the shared services — metadata server, storage
//! backend, per-server admission controllers, key authority — behind
//! locks, so multiple clients can share one store.
//!
//! The speculative behaviours are realised with real data movement:
//!
//! * **write** (§4.3.2) — rateless LT encoding; more blocks flow to faster
//!   disks (blocks ∝ disk bandwidth, the §5.3.2 layout), stopping at
//!   N = (1+D)·K committed blocks. Overwrites are crash-consistent: the
//!   new generation lands under fresh (opposite-parity) keys while a
//!   bounded pipeline overlaps encoding with disk I/O, the metadata
//!   commit switches versions atomically, and only then is the old
//!   generation garbage-collected (on error, the new one is instead).
//! * **read** (§4.3.3) — blocks are consumed in simulated arrival order
//!   (per-disk streams merged by virtual time); the incremental decoder
//!   stops the access the moment it completes, and the remaining requests
//!   are cancelled — the backend's read counter shows the savings.
//! * **update** (§4.3.4) — only the coded blocks whose coding-graph
//!   neighbourhood intersects the changed originals are regenerated.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use robustore_erasure::lt::{LtCode, LtDecoder};
use robustore_erasure::{Block, BlockPool, LtParams};
use robustore_schemes::placement::Placement;
use robustore_schemes::WaveSlot;
use robustore_simkit::rng::uniform01;
use robustore_simkit::SeedSequence;

use crate::admission::AdmissionController;
use crate::backend::{InMemoryBackend, StorageBackend};
use crate::credentials::{CredentialChain, KeyAuthority, PublicKey, Rights};
use crate::error::StoreError;
use crate::integrity::{self, crc32c, Verdict};
use crate::metadata::{gen_key, AccessMode, CodingSpec, DiskInfo, FileMeta, MetadataServer};
use crate::metastore::{MetaPlane, Metastore, MetastoreConfig, RecoveryReport};
use crate::planner::{LayoutPlanner, ReadPolicy};
use crate::qos::QosOptions;
use crate::repair::ScrubOptions;
use crate::ring::{
    Completion, CompletionKind, IoRing, Priority, RingConfig, SubmitOp, WriteOutcome,
};
use crate::scrub::ScrubReport;
use crate::sharded::ShardedBackend;

/// System-wide configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Coding block size, bytes (1 MB is the paper's sweet spot; small
    /// values keep tests fast).
    pub block_bytes: u64,
    /// LT parameters used for new files.
    pub lt: LtParams,
    /// Concurrent accesses each storage server admits (§5.4).
    pub admission_capacity: usize,
    /// Application domain stamped into credentials.
    pub app_domain: String,
    /// Worker threads for segment encoding on the write/update path
    /// (coded blocks are independent, §7.3's parallel-coding direction).
    /// 1 = sequential; the default caps at 8 — segment encode is
    /// memory-bandwidth-bound well before that on most hosts. Results are
    /// byte-identical at any setting.
    pub encode_threads: usize,
    /// Bound of the write pipeline's reordering window: how many encoded
    /// blocks may sit finished (or in flight) ahead of the in-order
    /// backend writer. `0` disables pipelining — encode everything, then
    /// write (the barrier mode). Any positive depth overlaps encode with
    /// disk I/O; committed layouts and on-disk bytes are byte-identical
    /// at every depth and thread count.
    pub pipeline_depth: usize,
    /// Bounded retry policy for transiently failing block reads.
    pub read_retry: ReadRetry,
    /// Repair damage discovered by a read: when a read completes with
    /// missing or corrupt blocks, re-encode them from the decoded data
    /// and re-place them on healthy disks (in place when the original
    /// disk accepts the write; redirected — with a metadata commit —
    /// otherwise). Best-effort: repair never fails a successful read.
    pub read_repair: bool,
    /// Group commit: how many contiguous queued writes — from any access
    /// — one disk dispatch of the I/O ring ([`crate::ring`]) may coalesce
    /// into one shard-lock acquisition
    /// ([`crate::backend::DiskShard::commit_batch`]). `0` or `1`
    /// disables batching. The backend sees every write in the same
    /// order at any setting, so committed state is byte-identical.
    pub group_commit: usize,
    /// How reads schedule their speculative block requests:
    /// [`ReadPolicy::Adaptive`] (the default) sizes staged waves from the
    /// decoder's expected need and orders them by live per-disk load
    /// ([`IoRing::load_map`]); [`ReadPolicy::Static`] requests every
    /// stored block up front in nominal arrival order — the differential
    /// oracle. Decoded bytes are identical under either policy; only
    /// disk pressure and tail latency differ. A stepped system
    /// ([`System::stepped`]) has no telemetry, so there reads always
    /// behave statically.
    pub read_policy: ReadPolicy,
    /// The durable metadata plane (see [`crate::metastore`]): the
    /// namespace hash-sharded across WAL-backed, quorum-replicated
    /// shards with crash recovery. `Some` (the default, in-memory
    /// replicas) makes every metadata commit a replicated log append;
    /// set a `dir` in the config for file-backed replicas that survive
    /// process restarts. `None` keeps the seed's single in-memory
    /// `MetadataServer` — the differential oracle. Namespace semantics
    /// are identical either way; only durability differs.
    pub metastore: Option<MetastoreConfig>,
}

/// Bounded retry-with-backoff for transient read errors
/// ([`StoreError::TransientIo`]). Hard errors (missing block, checksum
/// mismatch) are never retried — they skip straight to the degraded-read
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRetry {
    /// Total attempts per block (first try included); once spent, the
    /// block is demoted to missing. Minimum 1.
    pub attempts: u32,
    /// Base backoff before the second attempt, microseconds; doubles per
    /// further attempt. `0` disables sleeping entirely (simulated
    /// backends fail and recover instantly — tests stay fast).
    pub backoff_micros: u64,
}

impl Default for ReadRetry {
    fn default() -> Self {
        ReadRetry {
            attempts: 3,
            backoff_micros: 0,
        }
    }
}

/// Default encode worker count: the host's parallelism, capped at 8.
pub fn default_encode_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Default write-pipeline depth: two encoded blocks in flight per encode
/// worker, enough to keep the writer fed without unbounded buffering.
pub fn default_pipeline_depth() -> usize {
    2 * default_encode_threads()
}

/// Default group-commit bound: up to 8 consecutive same-disk writes per
/// shard-lock acquisition — enough to amortise dispatch costs without
/// starving concurrent accesses of the shard.
pub fn default_group_commit() -> usize {
    8
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            block_bytes: 1 << 20,
            lt: LtParams::default(),
            admission_capacity: 4,
            app_domain: "RobuSTore".into(),
            encode_threads: default_encode_threads(),
            pipeline_depth: default_pipeline_depth(),
            read_retry: ReadRetry::default(),
            read_repair: true,
            group_commit: default_group_commit(),
            read_policy: ReadPolicy::default(),
            metastore: Some(MetastoreConfig::default()),
        }
    }
}

struct SystemInner {
    config: SystemConfig,
    meta: Mutex<MetaPlane>,
    /// The sharded submission layer: locking is per disk and *internal*,
    /// so accesses touching different disks never exclude each other
    /// here. Shared with the ring, hence the `Arc`.
    backend: Arc<ShardedBackend>,
    /// The per-disk submission/completion ring over `backend`: every
    /// client read, write, update, delete and scrub fetch goes through it.
    ring: IoRing,
    admission: Mutex<Vec<AdmissionController>>,
    authority: Mutex<KeyAuthority>,
    /// Recycled read buffers shared across accesses (one size at a time;
    /// replaced if a file with a different block size is read).
    pool: Mutex<Option<BlockPool>>,
    clock: AtomicU64,
    next_access: AtomicU64,
}

/// A shared RobuSTore deployment: metadata, storage, admission, keys.
#[derive(Clone)]
pub struct System {
    inner: Arc<SystemInner>,
}

impl System {
    /// Stand up a system over an in-memory backend, registering every disk
    /// with the metadata server.
    pub fn new(backend: InMemoryBackend, config: SystemConfig) -> Self {
        Self::with_backend(Box::new(backend), config)
    }

    /// Stand up a system over any [`StorageBackend`] (e.g. the durable
    /// [`crate::file_backend::FileBackend`]), with the threaded I/O ring:
    /// one worker per disk.
    ///
    /// # Panics
    ///
    /// If the backend breaks the [`StorageBackend::try_shard`] contract
    /// (no split into one shard per disk).
    pub fn with_backend(backend: Box<dyn StorageBackend + Send>, config: SystemConfig) -> Self {
        Self::build(backend, config, IoRing::start)
    }

    /// [`System::with_backend`] on the stepped ring executor
    /// ([`IoRing::stepped`]): no worker threads; the client thread waiting
    /// for a completion services one dispatch at a time, oldest first.
    /// A single client thread then sees a fully deterministic schedule —
    /// exact fault-budget and retry counts, no speculative op serviced
    /// past a decode point — and no load telemetry. Tests and benchmarks
    /// use it as the reference executor.
    pub fn stepped(backend: Box<dyn StorageBackend + Send>, config: SystemConfig) -> Self {
        Self::build(backend, config, IoRing::stepped)
    }

    fn build(
        backend: Box<dyn StorageBackend + Send>,
        config: SystemConfig,
        executor: fn(Arc<ShardedBackend>, RingConfig) -> IoRing,
    ) -> Self {
        let mut meta = match &config.metastore {
            Some(mc) => MetaPlane::Durable(Box::new(
                Metastore::new(mc.clone()).expect("metastore replicas must be openable"),
            )),
            None => MetaPlane::Memory(MetadataServer::new()),
        };
        let admission = (0..backend.num_disks())
            .map(|_| AdmissionController::new(config.admission_capacity))
            .collect();
        for id in 0..backend.num_disks() {
            meta.register_disk(DiskInfo {
                id,
                capacity_bytes: 1 << 40,
                used_bytes: 0,
                expected_bandwidth: backend.disk_speed(id),
                load: 0.0,
                // Alternate availability classes so the planner's mixing
                // policy has something to mix.
                availability: if id % 2 == 0 { 0.999 } else { 0.95 },
            });
        }
        let backend = Arc::new(ShardedBackend::new(backend));
        let ring = executor(
            backend.clone(),
            RingConfig {
                group_commit: config.group_commit,
                read_attempts: config.read_retry.attempts,
                backoff_micros: config.read_retry.backoff_micros,
            },
        );
        System {
            inner: Arc::new(SystemInner {
                config,
                meta: Mutex::new(meta),
                backend,
                ring,
                admission: Mutex::new(admission),
                authority: Mutex::new(KeyAuthority::new()),
                pool: Mutex::new(None),
                clock: AtomicU64::new(0),
                next_access: AtomicU64::new(0),
            }),
        }
    }

    /// System configuration.
    pub fn config(&self) -> SystemConfig {
        self.inner.config.clone()
    }

    /// Create an identity (keypair) in this system's key authority.
    pub fn register_user(&self) -> PublicKey {
        self.inner.authority.lock().generate()
    }

    /// Issue a delegation credential (see [`crate::credentials`]).
    pub fn issue_credential(
        &self,
        authorizer: PublicKey,
        licensee: PublicKey,
        rights: Rights,
        file: &str,
        valid_until: u64,
    ) -> Result<crate::credentials::Credential, StoreError> {
        let handle = self
            .inner
            .meta
            .lock()
            .stat(file)
            .map(|m| m.file_id)
            .ok_or_else(|| StoreError::NotFound(file.to_string()))?;
        self.inner
            .authority
            .lock()
            .issue(
                authorizer,
                licensee,
                crate::credentials::Conditions {
                    app_domain: self.inner.config.app_domain.clone(),
                    handle,
                    rights,
                    valid_from: 0,
                    valid_until,
                },
            )
            .map(Ok)
            .unwrap_or_else(|e| Err(StoreError::AccessDenied(e)))
    }

    /// Current logical time (credential validity).
    pub fn now(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Advance logical time.
    pub fn advance_clock(&self, by: u64) {
        self.inner.clock.fetch_add(by, Ordering::Relaxed);
    }

    /// Backend traffic counters `(block_reads, block_writes)`.
    pub fn backend_stats(&self) -> (u64, u64) {
        let b = &self.inner.backend;
        (b.reads(), b.writes())
    }

    /// Whether backend dispatch is sharded per disk (see
    /// [`crate::sharded`]). Always true: every backend shards.
    pub fn is_sharded(&self) -> bool {
        true
    }

    /// Whether backend I/O runs through the submission/completion ring
    /// (see [`crate::ring`]). Always true: the ring is the only I/O path.
    pub fn uses_io_ring(&self) -> bool {
        true
    }

    /// Bytes stored on one disk (backend accounting; orphan detection in
    /// the crash-consistency tests).
    pub fn disk_used(&self, disk: usize) -> u64 {
        self.inner.backend.disk_used(disk)
    }

    /// Bytes stored across every disk.
    pub fn total_used(&self) -> u64 {
        let b = &self.inner.backend;
        (0..b.num_disks()).map(|d| b.disk_used(d)).sum()
    }

    /// Number of disks in the backend.
    pub fn num_disks(&self) -> usize {
        self.inner.backend.num_disks()
    }

    /// Raw stored bytes of block key `key` on `disk`, read straight from
    /// the disk shard: no checksum verification, retry or read accounting
    /// (fault injectors still apply). For audits and tests that compare
    /// on-disk state with a reference model.
    pub fn stored_block(&self, disk: usize, key: u64) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        self.inner.backend.read_block_into(disk, key, &mut buf)?;
        Ok(buf)
    }

    /// Presence probe: does `disk` currently hold a readable copy of
    /// block key `key`? Not a read — counters and injected-fault budgets
    /// are untouched. The repair service's risk assessment runs on this,
    /// so surveying a large store costs no disk traffic.
    pub fn probe_block(&self, disk: usize, key: u64) -> bool {
        self.inner.backend.has_block(disk, key)
    }

    /// Live load snapshot from the I/O ring (empty on a stepped system).
    /// Always `Some`.
    pub fn load_map(&self) -> Option<robustore_schemes::DiskLoadMap> {
        Some(self.inner.ring.load_map())
    }

    /// Read-buffer pool counters `(fresh_allocations, reuses)` — the
    /// byte-allocation evidence that repeated reads recycle buffers
    /// instead of allocating (zeros before the first read).
    pub fn pool_stats(&self) -> (u64, u64) {
        match self.inner.pool.lock().as_ref() {
            Some(p) => (p.fresh_allocations(), p.reuses()),
            None => (0, 0),
        }
    }

    /// Bytes checked out of the read-buffer pool and not yet returned.
    /// Zero whenever no access is in flight — every completed read puts
    /// every buffer back (asserted by tests, including concurrent reads).
    pub fn pool_outstanding_bytes(&self) -> i64 {
        self.inner
            .pool
            .lock()
            .as_ref()
            .map_or(0, |p| p.outstanding_bytes())
    }

    /// Admission occupancy per disk (diagnostics / examples).
    pub fn admission_loads(&self) -> Vec<f64> {
        self.inner
            .admission
            .lock()
            .iter()
            .map(|a| a.load())
            .collect()
    }

    /// Hold an admission slot on `disk` out-of-band (used by examples and
    /// tests to emulate competing tenants).
    pub fn occupy_admission(&self, disk: usize, token: u64) -> bool {
        self.inner.admission.lock()[disk].request(token)
    }

    /// Release an out-of-band admission slot.
    pub fn release_admission(&self, disk: usize, token: u64) -> bool {
        self.inner.admission.lock()[disk].release(token)
    }

    /// Failure injection: take a disk offline or bring it back. Reads
    /// degrade gracefully (redundancy permitting); writes route around.
    pub fn set_disk_offline(&self, disk: usize, offline: bool) {
        self.inner.backend.set_offline(disk, offline);
    }

    /// Fault injection: deterministically lose each of `disk`'s stored
    /// blocks with probability `fraction` (latent sector errors, seeded
    /// by `seq`). Reads degrade gracefully: missing coded blocks are
    /// skipped and redundancy absorbs the loss up to its margin.
    /// Returns the lost block keys.
    pub fn lose_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.backend.drop_random_blocks(disk, fraction, seq)
    }

    /// Fault injection: silently flip one byte in each of `disk`'s stored
    /// blocks with probability `fraction` (at-rest bit rot, seeded by
    /// `seq`). The backend still serves the block — only checksum
    /// verification can tell. Returns the corrupted block keys.
    pub fn corrupt_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner
            .backend
            .corrupt_random_blocks(disk, fraction, seq)
    }

    /// Fault injection, file-scoped: deterministically delete each of
    /// `name`'s stored blocks with probability `fraction` (seeded by
    /// `seq`), leaving every other file untouched. Metadata is not
    /// told — the damage is latent until a read, scrub, or repair-risk
    /// survey trips over it. Returns the number of blocks dropped.
    pub fn lose_file_blocks(&self, name: &str, fraction: f64, seq: &SeedSequence) -> usize {
        let Some(meta) = self.export_meta(name) else {
            return 0;
        };
        let mut rng = seq.fork("file-loss", meta.file_id);
        let mut dropped = 0;
        for (disk, ids) in &meta.layout {
            for &id in ids {
                if uniform01(&mut rng) < fraction
                    && self
                        .inner
                        .backend
                        .delete_block(*disk, meta.block_key(id))
                        .is_ok()
                {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Snapshot a file's metadata (for persistence alongside a durable
    /// backend).
    pub fn export_meta(&self, name: &str) -> Option<FileMeta> {
        self.inner.meta.lock().stat(name).cloned()
    }

    /// Restore metadata saved by [`System::export_meta`] into a freshly
    /// opened system (bootstrapping a durable store). On the durable
    /// metadata plane this is a quorum commit and can fail.
    pub fn import_meta(&self, meta: FileMeta) -> Result<(), StoreError> {
        self.inner.meta.lock().restore(meta)
    }

    /// List the files the metadata server knows about.
    pub fn list_files(&self) -> Vec<String> {
        self.inner.meta.lock().list()
    }

    /// Advance the metadata plane's stale-lock reclaim epoch (a
    /// supervising heartbeat round; see [`crate::locks`]). Locks whose
    /// holders stay silent for the lease length become reclaimable.
    pub fn begin_lock_epoch(&self) -> u64 {
        self.inner.meta.lock().begin_lock_epoch()
    }

    /// File locks reclaimed from presumed-crashed holders so far.
    pub fn locks_reclaimed(&self) -> u64 {
        self.inner.meta.lock().locks_reclaimed()
    }

    /// Run `f` against the durable metadata plane ([`Metastore`]) —
    /// chaos hooks, forced compaction, replica handles. `None` when the
    /// system runs the in-memory oracle plane.
    pub fn with_metastore<R>(&self, f: impl FnOnce(&mut Metastore) -> R) -> Option<R> {
        self.inner.meta.lock().as_durable_mut().map(f)
    }

    /// Crash-recover the durable metadata plane: discard all volatile
    /// metadata state (namespace images, locks, id cursor) and rebuild
    /// it from the shard replicas — log replay with torn-tail
    /// truncation, winner election, read-repair. `None` on the
    /// in-memory plane (which cannot recover — that is the point).
    pub fn recover_metadata(&self) -> Option<Result<Vec<RecoveryReport>, StoreError>> {
        self.inner
            .meta
            .lock()
            .as_durable_mut()
            .map(|m| m.crash_and_recover())
    }

    fn next_access_id(&self) -> u64 {
        self.inner.next_access.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// An open file.
pub struct FileHandle {
    name: String,
    mode: AccessMode,
    qos: QosOptions,
    meta: Option<FileMeta>,
    closed: bool,
}

impl FileHandle {
    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Open mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Metadata snapshot (absent for a brand-new file before its first
    /// write).
    pub fn meta(&self) -> Option<&FileMeta> {
        self.meta.as_ref()
    }
}

/// Report of a completed write.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Coded blocks committed (N).
    pub blocks_written: usize,
    /// Redundancy degree used.
    pub redundancy: f64,
    /// Disks used.
    pub disks: usize,
}

/// Report of a completed read.
#[derive(Debug, Clone)]
pub struct ReadReport {
    /// Blocks actually fetched (delivered to the decoder) before it
    /// completed.
    pub blocks_fetched: usize,
    /// Blocks whose requests were cancelled unfetched.
    pub blocks_cancelled: usize,
    /// Reception overhead: fetched/K − 1.
    pub reception_overhead: f64,
    /// Transient read errors absorbed by the retry policy (each retried
    /// attempt counts one).
    pub transient_retries: u64,
    /// Blocks skipped as missing (lost sectors, offline disks, or a
    /// retry budget spent on a transiently failing disk).
    pub blocks_missing: usize,
    /// Blocks fetched but discarded for failing verification (checksum
    /// mismatch or short read) — silent corruption demoted to missing.
    pub blocks_corrupt: usize,
    /// Blocks delivered without verification because the file's metadata
    /// carries no checksum for them (legacy, pre-integrity files).
    pub blocks_unverified: usize,
    /// Damaged blocks re-encoded from the decoded data and re-placed on
    /// disks by read-repair during this access.
    pub blocks_repaired: usize,
    /// Blocks never requested: the decoder finished before their wave
    /// came up or the submission window reached them. Unlike cancelled
    /// blocks these never entered a disk queue at all.
    pub blocks_deferred: usize,
    /// Submission waves issued (1 = the first wave sufficed; each stall
    /// or deadline-budget extension adds one). Always 1 under the static
    /// policy.
    pub waves: usize,
}

/// Report of an update.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Original blocks the patch touched.
    pub originals_changed: usize,
    /// Coded blocks regenerated and rewritten.
    pub coded_rewritten: usize,
    /// Fraction of all stored blocks rewritten (§4.3.4: ≈0.5 % for a
    /// one-block change at K=1024, N=4096).
    pub fraction_rewritten: f64,
}

/// One result slot per requested handle, filled as accesses resolve.
type ReadSlots = Vec<Option<Result<(Vec<u8>, ReadReport), StoreError>>>;

/// A RobuSTore client bound to one identity.
pub struct Client {
    system: System,
    identity: PublicKey,
    planner: LayoutPlanner,
}

impl Client {
    /// Connect to `system` as `identity`.
    pub fn connect(system: &System, identity: PublicKey) -> Self {
        Client {
            system: system.clone(),
            identity,
            planner: LayoutPlanner::default(),
        }
    }

    /// The client's identity.
    pub fn identity(&self) -> PublicKey {
        self.identity
    }

    /// Override the planner (tests / tuning).
    pub fn with_planner(mut self, planner: LayoutPlanner) -> Self {
        self.planner = planner;
        self
    }

    /// The system this client is connected to.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// `open(filename, access_type, qos)` — Appendix B. Owners open their
    /// own files directly; everyone else needs [`Client::open_with_chain`].
    pub fn open(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
    ) -> Result<FileHandle, StoreError> {
        self.open_inner(name, mode, qos, None)
    }

    /// Open with a credential chain delegating access from the file owner.
    pub fn open_with_chain(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
        chain: &CredentialChain,
    ) -> Result<FileHandle, StoreError> {
        self.open_inner(name, mode, qos, Some(chain))
    }

    fn open_inner(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
        chain: Option<&CredentialChain>,
    ) -> Result<FileHandle, StoreError> {
        qos.validate().map_err(StoreError::AccessDenied)?;
        let mut meta_srv = self.system.inner.meta.lock();
        let meta = meta_srv.open(name, mode)?;
        // Authorisation: owners pass; others must present a chain.
        if let Some(m) = &meta {
            if m.owner != self.identity {
                let needed = match mode {
                    AccessMode::Read => Rights::R,
                    AccessMode::Write => Rights::W,
                };
                let ok = match chain {
                    Some(c) => self
                        .system
                        .inner
                        .authority
                        .lock()
                        .validate_chain(
                            c,
                            m.owner,
                            self.identity,
                            needed,
                            m.file_id,
                            &self.system.inner.config.app_domain,
                            self.system.now(),
                        )
                        .map_err(StoreError::AccessDenied),
                    None => Err(StoreError::AccessDenied(
                        "not the owner and no credential chain presented".into(),
                    )),
                };
                if let Err(e) = ok {
                    meta_srv.close(name, mode);
                    return Err(e);
                }
            }
        }
        Ok(FileHandle {
            name: name.to_string(),
            mode,
            qos,
            meta,
            closed: false,
        })
    }

    /// `write(fdescriptor, data)` — §4.3.2: plan layout, encode, spread
    /// coded blocks (more to faster disks), commit metadata.
    pub fn write(&self, handle: &mut FileHandle, data: &[u8]) -> Result<WriteReport, StoreError> {
        if handle.mode != AccessMode::Write || handle.closed {
            return Err(StoreError::WrongMode);
        }
        if data.is_empty() {
            return Err(StoreError::OutOfRange);
        }
        let block_bytes = self.system.inner.config.block_bytes as usize;
        let k = data.len().div_ceil(block_bytes);
        let blocks = split_blocks(data, block_bytes, k);

        // Plan disks + redundancy from the registry.
        let plan = {
            let meta_srv = self.system.inner.meta.lock();
            self.planner.plan(&handle.qos, meta_srv.disks())?
        };

        // Admission per selected storage server (§5.4): refused disks are
        // dropped; the access proceeds if at least one server admits.
        let access_id = self.system.next_access_id();
        let admitted: Vec<usize> = {
            let mut adm = self.system.inner.admission.lock();
            plan.disks
                .iter()
                .copied()
                .filter(|&d| adm[d].request(access_id))
                .collect()
        };
        if admitted.is_empty() {
            return Err(StoreError::AdmissionDenied {
                disk: *plan.disks.first().expect("plan has disks"),
            });
        }

        let result = self.write_admitted(
            handle,
            &blocks,
            data.len() as u64,
            &admitted,
            plan.redundancy,
        );

        // Release admission regardless of outcome.
        let mut adm = self.system.inner.admission.lock();
        for &d in &admitted {
            adm[d].release(access_id);
        }
        result
    }

    fn write_admitted(
        &self,
        handle: &mut FileHandle,
        blocks: &[Vec<u8>],
        size_bytes: u64,
        disks: &[usize],
        redundancy: f64,
    ) -> Result<WriteReport, StoreError> {
        let k = blocks.len();
        let n = (((1.0 + redundancy) * k as f64).round() as usize).max(k);
        let (file_id, version) = {
            let mut meta_srv = self.system.inner.meta.lock();
            match &handle.meta {
                Some(m) => (m.file_id, m.version + 1),
                None => (meta_srv.allocate_file_id()?, 1),
            }
        };
        let seed = file_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version);
        let params = self.system.inner.config.lt;
        let code = LtCode::plan(k, n, params, seed)?;

        let backend = &self.system.inner.backend;
        // Speculative spreading: block counts proportional to disk speed.
        let weights: Vec<f64> = disks.iter().map(|&d| backend.disk_speed(d)).collect();
        let placement = Placement::coded_weighted(k, n, &weights);

        let layout: Vec<(usize, Vec<u32>)> = disks
            .iter()
            .enumerate()
            .map(|(slot, &d)| {
                (
                    d,
                    placement.per_disk[slot]
                        .iter()
                        .map(|b| b.semantic)
                        .collect(),
                )
            })
            .collect();

        // Copy-on-write overwrite: every new-generation block lands under
        // the key of *opposite* parity to the old generation's, so the
        // previous version stays intact (and readable) until the metadata
        // commit. Ids the old generation does not store default to even.
        let old = handle.meta.clone();
        let new_odd: BTreeSet<u32> = match &old {
            Some(old) => {
                let old_stored: HashSet<u32> = old
                    .layout
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                layout
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .filter(|id| old_stored.contains(id) && !old.odd_keys.contains(id))
                    .collect()
            }
            None => BTreeSet::new(),
        };

        let mut meta = FileMeta {
            name: handle.name.clone(),
            file_id,
            size_bytes,
            coding: CodingSpec {
                k,
                n,
                block_bytes: self.system.inner.config.block_bytes,
                params,
                seed,
            },
            layout,
            odd_keys: new_odd.clone(),
            checksums: BTreeMap::new(),
            owner: old.as_ref().map(|m| m.owner).unwrap_or(self.identity),
            version,
        };

        // Every planned write, flattened slot by slot — the order the
        // in-order pipeline writer issues them, so the backend sees the
        // same sequence at every thread count and pipeline depth. The
        // starting slot rotates by file id (deterministic): concurrent
        // accesses to different files begin on different disks instead of
        // convoying on the same shard. Per-slot id order is unchanged, so
        // the committed layout does not depend on the rotation.
        let slots = meta.layout.len();
        let rot = (file_id as usize) % slots.max(1);
        let jobs: Vec<(usize, usize, u32)> = (0..slots)
            .map(|i| (i + rot) % slots)
            .flat_map(|slot| {
                let (d, ids) = &meta.layout[slot];
                ids.iter().map(move |&coded| (slot, *d, coded))
            })
            .collect();
        let job_ids: Vec<u32> = jobs.iter().map(|&(_, _, coded)| coded).collect();

        {
            // Writes the commit protocol must undo if this access aborts.
            let mut written: Vec<(usize, u64)> = Vec::new();
            // Ids each layout slot actually keeps (refusals drop out).
            let mut kept: Vec<Vec<u32>> = vec![Vec::new(); meta.layout.len()];
            // Blocks a disk refused, with their encoded bytes — redirected
            // below without re-encoding.
            let mut displaced: Vec<(u32, Block)> = Vec::new();
            // End-to-end integrity: every coded block's digest, taken once
            // by its encode worker, whatever disk it eventually lands on.
            let mut checksums: BTreeMap<u32, u32> = BTreeMap::new();

            // Writes stream into the per-disk queues with a bounded
            // window (encode workers run ahead of this consumer by at
            // most `pipeline_depth` blocks); each disk dispatch coalesces
            // them — and any concurrent access's writes — into group
            // commits. Outcomes are consumed strictly in job order (the
            // writer's reorder buffer), so the bookkeeping never depends
            // on completion timing. The window stays small on purpose: a
            // lone writer keeps near-serial cadence while overlapped
            // writers fill the dispatches' batches. Rateless writing
            // routes around refusing disks (§4.1.1): a rejected block is
            // set aside for redirection, anything worse aborts the access.
            let batch_cap = self.system.inner.config.group_commit.max(1);
            let window = (2 * batch_cap)
                .max(self.system.inner.config.pipeline_depth)
                .max(4);
            let access = self.system.next_access_id();
            let mut writer = RingWriter::new(&self.system.inner.ring, access, window);
            let mut on_write = |tag: u64, outcome: WriteOutcome| -> Result<(), StoreError> {
                let (slot, disk, coded) = jobs[tag as usize];
                match outcome {
                    WriteOutcome::Done => {
                        kept[slot].push(coded);
                        written.push((disk, gen_key(file_id, coded, new_odd.contains(&coded))));
                        Ok(())
                    }
                    WriteOutcome::Refused { data, .. } => {
                        displaced.push((coded, data));
                        Ok(())
                    }
                    WriteOutcome::Fault(e) => Err(e),
                    WriteOutcome::Aborted { disk } => Err(StoreError::DiskFault { disk }),
                }
            };
            let result = encode_write_pipelined(
                &code,
                blocks,
                &job_ids,
                self.system.inner.config.encode_threads,
                self.system.inner.config.pipeline_depth,
                |idx, coded, data, crc| {
                    let (_, disk, _) = jobs[idx];
                    let key = gen_key(file_id, coded, new_odd.contains(&coded));
                    checksums.insert(coded, crc);
                    writer.submit(disk, key, data, &mut on_write)
                },
            )
            .and_then(|()| writer.finish(&mut on_write));
            if result.is_err() {
                // Revoke still-queued writes and fold any that landed
                // anyway into the rollback set.
                writer.drain_aborted(&mut written);
            }
            if let Err(e) = result {
                delete_written(backend, &written);
                return Err(e);
            }
            for (slot, (_, ids)) in meta.layout.iter_mut().enumerate() {
                *ids = std::mem::take(&mut kept[slot]);
            }
            if !displaced.is_empty() {
                let healthy: Vec<usize> = meta
                    .layout
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, ids))| !ids.is_empty())
                    .map(|(slot, _)| slot)
                    .collect();
                if healthy.is_empty() {
                    delete_written(backend, &written);
                    return Err(StoreError::InsufficientDisks { got: 0, need: 1 });
                }
                for (i, (coded, data)) in displaced.into_iter().enumerate() {
                    // Round-robin over the healthy disks, reusing the
                    // already-encoded bytes — a refusal hands the buffer
                    // back, so it just moves on to the next candidate.
                    let key = gen_key(file_id, coded, new_odd.contains(&coded));
                    let mut data = data;
                    let mut placed = false;
                    for attempt in 0..healthy.len() {
                        let slot = healthy[(i + attempt) % healthy.len()];
                        let disk = meta.layout[slot].0;
                        match backend.write_block(disk, key, data) {
                            Ok(()) => {
                                meta.layout[slot].1.push(coded);
                                written.push((disk, key));
                                placed = true;
                                break;
                            }
                            Err(rw) => match rw.error {
                                StoreError::MissingBlock { .. } => data = rw.data,
                                e => {
                                    delete_written(backend, &written);
                                    return Err(e);
                                }
                            },
                        }
                    }
                    if !placed {
                        delete_written(backend, &written);
                        return Err(StoreError::InsufficientDisks { got: 0, need: 1 });
                    }
                }
            }
            meta.checksums = checksums;
            // Commit point: the metadata switch-over makes the new
            // generation the file. Until here the old version was intact;
            // from here the new one is.
            let mut meta_srv = self.system.inner.meta.lock();
            if let Err(e) = meta_srv.commit(meta.clone()) {
                delete_written(backend, &written);
                return Err(e);
            }
            // Garbage-collect the superseded generation (its keys differ
            // from every new one by the parity bit, so nothing just
            // written is touched).
            if let Some(old) = &old {
                for (disk, ids) in &old.layout {
                    for &id in ids {
                        let _ = backend.delete_block(*disk, old.block_key(id));
                    }
                }
            }
            // Feed fresh usage back to the registry (§4.2: dynamic storage
            // information comes from client accesses).
            for &d in disks {
                let used = backend.disk_used(d);
                let load = { self.system.inner.admission.lock()[d].load() };
                meta_srv.update_disk(d, used, load);
            }
        }
        handle.meta = Some(meta);
        Ok(WriteReport {
            blocks_written: n,
            redundancy,
            disks: disks.len(),
        })
    }

    /// `read(fdescriptor, ...)` — §4.3.3: request everything, decode from
    /// the early arrivals, cancel the rest.
    pub fn read(&self, handle: &FileHandle) -> Result<Vec<u8>, StoreError> {
        self.read_with_report(handle).map(|(d, _)| d)
    }

    /// Read returning the speculative-access accounting.
    pub fn read_with_report(
        &self,
        handle: &FileHandle,
    ) -> Result<(Vec<u8>, ReadReport), StoreError> {
        self.read_many(&[handle])
            .pop()
            .expect("one result per handle")
    }

    /// Read several files at once from one client thread. Every access is
    /// kept in flight simultaneously: block requests stream into the
    /// per-disk queues in each file's wave schedule, completions are
    /// consumed in per-access order, and the moment an access decodes,
    /// its still-queued requests are revoked before the disks service
    /// them. Results come back in handle order; each access succeeds or
    /// fails independently.
    pub fn read_many(
        &self,
        handles: &[&FileHandle],
    ) -> Vec<Result<(Vec<u8>, ReadReport), StoreError>> {
        let mut results: ReadSlots = (0..handles.len()).map(|_| None).collect();
        self.read_many_with(handles, None, |i, r| results[i] = Some(r));
        results
            .into_iter()
            .map(|r| r.expect("every handle resolved"))
            .collect()
    }

    /// Streaming form of [`Client::read_many`]: each access's result is
    /// handed to `sink(handle_index, result)` the moment it resolves and
    /// its buffers are recycled immediately, so a batch of hundreds of
    /// accesses never holds more than the in-flight decoders' data in
    /// memory. `arrivals` optionally paces the batch open-loop: entry `i`
    /// is the offset in microseconds from the call's start before access
    /// `i` submits its first request (the tail-latency harness feeds
    /// Poisson offsets here; `None` starts everything at once). Offsets
    /// pace submission only — completions of early accesses are serviced
    /// while later ones wait. Accesses with different block sizes are
    /// driven as separate sequential reactor batches; open-loop pacing is
    /// only meaningful within one batch.
    pub fn read_many_with(
        &self,
        handles: &[&FileHandle],
        arrivals: Option<&[u64]>,
        mut sink: impl FnMut(usize, Result<(Vec<u8>, ReadReport), StoreError>),
    ) {
        let t0 = std::time::Instant::now();
        let arrival_of = |i: usize| arrivals.map_or(0, |offs| offs.get(i).copied().unwrap_or(0));
        // Group valid handles by block size: the buffer pool holds one
        // size at a time, so each group runs as one reactor batch.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, h) in handles.iter().enumerate() {
            match h.meta.as_ref() {
                Some(m) if !h.closed => {
                    groups
                        .entry(m.coding.block_bytes as usize)
                        .or_default()
                        .push(i);
                }
                _ => sink(i, Err(StoreError::StaleHandle)),
            }
        }
        for (block_len, idxs) in groups {
            let mut pool = match self.system.inner.pool.lock().take() {
                Some(p) if p.block_len() == block_len => p,
                _ => BlockPool::new(block_len),
            };
            let jobs: Vec<(usize, &FileMeta, u64)> = idxs
                .iter()
                .map(|&i| {
                    (
                        i,
                        handles[i].meta.as_ref().expect("validated above"),
                        arrival_of(i),
                    )
                })
                .collect();
            self.ring_read_batch(&jobs, block_len, t0, &mut pool, &mut sink);
            {
                let mut slot = self.system.inner.pool.lock();
                match slot.as_mut() {
                    Some(existing) if existing.block_len() == block_len => existing.absorb(pool),
                    _ => *slot = Some(pool),
                }
            }
        }
    }

    /// The ring read reactor: drive a batch of same-block-size accesses
    /// to completion over the per-disk queues. Per access, requests are
    /// submitted in the wave policy's schedule with a bounded window, and
    /// completions are consumed strictly in tag order via a reorder
    /// buffer — so the decoder sees a deterministic block sequence and
    /// the decode point (hence the committed state and the report
    /// counters) depends only on the schedule, never on completion
    /// timing. Under [`ReadPolicy::Static`] — or adaptive with quiescent
    /// or absent telemetry — the schedule is the nominal arrival order
    /// and the whole file is one wave; on the stepped executor a lone
    /// access then fetches exactly the arrival-order prefix its decoder
    /// needs, one block at a time. Under load, adaptive accesses submit a
    /// first wave of `⌈k·(1+ε)⌉` blocks and extend by `topup` entries
    /// whenever their outstanding completions run dry before decode
    /// (stall) or the deadline budget slips. On decode success the access's queued
    /// ops are revoked ([`IoRing::cancel`]); completions for ops the
    /// disks had already started are drained and their buffers recycled.
    /// Each job is `(handle_index, meta, arrival_micros)`; results go to
    /// `sink(handle_index, result)` as accesses resolve.
    fn ring_read_batch(
        &self,
        jobs: &[(usize, &FileMeta, u64)],
        block_len: usize,
        t0: std::time::Instant,
        pool: &mut BlockPool,
        sink: &mut impl FnMut(usize, Result<(Vec<u8>, ReadReport), StoreError>),
    ) {
        use std::time::{Duration, Instant};
        let ring = &self.system.inner.ring;
        let backend = &self.system.inner.backend;
        let policy = self.system.inner.config.read_policy;
        // Disk availabilities for the wave policy's mixing rule, indexed
        // by disk id (one registry lock per batch).
        let avail: Vec<f64> = {
            let meta_srv = self.system.inner.meta.lock();
            let mut avail = vec![1.0; backend.num_disks()];
            for d in meta_srv.disks() {
                if let Some(slot) = avail.get_mut(d.id) {
                    *slot = d.availability;
                }
            }
            avail
        };

        /// Per-access reactor state.
        struct ReadState<'m> {
            meta: &'m FileMeta,
            decoder: LtDecoder<'m>,
            /// `(slot, idx)` per tag — the wave policy's fetch schedule
            /// (empty until the access activates at its arrival time).
            order: Vec<(usize, usize)>,
            access: u64,
            /// Max requests in flight; small enough that an access never
            /// submits far past its decode point (cancellation savings),
            /// large enough to keep every disk of the layout busy.
            window: usize,
            /// Submission bound: entries of `order` released so far (the
            /// first wave, plus one top-up per extension).
            limit: usize,
            /// Entries added per top-up extension.
            topup: usize,
            /// Deadline budget between extensions (`None` = no timer).
            deadline: Option<Duration>,
            /// Next deadline slip, re-armed on each extension.
            deadline_at: Option<Instant>,
            /// When this access may submit its first wave.
            arrival_at: Instant,
            started: bool,
            waves: usize,
            submitted: usize,
            /// Tags processed in order so far.
            next: usize,
            received: usize,
            parked: BTreeMap<u64, CompletionKind>,
            fetched: usize,
            retries: u64,
            missing: usize,
            corrupt: usize,
            unverified: usize,
            bad: BTreeSet<u32>,
            /// Ids fetched and verified good — exempt from the repair
            /// audit (re-reading them would double-count disk traffic).
            good: BTreeSet<u32>,
            done_decoding: bool,
            fatal: Option<StoreError>,
        }

        impl ReadState<'_> {
            /// All released work is done but the decoder isn't: extend.
            fn stalled(&self) -> bool {
                self.started
                    && self.fatal.is_none()
                    && !self.done_decoding
                    && self.received == self.submitted
                    && self.next == self.submitted
                    && self.submitted == self.limit
                    && self.limit < self.order.len()
            }

            /// Every outstanding completion drained and the access's fate
            /// decided — ready to finalize and emit.
            fn resolved(&self) -> bool {
                self.started
                    && self.received == self.submitted
                    && (self.done_decoding || self.fatal.is_some() || self.next == self.order.len())
            }

            /// Release the next top-up wave and re-arm the deadline.
            fn extend(&mut self, now: Instant) {
                self.limit = (self.limit + self.topup).min(self.order.len());
                self.waves += 1;
                self.deadline_at = if self.limit < self.order.len() {
                    self.deadline.map(|d| now + d)
                } else {
                    None
                };
            }
        }

        /// Submit until the window is full (or the access is resolved).
        fn top_up(
            st: &mut ReadState<'_>,
            ring: &IoRing,
            tx: &std::sync::mpsc::Sender<Completion>,
            pool: &mut BlockPool,
        ) {
            while st.fatal.is_none()
                && !st.done_decoding
                && st.submitted < st.limit
                && st.submitted - st.next < st.window
            {
                let (slot, idx) = st.order[st.submitted];
                let (disk, ids) = &st.meta.layout[slot];
                let coded = ids[idx];
                ring.submit(
                    *disk,
                    st.access,
                    st.submitted as u64,
                    SubmitOp::Read {
                        key: st.meta.block_key(coded),
                        buf: pool.get_scratch(),
                    },
                    tx,
                );
                st.submitted += 1;
            }
        }

        /// Handle the completion for `tag` (already the next in order).
        fn process(
            st: &mut ReadState<'_>,
            tag: usize,
            kind: CompletionKind,
            block_len: usize,
            pool: &mut BlockPool,
            ring: &IoRing,
        ) {
            if st.done_decoding || st.fatal.is_some() {
                // Drained mode: the access already resolved; completions
                // for ops the cancel couldn't revoke (or parked behind the
                // resolution point) just hand their buffers back.
                match kind {
                    CompletionKind::Read { buf, .. } => pool.recycle(buf),
                    CompletionKind::Cancelled { buf: Some(buf) } => pool.recycle(buf),
                    CompletionKind::Cancelled { buf: None } => {}
                    other => unreachable!("read access got {other:?}"),
                }
                return;
            }
            let (slot, idx) = st.order[tag];
            let coded = st.meta.layout[slot].1[idx];
            match kind {
                CompletionKind::Read {
                    result,
                    buf,
                    retries,
                } => {
                    st.retries += retries;
                    match result {
                        Ok(()) => {
                            // Integrity gate: a block that fails its
                            // recorded digest — or arrives short (torn
                            // read) — is silent corruption, demoted to
                            // missing. Blocks with no recorded digest
                            // (pre-checksum metadata) pass unverified.
                            let want = st.meta.checksums.get(&coded).copied();
                            let accepted = match integrity::check(&buf, block_len, want) {
                                Verdict::Verified => true,
                                Verdict::NoDigest => {
                                    st.unverified += 1;
                                    true
                                }
                                Verdict::Corrupt => {
                                    st.corrupt += 1;
                                    false
                                }
                            };
                            if accepted {
                                st.fetched += 1;
                                st.good.insert(coded);
                                if st.decoder.receive(coded as usize, buf) {
                                    // Decode complete: revoke everything
                                    // still queued before a disk gets to
                                    // service it — this is where the
                                    // cancellation policy reclaims real
                                    // disk time.
                                    st.done_decoding = true;
                                    ring.cancel(st.access);
                                }
                            } else {
                                st.bad.insert(coded);
                                pool.recycle(buf);
                            }
                        }
                        // The ring spent the retry budget (transient) or
                        // the block is gone: demoted to missing. The
                        // redundancy absorbs it (§4.1.3).
                        Err(StoreError::TransientIo { .. })
                        | Err(StoreError::MissingBlock { .. }) => {
                            st.missing += 1;
                            st.bad.insert(coded);
                            pool.recycle(buf);
                        }
                        Err(e) => {
                            pool.recycle(buf);
                            st.fatal = Some(e);
                            ring.cancel(st.access);
                        }
                    }
                }
                CompletionKind::Cancelled { buf } => {
                    // Cancels are only issued after done/fatal, so a tag
                    // below the resolution point always carries a real
                    // completion; recycle defensively all the same.
                    if let Some(buf) = buf {
                        pool.recycle(buf);
                    }
                }
                other => unreachable!("read access got {other:?}"),
            }
        }

        // Codes live outside the states so the decoders can borrow them.
        let mut codes: Vec<Option<LtCode>> = Vec::with_capacity(jobs.len());
        for &(i, meta, _) in jobs {
            let spec = &meta.coding;
            match LtCode::plan(spec.k, spec.n, spec.params, spec.seed) {
                Ok(c) => codes.push(Some(c)),
                Err(e) => {
                    sink(i, Err(e.into()));
                    codes.push(None);
                }
            }
        }
        // One state slot per job (None = plan error, already emitted, or
        // finalized); the schedule is computed lazily at each access's
        // arrival time so it sees the freshest telemetry.
        let mut states: Vec<Option<ReadState>> = Vec::with_capacity(jobs.len());
        let mut by_access: BTreeMap<u64, usize> = BTreeMap::new();
        for (si, &(_, meta, arrival_micros)) in jobs.iter().enumerate() {
            let Some(code) = codes[si].as_ref() else {
                states.push(None);
                continue;
            };
            let access = self.system.next_access_id();
            by_access.insert(access, si);
            states.push(Some(ReadState {
                meta,
                decoder: LtDecoder::new(code, block_len),
                order: Vec::new(),
                access,
                window: (2 * meta.layout.len()).max(8),
                limit: 0,
                topup: 0,
                deadline: None,
                deadline_at: None,
                arrival_at: t0 + Duration::from_micros(arrival_micros),
                started: false,
                waves: 0,
                submitted: 0,
                next: 0,
                received: 0,
                parked: BTreeMap::new(),
                fetched: 0,
                retries: 0,
                missing: 0,
                corrupt: 0,
                unverified: 0,
                bad: BTreeSet::new(),
                good: BTreeSet::new(),
                done_decoding: false,
                fatal: None,
            }));
        }

        // The reactor proper: one channel fans every disk's completions
        // back in; each completion advances its access (in tag order) and
        // tops its window back up. Every submitted op yields exactly one
        // completion — serviced or cancelled — so draining needs no
        // timeouts; timers exist only for arrival pacing and deadline
        // budgets. Accesses finalize (and emit) the moment they resolve.
        let (tx, rx) = std::sync::mpsc::channel();
        loop {
            let now = Instant::now();
            for si in 0..states.len() {
                let Some(st) = states[si].as_mut() else {
                    continue;
                };
                // Activate due arrivals: snapshot the live load and build
                // the wave schedule.
                if !st.started && now >= st.arrival_at {
                    let sched = policy.schedule(
                        &wave_slots(st.meta, backend, &avail),
                        st.meta.coding.k,
                        &ring.load_map(),
                    );
                    st.order = sched.order;
                    st.limit = sched.first_wave;
                    st.topup = sched.topup.max(1);
                    st.deadline = sched.deadline_micros.map(Duration::from_micros);
                    st.deadline_at = st.deadline.map(|d| now + d);
                    st.started = true;
                    st.waves = 1;
                    top_up(st, ring, &tx, pool);
                }
                if !st.started {
                    continue;
                }
                if st.done_decoding || st.fatal.is_some() {
                    st.deadline_at = None;
                } else if st.deadline_at.is_some_and(|at| now >= at) && st.limit < st.order.len() {
                    // Deadline budget slipped: release the next wave even
                    // though completions are still trickling in.
                    st.extend(now);
                    top_up(st, ring, &tx, pool);
                }
                if st.stalled() {
                    // Released work ran dry before decode (faulty or
                    // deferred blocks): release the next wave now.
                    st.extend(now);
                    top_up(st, ring, &tx, pool);
                }
                if st.resolved() {
                    // Finalize (peel, then the GE fallback; only rank
                    // deficiency fails), then emit and free the state
                    // (buffers recycle now, not at batch end — bounded
                    // memory for huge batches).
                    let st = states[si].take().expect("checked above");
                    let i = jobs[si].0;
                    let ReadState {
                        meta,
                        mut decoder,
                        order,
                        submitted,
                        waves,
                        fetched,
                        retries,
                        missing,
                        corrupt,
                        unverified,
                        bad,
                        good,
                        fatal,
                        ..
                    } = st;
                    let r = if let Some(e) = fatal {
                        pool.put_all(decoder.drain_all());
                        Err(e)
                    } else {
                        let decoded = decoder.finish(pool).map_err(StoreError::Coding);
                        decoded.map(|blocks| {
                            let repaired = if self.system.inner.config.read_repair
                                && !bad.is_empty()
                            {
                                let code = codes[si].as_ref().expect("state implies planned code");
                                self.try_read_repair(meta, code, &blocks, &bad, &good)
                            } else {
                                0
                            };
                            let mut out = Vec::with_capacity(meta.size_bytes as usize);
                            for b in blocks {
                                out.extend_from_slice(&b);
                                pool.put(b);
                            }
                            out.truncate(meta.size_bytes as usize);
                            (
                                out,
                                ReadReport {
                                    blocks_fetched: fetched,
                                    blocks_cancelled: meta.stored_blocks().saturating_sub(fetched),
                                    reception_overhead: fetched as f64 / meta.coding.k as f64 - 1.0,
                                    transient_retries: retries,
                                    blocks_missing: missing,
                                    blocks_corrupt: corrupt,
                                    blocks_unverified: unverified,
                                    blocks_repaired: repaired,
                                    blocks_deferred: order.len() - submitted,
                                    waves: waves.max(1),
                                },
                            )
                        })
                    };
                    sink(i, r);
                }
            }
            if states.iter().all(Option::is_none) {
                break;
            }
            // Wait for the next event: a completion, the next arrival, or
            // the earliest deadline.
            let outstanding = states.iter().flatten().any(|st| st.received < st.submitted);
            let timer: Option<Instant> = states
                .iter()
                .flatten()
                .filter_map(|st| {
                    if st.started {
                        st.deadline_at
                    } else {
                        Some(st.arrival_at)
                    }
                })
                .min();
            let c = if outstanding {
                ring.wait(&rx, timer)
            } else {
                let at = timer.expect("unresolved access with no work has a timer");
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                None
            };
            if let Some(c) = c {
                let si = by_access[&c.access];
                let st = states[si]
                    .as_mut()
                    .expect("resolved accesses have no completions left");
                st.received += 1;
                st.parked.insert(c.tag, c.kind);
                while let Some(kind) = st.parked.remove(&(st.next as u64)) {
                    let tag = st.next;
                    st.next += 1;
                    process(st, tag, kind, block_len, pool, ring);
                }
                top_up(st, ring, &tx, pool);
            }
        }
    }

    /// Best-effort read-repair. Re-encodes the coded blocks a read found
    /// missing or corrupt and re-places them:
    ///
    /// - **In place** (same disk, same key) whenever the home disk takes
    ///   the write — coded bytes are a deterministic function of content
    ///   and the key parity is per-id, so the rewrite is idempotent and
    ///   needs no metadata change.
    /// - **Relocated** to another layout disk when the home refuses. A
    ///   relocation moves the id in the layout, which needs a metadata
    ///   commit — taken only if this reader can upgrade its reader lock
    ///   (i.e. it is the sole reader; `update` holds the writer lock so
    ///   it can never race this commit). Otherwise relocations roll back.
    ///
    /// The repair set is **canonical**: which damaged blocks a read
    /// *encounters* before its decoder completes depends on the wave
    /// schedule's prefix (adaptive scheduling reorders it under load), so
    /// repairing only the encountered set would make committed state
    /// arrival-order-sensitive. Once any damage is seen, every stored id
    /// the read did not itself verify is audited (read + checksum, or
    /// compared against a re-encode for digest-less legacy blocks) and
    /// the full damage set is repaired — byte-identical committed state
    /// whatever prefix the read happened to fetch.
    ///
    /// Returns the number of blocks restored. Never fails the read.
    fn try_read_repair(
        &self,
        meta: &FileMeta,
        code: &LtCode,
        blocks: &[Block],
        bad: &BTreeSet<u32>,
        good: &BTreeSet<u32>,
    ) -> usize {
        let mut slot_of: BTreeMap<u32, usize> = BTreeMap::new();
        for (slot, (_, ids)) in meta.layout.iter().enumerate() {
            for &id in ids {
                slot_of.insert(id, slot);
            }
        }
        // Audit everything the read neither verified nor already condemned.
        let block_len = meta.coding.block_bytes as usize;
        let max_attempts = self.system.inner.config.read_retry.attempts.max(1);
        let backend = &self.system.inner.backend;
        let mut damage = bad.clone();
        let mut scratch = Vec::new();
        for (disk, ids) in &meta.layout {
            for &id in ids {
                if good.contains(&id) || damage.contains(&id) {
                    continue;
                }
                let (result, _) = backend.read_block_retry(
                    *disk,
                    meta.block_key(id),
                    &mut scratch,
                    max_attempts,
                    |_| {},
                );
                let want = meta.checksums.get(&id).copied();
                let ok = result.is_ok()
                    && match integrity::check(&scratch, block_len, want) {
                        Verdict::Verified => true,
                        // Legacy digest-less block: the decoded data is
                        // ground truth, compare against the re-encode.
                        Verdict::NoDigest => scratch == code.encode_block(blocks, id as usize),
                        Verdict::Corrupt => false,
                    };
                if !ok {
                    damage.insert(id);
                }
            }
        }
        let mut repaired = 0usize;
        let mut relocations: Vec<(u32, usize, usize)> = Vec::new();
        // Relocation writes only — rolled back if the commit is skipped.
        let mut placed: Vec<(usize, u64)> = Vec::new();
        for &id in &damage {
            let Some(&home) = slot_of.get(&id) else {
                continue;
            };
            let key = meta.block_key(id);
            let mut data = code.encode_block(blocks, id as usize);
            match backend.write_block(meta.layout[home].0, key, data) {
                Ok(()) => {
                    repaired += 1;
                    continue;
                }
                Err(rw) => match rw.error {
                    StoreError::MissingBlock { .. } => data = rw.data,
                    _ => continue, // hard failure: give up on this block
                },
            }
            for attempt in 1..meta.layout.len() {
                let slot = (home + attempt) % meta.layout.len();
                let disk = meta.layout[slot].0;
                match backend.write_block(disk, key, data) {
                    Ok(()) => {
                        relocations.push((id, home, slot));
                        placed.push((disk, key));
                        break;
                    }
                    Err(rw) => match rw.error {
                        StoreError::MissingBlock { .. } => data = rw.data,
                        _ => break,
                    },
                }
            }
        }
        if !relocations.is_empty() {
            let mut meta_srv = self.system.inner.meta.lock();
            if meta_srv.try_upgrade(&meta.name) {
                let mut new_meta = meta.clone();
                new_meta.version += 1;
                for &(id, old_slot, new_slot) in &relocations {
                    new_meta.layout[old_slot].1.retain(|&x| x != id);
                    new_meta.layout[new_slot].1.push(id);
                }
                let committed = meta_srv.commit(new_meta).is_ok();
                meta_srv.downgrade(&meta.name);
                drop(meta_srv);
                if committed {
                    repaired += relocations.len();
                    // Corrupt leftovers at the old homes are garbage now.
                    for &(id, old_slot, _) in &relocations {
                        let _ = backend.delete_block(meta.layout[old_slot].0, meta.block_key(id));
                    }
                } else {
                    delete_written(backend, &placed);
                }
            } else {
                // Overlapping readers: keep the file exactly as committed.
                drop(meta_srv);
                delete_written(backend, &placed);
            }
        }
        repaired
    }

    /// Update `patch.len()` bytes at `offset` — §4.3.4: regenerate only
    /// the coded blocks touching the changed originals.
    pub fn update(
        &self,
        handle: &mut FileHandle,
        offset: u64,
        patch: &[u8],
    ) -> Result<UpdateReport, StoreError> {
        if handle.mode != AccessMode::Write || handle.closed {
            return Err(StoreError::WrongMode);
        }
        let meta = handle.meta.clone().ok_or(StoreError::StaleHandle)?;
        if patch.is_empty() || offset + patch.len() as u64 > meta.size_bytes {
            return Err(StoreError::OutOfRange);
        }
        let spec = meta.coding.clone();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed)?;

        // Current content, patched.
        let (mut data, _) = self.read_with_report(handle)?;
        data[offset as usize..offset as usize + patch.len()].copy_from_slice(patch);
        let blocks = split_blocks(&data, spec.block_bytes as usize, spec.k);

        // Originals covered by the patch → coded blocks to regenerate.
        let first = (offset / spec.block_bytes) as usize;
        let last = ((offset + patch.len() as u64 - 1) / spec.block_bytes) as usize;
        let mut dirty_coded: Vec<u32> = (first..=last)
            .flat_map(|orig| code.blocks_touching(orig))
            .map(|j| j as u32)
            .collect();
        dirty_coded.sort_unstable();
        dirty_coded.dedup();

        // coded id → disk map from the layout.
        let mut disk_of = std::collections::HashMap::new();
        for (disk, ids) in &meta.layout {
            for &id in ids {
                disk_of.insert(id, *disk);
            }
        }
        for &coded in &dirty_coded {
            if !disk_of.contains_key(&coded) {
                return Err(StoreError::MissingBlock {
                    disk: usize::MAX,
                    block: coded as u64,
                });
            }
        }
        // Copy-on-write in place: each regenerated block lands under the
        // opposite-parity key of its current one, so the committed version
        // stays readable until the metadata commit flips the parities.
        let mut new_odd = meta.odd_keys.clone();
        for &id in &dirty_coded {
            if !new_odd.remove(&id) {
                new_odd.insert(id);
            }
        }
        let mut new_meta = meta.clone();
        new_meta.version += 1;
        new_meta.odd_keys = new_odd.clone();
        {
            let backend = &self.system.inner.backend;
            let mut written: Vec<(usize, u64)> = Vec::new();
            // Regenerated blocks get fresh digests; untouched ones keep
            // theirs (legacy files may have partial maps — that's fine).
            let mut new_checksums = meta.checksums.clone();
            // Regenerated blocks are independent too — the same bounded
            // encode/write pipeline as the write path. An update has no
            // rateless slack (each block's disk is fixed by the layout),
            // so *any* write failure aborts and rolls back.
            let batch_cap = self.system.inner.config.group_commit.max(1);
            let window = (2 * batch_cap)
                .max(self.system.inner.config.pipeline_depth)
                .max(4);
            let access = self.system.next_access_id();
            let mut writer = RingWriter::new(&self.system.inner.ring, access, window);
            let mut on_write = |tag: u64, outcome: WriteOutcome| -> Result<(), StoreError> {
                let coded = dirty_coded[tag as usize];
                match outcome {
                    WriteOutcome::Done => {
                        let key = gen_key(meta.file_id, coded, new_odd.contains(&coded));
                        written.push((disk_of[&coded], key));
                        Ok(())
                    }
                    // No rateless slack on an update: a refusal aborts.
                    WriteOutcome::Refused { error, .. } => Err(error),
                    WriteOutcome::Fault(e) => Err(e),
                    WriteOutcome::Aborted { disk } => Err(StoreError::DiskFault { disk }),
                }
            };
            let result = encode_write_pipelined(
                &code,
                &blocks,
                &dirty_coded,
                self.system.inner.config.encode_threads,
                self.system.inner.config.pipeline_depth,
                |_, coded, data, crc| {
                    let disk = disk_of[&coded];
                    let key = gen_key(meta.file_id, coded, new_odd.contains(&coded));
                    new_checksums.insert(coded, crc);
                    writer.submit(disk, key, data, &mut on_write)
                },
            )
            .and_then(|()| writer.finish(&mut on_write));
            if result.is_err() {
                writer.drain_aborted(&mut written);
            }
            if let Err(e) = result {
                delete_written(backend, &written);
                return Err(e);
            }
            new_meta.checksums = new_checksums;
            // Commit point, then garbage-collect the superseded blocks.
            if let Err(e) = self.system.inner.meta.lock().commit(new_meta.clone()) {
                delete_written(backend, &written);
                return Err(e);
            }
            for &coded in &dirty_coded {
                let _ = backend.delete_block(disk_of[&coded], meta.block_key(coded));
            }
        }
        handle.meta = Some(new_meta);

        Ok(UpdateReport {
            originals_changed: last - first + 1,
            coded_rewritten: dirty_coded.len(),
            fraction_rewritten: dirty_coded.len() as f64 / spec.n as f64,
        })
    }

    /// Delete a file: remove its coded blocks from every disk and drop its
    /// metadata. Requires owner (or W-granting chain via an already-open
    /// write handle path); takes the writer lock internally.
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        let handle = self.open(name, AccessMode::Write, QosOptions::best_effort())?;
        let result = (|| {
            let meta = handle
                .meta
                .clone()
                .ok_or_else(|| StoreError::NotFound(name.into()))?;
            // Fan the deletes out across the per-disk queues and wait for
            // all of them (delete failures are ignored: the block never
            // landed or is gone).
            let ring = &self.system.inner.ring;
            let access = self.system.next_access_id();
            let (tx, rx) = std::sync::mpsc::channel();
            let mut n = 0u64;
            for (disk, ids) in &meta.layout {
                for &id in ids {
                    ring.submit(
                        *disk,
                        access,
                        n,
                        SubmitOp::Delete {
                            key: meta.block_key(id),
                        },
                        &tx,
                    );
                    n += 1;
                }
            }
            for _ in 0..n {
                ring.wait(&rx, None);
            }
            self.system.inner.meta.lock().remove(name)?;
            Ok(())
        })();
        self.close(handle)?;
        result
    }

    /// Verify and restore one file to full strength — the scrubber's
    /// per-file pass (see [`crate::scrub::Scrubber`] for the sweep over a
    /// whole store).
    ///
    /// Unlike a read, a scrub visits *every* stored block (no early
    /// cancel): it verifies checksums disk by disk, decodes the file,
    /// re-encodes whatever is missing or corrupt, re-places it on the
    /// least-loaded disks (colonising disks the file never used if that's
    /// where the space is), and commits metadata carrying a complete
    /// checksum map — so a legacy, pre-checksum file comes out fully
    /// verifiable.
    ///
    /// Legacy blocks with no recorded digest are fed to the decoder
    /// optimistically and audited afterwards against a re-encode of the
    /// decoded data; a mismatch means corruption reached the decoder, so
    /// the scrub fails with `DecodeFailed` rather than commit anything
    /// derived from it.
    pub fn scrub(&self, name: &str) -> Result<ScrubReport, StoreError> {
        self.scrub_with(name, &ScrubOptions::default())
    }

    /// [`Client::scrub`] with repair-service controls: an optional
    /// token-bucket throttle charged per block of repair I/O, background
    /// scheduling class on ring submissions (so repair traffic waits
    /// behind every queued foreground op), and load-aware re-placement
    /// that consults the ring's live load map so restored blocks land on
    /// genuinely least-loaded disks. The default options reproduce
    /// [`Client::scrub`] exactly.
    pub fn scrub_with(
        &self,
        name: &str,
        opts: &ScrubOptions<'_>,
    ) -> Result<ScrubReport, StoreError> {
        let handle = self.open(name, AccessMode::Write, QosOptions::best_effort())?;
        let result = self.scrub_admitted_with(&handle, opts);
        self.close(handle)?;
        result
    }

    fn scrub_admitted_with(
        &self,
        handle: &FileHandle,
        opts: &ScrubOptions<'_>,
    ) -> Result<ScrubReport, StoreError> {
        let meta = handle
            .meta
            .clone()
            .ok_or_else(|| StoreError::NotFound(handle.name.clone()))?;
        let spec = meta.coding.clone();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed)?;
        let block_len = spec.block_bytes as usize;
        let mut pool = match self.system.inner.pool.lock().take() {
            Some(p) if p.block_len() == block_len => p,
            _ => BlockPool::new(block_len),
        };
        let result = self.scrub_inner(&meta, &code, block_len, &mut pool, opts);
        {
            let mut slot = self.system.inner.pool.lock();
            match slot.as_mut() {
                Some(existing) if existing.block_len() == block_len => existing.absorb(pool),
                _ => *slot = Some(pool),
            }
        }
        result
    }

    fn scrub_inner(
        &self,
        meta: &FileMeta,
        code: &LtCode,
        block_len: usize,
        pool: &mut BlockPool,
        opts: &ScrubOptions<'_>,
    ) -> Result<ScrubReport, StoreError> {
        let spec = &meta.coding;
        let priority = if opts.background {
            Priority::Background
        } else {
            Priority::Foreground
        };
        let charge = |bytes: usize| {
            if let Some(bucket) = opts.throttle {
                bucket.acquire(bytes as u64);
            }
        };
        let ring = &self.system.inner.ring;
        let mut decoder = LtDecoder::new(code, block_len);
        let mut verified: BTreeSet<u32> = BTreeSet::new();
        // Readable blocks not covered by the checksum map: id → CRC of the
        // bytes actually read, audited against a re-encode after decode.
        let mut legacy: BTreeMap<u32, u32> = BTreeMap::new();
        let mut corrupt: BTreeSet<u32> = BTreeSet::new();
        // Disk each corrupt block currently occupies (stale-copy cleanup).
        let mut corrupt_home: BTreeMap<u32, usize> = BTreeMap::new();
        let mut missing = 0usize;
        let mut complete = false;
        let backend = &self.system.inner.backend;
        {
            // Acceptance ladder for one fetched (or failed) block. Returns
            // the buffer when it should be recycled (the decoder keeps
            // accepted blocks until it completes).
            let mut ingest =
                |disk: usize, id: u32, read_ok: bool, buf: Vec<u8>| -> Option<Vec<u8>> {
                    let mut accepted = false;
                    if read_ok {
                        let want = meta.checksums.get(&id).copied();
                        match integrity::check(&buf, block_len, want) {
                            Verdict::Verified => {
                                verified.insert(id);
                                accepted = true;
                            }
                            Verdict::NoDigest => {
                                legacy.insert(id, crc32c(&buf));
                                accepted = true;
                            }
                            Verdict::Corrupt => {
                                corrupt.insert(id);
                                corrupt_home.insert(id, disk);
                            }
                        }
                    } else {
                        missing += 1;
                    }
                    if accepted && !complete {
                        complete = decoder.receive(id as usize, buf);
                        None
                    } else {
                        Some(buf)
                    }
                };
            // A scrub visits *every* stored block (no cancellation), but
            // the requests stream through the per-disk queues with a
            // bounded window so all the file's disks service it in
            // parallel. Completions are consumed strictly in job order,
            // and the ring runs the bounded transient retry (and counts
            // the read).
            let jobs: Vec<(usize, u32)> = meta
                .layout
                .iter()
                .flat_map(|(d, ids)| ids.iter().map(move |&id| (*d, id)))
                .collect();
            let window = (4 * meta.layout.len()).max(16);
            let access = self.system.next_access_id();
            let (tx, rx) = std::sync::mpsc::channel();
            let mut submitted = 0usize;
            let mut next = 0usize;
            let mut parked: BTreeMap<u64, CompletionKind> = BTreeMap::new();
            while next < jobs.len() {
                while submitted < jobs.len() && submitted - next < window {
                    let (disk, id) = jobs[submitted];
                    // The throttle paces *submission*: tokens are charged
                    // before an op may enter the queue, so repair I/O
                    // never bursts past the budget no matter how deep the
                    // window is.
                    charge(block_len);
                    ring.submit_with(
                        disk,
                        access,
                        submitted as u64,
                        SubmitOp::Read {
                            key: meta.block_key(id),
                            buf: pool.get_scratch(),
                        },
                        priority,
                        &tx,
                    );
                    submitted += 1;
                }
                let c = ring.wait(&rx, None).expect("untimed waits always yield");
                parked.insert(c.tag, c.kind);
                while let Some(kind) = parked.remove(&(next as u64)) {
                    let (disk, id) = jobs[next];
                    next += 1;
                    let CompletionKind::Read { result, buf, .. } = kind else {
                        unreachable!("scrub submits only reads");
                    };
                    if let Some(buf) = ingest(disk, id, result.is_ok(), buf) {
                        pool.recycle(buf);
                    }
                }
            }
        }
        // Same completion ladder as the read path: peel, then the GE
        // fallback; only genuine rank deficiency fails the scrub.
        let blocks = decoder.finish(pool).map_err(StoreError::Coding)?;
        // Audit the optimistically-accepted legacy blocks now that the
        // decoded data is in hand: their bytes must equal the re-encode.
        for (&id, &crc_read) in &legacy {
            if crc32c(&code.encode_block(&blocks, id as usize)) != crc_read {
                pool.put_all(blocks);
                return Err(StoreError::Coding(
                    robustore_erasure::CodingError::DecodeFailed,
                ));
            }
        }

        // Everything the code can generate, minus what is demonstrably
        // good on disk, gets re-placed — restoring the file to its full
        // target of N coded blocks (this also heals blocks a write-time
        // refusal dropped entirely).
        let present: BTreeSet<u32> = verified.iter().chain(legacy.keys()).copied().collect();
        let absent: Vec<u32> = (0..spec.n as u32)
            .filter(|id| !present.contains(id))
            .collect();
        let mut new_layout = meta.layout.clone();
        for (_, ids) in new_layout.iter_mut() {
            ids.retain(|id| present.contains(id));
        }
        let mut new_checksums: BTreeMap<u32, u32> = BTreeMap::new();
        for &id in &verified {
            new_checksums.insert(id, meta.checksums[&id]);
        }
        for (&id, &crc) in &legacy {
            new_checksums.insert(id, crc);
        }

        let mut restored = 0usize;
        let mut final_disk: BTreeMap<u32, usize> = BTreeMap::new();
        // Writes to a *new* location for an id — rolled back if the
        // metadata commit fails. In-place overwrites of corrupt copies
        // need no rollback: they restore exactly the committed bytes.
        let mut relocated: Vec<(usize, u64)> = Vec::new();
        let report = {
            let num_disks = backend.num_disks();
            let mut count: Vec<usize> = vec![0; num_disks];
            for (disk, ids) in &new_layout {
                count[*disk] += ids.len();
            }
            let mut slot_of_disk: BTreeMap<usize, usize> = new_layout
                .iter()
                .enumerate()
                .map(|(slot, (d, _))| (*d, slot))
                .collect();
            // Background repair writes go through the ring one at a time
            // at background priority — a foreground burst can always
            // overtake. A refusal hands the payload back for the next
            // candidate disk; a hard fault consumes it and the block is
            // left for the next repair cycle.
            let ring_bg = opts.background.then_some(ring);
            let place_access = ring_bg.map(|_| self.system.next_access_id());
            let place = |disk: usize, key: u64, data: Vec<u8>| -> Result<(), Option<Vec<u8>>> {
                match ring_bg {
                    Some(ring) => {
                        let (wtx, wrx) = std::sync::mpsc::channel();
                        ring.submit_with(
                            disk,
                            place_access.unwrap_or(0),
                            0,
                            SubmitOp::Write { key, data },
                            Priority::Background,
                            &wtx,
                        );
                        let done = ring.wait(&wrx, None).expect("untimed waits always yield");
                        match done.kind {
                            CompletionKind::Write(WriteOutcome::Done) => Ok(()),
                            CompletionKind::Write(WriteOutcome::Refused { data, .. }) => {
                                Err(Some(data))
                            }
                            CompletionKind::Write(_) => Err(None),
                            other => unreachable!("write submission got {other:?}"),
                        }
                    }
                    None => backend
                        .write_block(disk, key, data)
                        .map_err(|rw| Some(rw.data)),
                }
            };
            for &id in &absent {
                let key = gen_key(meta.file_id, id, meta.odd_keys.contains(&id));
                let mut data = code.encode_block(&blocks, id as usize);
                let crc = crc32c(&data);
                charge(block_len);
                // Candidate disks: live queue pressure first when the
                // repair service asks for load-aware placement (quiescent
                // disks tie at zero and the order degenerates to the
                // default), then per-file balance, then lowest id.
                // Refusals just move to the next candidate — best effort.
                let mut order: Vec<usize> = (0..num_disks).collect();
                if opts.load_aware {
                    let lm = ring.load_map();
                    order.sort_by_key(|&d| {
                        let backlog = lm.get(d).map_or(0, |l| l.queued + l.in_flight);
                        (backlog, count[d], d)
                    });
                } else {
                    order.sort_by_key(|&d| (count[d], d));
                }
                let mut placed_on = None;
                for &disk in &order {
                    match place(disk, key, data) {
                        Ok(()) => {
                            placed_on = Some(disk);
                            break;
                        }
                        Err(Some(back)) => data = back,
                        Err(None) => break, // hard fault consumed the payload
                    }
                }
                let Some(disk) = placed_on else { continue };
                count[disk] += 1;
                let slot = *slot_of_disk.entry(disk).or_insert_with(|| {
                    new_layout.push((disk, Vec::new()));
                    new_layout.len() - 1
                });
                new_layout[slot].1.push(id);
                new_checksums.insert(id, crc);
                final_disk.insert(id, disk);
                if corrupt_home.get(&id) != Some(&disk) {
                    relocated.push((disk, key));
                }
                restored += 1;
            }
            let blocks_stored_after: usize = new_layout.iter().map(|(_, ids)| ids.len()).sum();
            let checksums_added = new_checksums.len().saturating_sub(meta.checksums.len());
            let mut new_meta = meta.clone();
            new_meta.version += 1;
            new_meta.layout = new_layout;
            new_meta.checksums = new_checksums;
            if let Err(e) = self.system.inner.meta.lock().commit(new_meta) {
                delete_written(backend, &relocated);
                pool.put_all(blocks);
                return Err(e);
            }
            // Stale corrupt copies that were re-placed elsewhere (or not
            // restorable at all, and so dropped from the layout) are
            // garbage now.
            for (&id, &home) in &corrupt_home {
                if final_disk.get(&id) != Some(&home) {
                    let _ = backend.delete_block(home, meta.block_key(id));
                }
            }
            ScrubReport {
                file: meta.name.clone(),
                blocks_target: spec.n,
                blocks_verified: verified.len(),
                blocks_unverified: legacy.len(),
                blocks_corrupt: corrupt.len(),
                blocks_missing: missing,
                blocks_restored: restored,
                blocks_stored_after,
                checksums_added,
            }
        };
        pool.put_all(blocks);
        Ok(report)
    }

    /// `close(fdescriptor)` — release locks; metadata was committed by
    /// write/update.
    pub fn close(&self, mut handle: FileHandle) -> Result<(), StoreError> {
        if handle.closed {
            return Err(StoreError::StaleHandle);
        }
        handle.closed = true;
        self.system
            .inner
            .meta
            .lock()
            .close(&handle.name, handle.mode);
        Ok(())
    }
}

/// Describe a file's layout to the wave scheduler: one [`WaveSlot`] per
/// layout entry, with the nominal per-block service time from the disk's
/// catalogued speed. `avail` maps disk id → availability (empty when the
/// caller doesn't need the mixing rule, e.g. for the static order).
fn wave_slots(meta: &FileMeta, backend: &ShardedBackend, avail: &[f64]) -> Vec<WaveSlot> {
    meta.layout
        .iter()
        .map(|(d, ids)| WaveSlot {
            disk: *d,
            blocks: ids.len(),
            nominal_micros: meta.coding.block_bytes as f64 / backend.disk_speed(*d) * 1e6,
            availability: avail.get(*d).copied().unwrap_or(1.0),
        })
        .collect()
}

/// Windowed write submitter over the [`IoRing`]. Writes are submitted in
/// job order with a bounded number in flight; completions are consumed
/// strictly in tag (= job) order via a reorder buffer, so the caller's
/// bookkeeping closure observes one deterministic sequence whatever the
/// completion timing. The window is kept deliberately small: a lone
/// writer stays close to serial cadence (cross-access fan-out is the read
/// reactor's job), while overlapping writers still coalesce into the
/// dispatches' cross-access batches.
struct RingWriter<'a> {
    ring: &'a IoRing,
    access: u64,
    tx: std::sync::mpsc::Sender<Completion>,
    rx: std::sync::mpsc::Receiver<Completion>,
    window: u64,
    /// Tags 0..submitted have been pushed to the ring.
    submitted: u64,
    /// Tags 0..next have been processed (in order) by the handler.
    next: u64,
    /// Completions received so far (processed or parked).
    received: u64,
    /// Out-of-order completions parked until `next` reaches their tag.
    parked: BTreeMap<u64, CompletionKind>,
    /// `(disk, key)` per tag — rollback bookkeeping for writes that land
    /// after the access has already failed.
    targets: Vec<(usize, u64)>,
}

impl<'a> RingWriter<'a> {
    fn new(ring: &'a IoRing, access: u64, window: usize) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        RingWriter {
            ring,
            access,
            tx,
            rx,
            window: window.max(1) as u64,
            submitted: 0,
            next: 0,
            received: 0,
            parked: BTreeMap::new(),
            targets: Vec::new(),
        }
    }

    /// Submit one write, first processing completions until the in-flight
    /// count drops below the window. `handle` sees `(tag, outcome)` in
    /// strict tag order.
    fn submit(
        &mut self,
        disk: usize,
        key: u64,
        data: Block,
        handle: &mut impl FnMut(u64, WriteOutcome) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        while self.submitted - self.next >= self.window {
            self.pump(handle)?;
        }
        let tag = self.submitted;
        self.targets.push((disk, key));
        self.ring.submit(
            disk,
            self.access,
            tag,
            SubmitOp::Write { key, data },
            &self.tx,
        );
        self.submitted += 1;
        Ok(())
    }

    /// Receive one completion, then hand every in-order completion to
    /// `handle`.
    fn pump(
        &mut self,
        handle: &mut impl FnMut(u64, WriteOutcome) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let c = self
            .ring
            .wait(&self.rx, None)
            .expect("untimed waits always yield");
        self.received += 1;
        self.parked.insert(c.tag, c.kind);
        while let Some(kind) = self.parked.remove(&self.next) {
            let tag = self.next;
            self.next += 1;
            let outcome = match kind {
                CompletionKind::Write(outcome) => outcome,
                other => unreachable!("write access got {other:?}"),
            };
            handle(tag, outcome)?;
        }
        Ok(())
    }

    /// Process every outstanding completion in order.
    fn finish(
        &mut self,
        handle: &mut impl FnMut(u64, WriteOutcome) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        while self.next < self.submitted {
            self.pump(handle)?;
        }
        Ok(())
    }

    /// The access failed: cancel everything still queued, drain every
    /// outstanding completion, and record any write that nevertheless
    /// landed into `written` so the caller's rollback deletes it.
    fn drain_aborted(mut self, written: &mut Vec<(usize, u64)>) {
        self.ring.cancel(self.access);
        while self.received < self.submitted {
            let c = self
                .ring
                .wait(&self.rx, None)
                .expect("untimed waits always yield");
            self.received += 1;
            self.parked.insert(c.tag, c.kind);
        }
        for (tag, kind) in std::mem::take(&mut self.parked) {
            if matches!(kind, CompletionKind::Write(WriteOutcome::Done)) {
                written.push(self.targets[tag as usize]);
            }
        }
    }
}

/// Roll back a partially written generation: delete every block the
/// aborted access put down, so no orphans survive an error return. Delete
/// failures are ignored — the block either never landed or is gone.
fn delete_written(backend: &ShardedBackend, written: &[(usize, u64)]) {
    for &(disk, key) in written {
        let _ = backend.delete_block(disk, key);
    }
}

/// Encode the coded blocks named by `ids` on up to `threads` workers and
/// feed each encoded block, with its CRC32C digest, to `consume` **in
/// `ids` order**, overlapping encode and checksumming (CPU) with whatever
/// `consume` does (disk I/O) — the bounded producer/consumer pipeline of
/// the write path. The digest is taken by the worker that encoded the
/// block, while its bytes are still hot in that core's cache, so the
/// consumer thread never checksums.
///
/// Workers claim indices from a shared counter and may run at most
/// `depth` blocks ahead of the consumer (the reordering window doubles as
/// backpressure, so memory stays bounded at `depth` blocks). The consumer
/// runs on the calling thread and takes blocks strictly by index, so
/// `consume` observes the exact sequence a sequential encode-then-write
/// loop would produce — byte-identical at every `threads`/`depth`
/// combination. `depth == 0` is the barrier mode: encode everything via
/// [`encode_ids_parallel`], then consume.
///
/// An error from `consume` stops the pipeline: workers drain promptly
/// (in-flight buffers are dropped) and the error is returned.
fn encode_write_pipelined<F>(
    code: &LtCode,
    blocks: &[Vec<u8>],
    ids: &[u32],
    threads: usize,
    depth: usize,
    mut consume: F,
) -> Result<(), StoreError>
where
    F: FnMut(usize, u32, Block, u32) -> Result<(), StoreError>,
{
    if depth == 0 || ids.len() <= 1 {
        let encoded = encode_ids_parallel(code, blocks, ids, threads);
        for (i, (&coded, (data, crc))) in ids.iter().zip(encoded).enumerate() {
            consume(i, coded, data, crc)?;
        }
        return Ok(());
    }
    let threads = threads.clamp(1, ids.len());
    let block_len = blocks.first().map_or(0, |b| b.len());

    use std::sync::{Condvar, Mutex as StdMutex};
    struct Shared {
        /// Encoded blocks and their digests, parked until the consumer
        /// reaches their index.
        slots: Vec<Option<(Block, u32)>>,
        /// Next index the consumer will take; workers stay < cursor+depth.
        cursor: usize,
        /// Abort flag (consumer error): workers drain without depositing.
        stop: bool,
    }
    let shared = StdMutex::new(Shared {
        slots: vec![None; ids.len()],
        cursor: 0,
        stop: false,
    });
    let ready = Condvar::new(); // worker → consumer: a slot was filled
    let space = Condvar::new(); // consumer → workers: the window advanced
    let next = AtomicUsize::new(0);

    let mut result: Result<(), StoreError> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut pool = BlockPool::new(block_len);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ids.len() {
                        break;
                    }
                    {
                        let mut s = shared.lock().unwrap();
                        while !s.stop && i >= s.cursor + depth {
                            s = space.wait(s).unwrap();
                        }
                        if s.stop {
                            break;
                        }
                    }
                    let mut buf = pool.get_scratch();
                    code.encode_block_into(blocks, ids[i] as usize, &mut buf);
                    let crc = crc32c(&buf);
                    pool.mark_consumed(1); // ownership moves to the consumer
                    let mut s = shared.lock().unwrap();
                    if s.stop {
                        break;
                    }
                    s.slots[i] = Some((buf, crc));
                    ready.notify_all();
                }
            });
        }
        let mut s = shared.lock().unwrap();
        for (i, &coded) in ids.iter().enumerate() {
            let (data, crc) = loop {
                if let Some(d) = s.slots[i].take() {
                    break d;
                }
                s = ready.wait(s).unwrap();
            };
            // Open the window before the (slow) consume call, so workers
            // encode the next blocks while this one is being written.
            s.cursor = i + 1;
            space.notify_all();
            drop(s);
            if let Err(e) = consume(i, coded, data, crc) {
                result = Err(e);
                shared.lock().unwrap().stop = true;
                space.notify_all();
                break;
            }
            s = shared.lock().unwrap();
        }
        // Scope exit joins the workers; with `stop` set they bail out.
    });
    result
}

/// Encode the coded blocks named by `ids` across up to `threads` worker
/// threads, returning the encoded blocks and their CRC32C digests *in
/// `ids` order* — the output is byte-identical to a sequential
/// `encode_block` loop at any thread count, because each coded block
/// depends only on the read-only segment data and the output slot order
/// is fixed up front.
///
/// Each worker owns a per-worker [`BlockPool`] for its output buffers, so
/// the zero-copy discipline holds across threads without sharing: a
/// worker's buffers are drawn from its own free list (warm when the pool
/// carries over), encoded into in place, and then moved out — ownership
/// transfers to the caller (and ultimately the backend) with no copies.
fn encode_ids_parallel(
    code: &LtCode,
    blocks: &[Vec<u8>],
    ids: &[u32],
    threads: usize,
) -> Vec<(Block, u32)> {
    let block_len = blocks.first().map_or(0, |b| b.len());
    let threads = threads.clamp(1, ids.len().max(1));
    if threads == 1 {
        return ids
            .iter()
            .map(|&j| {
                let data = code.encode_block(blocks, j as usize);
                let crc = crc32c(&data);
                (data, crc)
            })
            .collect();
    }
    let chunk = ids.len().div_ceil(threads);
    let mut out: Vec<(Block, u32)> = vec![(Vec::new(), 0); ids.len()];
    std::thread::scope(|scope| {
        for (slots, id_chunk) in out.chunks_mut(chunk).zip(ids.chunks(chunk)) {
            scope.spawn(move || {
                let mut pool = BlockPool::new(block_len);
                for (slot, &j) in slots.iter_mut().zip(id_chunk) {
                    let mut buf = pool.get_scratch();
                    code.encode_block_into(blocks, j as usize, &mut buf);
                    let crc = crc32c(&buf);
                    *slot = (buf, crc);
                }
            });
        }
    });
    out
}

/// Split `data` into exactly `k` blocks of `block_bytes`, zero-padding the
/// tail.
fn split_blocks(data: &[u8], block_bytes: usize, k: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let start = i * block_bytes;
        let end = ((i + 1) * block_bytes).min(data.len());
        let mut b = if start < data.len() {
            data[start..end].to_vec()
        } else {
            Vec::new()
        };
        b.resize(block_bytes, 0);
        out.push(b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_system() -> System {
        // 8 disks with a 5x speed spread; 4 KB blocks keep tests quick.
        let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
        System::new(
            InMemoryBackend::new(speeds),
            SystemConfig {
                block_bytes: 4 << 10,
                ..Default::default()
            },
        )
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let sys = test_system();
        let alice = sys.register_user();
        let client = Client::connect(&sys, alice);
        let data = payload(100_000);

        let mut h = client
            .open("genome.dat", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let report = client.write(&mut h, &data).unwrap();
        assert!(report.blocks_written > report.disks);
        client.close(h).unwrap();

        let h = client
            .open("genome.dat", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (got, rr) = client.read_with_report(&h).unwrap();
        assert_eq!(got, data);
        assert!(rr.blocks_cancelled > 0, "speculative read must cancel some");
        client.close(h).unwrap();
    }

    #[test]
    fn repeated_reads_recycle_buffers() {
        // The shared BlockPool's allocation counter proves the whole
        // fetch→decode path is allocation-free once warm: read 1 fills
        // the pool, read 2 onward reuse its buffers exclusively.
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(120_000);
        let mut h = client
            .open("pooled", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        assert_eq!(sys.pool_stats(), (0, 0), "no reads yet");
        let h = client
            .open("pooled", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(client.read(&h).unwrap(), data);
        let (fresh_after_first, _) = sys.pool_stats();
        assert!(fresh_after_first > 0);
        for _ in 0..3 {
            assert_eq!(client.read(&h).unwrap(), data);
        }
        let (fresh, reuses) = sys.pool_stats();
        assert_eq!(
            fresh, fresh_after_first,
            "warm reads must not allocate (hidden copy otherwise)"
        );
        assert!(
            reuses >= 3 * fresh_after_first,
            "warm reads run on the pool"
        );
        client.close(h).unwrap();
    }

    #[test]
    fn parallel_encode_is_deterministic_across_thread_counts() {
        // Same data, same seed, different encode_threads: the committed
        // layouts and the decoded bytes must be identical — parallelism
        // can only change wall-clock, never content.
        let data = payload(300_000);
        let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
        let mut metas = Vec::new();
        for threads in [1usize, 3, 7] {
            let sys = System::new(
                InMemoryBackend::new(speeds.clone()),
                SystemConfig {
                    block_bytes: 4 << 10,
                    encode_threads: threads,
                    ..Default::default()
                },
            );
            let u = sys.register_user();
            let client = Client::connect(&sys, u);
            let mut h = client
                .open(
                    "f",
                    AccessMode::Write,
                    QosOptions::best_effort().with_redundancy(2.0),
                )
                .unwrap();
            client.write(&mut h, &data).unwrap();
            // Exercise the parallel update path too.
            client.update(&mut h, 9_000, &vec![0xC3u8; 2_000]).unwrap();
            let meta = h.meta().unwrap().clone();
            client.close(h).unwrap();

            let h = client
                .open("f", AccessMode::Read, QosOptions::best_effort())
                .unwrap();
            let got = client.read(&h).unwrap();
            client.close(h).unwrap();
            let mut expect = data.clone();
            expect[9_000..11_000].copy_from_slice(&vec![0xC3u8; 2_000]);
            assert_eq!(got, expect, "threads={threads}");
            metas.push((threads, meta));
        }
        let (_, base) = &metas[0];
        for (threads, meta) in &metas[1..] {
            assert_eq!(
                meta.layout, base.layout,
                "threads={threads}: layout must not depend on thread count"
            );
        }
    }

    #[test]
    fn parallel_reads_return_every_buffer() {
        // Concurrent readers each borrow (or create) a pool; merging on
        // return keeps accounting exact: when the dust settles, zero
        // bytes are still checked out and fresh+reused covers every get.
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(150_000);
        let mut h = client
            .open("shared", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sys = sys.clone();
                let data = &data;
                scope.spawn(move || {
                    let c = Client::connect(&sys, u);
                    for _ in 0..3 {
                        let h = c
                            .open("shared", AccessMode::Read, QosOptions::best_effort())
                            .unwrap();
                        assert_eq!(&c.read(&h).unwrap(), data);
                        c.close(h).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            sys.pool_outstanding_bytes(),
            0,
            "a completed parallel read leaked pool buffers"
        );
        let (fresh, reuses) = sys.pool_stats();
        assert!(fresh > 0, "reads allocated through the pool");
        assert!(reuses > 0, "repeated reads recycled buffers");
    }

    #[test]
    fn speculative_read_fetches_fraction_of_stored() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(400_000); // ~98 blocks at 4 KB

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        let wr = client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (_, rr) = client.read_with_report(&h).unwrap();
        client.close(h).unwrap();
        // With 3x redundancy, roughly (1+ε)K of 4K blocks are fetched.
        assert!(
            rr.blocks_fetched < wr.blocks_written * 2 / 3,
            "fetched {} of {}",
            rr.blocks_fetched,
            wr.blocks_written
        );
        assert!(rr.reception_overhead < 1.2);
    }

    #[test]
    fn degraded_read_survives_seeded_block_loss() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(200_000);

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        // Deterministically lose a third of every disk's blocks: the
        // same seed loses the same blocks, and 3x redundancy absorbs it.
        let seq = SeedSequence::new(21);
        let mut lost = 0;
        for disk in 0..8 {
            lost += sys.lose_blocks(disk, 0.33, &seq).len();
        }
        assert!(lost > 0, "p=0.33 must lose something");

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(client.read(&h).unwrap(), data);
        client.close(h).unwrap();
    }

    #[test]
    fn update_rewrites_small_fraction() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(256 << 10); // 64 originals

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &data).unwrap();
        // Patch 100 bytes inside one original block.
        let patch = vec![0xAB; 100];
        let rep = client.update(&mut h, 5000, &patch).unwrap();
        assert_eq!(rep.originals_changed, 1);
        assert!(
            rep.fraction_rewritten < 0.25,
            "one-block update rewrote {:.1}% of coded blocks",
            rep.fraction_rewritten * 100.0
        );
        client.close(h).unwrap();

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let got = client.read(&h).unwrap();
        client.close(h).unwrap();
        let mut expect = data;
        expect[5000..5100].copy_from_slice(&patch);
        assert_eq!(got, expect);
    }

    #[test]
    fn locks_exclude_concurrent_writers() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &payload(10_000)).unwrap();
        assert!(matches!(
            client.open("f", AccessMode::Write, QosOptions::best_effort()),
            Err(StoreError::LockConflict(_))
        ));
        client.close(h).unwrap();
        let h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.close(h).unwrap();
    }

    #[test]
    fn non_owner_needs_credentials() {
        let sys = test_system();
        let alice = sys.register_user();
        let bob = sys.register_user();
        let a = Client::connect(&sys, alice);
        let b = Client::connect(&sys, bob);

        let mut h = a
            .open("private", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        a.write(&mut h, &payload(20_000)).unwrap();
        a.close(h).unwrap();

        // Bob without credentials: denied.
        assert!(matches!(
            b.open("private", AccessMode::Read, QosOptions::best_effort()),
            Err(StoreError::AccessDenied(_))
        ));

        // Alice delegates read to Bob.
        let cred = sys
            .issue_credential(alice, bob, Rights::R, "private", 1_000)
            .unwrap();
        let chain = CredentialChain(vec![cred]);
        let h = b
            .open_with_chain(
                "private",
                AccessMode::Read,
                QosOptions::best_effort(),
                &chain,
            )
            .unwrap();
        assert_eq!(b.read(&h).unwrap(), payload(20_000));
        b.close(h).unwrap();

        // Read credential does not grant write.
        assert!(matches!(
            b.open_with_chain(
                "private",
                AccessMode::Write,
                QosOptions::best_effort(),
                &chain
            ),
            Err(StoreError::AccessDenied(_))
        ));

        // Expired credential is rejected.
        sys.advance_clock(2_000);
        assert!(matches!(
            b.open_with_chain(
                "private",
                AccessMode::Read,
                QosOptions::best_effort(),
                &chain
            ),
            Err(StoreError::AccessDenied(_))
        ));
    }

    #[test]
    fn admission_denial_when_servers_full() {
        let speeds = vec![20e6; 2];
        let sys = System::new(
            InMemoryBackend::new(speeds),
            SystemConfig {
                block_bytes: 4 << 10,
                admission_capacity: 1,
                ..Default::default()
            },
        );
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        // Outside tenants hold the only slot on both servers.
        assert!(sys.occupy_admission(0, 999));
        assert!(sys.occupy_admission(1, 999));
        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        assert!(matches!(
            client.write(&mut h, &payload(10_000)),
            Err(StoreError::AdmissionDenied { .. })
        ));
        // Tenants leave; the write proceeds.
        sys.release_admission(0, 999);
        sys.release_admission(1, 999);
        client.write(&mut h, &payload(10_000)).unwrap();
        client.close(h).unwrap();
    }

    #[test]
    fn rewrite_replaces_old_generation() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let v1 = payload(50_000);
        let v2: Vec<u8> = payload(80_000).iter().map(|b| b ^ 0xFF).collect();

        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &v1).unwrap();
        client.write(&mut h, &v2).unwrap();
        let meta = h.meta().unwrap().clone();
        client.close(h).unwrap();

        // The old generation was garbage-collected after the commit: the
        // backend holds exactly the committed blocks, nothing more.
        let committed_bytes = meta.stored_blocks() as u64 * meta.coding.block_bytes;
        assert_eq!(
            sys.total_used(),
            committed_bytes,
            "overwrite left orphaned blocks behind"
        );

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(client.read(&h).unwrap(), v2);
        client.close(h).unwrap();
    }

    #[test]
    fn pipelined_writes_are_byte_identical_to_barriered() {
        // The pipeline is a wall-clock optimisation only: at every
        // (encode_threads, pipeline_depth) combination — including the
        // depth=0 barrier mode — the committed layout, generation
        // parities, per-disk byte counts, and decoded contents must match
        // the sequential baseline exactly, across write, overwrite, and
        // update. The digests the encode workers take must match too, and
        // equal the reference CRC32C of each re-encoded block.
        let data = payload(300_000);
        let v2: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
        let mut outcomes = Vec::new();
        for (threads, depth) in [(1, 0), (1, 2), (2, 1), (4, 8), (16, 4), (16, 64)] {
            let sys = System::new(
                InMemoryBackend::new(speeds.clone()),
                SystemConfig {
                    block_bytes: 4 << 10,
                    encode_threads: threads,
                    pipeline_depth: depth,
                    ..Default::default()
                },
            );
            let u = sys.register_user();
            let client = Client::connect(&sys, u);
            let mut h = client
                .open(
                    "f",
                    AccessMode::Write,
                    QosOptions::best_effort().with_redundancy(2.0),
                )
                .unwrap();
            client.write(&mut h, &data).unwrap();
            client.write(&mut h, &v2).unwrap();
            client.update(&mut h, 7_000, &vec![0x11u8; 3_000]).unwrap();
            let meta = h.meta().unwrap().clone();
            client.close(h).unwrap();

            let h = client
                .open("f", AccessMode::Read, QosOptions::best_effort())
                .unwrap();
            let got = client.read(&h).unwrap();
            client.close(h).unwrap();
            let used: Vec<u64> = (0..8).map(|d| sys.disk_used(d)).collect();
            outcomes.push((threads, depth, meta, got, used));
        }
        let mut expect = v2.clone();
        expect[7_000..10_000].copy_from_slice(&vec![0x11u8; 3_000]);
        let (_, _, base_meta, base_got, base_used) = &outcomes[0];
        assert_eq!(base_got, &expect);
        let spec = &base_meta.coding;
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed).unwrap();
        let originals = split_blocks(&expect, spec.block_bytes as usize, spec.k);
        let stored: BTreeSet<u32> = base_meta
            .layout
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        assert_eq!(
            base_meta
                .checksums
                .keys()
                .copied()
                .collect::<BTreeSet<u32>>(),
            stored,
            "every stored block carries a digest"
        );
        for (&id, &crc) in &base_meta.checksums {
            let block = code.encode_block(&originals, id as usize);
            assert_eq!(
                Some(crc),
                integrity::crc32c_on(integrity::Tier::Table, &block),
                "block {id}: digest is not the reference CRC32C of its bytes"
            );
        }
        for (threads, depth, meta, got, used) in &outcomes[1..] {
            let tag = format!("threads={threads} depth={depth}");
            assert_eq!(meta.layout, base_meta.layout, "{tag}: layout diverged");
            assert_eq!(
                meta.odd_keys, base_meta.odd_keys,
                "{tag}: generation parity diverged"
            );
            assert_eq!(got, base_got, "{tag}: decoded bytes diverged");
            assert_eq!(used, base_used, "{tag}: on-disk bytes diverged");
            assert_eq!(
                meta.checksums, base_meta.checksums,
                "{tag}: digests diverged"
            );
        }
    }

    #[test]
    fn pipeline_stops_and_rolls_back_on_write_error() {
        // A hard mid-write fault aborts the access; the pipeline must
        // drain its workers, delete the partial new generation, and leave
        // the pool/backed accounting clean (no leaked or orphaned blocks).
        use crate::chaos::ChaosBackend;
        let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
        let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds));
        // Stepped executor: this test asserts the *exact* injected-fault
        // count, and with ring workers a queued write to the faulted disk
        // may still be serviced (then rolled back) after the abort,
        // consuming extra fault budget.
        let sys = System::stepped(
            Box::new(backend),
            SystemConfig {
                block_bytes: 4 << 10,
                encode_threads: 4,
                pipeline_depth: 8,
                ..Default::default()
            },
        );
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        switch.fail_disk_after(3, 5);
        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let err = client.write(&mut h, &payload(200_000)).unwrap_err();
        assert!(matches!(err, StoreError::DiskFault { disk: 3 }), "{err:?}");
        assert_eq!(switch.injected_hard_faults(), 1);
        assert_eq!(sys.total_used(), 0, "aborted write left orphans");
        assert!(h.meta().is_none(), "nothing was committed");
        // The system stays usable once the fault clears.
        switch.clear();
        client.write(&mut h, &payload(200_000)).unwrap();
        client.close(h).unwrap();
    }

    #[test]
    fn faster_disks_get_more_blocks() {
        let sys = test_system(); // speeds 10..52 MB/s
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &payload(200_000)).unwrap();
        let meta = h.meta().unwrap().clone();
        client.close(h).unwrap();
        let mut by_disk: Vec<(usize, usize)> =
            meta.layout.iter().map(|(d, ids)| (*d, ids.len())).collect();
        by_disk.sort();
        // Disk 7 (fastest) stores more than disk 0 (slowest).
        let slow = by_disk
            .iter()
            .find(|(d, _)| *d == 0)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let fast = by_disk
            .iter()
            .find(|(d, _)| *d == 7)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(fast > slow, "fast {fast} vs slow {slow}: {by_disk:?}");
    }

    #[test]
    fn read_of_missing_file_fails() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        assert!(matches!(
            client.open("ghost", AccessMode::Read, QosOptions::best_effort()),
            Err(StoreError::NotFound(_))
        ));
    }

    /// A backend that breaks the contract: it will not split into shards.
    struct Unshardable(InMemoryBackend);

    impl StorageBackend for Unshardable {
        fn num_disks(&self) -> usize {
            self.0.num_disks()
        }

        fn write_block(
            &mut self,
            disk: usize,
            block: u64,
            data: Vec<u8>,
        ) -> Result<(), crate::backend::RefusedWrite> {
            self.0.write_block(disk, block, data)
        }

        fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
            self.0.read_block(disk, block)
        }

        fn try_shard(&mut self) -> Option<Vec<Box<dyn crate::backend::DiskShard>>> {
            None
        }

        fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
            self.0.delete_block(disk, block)
        }

        fn disk_speed(&self, disk: usize) -> f64 {
            self.0.disk_speed(disk)
        }

        fn disk_used(&self, disk: usize) -> u64 {
            self.0.disk_used(disk)
        }
    }

    #[test]
    #[should_panic(expected = "StorageBackend::try_shard returned None")]
    fn unshardable_backend_is_refused() {
        let backend = Unshardable(InMemoryBackend::uniform(2, 10e6));
        System::with_backend(Box::new(backend), SystemConfig::default());
    }

    #[test]
    fn split_blocks_pads_tail() {
        let blocks = split_blocks(&[1, 2, 3, 4, 5], 2, 3);
        assert_eq!(blocks, vec![vec![1, 2], vec![3, 4], vec![5, 0]]);
    }
}
