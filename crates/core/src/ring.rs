//! Per-disk submission/completion ring: the one I/O path.
//!
//! Every disk has its own *queue*. Clients push [`SubmitOp`]s tagged
//! with an access id and a per-access sequence tag, and receive
//! [`Completion`]s on a channel they own. One client thread can therefore
//! keep many accesses in flight at once — the per-disk-FIFO-queue regime
//! of the MDS-queue model — instead of burning a thread per access on
//! blocking calls.
//!
//! Four properties define the ring's semantics:
//!
//! * **Cross-access group commit.** A dispatch popping a write from its
//!   queue also pops the contiguous run of queued writes behind it — from
//!   *any* access — up to the configured batch cap, and lands the run in
//!   one [`ShardedBackend::commit_batch`] dispatch. Per-access submission
//!   order is preserved (the queue is FIFO and batches never reorder), so
//!   failure semantics match unbatched writes.
//! * **Speculative-read cancellation.** [`IoRing::cancel`] revokes every
//!   op of one access that is still *queued*; each revoked op completes
//!   as [`CompletionKind::Cancelled`] with its buffer handed back, and
//!   the disk never services it. Ops already being serviced run to
//!   completion — their completions must be drained and discarded by the
//!   caller. This makes the paper's "cancel redundant requests on decode
//!   success" policy reclaim real disk time instead of just wall clock.
//! * **Exactly one completion per submission.** Every submitted op
//!   produces exactly one [`Completion`] — serviced or cancelled — so a
//!   reactor can drive `received == submitted` without timeouts. Queues
//!   are drained before the ring shuts down.
//! * **Two scheduling classes.** Each disk keeps a foreground and a
//!   background FIFO ([`Priority`]); background (repair/scrub) ops are
//!   serviced only when no foreground op is queued, so a deep repair
//!   backlog can never starve serving traffic. Background queue depth is
//!   excluded from [`IoRing::load_map`]'s `queued` for the same reason.
//!
//! Two executors service the queues, and clients drive both through the
//! same calls — [`IoRing::submit`], [`IoRing::cancel`] and
//! [`IoRing::wait`]:
//!
//! * **Threaded** ([`IoRing::start`], the production path): one worker
//!   thread per disk. Each worker exports live load telemetry — queue
//!   depth, in-flight count, and an EWMA of per-op service time — behind
//!   the lock-free [`IoRing::load_map`] snapshot, which feeds the
//!   queue-aware [`robustore_schemes::AdaptiveReadPolicy`].
//! * **Stepped** ([`IoRing::stepped`], the test executor): no worker
//!   threads. A thread waiting for a completion services one dispatch
//!   at a time itself, oldest submission first across disks, foreground
//!   before background. A single-threaded client therefore sees every op
//!   serviced in submission order and every op queued behind a decode
//!   point revoked unserviced — a deterministic schedule that pins exact
//!   fault-budget and retry counts. Its load map is empty, so reads
//!   follow the static schedule. The differential suites compare the two
//!   executors' committed state byte for byte.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use robustore_schemes::{DiskLoad, DiskLoadMap};

use crate::error::StoreError;
use crate::sharded::ShardedBackend;

/// Tuning knobs for an [`IoRing`], snapshotted from `SystemConfig`.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Max writes coalesced into one `commit_batch` dispatch (min 1).
    pub group_commit: usize,
    /// Read attempts per op (>= 1); transient faults retry up to this.
    pub read_attempts: u32,
    /// Base backoff before a read retry, doubled per attempt. Plain
    /// exponential, no jitter: the ring stays seed-free.
    pub backoff_micros: u64,
}

/// One block operation submitted to a disk queue.
#[derive(Debug)]
pub enum SubmitOp {
    /// Fetch a block into `buf` (recycled scratch; handed back in the
    /// completion, including on cancellation).
    Read {
        /// Backend block key.
        key: u64,
        /// Scratch buffer the worker reads into.
        buf: Vec<u8>,
    },
    /// Store `data` as block `key`. Contiguous queued writes are
    /// coalesced across accesses into one group-commit dispatch.
    Write {
        /// Backend block key.
        key: u64,
        /// Encoded block payload.
        data: Vec<u8>,
    },
    /// Remove block `key`.
    Delete {
        /// Backend block key.
        key: u64,
    },
}

/// Outcome of one write within a (possibly batched) commit dispatch.
#[derive(Debug)]
pub enum WriteOutcome {
    /// The block landed.
    Done,
    /// The disk refused the write (admission/offline); the payload is
    /// handed back for redirecting without re-encoding.
    Refused {
        /// The refusal error (a `MissingBlock`-class soft failure).
        error: StoreError,
        /// The unconsumed block payload.
        data: Vec<u8>,
    },
    /// A hard mid-I/O fault consumed the block.
    Fault(StoreError),
    /// A hard fault earlier in the same batch aborted this entry before
    /// the disk looked at it (batches stop at the first hard fault).
    Aborted {
        /// The disk whose batch aborted.
        disk: usize,
    },
}

/// What happened to one submitted op.
#[derive(Debug)]
pub enum CompletionKind {
    /// A read was serviced (successfully or not).
    Read {
        /// `Ok` iff `buf` now holds the block bytes.
        result: Result<(), StoreError>,
        /// The scratch buffer handed back (contents valid only on `Ok`).
        buf: Vec<u8>,
        /// Transient-fault retries the worker performed for this op.
        retries: u64,
    },
    /// A write was serviced (possibly as part of a cross-access batch).
    Write(WriteOutcome),
    /// A delete was serviced.
    Delete(Result<(), StoreError>),
    /// The op was revoked by [`IoRing::cancel`] before the disk serviced
    /// it; the buffer/payload is handed back when the op carried one.
    Cancelled {
        /// Scratch or payload to recycle (`None` for deletes).
        buf: Option<Vec<u8>>,
    },
}

/// A completion event, delivered on the channel the submitter provided.
#[derive(Debug)]
pub struct Completion {
    /// Access id the op was tagged with.
    pub access: u64,
    /// Per-access sequence tag the op was tagged with.
    pub tag: u64,
    /// Disk the op was queued on.
    pub disk: usize,
    /// What happened.
    pub kind: CompletionKind,
}

/// Scheduling class for a submitted op. Foreground ops (client reads and
/// writes) always overtake queued background ops (repair/scrub traffic) on
/// the same disk, so a deep repair backlog can never starve serving
/// traffic. Within a class the queue stays strictly FIFO, preserving the
/// per-access ordering the group-commit contract relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Client-facing traffic; serviced first. The default.
    #[default]
    Foreground,
    /// Repair/scrub traffic; serviced only when no foreground op is
    /// queued. An op already being serviced is never preempted.
    Background,
}

struct Entry {
    /// Ring-wide submission order; the stepped executor services the
    /// lowest first.
    seq: u64,
    access: u64,
    tag: u64,
    op: SubmitOp,
    done: Sender<Completion>,
}

struct QueueState {
    /// Foreground FIFO — drained before `background` is looked at.
    entries: VecDeque<Entry>,
    /// Background FIFO (repair traffic).
    background: VecDeque<Entry>,
    shutdown: bool,
    /// A stepped dispatch from this disk is being serviced: like a
    /// worker, a disk services one dispatch at a time.
    busy: bool,
}

impl QueueState {
    /// Pop the next dispatch, as a worker would: strict priority (the
    /// background queue only when no foreground op is queued), and a write
    /// at the front takes the contiguous run of queued writes behind it,
    /// from any access, up to `batch_cap`. Write runs coalesce within one
    /// class, so a batch never smuggles background writes ahead of
    /// foreground ones.
    fn pop_dispatch(&mut self, batch_cap: usize) -> Option<(Vec<Entry>, Priority)> {
        let (queue, priority) = if self.entries.is_empty() {
            (&mut self.background, Priority::Background)
        } else {
            (&mut self.entries, Priority::Foreground)
        };
        let first = queue.pop_front()?;
        let batching = matches!(first.op, SubmitOp::Write { .. });
        let mut popped = vec![first];
        while batching
            && popped.len() < batch_cap
            && matches!(queue.front().map(|e| &e.op), Some(SubmitOp::Write { .. }))
        {
            popped.push(queue.pop_front().expect("front checked"));
        }
        Some((popped, priority))
    }

    /// The stepped executor's key for this disk's next dispatch:
    /// foreground before background, then oldest submission first.
    fn next_key(&self) -> Option<(Priority, u64)> {
        if self.busy {
            return None;
        }
        match (self.entries.front(), self.background.front()) {
            (Some(e), _) => Some((Priority::Foreground, e.seq)),
            (None, Some(e)) => Some((Priority::Background, e.seq)),
            (None, None) => None,
        }
    }
}

struct DiskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl DiskQueue {
    fn new() -> Self {
        DiskQueue {
            state: Mutex::new(QueueState {
                entries: VecDeque::new(),
                background: VecDeque::new(),
                shutdown: false,
                busy: false,
            }),
            ready: Condvar::new(),
        }
    }
}

/// EWMA smoothing factor for per-op service time. Small enough to ride
/// out one-off hiccups, large enough that a few completions reveal a
/// straggling disk.
const EWMA_ALPHA: f64 = 0.2;

/// Live load counters for one disk, updated lock-free around queue and
/// service events. `queued`/`in_flight` are multi-writer counters;
/// `ewma_bits` (an `f64` as bits) has a single writer at a time — the
/// thread servicing the disk's one dispatch in flight, its worker or a
/// stepped waiter holding the disk's `busy` flag (handed over under the
/// queue mutex) — so plain relaxed load/store suffices.
#[derive(Debug, Default)]
struct DiskStat {
    /// Foreground queue depth. Background entries are tracked separately
    /// (`bg_queued`) and excluded here: they never delay a newly queued
    /// foreground op, so counting them would inflate the adaptive read
    /// policy's completion estimates.
    queued: AtomicU64,
    bg_queued: AtomicU64,
    in_flight: AtomicU64,
    ewma_bits: AtomicU64,
    /// Whether `ewma_bits` holds a real sample yet. A plain `old == 0.0`
    /// sentinel is wrong: a genuine 0µs sample (sub-µs in-memory op)
    /// would make the *next* sample re-seed the EWMA with full weight,
    /// discarding history.
    ewma_seeded: AtomicU64,
}

impl DiskStat {
    fn snapshot(&self) -> DiskLoad {
        DiskLoad {
            queued: self.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            ewma_service_micros: f64::from_bits(self.ewma_bits.load(Ordering::Relaxed)),
        }
    }

    fn queued_for(&self, priority: Priority) -> &AtomicU64 {
        match priority {
            Priority::Foreground => &self.queued,
            Priority::Background => &self.bg_queued,
        }
    }

    /// Fold a measured per-op service time (µs) into the EWMA. Only the
    /// thread servicing the disk calls this (the seeded flag and bits are
    /// single-writer).
    fn record_service(&self, micros: f64) {
        let new = if self.ewma_seeded.swap(1, Ordering::Relaxed) == 0 {
            micros
        } else {
            let old = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
            EWMA_ALPHA * micros + (1.0 - EWMA_ALPHA) * old
        };
        self.ewma_bits.store(new.to_bits(), Ordering::Relaxed);
    }
}

/// How long a stepped waiter with nothing it may service sleeps on its
/// channel before looking for a freed disk again. Only reached when
/// several threads share a stepped ring.
const STEP_POLL: Duration = Duration::from_micros(100);

/// The reactor front-end: per-disk submission queues over a
/// [`ShardedBackend`], serviced by one worker thread per disk (threaded)
/// or by the waiting threads themselves (stepped).
pub struct IoRing {
    queues: Arc<Vec<DiskQueue>>,
    stats: Arc<Vec<DiskStat>>,
    backend: Arc<ShardedBackend>,
    config: RingConfig,
    next_seq: AtomicU64,
    /// `None` for the stepped executor.
    workers: Option<Vec<JoinHandle<()>>>,
    /// Serialises the stepped executor's choice of the oldest dispatch.
    step_turn: Mutex<()>,
}

impl IoRing {
    /// The threaded executor: start one worker per disk of `backend`.
    pub fn start(backend: Arc<ShardedBackend>, config: RingConfig) -> Self {
        let mut ring = Self::queues_only(backend, config);
        ring.workers = Some(
            (0..ring.backend.num_disks())
                .map(|disk| {
                    let queues = ring.queues.clone();
                    let stats = ring.stats.clone();
                    let backend = ring.backend.clone();
                    let config = ring.config.clone();
                    std::thread::Builder::new()
                        .name(format!("io-ring-{disk}"))
                        .spawn(move || {
                            worker_loop(disk, &queues[disk], &stats[disk], &backend, &config)
                        })
                        .expect("spawn io-ring worker")
                })
                .collect(),
        );
        ring
    }

    /// The stepped executor: no worker threads. Ops are serviced by
    /// [`IoRing::wait`], one dispatch per step, oldest submission first
    /// across disks and foreground before background.
    pub fn stepped(backend: Arc<ShardedBackend>, config: RingConfig) -> Self {
        Self::queues_only(backend, config)
    }

    fn queues_only(backend: Arc<ShardedBackend>, config: RingConfig) -> Self {
        let disks = backend.num_disks();
        IoRing {
            queues: Arc::new((0..disks).map(|_| DiskQueue::new()).collect()),
            stats: Arc::new((0..disks).map(|_| DiskStat::default()).collect()),
            backend,
            config,
            next_seq: AtomicU64::new(0),
            workers: None,
            step_turn: Mutex::new(()),
        }
    }

    /// Snapshot every disk's live load — queue depth, in-flight count,
    /// EWMA service latency — for the queue-aware read policy. Lock-free:
    /// three relaxed atomic loads per disk. Empty on the stepped
    /// executor, which keeps no telemetry.
    pub fn load_map(&self) -> DiskLoadMap {
        if self.workers.is_none() {
            return DiskLoadMap::from_loads(Vec::new());
        }
        DiskLoadMap::from_loads(self.stats.iter().map(DiskStat::snapshot).collect())
    }

    /// Queue `op` on `disk` for access `access` with per-access sequence
    /// tag `tag`; the completion is sent to `done`. A disk id past the
    /// end of the backend is serviced inline on the caller thread (the
    /// `ShardedBackend` turns it into a graceful refusal), so submitters
    /// need no bounds checks. Equivalent to [`IoRing::submit_with`] at
    /// [`Priority::Foreground`].
    pub fn submit(
        &self,
        disk: usize,
        access: u64,
        tag: u64,
        op: SubmitOp,
        done: &Sender<Completion>,
    ) {
        self.submit_with(disk, access, tag, op, Priority::Foreground, done);
    }

    /// [`IoRing::submit`] with an explicit scheduling class. Background
    /// ops wait behind every queued foreground op on the same disk.
    pub fn submit_with(
        &self,
        disk: usize,
        access: u64,
        tag: u64,
        op: SubmitOp,
        priority: Priority,
        done: &Sender<Completion>,
    ) {
        match self.queues.get(disk) {
            Some(queue) => {
                let mut state = queue.state.lock().unwrap();
                let entry = Entry {
                    seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                    access,
                    tag,
                    op,
                    done: done.clone(),
                };
                match priority {
                    Priority::Foreground => state.entries.push_back(entry),
                    Priority::Background => state.background.push_back(entry),
                }
                self.stats[disk]
                    .queued_for(priority)
                    .fetch_add(1, Ordering::Relaxed);
                drop(state);
                queue.ready.notify_one();
            }
            None => {
                let kind = service_op(disk, op, &self.backend, &self.config);
                let _ = done.send(Completion {
                    access,
                    tag,
                    disk,
                    kind,
                });
            }
        }
    }

    /// Background (repair-class) queue depth per disk. Telemetry for the
    /// repair service and its tests; not part of [`IoRing::load_map`]
    /// because background ops never delay foreground completions.
    pub fn background_backlog(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.bg_queued.load(Ordering::Relaxed))
            .collect()
    }

    /// Revoke every still-queued op of `access` on every disk. Each
    /// revoked op completes as [`CompletionKind::Cancelled`] with its
    /// buffer handed back; ops already in service run to completion and
    /// must be drained by the caller.
    pub fn cancel(&self, access: u64) {
        for (disk, queue) in self.queues.iter().enumerate() {
            let removed: Vec<Entry> = {
                let mut state = queue.state.lock().unwrap();
                let state = &mut *state;
                let mut removed = Vec::new();
                for (priority, queue_of) in [
                    (Priority::Foreground, &mut state.entries),
                    (Priority::Background, &mut state.background),
                ] {
                    let mut keep = VecDeque::with_capacity(queue_of.len());
                    let before = removed.len();
                    for entry in queue_of.drain(..) {
                        if entry.access == access {
                            removed.push(entry);
                        } else {
                            keep.push_back(entry);
                        }
                    }
                    *queue_of = keep;
                    self.stats[disk]
                        .queued_for(priority)
                        .fetch_sub((removed.len() - before) as u64, Ordering::Relaxed);
                }
                removed
            };
            for entry in removed {
                let buf = match entry.op {
                    SubmitOp::Read { buf, .. } => Some(buf),
                    SubmitOp::Write { data, .. } => Some(data),
                    SubmitOp::Delete { .. } => None,
                };
                let _ = entry.done.send(Completion {
                    access: entry.access,
                    tag: entry.tag,
                    disk,
                    kind: CompletionKind::Cancelled { buf },
                });
            }
        }
    }

    /// Wait for the next completion on `rx` — the channel the caller's
    /// own submissions name. The threaded executor just blocks on it. On
    /// the stepped executor the waiting thread services dispatches itself,
    /// one per step, until a completion lands on `rx`. With a `deadline`,
    /// returns `None` once it passes with no completion.
    pub fn wait(&self, rx: &Receiver<Completion>, deadline: Option<Instant>) -> Option<Completion> {
        if self.workers.is_some() {
            return recv_until(rx, deadline);
        }
        loop {
            match rx.try_recv() {
                Ok(c) => return Some(c),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => panic!("the waiter holds the sender"),
            }
            if deadline.is_some_and(|at| Instant::now() >= at) {
                return None;
            }
            if !self.step() {
                // Every queued op sits behind a disk another thread is
                // servicing (or nothing is queued and the completion
                // owed to `rx` is in service there): sleep on the channel
                // briefly, then look for a freed disk again.
                let poll = Instant::now() + STEP_POLL;
                let until = deadline.map_or(poll, |at| at.min(poll));
                if let Some(c) = recv_until(rx, Some(until)) {
                    return Some(c);
                }
            }
        }
    }

    /// Stepped executor: service the oldest queued dispatch on a disk no
    /// other thread is servicing. Returns whether it found one.
    fn step(&self) -> bool {
        let (disk, popped, priority) = {
            let _turn = self.step_turn.lock().expect("stepper panicked mid-pick");
            let oldest = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(disk, q)| {
                    let key = q.state.lock().expect("ring queue poisoned").next_key()?;
                    Some((key, disk))
                })
                .min();
            let Some((_, disk)) = oldest else {
                return false;
            };
            let mut state = self.queues[disk].state.lock().expect("ring queue poisoned");
            // A concurrent cancel may have emptied the queue since the
            // pick; its completions are already sent, which is progress.
            let Some((popped, priority)) = state.pop_dispatch(self.config.group_commit.max(1))
            else {
                return true;
            };
            state.busy = true;
            (disk, popped, priority)
        };
        service_dispatch(
            disk,
            popped,
            priority,
            &self.stats[disk],
            &self.backend,
            &self.config,
        );
        self.queues[disk]
            .state
            .lock()
            .expect("ring queue poisoned")
            .busy = false;
        true
    }
}

/// Receive from `rx`, blocking until `deadline` (forever when `None`).
fn recv_until(rx: &Receiver<Completion>, deadline: Option<Instant>) -> Option<Completion> {
    let Some(at) = deadline else {
        return Some(rx.recv().expect("the waiter holds the sender"));
    };
    match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
        Ok(c) => Some(c),
        Err(RecvTimeoutError::Timeout) => None,
        Err(RecvTimeoutError::Disconnected) => panic!("the waiter holds the sender"),
    }
}

impl Drop for IoRing {
    fn drop(&mut self) {
        match self.workers.take() {
            Some(workers) => {
                for queue in self.queues.iter() {
                    queue.state.lock().unwrap().shutdown = true;
                    queue.ready.notify_all();
                }
                for worker in workers {
                    let _ = worker.join();
                }
            }
            // Exactly one completion per submission holds on the stepped
            // executor too: service whatever nobody waited for.
            None => while self.step() {},
        }
    }
}

/// Worker main loop: pop dispatches, service them *outside* the queue
/// lock, and deliver exactly one completion per op. Pending entries are
/// drained before shutdown is honoured.
fn worker_loop(
    disk: usize,
    queue: &DiskQueue,
    stat: &DiskStat,
    backend: &ShardedBackend,
    config: &RingConfig,
) {
    let batch_cap = config.group_commit.max(1);
    loop {
        let (popped, priority) = {
            let mut state = queue.state.lock().unwrap();
            loop {
                if let Some(dispatch) = state.pop_dispatch(batch_cap) {
                    break dispatch;
                }
                if state.shutdown {
                    return;
                }
                state = queue.ready.wait(state).unwrap();
            }
        };
        service_dispatch(disk, popped, priority, stat, backend, config);
    }
}

/// Service one popped dispatch — a write batch or a single op — and send
/// its completions. The stat updates happen *before* the completion
/// sends, so a submitter that has drained all its completions observes
/// its own ops fully retired from the load map — a quiescent reactor
/// never sees ghost in-flight residue from its previous access.
fn service_dispatch(
    disk: usize,
    popped: Vec<Entry>,
    priority: Priority,
    stat: &DiskStat,
    backend: &ShardedBackend,
    config: &RingConfig,
) {
    let n = popped.len() as u64;
    stat.queued_for(priority).fetch_sub(n, Ordering::Relaxed);
    stat.in_flight.fetch_add(n, Ordering::Relaxed);
    if matches!(popped.first().map(|e| &e.op), Some(SubmitOp::Write { .. })) {
        service_write_batch(disk, popped, stat, backend);
        return;
    }
    for entry in popped {
        let begun = Instant::now();
        let kind = service_op(disk, entry.op, backend, config);
        stat.record_service(begun.elapsed().as_secs_f64() * 1e6);
        stat.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = entry.done.send(Completion {
            access: entry.access,
            tag: entry.tag,
            disk,
            kind,
        });
    }
}

/// Land a run of writes in one `commit_batch` dispatch and fan the
/// per-entry outcomes back out to their submitters. The batch contract
/// (entries in order, stop at the first hard fault) means a result
/// vector shorter than the batch marks the tail entries as aborted.
fn service_write_batch(
    disk: usize,
    entries: Vec<Entry>,
    stat: &DiskStat,
    backend: &ShardedBackend,
) {
    let n = entries.len() as u64;
    let mut meta = Vec::with_capacity(entries.len());
    let mut batch = Vec::with_capacity(entries.len());
    for entry in entries {
        let Entry {
            access,
            tag,
            op,
            done,
            ..
        } = entry;
        let SubmitOp::Write { key, data } = op else {
            unreachable!("write batch holds only writes");
        };
        meta.push((access, tag, done));
        batch.push((key, data));
    }
    let begun = Instant::now();
    let results = backend.commit_batch(disk, batch);
    // One EWMA sample per op (the batch's wall time split evenly), folded
    // before the sends for the same reason as the read path.
    stat.record_service(begun.elapsed().as_secs_f64() * 1e6 / n as f64);
    stat.in_flight.fetch_sub(n, Ordering::Relaxed);
    let mut results = results.into_iter();
    for (access, tag, done) in meta {
        let outcome = match results.next() {
            Some(Ok(())) => WriteOutcome::Done,
            Some(Err(rw)) => refusal_outcome(rw),
            None => WriteOutcome::Aborted { disk },
        };
        let _ = done.send(Completion {
            access,
            tag,
            disk,
            kind: CompletionKind::Write(outcome),
        });
    }
}

/// Service one op on the calling thread, with the shared bounded read
/// retry.
fn service_op(
    disk: usize,
    op: SubmitOp,
    backend: &ShardedBackend,
    config: &RingConfig,
) -> CompletionKind {
    match op {
        SubmitOp::Read { key, mut buf } => {
            let (result, retries) =
                backend.read_block_retry(disk, key, &mut buf, config.read_attempts, |attempt| {
                    if config.backoff_micros > 0 {
                        let us = config.backoff_micros << (attempt - 1);
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                });
            CompletionKind::Read {
                result,
                buf,
                retries,
            }
        }
        SubmitOp::Write { key, data } => {
            let outcome = match backend.write_block(disk, key, data) {
                Ok(()) => WriteOutcome::Done,
                Err(rw) => refusal_outcome(rw),
            };
            CompletionKind::Write(outcome)
        }
        SubmitOp::Delete { key } => CompletionKind::Delete(backend.delete_block(disk, key)),
    }
}

/// Classify a failed write: refusals hand the payload back, hard faults
/// consume it.
fn refusal_outcome(rw: crate::backend::RefusedWrite) -> WriteOutcome {
    match rw.error {
        StoreError::MissingBlock { .. } => WriteOutcome::Refused {
            error: rw.error,
            data: rw.data,
        },
        error => WriteOutcome::Fault(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use std::sync::mpsc;

    fn backend(disks: usize) -> Arc<ShardedBackend> {
        Arc::new(ShardedBackend::new(Box::new(InMemoryBackend::uniform(
            disks, 10e6,
        ))))
    }

    fn config() -> RingConfig {
        RingConfig {
            group_commit: 4,
            read_attempts: 3,
            backoff_micros: 0,
        }
    }

    fn ring(disks: usize) -> IoRing {
        IoRing::start(backend(disks), config())
    }

    fn stepped(disks: usize) -> (Arc<ShardedBackend>, IoRing) {
        let backend = backend(disks);
        (backend.clone(), IoRing::stepped(backend, config()))
    }

    fn next(r: &IoRing, rx: &mpsc::Receiver<Completion>) -> Completion {
        r.wait(rx, None).expect("untimed waits always yield")
    }

    #[test]
    fn ring_write_read_delete_roundtrip() {
        let r = ring(2);
        let (tx, rx) = mpsc::channel();
        r.submit(
            1,
            7,
            0,
            SubmitOp::Write {
                key: 42,
                data: vec![9; 16],
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert_eq!((c.access, c.tag, c.disk), (7, 0, 1));
        assert!(matches!(c.kind, CompletionKind::Write(WriteOutcome::Done)));

        r.submit(
            1,
            7,
            1,
            SubmitOp::Read {
                key: 42,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        match c.kind {
            CompletionKind::Read {
                result,
                buf,
                retries,
            } => {
                result.unwrap();
                assert_eq!(buf, vec![9; 16]);
                assert_eq!(retries, 0);
            }
            other => panic!("unexpected completion {other:?}"),
        }

        r.submit(1, 7, 2, SubmitOp::Delete { key: 42 }, &tx);
        let c = rx.recv().unwrap();
        assert!(matches!(c.kind, CompletionKind::Delete(Ok(()))));

        r.submit(
            1,
            7,
            3,
            SubmitOp::Read {
                key: 42,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Read {
                result: Err(StoreError::MissingBlock { .. }),
                ..
            }
        ));
    }

    #[test]
    fn ring_out_of_range_disk_refuses_inline() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        r.submit(
            9,
            1,
            0,
            SubmitOp::Write {
                key: 0,
                data: vec![1],
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Write(WriteOutcome::Refused { .. })
        ));
        r.submit(
            9,
            1,
            1,
            SubmitOp::Read {
                key: 0,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Read { result: Err(_), .. }
        ));
    }

    #[test]
    fn ring_cancel_hands_buffers_back() {
        // Queue ops on an offline-free ring but cancel before servicing
        // can be guaranteed racy; instead cancel an access whose ops are
        // behind a long queue on one disk by submitting from this thread
        // and cancelling immediately — any op the worker already took
        // completes as a real completion, the rest come back Cancelled.
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..64u64 {
            r.submit(
                0,
                5,
                tag,
                SubmitOp::Read {
                    key: tag,
                    buf: Vec::new(),
                },
                &tx,
            );
        }
        r.cancel(5);
        let mut cancelled = 0;
        let mut serviced = 0;
        for _ in 0..64 {
            match rx.recv().unwrap().kind {
                CompletionKind::Cancelled { buf } => {
                    assert!(buf.is_some(), "read cancels return the scratch buffer");
                    cancelled += 1;
                }
                CompletionKind::Read { .. } => serviced += 1,
                other => panic!("unexpected completion {other:?}"),
            }
        }
        assert_eq!(cancelled + serviced, 64);
        // Exactly one completion each: the channel must now be empty.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn ring_cancel_leaves_other_accesses_queued() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..8u64 {
            let access = if tag % 2 == 0 { 1 } else { 2 };
            r.submit(0, access, tag, SubmitOp::Delete { key: 1000 + tag }, &tx);
        }
        r.cancel(1);
        let mut outcomes = Vec::new();
        for _ in 0..8 {
            let c = rx.recv().unwrap();
            outcomes.push((c.access, matches!(c.kind, CompletionKind::Cancelled { .. })));
        }
        // Every access-2 op was serviced, never cancelled.
        assert!(outcomes
            .iter()
            .all(|&(access, cancelled)| access == 1 || !cancelled));
    }

    #[test]
    fn ring_load_map_tracks_service_and_drains() {
        let r = ring(2);
        let (tx, rx) = mpsc::channel();
        for tag in 0..16u64 {
            r.submit(
                0,
                1,
                tag,
                SubmitOp::Write {
                    key: tag,
                    data: vec![1; 32],
                },
                &tx,
            );
        }
        for _ in 0..16 {
            rx.recv().unwrap();
        }
        // Give the worker a beat to finish its post-send accounting.
        for _ in 0..100 {
            let l = r.load_map();
            let d0 = *l.get(0).unwrap();
            if d0.queued == 0 && d0.in_flight == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let l = r.load_map();
        assert!(!l.is_empty());
        let d0 = *l.get(0).unwrap();
        assert_eq!(d0.queued, 0, "all ops drained");
        assert_eq!(d0.in_flight, 0);
        assert!(
            d0.ewma_service_micros > 0.0,
            "serviced ops leave an EWMA sample"
        );
        let d1 = *l.get(1).unwrap();
        assert_eq!(
            d1.ewma_service_micros, 0.0,
            "idle disk has no service sample"
        );
        assert!(l.get(2).is_none());
    }

    #[test]
    fn ewma_zero_sample_does_not_reseed() {
        // Regression: a genuine 0µs sample used to store 0.0, which the
        // next sample mistook for "unseeded" and re-seeded the EWMA with
        // full weight, discarding history.
        let s = DiskStat::default();
        s.record_service(100.0);
        s.record_service(0.0); // sub-µs in-memory op rounds down to zero
        s.record_service(1000.0);
        let e = s.snapshot().ewma_service_micros;
        // 100 → 0.2·0 + 0.8·100 = 80 → 0.2·1000 + 0.8·80 = 264. The buggy
        // sentinel would have re-seeded to 1000.
        assert!((e - 264.0).abs() < 1e-9, "ewma {e} should be 264");
    }

    #[test]
    fn ring_background_ops_wait_for_foreground() {
        // Park the single worker on a slow foreground op (a missing-key
        // read with real retry backoff), queue background deletes and
        // *then* foreground deletes behind it, and check that strict
        // priority services every foreground op first anyway.
        let r = IoRing::start(
            backend(1),
            RingConfig {
                backoff_micros: 20_000, // ~60ms parked on the first read
                ..config()
            },
        );
        let (tx, rx) = mpsc::channel();
        r.submit(
            0,
            9,
            0,
            SubmitOp::Read {
                key: 777,
                buf: Vec::new(),
            },
            &tx,
        );
        for tag in 0..4u64 {
            r.submit_with(
                0,
                2,
                tag,
                SubmitOp::Delete { key: 100 + tag },
                Priority::Background,
                &tx,
            );
        }
        assert_eq!(r.background_backlog(), vec![4]);
        for tag in 0..4u64 {
            r.submit(0, 1, tag, SubmitOp::Delete { key: 200 + tag }, &tx);
        }
        let mut order = Vec::new();
        for _ in 0..9 {
            let c = rx.recv().unwrap();
            if matches!(c.kind, CompletionKind::Delete(_)) {
                order.push(c.access);
            }
        }
        assert_eq!(order, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(r.background_backlog(), vec![0]);
    }

    #[test]
    fn ring_cancel_revokes_background_ops_too() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..32u64 {
            r.submit_with(
                0,
                5,
                tag,
                SubmitOp::Read {
                    key: tag,
                    buf: Vec::new(),
                },
                Priority::Background,
                &tx,
            );
        }
        r.cancel(5);
        let (mut cancelled, mut serviced) = (0, 0);
        for _ in 0..32 {
            match rx.recv().unwrap().kind {
                CompletionKind::Cancelled { buf } => {
                    assert!(buf.is_some());
                    cancelled += 1;
                }
                CompletionKind::Read { .. } => serviced += 1,
                other => panic!("unexpected completion {other:?}"),
            }
        }
        assert_eq!(cancelled + serviced, 32);
        assert_eq!(r.background_backlog(), vec![0]);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn ring_batches_contiguous_writes() {
        let backend = backend(1);
        let r = IoRing::start(backend.clone(), config());
        let (tx, rx) = mpsc::channel();
        for tag in 0..12u64 {
            r.submit(
                0,
                tag % 3, // three interleaved accesses share the batch
                tag,
                SubmitOp::Write {
                    key: tag,
                    data: vec![tag as u8; 8],
                },
                &tx,
            );
        }
        for _ in 0..12 {
            let c = rx.recv().unwrap();
            assert!(matches!(c.kind, CompletionKind::Write(WriteOutcome::Done)));
        }
        drop(r);
        // All 12 blocks landed despite batching across accesses.
        assert_eq!(backend.disk_used(0), 12 * 8);
        assert_eq!(backend.writes(), 12);
    }

    #[test]
    fn stepped_services_oldest_submission_first_across_disks() {
        let (_, r) = stepped(3);
        let (tx, rx) = mpsc::channel();
        let disks = [2usize, 0, 1, 2, 0, 1, 1];
        for (tag, &disk) in disks.iter().enumerate() {
            let key = tag as u64;
            r.submit(disk, 1, tag as u64, SubmitOp::Delete { key }, &tx);
        }
        assert!(rx.try_recv().is_err(), "nothing is serviced before a wait");
        let order: Vec<(u64, usize)> = disks
            .iter()
            .map(|_| {
                let c = next(&r, &rx);
                (c.tag, c.disk)
            })
            .collect();
        let submitted: Vec<(u64, usize)> = (0..).zip(disks).collect();
        assert_eq!(order, submitted);
        assert!(
            r.load_map().is_empty(),
            "stepped executors keep no telemetry"
        );
        // Exactly one completion per submission, even if nobody waits.
        r.submit(0, 1, 99, SubmitOp::Delete { key: 99 }, &tx);
        drop(r);
        assert_eq!(rx.try_recv().map(|c| c.tag).ok(), Some(99));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn stepped_services_foreground_before_background() {
        let (_, r) = stepped(2);
        let (tx, rx) = mpsc::channel();
        for tag in 0..3u64 {
            let op = SubmitOp::Delete { key: tag };
            r.submit_with(tag as usize % 2, 2, tag, op, Priority::Background, &tx);
        }
        for tag in 0..3u64 {
            let op = SubmitOp::Delete { key: 10 + tag };
            r.submit(tag as usize % 2, 1, tag, op, &tx);
        }
        let order: Vec<(u64, u64)> = (0..6)
            .map(|_| {
                let c = next(&r, &rx);
                (c.access, c.tag)
            })
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn stepped_cancel_revokes_every_unserviced_op() {
        let (backend, r) = stepped(2);
        let (tx, rx) = mpsc::channel();
        for key in 0..8u64 {
            backend
                .write_block(key as usize % 2, key, vec![key as u8; 4])
                .unwrap();
        }
        for tag in 0..8u64 {
            let op = SubmitOp::Read {
                key: tag,
                buf: Vec::new(),
            };
            r.submit(tag as usize % 2, 5, tag, op, &tx);
        }
        for tag in 0..3 {
            let c = next(&r, &rx);
            assert_eq!(c.tag, tag);
            assert!(matches!(
                c.kind,
                CompletionKind::Read { result: Ok(()), .. }
            ));
        }
        r.cancel(5);
        let mut cancelled = Vec::new();
        while let Ok(c) = rx.try_recv() {
            assert!(
                matches!(c.kind, CompletionKind::Cancelled { buf: Some(_) }),
                "revoked reads hand their buffer back"
            );
            cancelled.push(c.tag);
        }
        cancelled.sort_unstable();
        assert_eq!(cancelled, (3..8).collect::<Vec<_>>());
        assert_eq!(backend.reads(), 3, "revoked reads never reached a disk");
        drop(r);
        assert!(rx.try_recv().is_err(), "one completion per submission");
    }

    #[test]
    fn stepped_dispatch_pops_a_group_commit_batch() {
        let (backend, r) = stepped(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..6u64 {
            let op = SubmitOp::Write {
                key: tag,
                data: vec![1; 8],
            };
            r.submit(0, tag % 3, tag, op, &tx);
        }
        assert_eq!(next(&r, &rx).tag, 0);
        // One step landed the first four writes, from three accesses, as
        // one batch (group_commit = 4); their completions are all in.
        assert_eq!(backend.writes(), 4);
        let batch: Vec<u64> = (0..3).map(|_| rx.try_recv().unwrap().tag).collect();
        assert_eq!(batch, vec![1, 2, 3]);
        assert!(rx.try_recv().is_err());
        assert_eq!((next(&r, &rx).tag, next(&r, &rx).tag), (4, 5));
        assert_eq!(backend.disk_used(0), 6 * 8);
    }
}
