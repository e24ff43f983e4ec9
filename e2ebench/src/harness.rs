//! The client-side harness every workload drives: one client thread
//! issuing timed operations through the public `Client` API, verifying
//! every byte it reads and recording per-op wall times (and, in traced
//! runs, the device work each op caused).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use robustore_core::{
    AccessMode, Client, FileMeta, QosOptions, ReadReport, StorageBackend, StoreError, System,
    SystemConfig,
};
use robustore_erasure::LtCode;
use robustore_simkit::SeedSequence;

use crate::device::{DeviceTotals, Telemetry, TimedBackend};
use crate::gen::{fill_payload, Rng};
use crate::workloads::STRAGGLER;

/// The client operations the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open(Write)` + `write` + `close`: a create or an overwrite.
    Write,
    /// `open(Read)` + `read_with_report` + `close` of an undamaged file.
    Read,
    /// The same read of a file that lost blocks; read-repair restores them.
    DegradedRead,
    /// `Client::delete`.
    Delete,
    /// `Client::scrub` of a file that lost blocks.
    Scrub,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Write, Op::Read, Op::DegradedRead, Op::Delete, Op::Scrub];

    pub fn name(self) -> &'static str {
        match self {
            Op::Write => "write",
            Op::Read => "read",
            Op::DegradedRead => "degraded_read",
            Op::Delete => "delete",
            Op::Scrub => "scrub",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Everything recorded about one op kind.
#[derive(Default)]
pub struct OpRecord {
    /// Wall seconds per op, in issue order.
    pub wall_s: Vec<f64>,
    /// `Client::open` / `Client::close` seconds (writes and reads).
    pub open_s: Vec<f64>,
    pub close_s: Vec<f64>,
    /// Device work during these ops (traced runs).
    pub device: DeviceTotals,
    /// Fewest `used()` calls seen in a single op (traced runs).
    pub used_calls_min: Option<u64>,
    /// Payload bytes the ops wrote or read.
    pub user_bytes: u64,
    /// Fetched blocks the ops checksummed on arrival (reads, scrubs).
    pub verified_blocks: u64,
}

/// Sums over the `ReadReport`s of clean and degraded reads.
#[derive(Default, Clone)]
pub struct ReadTotals {
    pub reads: u64,
    pub cancelled: u64,
    pub deferred: u64,
    pub waves: u64,
    pub repaired: u64,
    pub missing: u64,
    pub overhead_sum: f64,
}

impl ReadTotals {
    fn add(&mut self, r: &ReadReport) {
        self.reads += 1;
        self.cancelled += r.blocks_cancelled as u64;
        self.deferred += r.blocks_deferred as u64;
        self.waves += r.waves as u64;
        self.repaired += r.blocks_repaired as u64;
        self.missing += r.blocks_missing as u64;
        self.overhead_sum += r.reception_overhead;
    }
}

/// A workload's deployment: the backend stack and system configuration.
pub struct Deployment {
    pub sys: System,
    pub client: Client,
    /// Present in traced runs: the counters of the `TimedBackend`.
    pub telemetry: Option<Arc<Telemetry>>,
    pub qos: QosOptions,
    pub block_bytes: usize,
    /// Coded blocks per stored file (N).
    pub coded_blocks: usize,
}

impl Deployment {
    /// Stand up a system over `backend`, wrapped in a `TimedBackend` when
    /// `trace` is set. Every file is spread over all disks at `redundancy`.
    pub fn new(
        backend: Box<dyn StorageBackend + Send>,
        config: SystemConfig,
        redundancy: f64,
        object_bytes: usize,
        trace: bool,
    ) -> Self {
        let disks = backend.num_disks();
        let (backend, telemetry): (Box<dyn StorageBackend + Send>, _) = if trace {
            let timed = TimedBackend::new(backend);
            let telemetry = timed.telemetry();
            (Box::new(timed), Some(telemetry))
        } else {
            (backend, None)
        };
        let block_bytes = config.block_bytes as usize;
        let sys = System::with_backend(backend, config);
        assert!(sys.is_sharded() && sys.uses_io_ring(), "default deployment");
        let client = Client::connect(&sys, sys.register_user());
        let k = object_bytes.div_ceil(block_bytes);
        Deployment {
            sys,
            client,
            telemetry,
            qos: QosOptions::best_effort()
                .with_redundancy(redundancy)
                .with_num_disks(disks),
            block_bytes,
            coded_blocks: (k as f64 * (1.0 + redundancy)).round() as usize,
        }
    }
}

/// One open-loop phase: latencies from each access's due time.
pub struct OpenLoopPhase {
    pub rate: f64,
    pub latency_ms: Vec<f64>,
    /// How far the last completion ran past the last due arrival.
    pub late_ms: f64,
    pub device: DeviceTotals,
    /// Fetched blocks checksummed on arrival.
    pub verified_blocks: u64,
    /// The ring's latency estimate of the straggler disk at the phase end.
    pub straggler_ewma_us: f64,
}

/// Drives one deployment and records what happened.
pub struct Harness {
    pub dep: Deployment,
    pub object_bytes: usize,
    /// Live files: name → payload id.
    pub live: BTreeMap<String, u64>,
    pub ops: Vec<OpRecord>,
    pub reads: ReadTotals,
    pub scrub_verified: u64,
    pub scrub_restored: u64,
    /// Loss draws that left a file undecodable and were redrawn.
    pub lost_draws: u64,
    /// Files a degraded read left short: the read decoded without touching
    /// a lost block, so read-repair had no damage to repair. Name → blocks
    /// still missing; cleared by the file's next write, scrub or delete.
    pub short: BTreeMap<String, usize>,
    /// Degraded reads that left their file short.
    pub short_reads: u64,
    pub phases: Vec<OpenLoopPhase>,
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Whether ops are recorded (off during set-up).
    recording: bool,
    /// When recording started and stopped.
    pub recorded: (Option<Instant>, Option<Instant>),
    /// `System::pool_stats` when recording started and stopped.
    pub pool: ((u64, u64), (u64, u64)),
    /// Order in which recorded ops ran: (op, wall seconds).
    pub sequence: Vec<(Op, f64)>,
    /// Metadata of files as written, for the metastore replay.
    pub metas: Vec<FileMeta>,
    loss: Rng,
    expected: Vec<u8>,
}

impl Harness {
    pub fn new(dep: Deployment, object_bytes: usize, seed: u64) -> Self {
        Harness {
            dep,
            object_bytes,
            live: BTreeMap::new(),
            ops: Op::ALL.iter().map(|_| OpRecord::default()).collect(),
            reads: ReadTotals::default(),
            scrub_verified: 0,
            scrub_restored: 0,
            lost_draws: 0,
            short: BTreeMap::new(),
            short_reads: 0,
            phases: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            recording: false,
            recorded: (None, None),
            pool: ((0, 0), (0, 0)),
            sequence: Vec::new(),
            metas: Vec::new(),
            loss: Rng::new(seed, "loss"),
            expected: vec![0; object_bytes],
        }
    }

    /// Start recording ops: everything before was set-up.
    pub fn start_recording(&mut self) {
        self.recording = true;
        self.pool.0 = self.dep.sys.pool_stats();
        self.recorded.0 = Some(Instant::now());
    }

    pub fn stop_recording(&mut self) {
        self.recording = false;
        self.pool.1 = self.dep.sys.pool_stats();
        self.recorded.1 = Some(Instant::now());
    }

    /// Seconds between `start_recording` and `stop_recording`.
    pub fn recorded_s(&self) -> f64 {
        match self.recorded {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    pub fn op(&self, op: Op) -> &OpRecord {
        &self.ops[op.index()]
    }

    fn device_now(&self) -> Option<DeviceTotals> {
        self.dep.telemetry.as_ref().map(|t| t.totals())
    }

    /// Book one finished op: count it, and record it when recording.
    fn finish<T>(
        &mut self,
        op: Op,
        wall: Duration,
        before: Option<DeviceTotals>,
        result: Result<T, StoreError>,
        what: &str,
    ) -> Option<T> {
        self.attempted += 1;
        let value = match result {
            Ok(v) => v,
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{} {what}: {e:?}", op.name()));
                return None;
            }
        };
        if self.recording {
            let wall_s = wall.as_secs_f64();
            let object_bytes = self.object_bytes as u64;
            let delta = match (&before, self.device_now()) {
                (Some(b), Some(a)) => Some(a.since(b)),
                _ => None,
            };
            let rec = &mut self.ops[op.index()];
            rec.wall_s.push(wall_s);
            rec.user_bytes += object_bytes;
            if let Some(d) = delta {
                rec.used_calls_min = Some(
                    rec.used_calls_min
                        .map_or(d.used_calls, |m| m.min(d.used_calls)),
                );
                rec.device.add(&d);
            }
            self.sequence.push((op, wall_s));
        }
        Some(value)
    }

    /// Create or overwrite `name` with payload `content`.
    pub fn write(&mut self, name: &str, content: u64) {
        fill_payload(content, &mut self.expected);
        let before = self.device_now();
        let client = &self.dep.client;
        let start = Instant::now();
        let mut times = (0.0, 0.0);
        let result = (|| {
            let t = Instant::now();
            let mut h = client.open(name, AccessMode::Write, self.dep.qos.clone())?;
            times.0 = t.elapsed().as_secs_f64();
            let written = client.write(&mut h, &self.expected);
            let t = Instant::now();
            let closed = client.close(h);
            times.1 = t.elapsed().as_secs_f64();
            written?;
            closed
        })();
        let wall = start.elapsed();
        if self.finish(Op::Write, wall, before, result, name).is_some() {
            self.live.insert(name.to_string(), content);
            self.short.remove(name);
            if self.recording {
                let rec = &mut self.ops[Op::Write.index()];
                rec.open_s.push(times.0);
                rec.close_s.push(times.1);
            }
            if self.metas.len() < 64 {
                if let Some(meta) = self.dep.sys.export_meta(name) {
                    self.metas.push(meta);
                }
            }
        }
    }

    /// Read `name` and byte-compare it with its payload. `Op::DegradedRead`
    /// first loses a seeded quarter of the file's blocks.
    pub fn read(&mut self, name: &str, op: Op) {
        if op == Op::DegradedRead {
            self.lose(name);
        }
        let before = self.device_now();
        let client = &self.dep.client;
        let start = Instant::now();
        let mut times = (0.0, 0.0);
        let result = (|| {
            let t = Instant::now();
            let h = client.open(name, AccessMode::Read, QosOptions::best_effort())?;
            times.0 = t.elapsed().as_secs_f64();
            let read = client.read_with_report(&h);
            let t = Instant::now();
            let closed = client.close(h);
            times.1 = t.elapsed().as_secs_f64();
            let out = read?;
            closed.map(|()| out)
        })();
        let wall = start.elapsed();
        let Some((bytes, report)) = self.finish(op, wall, before, result, name) else {
            return;
        };
        self.check_bytes(name, &bytes);
        if op == Op::DegradedRead {
            self.track_missing(name, &report);
        }
        if self.recording {
            self.reads.add(&report);
            let rec = &mut self.ops[op.index()];
            rec.verified_blocks += (report.blocks_fetched + report.blocks_corrupt) as u64;
            rec.open_s.push(times.0);
            rec.close_s.push(times.1);
        }
    }

    /// Delete `name`.
    pub fn delete(&mut self, name: &str) {
        let before = self.device_now();
        let start = Instant::now();
        let result = self.dep.client.delete(name);
        let wall = start.elapsed();
        if self
            .finish(Op::Delete, wall, before, result, name)
            .is_some()
        {
            self.live.remove(name);
            self.short.remove(name);
        }
    }

    /// Lose a seeded quarter of `name`'s blocks, then scrub it.
    pub fn scrub(&mut self, name: &str) {
        self.lose(name);
        let before = self.device_now();
        let start = Instant::now();
        let result = self.dep.client.scrub(name);
        let wall = start.elapsed();
        if let Some(report) = self.finish(Op::Scrub, wall, before, result, name) {
            self.short.remove(name);
            if report.blocks_stored_after != self.dep.coded_blocks {
                self.errors.push(format!(
                    "scrub {name}: {} blocks stored after, want {}",
                    report.blocks_stored_after, self.dep.coded_blocks
                ));
            }
            if self.recording {
                self.scrub_verified += report.blocks_verified as u64;
                self.scrub_restored += report.blocks_restored as u64;
                self.ops[Op::Scrub.index()].verified_blocks +=
                    (report.blocks_verified + report.blocks_corrupt) as u64;
            }
        }
    }

    /// Drop a seeded 25 % of `name`'s blocks behind the system's back.
    ///
    /// A random quarter can, rarely, take every coded block that covers
    /// some original (about 0.4 % of draws at K=32, N=96): the file is then
    /// lost, not degraded. Such a draw is detected from the file's own
    /// metadata (presence probes plus an `LtCode` decode of the survivors),
    /// counted in `lost_draws`, and the file is rewritten and drawn again,
    /// so the timed op always measures a read or scrub within the code's
    /// tolerance.
    fn lose(&mut self, name: &str) {
        loop {
            let seq = SeedSequence::new(self.loss.next_u64());
            self.dep.sys.lose_file_blocks(name, 0.25, &seq);
            if self.decodable(name) {
                return;
            }
            self.lost_draws += 1;
            let content = self.live[name];
            fill_payload(content, &mut self.expected);
            let client = &self.dep.client;
            let rewritten = client
                .open(name, AccessMode::Write, self.dep.qos.clone())
                .and_then(|mut h| {
                    let written = client.write(&mut h, &self.expected);
                    let closed = client.close(h);
                    written.and(closed)
                });
            if let Err(e) = rewritten {
                self.errors.push(format!("rewrite of lost {name}: {e:?}"));
                return;
            }
            self.short.remove(name);
        }
    }

    /// The metadata of `name` and the coded ids still on disk.
    fn stored_ids(&self, name: &str) -> Option<(FileMeta, Vec<u32>)> {
        let sys = &self.dep.sys;
        let meta = sys.export_meta(name)?;
        let ids = (meta.layout.iter())
            .flat_map(|(disk, ids)| ids.iter().map(move |&id| (*disk, id)))
            .filter(|&(disk, id)| sys.probe_block(disk, meta.block_key(id)))
            .map(|(_, id)| id)
            .collect();
        Some((meta, ids))
    }

    /// Whether the blocks of `name` still on disk decode.
    fn decodable(&self, name: &str) -> bool {
        let Some((meta, ids)) = self.stored_ids(name) else {
            return false;
        };
        let spec = &meta.coding;
        let Ok(code) = LtCode::plan(spec.k, spec.n, spec.params, spec.seed) else {
            return false;
        };
        let symbols: Vec<Vec<u8>> = (0..spec.k).map(|i| vec![i as u8]).collect();
        let coded = code.encode(&symbols).expect("k one-byte symbols");
        let survivors = ids
            .into_iter()
            .map(|id| (id as usize, coded[id as usize].clone()))
            .collect();
        code.decode(survivors).is_ok()
    }

    /// After a degraded read: a read that met damage must have repaired all
    /// of it; one that met none leaves the file short until its next write
    /// or scrub.
    fn track_missing(&mut self, name: &str, report: &ReadReport) {
        let Some((meta, ids)) = self.stored_ids(name) else {
            return;
        };
        let missing = meta.stored_blocks() - ids.len();
        if missing == 0 {
            self.short.remove(name);
        } else if report.blocks_missing + report.blocks_corrupt > 0 {
            self.errors.push(format!(
                "degraded read {name}: read-repair met damage but left {missing} blocks missing"
            ));
        } else {
            self.short.insert(name.to_string(), missing);
            self.short_reads += 1;
        }
    }

    fn check_bytes(&mut self, name: &str, bytes: &[u8]) {
        let Some(&content) = self.live.get(name) else {
            self.errors.push(format!("read {name}: not a live file"));
            return;
        };
        fill_payload(content, &mut self.expected);
        if bytes != self.expected.as_slice() {
            self.errors.push(format!(
                "read {name}: decoded bytes differ from the payload"
            ));
        }
    }

    /// One open-loop phase: access `i` reads `names[i]`, due `arrivals[i]`
    /// microseconds after the start, all from this one client thread
    /// through `read_many_with`. Latency runs from the due time.
    pub fn open_loop(&mut self, rate: f64, names: &[String], arrivals: &[u64]) {
        let mut expected: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        for name in names {
            expected.entry(name).or_insert_with(|| {
                let mut buf = vec![0; self.object_bytes];
                fill_payload(self.live[name.as_str()], &mut buf);
                buf
            });
        }
        let client = &self.dep.client;
        let handles: Vec<_> = names
            .iter()
            .map(|n| client.open(n, AccessMode::Read, QosOptions::best_effort()))
            .collect::<Result<_, _>>()
            .expect("open-loop handles: every file is live");
        let refs: Vec<_> = handles.iter().collect();
        let mut latency_ms = vec![f64::NAN; names.len()];
        let mut reports = ReadTotals::default();
        let mut verified_blocks = 0u64;
        let mut wrong = 0usize;
        let mut failed = Vec::new();
        let mut last_done = Duration::ZERO;
        let before = self.device_now();
        let start = Instant::now();
        client.read_many_with(&refs, Some(arrivals), |i, r| {
            let done = start.elapsed();
            last_done = last_done.max(done);
            match r {
                Ok((bytes, report)) => {
                    let due = Duration::from_micros(arrivals[i]);
                    latency_ms[i] = done.saturating_sub(due).as_secs_f64() * 1e3;
                    if bytes != expected[names[i].as_str()] {
                        wrong += 1;
                    }
                    reports.add(&report);
                    verified_blocks += (report.blocks_fetched + report.blocks_corrupt) as u64;
                }
                Err(e) => failed.push(format!("open-loop read {}: {e:?}", names[i])),
            }
        });
        for h in handles {
            if let Err(e) = client.close(h) {
                self.errors.push(format!("open-loop close: {e:?}"));
            }
        }
        let device = match (&before, self.device_now()) {
            (Some(b), Some(a)) => a.since(b),
            _ => DeviceTotals::default(),
        };
        self.attempted += names.len() as u64;
        self.failed += failed.len() as u64;
        self.errors.extend(failed);
        if wrong > 0 {
            self.errors
                .push(format!("open-loop: {wrong} reads decoded wrong bytes"));
        }
        let last_due = Duration::from_micros(arrivals.iter().copied().max().unwrap_or(0));
        self.reads.reads += reports.reads;
        self.reads.cancelled += reports.cancelled;
        self.reads.deferred += reports.deferred;
        self.reads.waves += reports.waves;
        self.reads.repaired += reports.repaired;
        self.reads.missing += reports.missing;
        self.reads.overhead_sum += reports.overhead_sum;
        self.phases.push(OpenLoopPhase {
            rate,
            latency_ms: latency_ms.into_iter().filter(|l| l.is_finite()).collect(),
            late_ms: last_done.saturating_sub(last_due).as_secs_f64() * 1e3,
            device,
            verified_blocks,
            straggler_ewma_us: self.straggler_ewma_us(),
        });
    }

    /// The ring's current service-time estimate of the straggler disk.
    pub fn straggler_ewma_us(&self) -> f64 {
        (self.dep.sys.load_map())
            .and_then(|m| m.get(STRAGGLER).map(|l| l.ewma_service_micros))
            .unwrap_or(0.0)
    }

    /// End-of-phase invariants: no pooled buffer outstanding, the
    /// namespace is exactly the live set, and the disks hold exactly N
    /// blocks per live file, less the known short ones (an orphan or an
    /// unaccounted lost block breaks this).
    pub fn check_store(&mut self, phase: &str) {
        let sys = &self.dep.sys;
        let outstanding = sys.pool_outstanding_bytes();
        if outstanding != 0 {
            self.errors
                .push(format!("{phase}: {outstanding} pool bytes outstanding"));
        }
        let mut listed = sys.list_files();
        listed.sort();
        let live: Vec<String> = self.live.keys().cloned().collect();
        if listed != live {
            self.errors.push(format!(
                "{phase}: namespace lists {} files, {} are live",
                listed.len(),
                live.len()
            ));
        }
        let want = self.live_coded_bytes();
        let used = sys.total_used();
        if used != want {
            self.errors.push(format!(
                "{phase}: disks hold {used} bytes, live files need {want}"
            ));
        }
    }

    /// Bytes the live files occupy: N blocks each, less the blocks of
    /// files a degraded read left short.
    pub fn live_coded_bytes(&self) -> u64 {
        let short: usize = self.short.values().sum();
        ((self.live.len() * self.dep.coded_blocks - short) * self.dep.block_bytes) as u64
    }

    /// Stored bytes per live user byte.
    pub fn space_amp(&self) -> f64 {
        self.dep.sys.total_used() as f64 / (self.live.len() * self.object_bytes) as f64
    }
}
