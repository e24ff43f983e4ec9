//! The three workloads. Each stands up its deployment (timed, several
//! times, as set-up), then drives a seeded op sequence from one client
//! thread for the requested number of seconds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use robustore_core::{FileBackend, InMemoryBackend, MetastoreConfig, StorageBackend, SystemConfig};

use crate::device::DelayBackend;
use crate::gen::{poisson_offsets, Rng};
use crate::harness::{Deployment, Harness, Op};

pub const WORKLOADS: [&str; 3] = ["bulk-mem", "small-file", "straggler-open"];

const DISKS: usize = 8;
/// The hidden straggler of `straggler-open`; every workload reports its
/// busy share, so the fast disks' shares are comparable across workloads.
pub const STRAGGLER: usize = 2;

/// What one invocation asked for.
pub struct Settings {
    pub seed: u64,
    /// Shrink every size so a run takes about a second (self-test).
    pub tiny: bool,
    /// Scratch directory for file-backed stores, inside the checkout.
    pub work_dir: PathBuf,
}

/// Sizes of one workload; `tiny` variants keep the same shape.
struct Shape {
    block_bytes: usize,
    object_bytes: usize,
    redundancy: f64,
    files: usize,
}

/// A finished workload run.
pub struct Outcome {
    pub harness: Harness,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The metastore configuration, for the commit replay.
    pub metastore: MetastoreConfig,
}

/// Run workload `name`: `setups` timed set-ups (the last one is kept),
/// then `seconds` of measured ops.
pub fn run(name: &str, s: &Settings, trace: bool, seconds: f64, setups: usize) -> Outcome {
    match name {
        "bulk-mem" => bulk_mem(s, trace, seconds, setups),
        "small-file" => small_file(s, trace, seconds, setups),
        "straggler-open" => straggler_open(s, trace, seconds, setups),
        _ => unreachable!("workload names are validated by the caller"),
    }
}

/// Repeat `make` `setups` times, timing each; keep the last deployment.
/// `discard` runs untimed after an earlier repetition is dropped.
fn timed_setups(
    setups: usize,
    mut make: impl FnMut(usize) -> Harness,
    mut discard: impl FnMut(usize),
) -> (Harness, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..setups.max(1) {
        if let Some(old) = kept.take() {
            drop::<Harness>(old);
            discard(rep - 1);
        }
        let start = Instant::now();
        let h = make(rep);
        times.push(start.elapsed().as_secs_f64());
        kept = Some(h);
    }
    (kept.expect("at least one set-up"), times)
}

/// Payload ids for a run: the same seed gives the same sequence.
fn contents(seed: u64) -> Rng {
    Rng::new(seed, "content")
}

/// `bulk-mem`: two 32 MiB objects on an in-memory backend, 1 MiB blocks,
/// redundancy 2 (K=32, N=96). Each visit to an object overwrites it (or,
/// every other visit, deletes it and creates a successor), reads it
/// clean, loses a quarter of its blocks and reads it degraded, and on
/// overwrite visits loses another quarter and scrubs it.
fn bulk_mem(s: &Settings, trace: bool, seconds: f64, setups: usize) -> Outcome {
    let shape = if s.tiny {
        Shape {
            block_bytes: 64 << 10,
            object_bytes: 2 << 20,
            redundancy: 2.0,
            files: 2,
        }
    } else {
        Shape {
            block_bytes: 1 << 20,
            object_bytes: 32 << 20,
            redundancy: 2.0,
            files: 2,
        }
    };
    let config = SystemConfig {
        block_bytes: shape.block_bytes as u64,
        ..Default::default()
    };
    let metastore = config
        .metastore
        .clone()
        .expect("default config has a metastore");
    let mut content = contents(s.seed);
    let (mut h, setup_s) = timed_setups(
        setups,
        |_| {
            content = contents(s.seed);
            let backend = Box::new(InMemoryBackend::uniform(DISKS, 100e6));
            let dep = Deployment::new(
                backend,
                config.clone(),
                shape.redundancy,
                shape.object_bytes,
                trace,
            );
            let mut h = Harness::new(dep, shape.object_bytes, s.seed);
            for f in 0..shape.files {
                h.write(&format!("bulk-{f}"), content.next_u64());
            }
            h
        },
        |_| {},
    );
    h.check_store("set-up");

    let mut names: Vec<String> = (0..shape.files).map(|f| format!("bulk-{f}")).collect();
    let mut visits = vec![0usize; shape.files];
    let mut next_name = shape.files;
    h.start_recording();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycle = 0;
    while Instant::now() < deadline {
        let slot = cycle % shape.files;
        if visits[slot] % 2 == 0 {
            let name = names[slot].clone();
            h.write(&name, content.next_u64());
            h.read(&name, Op::Read);
            h.read(&name, Op::DegradedRead);
            h.scrub(&name);
        } else {
            h.delete(&names[slot].clone());
            names[slot] = format!("bulk-{next_name}");
            next_name += 1;
            let name = names[slot].clone();
            h.write(&name, content.next_u64());
            h.read(&name, Op::Read);
            h.read(&name, Op::DegradedRead);
        }
        visits[slot] += 1;
        cycle += 1;
    }
    h.stop_recording();
    h.check_store("measured");
    Outcome {
        harness: h,
        setup_s,
        metastore,
    }
}

/// `small-file`: the durable deployment. A `FileBackend` with 8 disk
/// directories and a file-backed metastore (3 fsync'd WAL replicas per
/// shard) in a fresh directory; 16 KiB blocks, 256 KiB objects at
/// redundancy 2 (K=16, N=48). Set-up fills ~200 live files; the measured
/// mix is 50 % get, 25 % overwrite, 25 % delete + create under a new name,
/// and every 20th op loses a quarter of one file's blocks and scrubs it,
/// then loses a quarter of another's and reads it degraded.
fn small_file(s: &Settings, trace: bool, seconds: f64, setups: usize) -> Outcome {
    let shape = if s.tiny {
        Shape {
            block_bytes: 16 << 10,
            object_bytes: 256 << 10,
            redundancy: 2.0,
            files: 12,
        }
    } else {
        Shape {
            block_bytes: 16 << 10,
            object_bytes: 256 << 10,
            redundancy: 2.0,
            files: 200,
        }
    };
    let store_dir = |rep: usize| s.work_dir.join(format!("small-file-{}-{rep}", trace as u8));
    let metastore_of = |rep: usize| MetastoreConfig {
        dir: Some(store_dir(rep).join("meta")),
        ..Default::default()
    };
    let mut content = contents(s.seed);
    let mut kept_rep = 0;
    let (mut h, setup_s) = timed_setups(
        setups,
        |rep| {
            kept_rep = rep;
            content = contents(s.seed);
            let root = store_dir(rep);
            remove_dir(&root);
            let backend = FileBackend::open(root.join("blocks"), vec![100e6; DISKS])
                .expect("the work directory is writable");
            let config = SystemConfig {
                block_bytes: shape.block_bytes as u64,
                metastore: Some(metastore_of(rep)),
                ..Default::default()
            };
            let dep = Deployment::new(
                Box::new(backend),
                config,
                shape.redundancy,
                shape.object_bytes,
                trace,
            );
            let mut h = Harness::new(dep, shape.object_bytes, s.seed);
            for f in 0..shape.files {
                h.write(&format!("f{f}"), content.next_u64());
            }
            h
        },
        |rep| remove_dir(&store_dir(rep)),
    );
    h.check_store("set-up");

    let mut live: Vec<String> = h.live.keys().cloned().collect();
    let mut mix = Rng::new(s.seed, "mix");
    let mut next_name = shape.files;
    h.start_recording();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0usize;
    while Instant::now() < deadline {
        if op % 20 == 19 {
            let name = live[mix.below(live.len())].clone();
            h.scrub(&name);
            let name = live[mix.below(live.len())].clone();
            h.read(&name, Op::DegradedRead);
        } else {
            let u = mix.unit();
            let i = mix.below(live.len());
            if u < 0.5 {
                h.read(&live[i].clone(), Op::Read);
            } else if u < 0.75 {
                h.write(&live[i].clone(), content.next_u64());
            } else {
                h.delete(&live.swap_remove(i));
                let name = format!("f{next_name}");
                next_name += 1;
                h.write(&name, content.next_u64());
                live.push(name);
            }
        }
        op += 1;
    }
    h.stop_recording();
    h.check_store("measured");
    Outcome {
        harness: h,
        setup_s,
        metastore: metastore_of(kept_rep),
    }
}

/// `straggler-open`: 8 in-memory disks of identical nominal speed behind
/// a device model where every block read takes 300 µs except on disk 2,
/// a hidden straggler at 2.4 ms. 16 KiB blocks, 256 KiB objects at
/// redundancy 3 (K=16, N=64), 16 files, one warm-up read of each. Two
/// open-loop rates of Poisson arrivals, 100/s for 20/34 of the time and
/// 200/s for 10/34 (2,000 accesses each at 34 s), run as five rounds of
/// one phase per rate, so a burst of host noise spoils a round, not a
/// rate. The last 4/34 walk the files closed-loop: overwrite, degraded
/// read, scrub, and delete + re-create under a new name. They come last
/// because the ring's per-disk latency estimate also averages writes and
/// deletes, so a write burst before a phase would hide the straggler from
/// the adaptive reads for a while.
fn straggler_open(s: &Settings, trace: bool, seconds: f64, setups: usize) -> Outcome {
    let shape = if s.tiny {
        Shape {
            block_bytes: 16 << 10,
            object_bytes: 64 << 10,
            redundancy: 3.0,
            files: 4,
        }
    } else {
        Shape {
            block_bytes: 16 << 10,
            object_bytes: 256 << 10,
            redundancy: 3.0,
            files: 16,
        }
    };
    let delays: Vec<Duration> = (0..DISKS)
        .map(|d| Duration::from_micros(if d == STRAGGLER { 2_400 } else { 300 }))
        .collect();
    let config = SystemConfig {
        block_bytes: shape.block_bytes as u64,
        ..Default::default()
    };
    let metastore = config
        .metastore
        .clone()
        .expect("default config has a metastore");
    let mut content = contents(s.seed);
    let (mut h, setup_s) = timed_setups(
        setups,
        |_| {
            content = contents(s.seed);
            let backend: Box<dyn StorageBackend + Send> = Box::new(DelayBackend::new(
                Box::new(InMemoryBackend::uniform(DISKS, 50e6)),
                delays.clone(),
            ));
            let dep = Deployment::new(
                backend,
                config.clone(),
                shape.redundancy,
                shape.object_bytes,
                trace,
            );
            let mut h = Harness::new(dep, shape.object_bytes, s.seed);
            for f in 0..shape.files {
                h.write(&format!("s{f}"), content.next_u64());
            }
            for f in 0..shape.files {
                h.read(&format!("s{f}"), Op::Read);
            }
            h
        },
        |_| {},
    );
    h.check_store("set-up");

    let mut files: Vec<String> = h.live.keys().cloned().collect();
    let mut pick = Rng::new(s.seed, "access");
    let mut arrivals = Rng::new(s.seed, "arrivals");
    const ROUNDS: usize = 5;
    h.start_recording();
    for _ in 0..ROUNDS {
        for (rate, share) in [(100.0, 20.0 / 34.0), (200.0, 10.0 / 34.0)] {
            let count = ((rate * seconds * share / ROUNDS as f64).round() as usize).max(1);
            let names: Vec<String> = (0..count)
                .map(|_| files[pick.below(files.len())].clone())
                .collect();
            let offsets = poisson_offsets(&mut arrivals, count, rate, 0.0);
            h.open_loop(rate, &names, &offsets);
            h.check_store(&format!("open loop at {rate}/s"));
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 4.0 / 34.0);
    let first_new = files.len();
    for (turn, next_name) in (0..).zip(first_new..) {
        if turn > 0 && Instant::now() >= deadline {
            break;
        }
        let count = files.len();
        let name = &mut files[turn % count];
        h.write(name, content.next_u64());
        h.read(name, Op::DegradedRead);
        h.scrub(name);
        h.delete(name);
        *name = format!("s{next_name}");
        h.write(name, content.next_u64());
    }
    h.stop_recording();
    h.check_store("measured");
    Outcome {
        harness: h,
        setup_s,
        metastore,
    }
}

/// Remove a store directory if present.
pub fn remove_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).expect("store directory is removable");
    }
}
