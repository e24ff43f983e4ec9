//! Metric definitions and their computation from finished runs.
//!
//! The names and units here are the benchmark's contract: they must match
//! `BENCHMARK.json` (the self-test checks that).

use std::path::Path;

use crate::device::DeviceTotals;
use crate::harness::{Harness, Op, OpRecord};
use crate::replay;
use crate::stats::{median, quantile, reportable_tail, windowed_median};
use crate::workloads::Outcome;

/// End-to-end metrics, measured untraced, reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("degraded_read_p50_ms", "ms"),
    ("scrub_p50_ms", "ms"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics of the traced run, named by module.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("integrity.bytes", "bytes"),
    ("integrity.crc_s", "s"),
    ("integrity.crc_MBps", "MB/s"),
    ("integrity.crc_frac.write", "ratio"),
    ("erasure.encode_s", "s"),
    ("erasure.decode_s", "s"),
    ("erasure.encode_MBps", "MB/s"),
    ("erasure.decode_MBps", "MB/s"),
    ("erasure.reception_overhead", "ratio"),
    ("pool.fresh_allocs", "count"),
    ("pool.reuses", "count"),
    ("pool.reuse_frac", "ratio"),
    ("backend.read_ops", "count"),
    ("backend.read_busy_s", "s"),
    ("backend.write_ops", "count"),
    ("backend.write_batches", "count"),
    ("backend.write_busy_s", "s"),
    ("backend.delete_ops", "count"),
    ("backend.delete_busy_s", "s"),
    ("backend.used_calls", "count"),
    ("backend.used_busy_s", "s"),
    ("backend.used_calls_min_per_write", "count"),
    ("backend.bytes_written_per_user_byte", "ratio"),
    ("backend.busy_frac.straggler", "ratio"),
    ("backend.busy_frac.fast_max", "ratio"),
    ("ring.serviced_per_read", "count"),
    ("ring.useful_frac", "ratio"),
    ("ring.cancelled_per_read", "count"),
    ("ring.deferred_per_read", "count"),
    ("ring.waves_per_read", "count"),
    ("ring.late_ms", "ms"),
    ("ring.straggler_ewma_us", "us"),
    ("metastore.open_us", "us"),
    ("metastore.close_us", "us"),
    ("metastore.commit_us", "us"),
    ("scrub.blocks_verified", "count"),
    ("scrub.blocks_restored", "count"),
    ("read.blocks_repaired", "count"),
    ("read.blocks_missing", "count"),
    ("client.unattributed_frac.write", "ratio"),
    ("client.unattributed_frac.read", "ratio"),
    ("client.unattributed_frac.degraded_read", "ratio"),
    ("client.unattributed_frac.delete", "ratio"),
    ("client.unattributed_frac.scrub", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// A computed metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn with_units(table: &[(&'static str, &'static str)], values: Vec<(&str, f64)>) -> Vec<Metric> {
    assert_eq!(values.len(), table.len(), "one value per defined metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), (got, value))| {
            assert_eq!(name, got, "metrics computed in definition order");
            (name.to_string(), value, unit)
        })
        .collect()
}

/// Median clean-read latency in milliseconds: per load level, then the
/// mean over levels. Closed-loop reads (op wall times) are one level,
/// summarised by `windowed_median`. Each open-loop rate is a level run as
/// several rounds; its latency (from the due time) is the median over
/// rounds of each round's median, so a burst of host noise that spoils a
/// minority of the rounds does not move it.
fn read_p50_ms(h: &Harness) -> f64 {
    let mut levels = Vec::new();
    if !h.op(Op::Read).wall_s.is_empty() {
        levels.push(p50_ms(h, Op::Read));
    }
    for rate in open_loop_rates(h) {
        let rounds: Vec<f64> = (h.phases.iter().filter(|p| p.rate == rate))
            .map(|p| median(&p.latency_ms))
            .collect();
        levels.push(median(&rounds));
    }
    levels.iter().sum::<f64>() / levels.len() as f64
}

/// The distinct open-loop rates, ascending.
fn open_loop_rates(h: &Harness) -> Vec<f64> {
    let mut rates: Vec<f64> = h.phases.iter().map(|p| p.rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    rates
}

/// An op kind's median wall time in milliseconds (`windowed_median`).
fn p50_ms(h: &Harness, op: Op) -> f64 {
    windowed_median(&h.op(op).wall_s) * 1e3
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let h = &o.harness;
    with_units(
        &END_TO_END,
        vec![
            ("setup_s", median(&o.setup_s)),
            ("write_p50_ms", p50_ms(h, Op::Write)),
            ("read_p50_ms", read_p50_ms(h)),
            ("degraded_read_p50_ms", p50_ms(h, Op::DegradedRead)),
            ("scrub_p50_ms", p50_ms(h, Op::Scrub)),
            ("space_amp", h.space_amp()),
        ],
    )
}

/// Human-readable detail of a run, printed before the result line: per-op
/// sample counts, medians, the highest tail percentile with ten samples
/// beyond it, per-op MB/s, and each open-loop phase. Not gated.
pub fn detail(o: &Outcome) -> String {
    let h = &o.harness;
    let mut parts = Vec::new();
    for op in Op::ALL {
        let ms: Vec<f64> = h.op(op).wall_s.iter().map(|s| s * 1e3).collect();
        if ms.is_empty() {
            continue;
        }
        let p50 = median(&ms);
        let tail = reportable_tail(&ms).map_or(String::new(), |(p, v)| format!(" p{p}={v:.3}ms"));
        let mbps = h.object_bytes as f64 / 1e6 / (p50 / 1e3);
        parts.push(format!(
            "{}: n={} p50={p50:.3}ms{tail} ({mbps:.1} MB/s per op)",
            op.name(),
            ms.len()
        ));
    }
    for rate in open_loop_rates(h) {
        let phases: Vec<_> = h.phases.iter().filter(|p| p.rate == rate).collect();
        let ms: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.latency_ms.iter().copied())
            .collect();
        let tail = reportable_tail(&ms).map_or(String::new(), |(q, v)| format!(" p{q}={v:.3}ms"));
        let late = phases.iter().map(|p| p.late_ms).fold(0.0, f64::max);
        let rounds: Vec<String> = (phases.iter())
            .map(|p| format!("{:.3}", median(&p.latency_ms)))
            .collect();
        parts.push(format!(
            "open loop {rate}/s: n={} p50={:.3}ms p95={:.3}ms{tail} max late={late:.1}ms; \
             p50 per round [{}]ms",
            ms.len(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.95),
            rounds.join(", "),
        ));
    }
    if !h.phases.is_empty() {
        let ewma: Vec<f64> = h
            .phases
            .iter()
            .map(|p| p.straggler_ewma_us.round())
            .collect();
        parts.push(format!(
            "straggler latency estimate after each phase {ewma:?} us, at the end {:.0} us",
            h.straggler_ewma_us()
        ));
    }
    parts.push(format!(
        "setup: {:?}s; {} ops attempted, {} failed; {} loss draws redrawn as undecodable; \
         {} degraded reads met no lost block and left their file short",
        o.setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        h.attempted,
        h.failed,
        h.lost_draws,
        h.short_reads
    ));
    parts.join("\n# ")
}

/// Device work over every recorded op and open-loop phase.
fn device_total(h: &Harness) -> DeviceTotals {
    let mut t = DeviceTotals::default();
    for op in Op::ALL {
        t.add(&h.op(op).device);
    }
    for p in &h.phases {
        t.add(&p.device);
    }
    t
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics: `traced` ran with the `TimedBackend`;
/// `base_sequence` is the op sequence of the untraced run of the same
/// seed, for the tracing overhead.
/// `scratch` holds the metastore replay.
pub fn per_layer(base_sequence: &[(Op, f64)], traced: &Outcome, scratch: &Path) -> Vec<Metric> {
    let h = &traced.harness;
    let dev = device_total(h);
    let block = h.dep.block_bytes as f64;
    let object = h.object_bytes as f64;

    // CRC32C runs on every block written and on every fetched block that
    // reaches verification (serviced-then-cancelled reads never do).
    let crc_blocks = |r: &OpRecord| r.device.write_ops + r.verified_blocks;
    let checksummed_blocks = Op::ALL.iter().map(|&op| crc_blocks(h.op(op))).sum::<u64>()
        + (h.phases.iter())
            .map(|p| p.device.write_ops + p.verified_blocks)
            .sum::<u64>();
    let checksummed = checksummed_blocks as f64 * block;
    let crc_rate = replay::crc_rate(h.dep.block_bytes, checksummed as u64);
    let crc_s = |r: &OpRecord| crc_blocks(r) as f64 * block / crc_rate;

    let meta = h.metas.last().expect("every workload writes");
    let (encode_s, decode_s) = replay::coding(meta);
    let commit_s = replay::commit(
        &traced.metastore,
        &h.metas,
        &scratch.join("metastore-replay"),
    );
    let k = meta.coding.k as f64;

    let count = |op: Op| h.op(op).wall_s.len() as f64;
    let decodes = h.reads.reads as f64 + count(Op::Scrub);
    let writes = count(Op::Write);

    // Layer seconds per op kind: CRC and coding replayed, device time in
    // place (wall time with any disk busy), metadata open/close timed in
    // place and commits replayed.
    let unattributed = |op: Op| {
        let r = h.op(op);
        let wall: f64 = r.wall_s.iter().sum();
        if wall == 0.0 {
            return 0.0;
        }
        let n = r.wall_s.len() as f64;
        let coding = match op {
            Op::Write => encode_s * n,
            Op::Read | Op::DegradedRead | Op::Scrub => decode_s * n,
            Op::Delete => 0.0,
        };
        let commits = match op {
            Op::Write | Op::Delete | Op::Scrub => commit_s * n,
            Op::Read | Op::DegradedRead => 0.0,
        };
        let meta: f64 = r.open_s.iter().chain(&r.close_s).sum::<f64>() + commits;
        1.0 - (crc_s(r) + coding + r.device.union_s + meta) / wall
    };

    let reads = h.reads.reads as f64;
    let read_dev = {
        let mut d = h.op(Op::Read).device.clone();
        d.add(&h.op(Op::DegradedRead).device);
        for p in &h.phases {
            d.add(&p.device);
        }
        d
    };
    let serviced_per_read = ratio(read_dev.read_ops as f64, reads);
    let wall = h.recorded_s();
    let straggler = crate::workloads::STRAGGLER;
    let fast_max = (dev.busy_s.iter().enumerate())
        .filter(|&(d, _)| d != straggler)
        .map(|(_, &b)| b)
        .fold(0.0, f64::max);
    // Open-loop runs sample the estimate as each phase ends, before the
    // closed-loop writes that follow can pull it down.
    let ewma = if h.phases.is_empty() {
        h.straggler_ewma_us()
    } else {
        median(
            &h.phases
                .iter()
                .map(|p| p.straggler_ewma_us)
                .collect::<Vec<_>>(),
        )
    };
    let (fresh, reuses) = (h.pool.1 .0 - h.pool.0 .0, h.pool.1 .1 - h.pool.0 .1);
    let opens: Vec<f64> = [Op::Write, Op::Read, Op::DegradedRead]
        .iter()
        .flat_map(|&op| h.op(op).open_s.iter().copied())
        .collect();
    let closes: Vec<f64> = [Op::Write, Op::Read, Op::DegradedRead]
        .iter()
        .flat_map(|&op| h.op(op).close_s.iter().copied())
        .collect();
    let write = h.op(Op::Write);

    with_units(
        &PER_LAYER,
        vec![
            ("integrity.bytes", checksummed),
            ("integrity.crc_s", checksummed / crc_rate),
            ("integrity.crc_MBps", crc_rate / 1e6),
            (
                "integrity.crc_frac.write",
                ratio(crc_s(write), write.wall_s.iter().sum()),
            ),
            ("erasure.encode_s", encode_s * writes),
            ("erasure.decode_s", decode_s * decodes),
            ("erasure.encode_MBps", object / encode_s / 1e6),
            ("erasure.decode_MBps", object / decode_s / 1e6),
            (
                "erasure.reception_overhead",
                ratio(h.reads.overhead_sum, reads),
            ),
            ("pool.fresh_allocs", fresh as f64),
            ("pool.reuses", reuses as f64),
            (
                "pool.reuse_frac",
                ratio(reuses as f64, (fresh + reuses) as f64),
            ),
            ("backend.read_ops", dev.read_ops as f64),
            ("backend.read_busy_s", dev.read_s),
            ("backend.write_ops", dev.write_ops as f64),
            ("backend.write_batches", dev.write_batches as f64),
            ("backend.write_busy_s", dev.write_s),
            ("backend.delete_ops", dev.delete_ops as f64),
            ("backend.delete_busy_s", dev.delete_s),
            ("backend.used_calls", dev.used_calls as f64),
            ("backend.used_busy_s", dev.used_s),
            (
                "backend.used_calls_min_per_write",
                write.used_calls_min.unwrap_or(0) as f64,
            ),
            (
                "backend.bytes_written_per_user_byte",
                ratio(dev.write_ops as f64 * block, write.user_bytes as f64),
            ),
            (
                "backend.busy_frac.straggler",
                ratio(dev.busy_s.get(straggler).copied().unwrap_or(0.0), wall),
            ),
            ("backend.busy_frac.fast_max", ratio(fast_max, wall)),
            ("ring.serviced_per_read", serviced_per_read),
            ("ring.useful_frac", ratio(k, serviced_per_read)),
            (
                "ring.cancelled_per_read",
                ratio(h.reads.cancelled as f64, reads),
            ),
            (
                "ring.deferred_per_read",
                ratio(h.reads.deferred as f64, reads),
            ),
            ("ring.waves_per_read", ratio(h.reads.waves as f64, reads)),
            (
                "ring.late_ms",
                h.phases.iter().map(|p| p.late_ms).fold(0.0, f64::max),
            ),
            ("ring.straggler_ewma_us", ewma),
            ("metastore.open_us", median(&opens) * 1e6),
            ("metastore.close_us", median(&closes) * 1e6),
            ("metastore.commit_us", commit_s * 1e6),
            ("scrub.blocks_verified", h.scrub_verified as f64),
            ("scrub.blocks_restored", h.scrub_restored as f64),
            ("read.blocks_repaired", h.reads.repaired as f64),
            ("read.blocks_missing", h.reads.missing as f64),
            ("client.unattributed_frac.write", unattributed(Op::Write)),
            ("client.unattributed_frac.read", unattributed(Op::Read)),
            (
                "client.unattributed_frac.degraded_read",
                unattributed(Op::DegradedRead),
            ),
            ("client.unattributed_frac.delete", unattributed(Op::Delete)),
            ("client.unattributed_frac.scrub", unattributed(Op::Scrub)),
            ("trace.overhead_frac", overhead(base_sequence, &h.sequence)),
        ],
    )
}

/// Traced vs untraced wall time over the ops both runs issued (the same
/// seeded sequence, so the common prefix is the same work).
fn overhead(base: &[(Op, f64)], traced: &[(Op, f64)]) -> f64 {
    let (mut b, mut t) = (0.0, 0.0);
    for (x, y) in base.iter().zip(traced) {
        assert_eq!(x.0, y.0, "same seed, same op sequence");
        b += x.1;
        t += y.1;
    }
    ratio(t, b) - 1.0
}
