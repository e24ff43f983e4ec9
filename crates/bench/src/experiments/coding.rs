//! Coding experiments: Table 5-1, Figure 4-1, Figures 5-1/5-2/5-3, and
//! the kernel benchmark behind them (`bench-coding`).

use std::time::Instant;

use rand::seq::SliceRandom;
use robustore_erasure::analysis::{
    coded_reassembly_cdf, lt_reassembly_mc, mean_blocks_needed, replication_reassembly_cdf,
};
use robustore_erasure::lt::{blocks_needed, LtCode, LtDecoder};
use robustore_erasure::{LtParams, ReedSolomon};
use robustore_simkit::report::Table;
use robustore_simkit::{OnlineStats, SeedSequence};

use crate::MASTER_SEED;

/// Table 5-1: Reed–Solomon encode/decode bandwidth for 16 MB of data at
/// K ∈ {4, 8, 16, 32}, N = 2K. The paper's numbers (2.4 GHz Xeon) show
/// bandwidth ∝ 1/K; the absolute level depends on the host CPU.
pub fn table5_1(_trials: u64) -> String {
    let mut table = Table::new(
        "Table 5-1: Reed-Solomon coding bandwidth, 16 MB data (paper: 2.4 GHz Xeon)",
        &["K", "N", "encode (MB/s)", "decode (MB/s)"],
    );
    const DATA: usize = 16 << 20;
    for k in [4usize, 8, 16, 32] {
        let n = 2 * k;
        let rs = ReedSolomon::new(k, n).expect("valid parameters");
        let block = DATA / k;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..block).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();

        // Wall-clock best-of-3: single timings on a shared host jitter
        // enough to scramble the K ordering the table exists to show.
        let (mut enc_bw, mut dec_bw) = (0f64, 0f64);
        for rep in 0..3 {
            let t = Instant::now();
            let coded = rs.encode(&data).expect("encode");
            enc_bw = enc_bw.max(DATA as f64 / t.elapsed().as_secs_f64() / 1e6);

            // Decode from the last K blocks (forces a real matrix solve).
            let rx: Vec<_> = (k..2 * k).map(|i| (i, coded[i].clone())).collect();
            let t = Instant::now();
            let decoded = rs.decode(&rx).expect("decode");
            dec_bw = dec_bw.max(DATA as f64 / t.elapsed().as_secs_f64() / 1e6);
            if rep == 0 {
                assert_eq!(decoded, data);
            }
        }

        table.row(vec![
            k.to_string(),
            n.to_string(),
            format!("{enc_bw:.1}"),
            format!("{dec_bw:.1}"),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nShape check: bandwidth should fall ~2x per K doubling (cost quadratic in K).\n",
    );
    out
}

/// Kernel benchmark: every coding kernel this CPU runs, timed on the
/// primitive ops at the RS and LT shapes; whole-code RS and LT bandwidth
/// at the dispatched kernel; and the CRC32C integrity kernel on each of
/// its tiers. Writes machine-readable rows to `BENCH_coding.json` —
/// schema `{kernel, code, k, encode_mbps, decode_mbps, host}` — alongside
/// the rendered table, so the speedup claims in `EXPERIMENTS.md` are
/// backed by same-host data. Row families:
///
/// * `rs-row`, `k` = K: one RS output row from K blocks of `16 MB / K`
///   bytes — `encode_mbps` is the encoder's Horner loop (`gf_scale` +
///   `xor_into` per source), `decode_mbps` the decoder's fused
///   `gf_axpy_multi` of K sources; rates count the K input blocks.
/// * `xor`, `k` = block bytes: 32 sources XORed into one block (the LT
///   encode and peel loop); both rate fields carry the same rate.
/// * `rs` / `lt`, `k` = K: whole-code encode and decode, at the kernel
///   `kernels::kernel()` dispatches to.
/// * `crc32c`, `k` = input bytes: a checksum has no inverse (the
///   write-side digest and the read-side verify run the same kernel), so
///   both rate fields carry the digest rate.
///
/// Every kernel's primitive output is asserted equal to the scalar
/// reference's. `--quick` (or `--trials 1`) shrinks the data sizes for CI
/// smoke runs.
pub fn bench_coding(trials: u64) -> String {
    use robustore_core::integrity::{crc32c_on, tier as crc_tier, Tier};
    use robustore_erasure::kernels::{gf_axpy_multi_on, gf_scale_on, xor_into_on};
    use robustore_erasure::{kernel, Block, BlockPool, Kernel};
    use std::hint::black_box;

    let quick = trials <= 1;
    // Wall-clock best-of: the host is shared, so single timings jitter by
    // ±15%; five reps reliably capture the uncontended rate.
    let reps = trials.clamp(1, 5);
    let rs_bytes: usize = if quick { 2 << 20 } else { 16 << 20 };
    let lt_block: usize = if quick { 4 << 10 } else { 64 << 10 };
    let budget: usize = if quick { 8 << 20 } else { 64 << 20 };
    let seq = SeedSequence::new(MASTER_SEED ^ 0xBE7C);
    let best = |mb: f64, f: &mut dyn FnMut()| -> f64 {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                mb / t.elapsed().as_secs_f64()
            })
            .fold(0f64, f64::max)
    };

    struct Row {
        kernel: &'static str,
        code: &'static str,
        k: usize,
        encode_mbps: f64,
        decode_mbps: f64,
    }
    let mut rows: Vec<Row> = Vec::new();

    // The kernels are measured back-to-back *within* each shape, not in
    // separate sweeps: host speed drifts on a minutes scale (this is a
    // shared machine), and a ratio of two measurements taken minutes
    // apart reflects the drift, not the code. A kernel the CPU cannot run
    // has no rows: absence means "not measurable here", never "zero".
    // Scalar comes first, so its outputs are the reference.
    let kernels: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.available()).collect();
    let dispatched = kernel();

    // Reed–Solomon rows: dense GF(256) arithmetic.
    for k in [4usize, 8, 16, 32] {
        let block = rs_bytes / k;
        let data: Vec<Block> = (0..k)
            .map(|i| (0..block).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let srcs: Vec<(u8, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, b)| ((i * 37 + 2) as u8, b.as_slice()))
            .collect();
        let x = 0x53; // an evaluation point
        let mb = rs_bytes as f64 / 1e6;
        let mut want: Option<(Block, Block)> = None;
        for &kern in &kernels {
            let mut enc_row = vec![0u8; block];
            let enc = best(mb, &mut || {
                enc_row.copy_from_slice(&data[k - 1]);
                for b in data[..k - 1].iter().rev() {
                    gf_scale_on(kern, &mut enc_row, x);
                    xor_into_on(kern, &mut enc_row, b);
                }
            });
            let mut dec_row = vec![0u8; block];
            let dec = best(mb, &mut || {
                dec_row.fill(0);
                gf_axpy_multi_on(kern, &mut dec_row, &srcs);
            });
            match &want {
                None => want = Some((enc_row, dec_row)),
                Some((e, d)) => assert!(
                    *e == enc_row && *d == dec_row,
                    "{} RS row diverges from the scalar reference at K={k}",
                    kern.name()
                ),
            }
            rows.push(Row {
                kernel: kern.name(),
                code: "rs-row",
                k,
                encode_mbps: enc,
                decode_mbps: dec,
            });
        }
    }

    // XOR rows: the store's block sizes (16 KiB small files, 1 MiB bulk)
    // and the LT rows' block size.
    const XOR_SOURCES: usize = 32;
    for len in [16usize << 10, 64 << 10, 1 << 20] {
        let srcs: Vec<Block> = (0..XOR_SOURCES)
            .map(|s| (0..len).map(|j| ((s * 7 + j * 13) % 251) as u8).collect())
            .collect();
        let iters = (budget / (XOR_SOURCES * len)).max(1);
        let mb = (iters * XOR_SOURCES * len) as f64 / 1e6;
        let mut want: Option<Block> = None;
        for &kern in &kernels {
            let mut acc = vec![0u8; len];
            let rate = best(mb, &mut || {
                for _ in 0..iters {
                    for s in &srcs {
                        xor_into_on(kern, &mut acc, black_box(s));
                    }
                }
            });
            match &want {
                None => want = Some(acc),
                Some(w) => assert!(
                    *w == acc,
                    "{} XOR diverges from the scalar reference at {len} bytes",
                    kern.name()
                ),
            }
            rows.push(Row {
                kernel: kern.name(),
                code: "xor",
                k: len,
                encode_mbps: rate,
                decode_mbps: rate,
            });
        }
    }

    // Whole-code Reed–Solomon at the dispatched kernel.
    for k in [4usize, 8, 16, 32] {
        let n = 2 * k;
        let rs = ReedSolomon::new(k, n).expect("valid parameters");
        let block = rs_bytes / k;
        let data: Vec<Block> = (0..k)
            .map(|i| (0..block).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let mb = rs_bytes as f64 / 1e6;
        let (mut enc, mut dec) = (0f64, 0f64);
        for rep in 0..reps {
            let t = Instant::now();
            let coded = rs.encode(&data).expect("encode");
            enc = enc.max(mb / t.elapsed().as_secs_f64());
            // Decode from the last K blocks (forces a real matrix solve).
            let rx: Vec<_> = (k..2 * k).map(|i| (i, coded[i].clone())).collect();
            let t = Instant::now();
            let decoded = rs.decode(&rx).expect("decode");
            dec = dec.max(mb / t.elapsed().as_secs_f64());
            if rep == 0 {
                assert_eq!(decoded, data);
            }
        }
        rows.push(Row {
            kernel: dispatched.name(),
            code: "rs",
            k,
            encode_mbps: enc,
            decode_mbps: dec,
        });
    }

    // Whole-code LT at the dispatched kernel: pure XOR. Coded buffers come
    // from a BlockPool and every one returns to it, so reps after the
    // first are allocation-free (the zero-copy receive path end to end).
    for k in [128usize, 256, 512, 1024] {
        let n = 3 * k;
        let code = LtCode::plan(k, n, LtParams::default(), seq.seed_for("lt-plan", k as u64))
            .expect("valid parameters");
        let data: Vec<Block> = (0..k)
            .map(|i| (0..lt_block).map(|j| ((i + j * 13) % 256) as u8).collect())
            .collect();
        let mb = (k * lt_block) as f64 / 1e6;
        let mut pool = BlockPool::new(lt_block);
        let (mut enc, mut dec) = (0f64, 0f64);
        for rep in 0..reps {
            let t = Instant::now();
            let mut coded: Vec<Option<Block>> = (0..n)
                .map(|j| {
                    let mut b = pool.get_scratch();
                    code.encode_block_into(&data, j, &mut b);
                    Some(b)
                })
                .collect();
            enc = enc.max(mb / t.elapsed().as_secs_f64());

            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("lt-order", (k as u64) << 8 | rep));
            let t = Instant::now();
            let mut ltdec = LtDecoder::new(&code, lt_block);
            for &j in &order {
                if ltdec.receive(j, coded[j].take().unwrap()) {
                    break;
                }
            }
            dec = dec.max(mb / t.elapsed().as_secs_f64());
            assert!(ltdec.is_complete());
            pool.put_all(ltdec.drain_spares());
            pool.put_all(coded.into_iter().flatten()); // never-fed blocks
            let decoded = ltdec.into_data().expect("complete");
            if rep == 0 {
                assert_eq!(decoded, data);
            }
            pool.put_all(decoded);
        }
        rows.push(Row {
            kernel: dispatched.name(),
            code: "lt",
            k,
            encode_mbps: enc,
            decode_mbps: dec,
        });
    }

    // CRC32C: every coded block is digested once on write and once per
    // read. Tiers interleave within each size, like the coding kernels.
    for len in [4usize << 10, 16 << 10, 1 << 20] {
        let data: Vec<u8> = (0..len).map(|j| ((j * 29 + 11) % 256) as u8).collect();
        let want = crc32c_on(Tier::Table, &data);
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            // The byte table is ~50x slower than the hardware tier; give
            // it a smaller budget so the run stays short.
            let tier_budget = if tier == Tier::Table {
                budget / 16
            } else {
                budget
            };
            let iters = (tier_budget / len).max(1);
            let rate = best((iters * len) as f64 / 1e6, &mut || {
                for _ in 0..iters {
                    assert_eq!(crc32c_on(tier, black_box(&data)), want);
                }
            });
            rows.push(Row {
                kernel: tier.name(),
                code: "crc32c",
                k: len,
                encode_mbps: rate,
                decode_mbps: rate,
            });
        }
    }

    let host = format!(
        "{}-{}-{}threads",
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"kernel\": \"{}\", \"code\": \"{}\", \"k\": {}, \
             \"encode_mbps\": {:.1}, \"decode_mbps\": {:.1}, \"host\": \"{}\"}}{}\n",
            r.kernel,
            r.code,
            r.k,
            r.encode_mbps,
            r.decode_mbps,
            host,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    let json_note = match std::fs::write("BENCH_coding.json", &json) {
        Ok(()) => "rows written to BENCH_coding.json".to_string(),
        Err(e) => format!("could not write BENCH_coding.json: {e}"),
    };

    let mut table = Table::new(
        format!(
            "Kernel benchmark: coding kernels per op, whole codes on the dispatched {} kernel, CRC32C tiers ({}, {} MB RS / {} KB LT blocks)",
            dispatched.name(),
            host,
            rs_bytes >> 20,
            lt_block >> 10
        ),
        &["code", "K", "kernel", "encode (MB/s)", "decode (MB/s)"],
    );
    for r in &rows {
        table.row(vec![
            r.code.into(),
            r.k.to_string(),
            r.kernel.into(),
            format!("{:.0}", r.encode_mbps),
            format!("{:.0}", r.decode_mbps),
        ]);
    }
    let mut out = table.render();
    let get = |code: &str, k: usize, kern: &str| {
        rows.iter()
            .find(|r| r.code == code && r.k == k && r.kernel == kern)
            .map_or((f64::NAN, f64::NAN), |r| (r.encode_mbps, r.decode_mbps))
    };
    out.push_str(
        "\nSpeedup over the scalar reference (same host, same inputs), encode / decode:\n",
    );
    for kern in kernels.iter().filter(|&&k| k != Kernel::Scalar) {
        let name = kern.name();
        let rs = |k: usize| {
            let ((se, sd), (e, d)) = (get("rs-row", k, "scalar"), get("rs-row", k, name));
            format!("{:.1}x / {:.1}x", e / se, d / sd)
        };
        let xor = |len: usize| get("xor", len, name).0 / get("xor", len, "scalar").0;
        out.push_str(&format!(
            "  {name}: RS row K=4 {}, K=32 {}; XOR 16 KiB {:.1}x, 64 KiB {:.1}x, 1 MiB {:.1}x\n",
            rs(4),
            rs(32),
            xor(16 << 10),
            xor(64 << 10),
            xor(1 << 20),
        ));
    }
    out.push_str(&format!(
        "Targets (vector over scalar): >=3x RS row decode at K=32 (got {:.1}x), \
         >=1.5x XOR at 64 KiB (got {:.1}x).\n",
        get("rs-row", 32, "vector").1 / get("rs-row", 32, "scalar").1,
        get("xor", 64 << 10, "vector").0 / get("xor", 64 << 10, "scalar").0,
    ));
    out.push_str(&format!(
        "The coding entry points dispatch to the {} kernel here; the rs and lt rows ran on it.\n",
        dispatched.name()
    ));
    let crc = |k: usize, kern: &str| get("crc32c", k, kern).0;
    let picked = crc_tier().name();
    out.push_str(&format!(
        "CRC32C dispatches to the {picked} tier here: {:.0} MB/s at 16 KiB, \
         {:.1}x the byte table, {:.1}x slice-by-8.\n",
        crc(16 << 10, picked),
        crc(16 << 10, picked) / crc(16 << 10, "table"),
        crc(16 << 10, picked) / crc(16 << 10, "slice8"),
    ));
    out.push_str(&format!("{json_note}\n"));
    out
}

/// Figure 4-1: cumulative probability of reassembling K=1024 originals
/// from the first M of 4096 stored blocks — plain replication (exact DP),
/// the idealised degree-5 erasure code (exact occupancy chain), and real
/// LT codes (Monte Carlo over graphs and orders).
pub fn fig4_1(trials: u64) -> String {
    const K: usize = 1024;
    const STORED: usize = 4 * K;
    let replication = replication_reassembly_cdf(K, 4);
    let coded = coded_reassembly_cdf(K, 5, STORED);
    let lt = lt_reassembly_mc(K, STORED, LtParams::default(), trials as usize, MASTER_SEED);

    let mut table = Table::new(
        "Figure 4-1: P(reassembly) after M of 4096 blocks, K=1024",
        &[
            "M",
            "replication (4 copies)",
            "ideal coded (degree 5)",
            "LT codes (measured)",
        ],
    );
    for m in (1280..=3584).step_by(256) {
        table.row(vec![
            m.to_string(),
            format!("{:.4}", replication[m]),
            format!("{:.4}", coded[m]),
            format!("{:.4}", lt[m]),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nmean blocks needed: replication {:.0}, ideal coded {:.0}, LT {:.0}  (paper: ~3K vs ~1.5K)\n",
        mean_blocks_needed(&replication),
        mean_blocks_needed(&coded),
        mean_blocks_needed(&lt),
    ));
    out
}

/// Survey of every implemented erasure code (§5.2.1's comparison, widened
/// to the full Chapter-2 palette): coding bandwidth and the blocks needed
/// to reconstruct under random arrivals, measured on real data.
pub fn coding_survey(trials: u64) -> String {
    use robustore_erasure::{RaptorCode, TornadoCode};

    let k = 64usize;
    let block = 64 << 10; // 4 MB of data
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..block).map(|j| ((i * 11 + j) % 256) as u8).collect())
        .collect();
    let seq = SeedSequence::new(MASTER_SEED ^ 0xC0DE);
    let reps = trials.clamp(1, 5);

    let mut table = Table::new(
        "Coding survey: 4 MB data, K=64 blocks (rates differ by design)",
        &[
            "code",
            "N",
            "encode (MB/s)",
            "blocks to decode (of N, random order)",
        ],
    );

    // Helper to time encoding.
    let mb = (k * block) as f64 / 1e6;
    let time_encode = |f: &mut dyn FnMut() -> usize| -> (f64, usize) {
        let t = Instant::now();
        let n = f();
        (mb / t.elapsed().as_secs_f64(), n)
    };

    // Reed–Solomon (optimal, any K of N).
    {
        let rs = ReedSolomon::new(k, 2 * k).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = rs.encode(&data).unwrap();
            coded.len()
        });
        table.row(vec![
            "Reed-Solomon".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{k} (optimal)"),
        ]);
    }
    // Improved LT.
    {
        let code = LtCode::plan(k, 4 * k, LtParams::default(), seq.seed_for("lt", 0)).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("lt-order", t));
            let (used, _) = blocks_needed(&code, order).unwrap();
            needed.push(used as f64);
        }
        table.row(vec![
            "LT (improved)".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    // Raptor.
    {
        let code = RaptorCode::plan(
            k,
            4 * k,
            0.1,
            LtParams::default(),
            seq.seed_for("raptor", 0),
        )
        .unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        // Find blocks-needed by bisection over prefix length of a random order.
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("raptor-order", t));
            let mut used = n;
            for take in k..=n {
                let rx: Vec<_> = order[..take]
                    .iter()
                    .map(|&j| (j, coded[j].clone()))
                    .collect();
                if code.decode(&rx).is_ok() {
                    used = take;
                    break;
                }
            }
            needed.push(used as f64);
        }
        table.row(vec![
            "Raptor".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    // Tornado (fixed rate 1-beta = 0.5).
    {
        let code = TornadoCode::new(k, 0.5, seq.seed_for("tornado", 0)).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("tornado-order", t));
            let mut used = n;
            for take in k..=n {
                let rx: Vec<_> = order[..take]
                    .iter()
                    .map(|&j| (j, coded[j].clone()))
                    .collect();
                if code.decode(&rx).is_ok() {
                    used = take;
                    break;
                }
            }
            needed.push(used as f64);
        }
        table.row(vec![
            "Tornado".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\n§5.2.1's trade-offs on display: RS is reception-optimal but slow and rate-capped; \
         the XOR-graph codes encode at memory speed and pay 20-60% reception overhead; \
         Tornado is fixed-rate while LT/Raptor are rateless.\n",
    );
    out
}

/// The (C, δ) grid swept in Figures 5-1/5-2.
const C_GRID: [f64; 4] = [0.1, 0.5, 1.0, 2.0];
const DELTA_GRID: [f64; 4] = [0.01, 0.1, 0.5, 0.9];

fn lt_grid_stats(
    k: usize,
    c: f64,
    delta: f64,
    trials: u64,
    seq: &SeedSequence,
) -> (OnlineStats, OnlineStats) {
    let params = LtParams {
        c,
        delta,
        ..Default::default()
    };
    let n = 3 * k; // ample blocks so decoding always completes
    let mut overhead = OnlineStats::new();
    let mut edges = OnlineStats::new();
    let mut order: Vec<usize> = (0..n).collect();
    for t in 0..trials {
        let code = LtCode::plan(k, n, params, seq.seed_for("plan", t)).expect("valid params");
        let mut rng = seq.fork("order", t);
        order.shuffle(&mut rng);
        let (needed, e) = blocks_needed(&code, order.iter().copied()).expect("full set decodes");
        overhead.push(needed as f64 / k as f64 - 1.0);
        edges.push(e as f64);
    }
    (overhead, edges)
}

/// Figure 5-1: mean LT reception overhead and its relative standard
/// deviation across the (C, δ) grid for K ∈ {128, 512, 1024}.
pub fn fig5_1(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x51);
    let mut table = Table::new(
        "Figure 5-1: LT reception overhead (mean / relative stdev)",
        &["K", "C", "delta", "overhead", "rel stdev"],
    );
    for k in [128usize, 512, 1024] {
        for &c in &C_GRID {
            for &d in &DELTA_GRID {
                let (oh, _) =
                    lt_grid_stats(k, c, d, trials, &seq.subsequence("cell", (k as u64) << 8));
                table.row(vec![
                    k.to_string(),
                    format!("{c}"),
                    format!("{d}"),
                    format!("{:.3}", oh.mean()),
                    format!("{:.3}", oh.relative_stdev()),
                ]);
            }
        }
    }
    let mut out = table.render();
    out.push_str("\nPaper: good (C, delta) settings reach overhead 0.3-0.5; e.g. K=1024, C=1, delta=0.1 -> ~0.5.\n");
    out
}

/// Figure 5-2: mean edges used during decoding (XOR-cost proxy) and its
/// relative stdev, K = 1024.
pub fn fig5_2(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x52);
    let k = 1024usize;
    let mut table = Table::new(
        "Figure 5-2: edges used in LT decoding, K=1024 (mean / relative stdev)",
        &["C", "delta", "edges", "edges/K", "rel stdev"],
    );
    for &c in &C_GRID {
        for &d in &DELTA_GRID {
            let (_, edges) = lt_grid_stats(
                k,
                c,
                d,
                trials,
                &seq.subsequence("cell", (c * 100.0) as u64),
            );
            table.row(vec![
                format!("{c}"),
                format!("{d}"),
                format!("{:.0}", edges.mean()),
                format!("{:.1}", edges.mean() / k as f64),
                format!("{:.3}", edges.relative_stdev()),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(
        "\nPaper: small delta / large C cost fewer edges (less CPU) but more reception overhead.\n",
    );
    out
}

/// Figure 5-3: actual decoding bandwidth (wall clock, real block data)
/// and reception overhead for representative (C, δ) points, K = 1024.
pub fn fig5_3(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x53);
    let k = 1024usize;
    let block = 64 << 10; // 64 MB decoded per measurement
    let mut table = Table::new(
        "Figure 5-3: LT decoding bandwidth vs reception overhead, K=1024, 64 MB data",
        &["C", "delta", "decode (MB/s)", "reception overhead"],
    );
    for (c, d) in [(0.5, 0.5), (1.0, 0.5), (1.0, 0.1), (2.0, 0.1), (2.0, 0.01)] {
        let params = LtParams {
            c,
            delta: d,
            ..Default::default()
        };
        let n = 3 * k;
        let mut bw = OnlineStats::new();
        let mut oh = OnlineStats::new();
        let reps = trials.clamp(1, 5); // wall-clock measurement; few reps suffice
        for t in 0..reps {
            let code = LtCode::plan(k, n, params, seq.seed_for("plan", t)).expect("params");
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..block).map(|j| ((i + j) % 256) as u8).collect())
                .collect();
            let coded = code.encode(&data).expect("encode");
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = seq.fork("order", t);
            order.shuffle(&mut rng);

            let start = Instant::now();
            let mut dec = LtDecoder::new(&code, block);
            let mut used = 0usize;
            for &j in &order {
                used += 1;
                if dec.receive(j, coded[j].clone()) {
                    break;
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            assert!(dec.is_complete());
            bw.push((k * block) as f64 / elapsed / 1e6);
            oh.push(used as f64 / k as f64 - 1.0);
        }
        table.row(vec![
            format!("{c}"),
            format!("{d}"),
            format!("{:.0}", bw.mean()),
            format!("{:.2}", oh.mean()),
        ]);
    }
    let mut out = table.render();
    out.push_str("\nPaper (2.8 GHz Opteron): ~394 MB/s at C=1, delta=0.1 with ~0.5 overhead; ~550 MB/s at C=2, delta=0.01.\n");
    out
}
