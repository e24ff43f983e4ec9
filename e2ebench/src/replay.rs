//! Layer replays for the traced run. Each replays, outside the system,
//! work the workload's own ops did, with inputs taken from that run's
//! metadata and reports: CRC32C at the workload's block size, LT coding
//! on the files' own `CodingSpec`s and layouts, and metadata commits of
//! the files' own `FileMeta`s into a scratch `Metastore` of the same
//! configuration.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use robustore_core::{crc32c, AccessMode, FileMeta, Metastore, MetastoreConfig};
use robustore_erasure::LtCode;

use crate::gen::fill_payload;
use crate::stats::median;

/// CRC32C throughput in bytes/second, measured over `min(total, cap)`
/// bytes in blocks of `block_bytes`.
pub fn crc_rate(block_bytes: usize, total: u64) -> f64 {
    const CAP: u64 = 48 << 20;
    let mut block = vec![0u8; block_bytes];
    fill_payload(block_bytes as u64, &mut block);
    let rounds = (total.min(CAP) / block_bytes as u64).max(4);
    let start = Instant::now();
    let mut acc = 0u32;
    for i in 0..rounds {
        block[0] = i as u8;
        acc ^= crc32c(black_box(&block));
    }
    black_box(acc);
    (rounds * block_bytes as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Median seconds of `LtCode::plan` + `encode`, and of `LtCode::plan` +
/// `decode` from the file's coded blocks in layout round-robin order
/// (the order a read fetching one block per disk in turn sees them).
pub fn coding(meta: &FileMeta) -> (f64, f64) {
    let spec = &meta.coding;
    let block_len = spec.block_bytes as usize;
    let mut data: Vec<Vec<u8>> = vec![vec![0u8; block_len]; spec.k];
    for (i, b) in data.iter_mut().enumerate() {
        fill_payload(spec.seed ^ i as u64, b);
    }
    let order = round_robin(meta);
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed).expect("spec planned once");
        let coded = code.encode(black_box(&data)).expect("k data blocks");
        encode.push(start.elapsed().as_secs_f64());
        let mut coded: Vec<Option<Vec<u8>>> = coded.into_iter().map(Some).collect();
        let received: Vec<(usize, Vec<u8>)> = order
            .iter()
            .map(|&j| (j, coded[j].take().expect("layout ids are distinct")))
            .collect();
        let start = Instant::now();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed).expect("spec planned once");
        let out = code
            .decode(black_box(received))
            .expect("full layout decodes");
        decode.push(start.elapsed().as_secs_f64());
        assert_eq!(out, data, "replayed decode returns the encoded data");
    }
    (median(&encode), median(&decode))
}

/// Coded ids in layout order, one per disk in turn.
fn round_robin(meta: &FileMeta) -> Vec<usize> {
    let deepest = meta
        .layout
        .iter()
        .map(|(_, ids)| ids.len())
        .max()
        .unwrap_or(0);
    (0..deepest)
        .flat_map(|r| meta.layout.iter().filter_map(move |(_, ids)| ids.get(r)))
        .map(|&id| id as usize)
        .collect()
}

/// Median seconds of one `Metastore::commit` of each meta in `metas`
/// (open for write, commit, close) into a fresh store built from
/// `config`, placed under `dir` when the config is file-backed.
pub fn commit(config: &MetastoreConfig, metas: &[FileMeta], dir: &Path) -> f64 {
    let mut config = config.clone();
    if config.dir.is_some() {
        config.dir = Some(dir.to_path_buf());
    }
    let mut store = Metastore::new(config).expect("scratch metastore opens");
    let mut times = Vec::with_capacity(metas.len());
    for meta in metas {
        store
            .open(&meta.name, AccessMode::Write)
            .expect("scratch metastore has no competing lock");
        let start = Instant::now();
        store.commit(meta.clone()).expect("scratch commit");
        times.push(start.elapsed().as_secs_f64());
        store.close(&meta.name, AccessMode::Write);
    }
    median(&times)
}
