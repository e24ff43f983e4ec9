//! Reference-model checks shared by the integration suites.

use std::collections::BTreeMap;

use robustore::core::{crc32c, System};
use robustore::erasure::LtCode;

/// Assert that the committed state of `sys` is exactly what the in-test
/// `model` (file name → plain bytes) predicts:
///
/// * the namespace lists exactly the model's files;
/// * every block of every committed layout holds the LT re-encode of the
///   model's bytes, under the CRC32C its metadata records;
/// * `total_used()` equals committed blocks × block size — no orphans.
pub fn assert_committed_state_matches(sys: &System, model: &BTreeMap<String, Vec<u8>>) {
    let live: Vec<String> = model.keys().cloned().collect();
    assert_eq!(sys.list_files(), live, "namespace diverged from the model");
    let mut committed_bytes = 0u64;
    for (name, bytes) in model {
        let meta = sys.export_meta(name).expect("model file is committed");
        let spec = &meta.coding;
        assert_eq!(meta.size_bytes, bytes.len() as u64, "{name}: size");
        let block_len = spec.block_bytes as usize;
        let originals: Vec<Vec<u8>> = (0..spec.k)
            .map(|i| {
                let start = (i * block_len).min(bytes.len());
                let end = ((i + 1) * block_len).min(bytes.len());
                let mut block = bytes[start..end].to_vec();
                block.resize(block_len, 0);
                block
            })
            .collect();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed).expect("committed code");
        for (disk, ids) in &meta.layout {
            for &id in ids {
                let stored = sys
                    .stored_block(*disk, meta.block_key(id))
                    .unwrap_or_else(|e| panic!("{name}: block {id} on disk {disk}: {e}"));
                assert!(
                    stored == code.encode_block(&originals, id as usize),
                    "{name}: block {id} on disk {disk} is not the model's re-encode"
                );
                assert_eq!(
                    meta.checksums.get(&id),
                    Some(&crc32c(&stored)),
                    "{name}: block {id} checksum"
                );
            }
        }
        committed_bytes += meta.stored_blocks() as u64 * spec.block_bytes;
    }
    assert_eq!(sys.total_used(), committed_bytes, "orphan blocks on disk");
}
