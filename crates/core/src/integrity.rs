//! End-to-end block integrity: CRC32C over coded block bytes.
//!
//! Every coded block written by the client is checksummed and the digest
//! stored in [`crate::FileMeta::checksums`]; every block fetched by the
//! read path is re-checksummed before it reaches the decoder, so silent
//! corruption (bit rot, misdirected writes, torn reads) is demoted to a
//! *missing* block the rateless decoder simply routes around. [`check`]
//! is the one acceptance gate the read path, the read-repair audit and
//! the scrubber share.
//!
//! CRC32C (Castagnoli polynomial, reflected `0x82F63B78`) is the
//! standard storage-integrity checksum (iSCSI, ext4, Btrfs): its error
//! detection is strong for single-burst and low-weight errors. Every
//! coded block passes the kernel once on write and once per read, so
//! with fast disks it sits on the critical path of bulk transfers; a
//! byte-at-a-time table (~0.3 GB/s) dominated 99% of an in-memory bulk
//! write. [`crc32c`] therefore dispatches at runtime to the fastest
//! [`Tier`] the CPU supports:
//!
//! * **SSE4.2** (x86_64) — the `crc32` instruction, 8 bytes per step.
//!   It has a 3-cycle latency but issues once per cycle, so inputs of at
//!   least three 1 KiB strides run as three independent streams over
//!   adjacent strides and the partial CRCs are stitched together with a
//!   precomputed "append one stride of zero bytes" operator
//!   (a linear map on the 32-bit register, split into four byte
//!   tables) — no carry-less multiply needed. Shorter inputs and tails
//!   run the single-stream loop.
//! * **Slice-by-8** — the portable fallback: eight 256-entry tables fold
//!   8 input bytes per step.
//! * **Table** — the classic byte-at-a-time loop. Never dispatched to;
//!   it is the reference the other tiers are tested against, the
//!   slice-by-8 tail loop, and the baseline row of `xp bench-coding`.
//!
//! All tiers produce bit-identical digests, so stored checksums, WAL
//! frames and existing stores do not depend on the host that wrote them.
//! The tables are built in `const` fns, so no tier carries init-time or
//! locking cost.

/// The reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables. `TABLES[0]` is the classic one-byte table;
/// `TABLES[k][b]` is the register contribution of byte `b` followed by
/// `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes per stream in the hardware tier's three-way interleave. On the
/// 2-core x86_64 reference host 1 KiB beat 512 B, 2 KiB and 4 KiB from
/// 4 KiB to 1 MiB inputs (`xp bench-coding` crc32c rows).
const STRIDE: usize = 1024;

/// The "append [`STRIDE`] zero bytes" register operator, one 256-entry
/// table per register byte (the operator is linear over GF(2)).
#[cfg(target_arch = "x86_64")]
const SHIFT_STRIDE: [[u32; 256]; 4] = build_shift(STRIDE);

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Tables for the register operator "process `n` zero bytes": column
/// `j` is the image of register bit `j`, and each byte table XORs the
/// columns of its set bits.
#[cfg(target_arch = "x86_64")]
const fn build_shift(n: usize) -> [[u32; 256]; 4] {
    let mut column = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut reg = 1u32 << bit;
        let mut step = 0;
        while step < n {
            reg = (reg >> 8) ^ TABLES[0][(reg & 0xFF) as usize];
            step += 1;
        }
        column[bit] = reg;
        bit += 1;
    }
    let mut out = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            let mut acc = 0u32;
            let mut j = 0;
            while j < 8 {
                if v & (1 << j) != 0 {
                    acc ^= column[8 * byte + j];
                }
                j += 1;
            }
            out[byte][v] = acc;
            v += 1;
        }
        byte += 1;
    }
    out
}

/// A CRC32C implementation. All tiers are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Byte-at-a-time table: the reference.
    Table,
    /// Portable slice-by-8.
    Slice8,
    /// x86_64 SSE4.2 `crc32`, three interleaved streams.
    Sse42,
}

impl Tier {
    /// Every tier, slowest first.
    pub const ALL: [Tier; 3] = [Tier::Table, Tier::Slice8, Tier::Sse42];

    /// Short stable name (bench rows, test messages).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Table => "table",
            Tier::Slice8 => "slice8",
            Tier::Sse42 => "sse42",
        }
    }

    /// True when this CPU can run the tier.
    pub fn available(self) -> bool {
        match self {
            Tier::Table | Tier::Slice8 => true,
            Tier::Sse42 => sse42_detected(),
        }
    }
}

fn sse42_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The tier [`crc32c`] dispatches to on this CPU.
pub fn tier() -> Tier {
    if sse42_detected() {
        Tier::Sse42
    } else {
        Tier::Slice8
    }
}

/// CRC32C digest of `data` (full init/finalize in one call), on the
/// fastest tier this CPU supports.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_on(tier(), data).expect("tier() only picks tiers this CPU runs")
}

/// CRC32C digest of `data` on a specific tier; `None` when this CPU
/// cannot run it.
pub fn crc32c_on(tier: Tier, data: &[u8]) -> Option<u32> {
    let reg = match tier {
        Tier::Table => table_update(!0, data),
        Tier::Slice8 => slice8_update(!0, data),
        #[cfg(target_arch = "x86_64")]
        Tier::Sse42 if sse42_detected() => {
            // SAFETY: the CPU supports SSE4.2, checked by the guard.
            unsafe { sse42_update(!0, data) }
        }
        Tier::Sse42 => return None,
    };
    Some(!reg)
}

/// Advance the raw (non-inverted) register over `data`, one byte per
/// step.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Advance the raw register over `data`, eight bytes per step.
fn slice8_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    table_update(crc, words.remainder())
}

/// The raw register after appending [`STRIDE`] zero bytes to `crc`.
#[cfg(target_arch = "x86_64")]
fn shift_stride(crc: u32) -> u32 {
    SHIFT_STRIDE[0][(crc & 0xFF) as usize]
        ^ SHIFT_STRIDE[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT_STRIDE[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT_STRIDE[3][(crc >> 24) as usize]
}

#[cfg(target_arch = "x86_64")]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// Advance the raw register over `data` with the SSE4.2 `crc32`
/// instruction.
///
/// The register update is affine: processing `A‖B` from state `s` gives
/// `zeros(|B|)(state after A) ^ (B processed from 0)`. So each `3·STRIDE`
/// chunk runs as three independent streams — the first from the running
/// state, the other two from zero — and is stitched with two applications
/// of [`shift_stride`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_update(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = crc;
    let mut groups = data.chunks_exact(3 * STRIDE);
    for group in &mut groups {
        let (a, bc) = group.split_at(STRIDE);
        let (b, c) = bc.split_at(STRIDE);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        // The instruction leaves the upper 32 bits zero.
        crc = shift_stride(shift_stride(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    let mut words = groups.remainder().chunks_exact(8);
    let mut wide = crc as u64;
    for w in &mut words {
        wide = _mm_crc32_u64(wide, word(w));
    }
    let mut crc = wide as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    crc
}

/// Outcome of the integrity gate for one fetched block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Full length and matches its recorded digest.
    Verified,
    /// Full length, but the metadata records no digest for it (a
    /// pre-checksum, legacy file): accepted unverified.
    NoDigest,
    /// Short or long (torn read), or fails its digest: silent
    /// corruption, to be treated as missing.
    Corrupt,
}

/// The integrity gate: judge a fetched block `buf` of expected length
/// `block_len` against its recorded digest `want`, if any.
pub fn check(buf: &[u8], block_len: usize, want: Option<u32>) -> Verdict {
    if buf.len() != block_len {
        return Verdict::Corrupt;
    }
    match want {
        None => Verdict::NoDigest,
        Some(want) if crc32c(buf) == want => Verdict::Verified,
        Some(_) => Verdict::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The byte-table reference every other tier is checked against.
    fn reference(data: &[u8]) -> u32 {
        crc32c_on(Tier::Table, data).expect("the table tier runs everywhere")
    }

    fn available_tiers() -> Vec<Tier> {
        Tier::ALL.into_iter().filter(|t| t.available()).collect()
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 test vectors for CRC32C.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for tier in available_tiers() {
            for (data, want) in vectors {
                assert_eq!(crc32c_on(tier, data), Some(want), "{}", tier.name());
            }
        }
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want);
        }
    }

    #[test]
    fn every_tier_matches_the_reference() {
        // Every length through three interleave strides (so the group
        // loop, the single-stream words and the byte tail each start and
        // stop at every offset), at every start alignment. The reference
        // register advances one byte per length, so the sweep stays
        // linear even in debug builds.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC2C3);
        let buf: Vec<u8> = (0..(3 * STRIDE + 64 + 8)).map(|_| rng.gen()).collect();
        let fast: Vec<Tier> = available_tiers()
            .into_iter()
            .filter(|&t| t != Tier::Table)
            .collect();
        for offset in 0..8 {
            let mut reg = !0u32;
            for len in 0..=(3 * STRIDE + 64) {
                let data = &buf[offset..offset + len];
                if let Some(last) = len.checked_sub(1) {
                    reg = table_update(reg, &data[last..]);
                }
                let want = !reg;
                for &tier in &fast {
                    assert_eq!(
                        crc32c_on(tier, data),
                        Some(want),
                        "{} len={len} offset={offset}",
                        tier.name()
                    );
                }
            }
        }
        // Random lengths up to 1 MiB, random offsets.
        let big: Vec<u8> = (0..(1 << 20) + 8).map(|_| rng.gen()).collect();
        for _ in 0..8 {
            let len = rng.gen_range(0..=1usize << 20);
            let offset = rng.gen_range(0..8usize);
            let data = &big[offset..offset + len];
            let want = reference(data);
            for &tier in &fast {
                assert_eq!(
                    crc32c_on(tier, data),
                    Some(want),
                    "{} len={len}",
                    tier.name()
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_tier_selected_on_sse42_hosts() {
        // A silent fallback to slice-by-8 would still pass every digest
        // test; pin the dispatch so it cannot.
        if std::arch::is_x86_feature_detected!("sse4.2") {
            assert_eq!(tier(), Tier::Sse42);
            assert!(Tier::Sse42.available());
        } else {
            assert_eq!(tier(), Tier::Slice8);
            assert_eq!(crc32c_on(Tier::Sse42, b"x"), None);
        }
    }

    #[test]
    fn detects_single_byte_flip() {
        let data: Vec<u8> = (0..4096).map(|i| (i * 31 % 256) as u8).collect();
        let digest = crc32c(&data);
        assert_eq!(check(&data, 4096, Some(digest)), Verdict::Verified);
        for pos in [0usize, 1, 2047, 4095] {
            let mut bad = data.clone();
            bad[pos] ^= 0x01;
            assert_eq!(
                check(&bad, 4096, Some(digest)),
                Verdict::Corrupt,
                "flip at {pos} undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let data: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
        let digest = crc32c(&data);
        assert_eq!(check(&data[..512], 1024, Some(digest)), Verdict::Corrupt);
        assert_eq!(check(&data[..1023], 1024, Some(digest)), Verdict::Corrupt);
        assert_eq!(check(&data[..1023], 1024, None), Verdict::Corrupt);
        assert_eq!(check(&data, 1024, None), Verdict::NoDigest);
        // A digest over the truncated bytes still fails the length gate.
        assert_eq!(
            check(&data[..512], 1024, Some(crc32c(&data[..512]))),
            Verdict::Corrupt
        );
    }

    #[test]
    fn digest_is_pure() {
        let data = vec![0xA5u8; 777];
        assert_eq!(crc32c(&data), crc32c(&data));
    }
}
