//! Hardware-shuffle GF(256) and XOR kernel: the split-nibble formulation
//! on a real vector unit.
//!
//! The table kernels in [`crate::kernels`] index an expanded 256-entry
//! product table one byte (or one byte *pair*) at a time — every product
//! is a load, and the load ports are the ceiling. The split-nibble
//! identity `c·b = T_lo[b & 15] ^ T_hi[b >> 4]` has a second reading: the
//! two 16-entry tables fit in one vector register each, and a byte
//! shuffle (`VPSHUFB`) performs one table lookup per lane in a single
//! instruction with no memory traffic at all. That is the ISA-L/Plank
//! formulation, and it turns the multiply-accumulate from a load-bound
//! loop into a handful of register-only ops per 32 bytes.
//!
//! The one implementation is x86_64 AVX2, compiled on `target_arch`
//! alone: 32 lanes per op (`_mm256_shuffle_epi8` shuffles within each
//! 128-bit half, which is exactly right: the same 16-entry table is
//! broadcast to both halves), main loops unrolled to 64 bytes, and a
//! two-source fused axpy for the multi-source decode rows. Other
//! architectures dispatch to the portable Vector kernel.
//!
//! It exposes four `unsafe` entry points (`xor_into`, `gf_axpy`,
//! `gf_axpy_multi`, `gf_scale`); [`crate::kernels`] calls them only for
//! [`Kernel::Avx2`](crate::kernels::Kernel::Avx2) after checking
//! `available()`, which is the safety contract. Tails shorter than one
//! vector finish through the nibble tables, so every length and every
//! unaligned sub-slice is byte-identical to the scalar reference (pinned
//! per kernel by `tests/kernel_differential.rs`). All loads and stores
//! use the unaligned forms — callers hand us arbitrary sub-slices.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{gf_axpy, gf_axpy_multi, gf_scale, xor_into};

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use none::{gf_axpy, gf_axpy_multi, gf_scale, xor_into};

// ---------------------------------------------------------------------------
// x86_64: AVX2 VPSHUFB
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::kernels::NibbleTables;
    use std::arch::x86_64::*;

    /// Per-byte tail: finish `acc[i] ^= c·src[i]` through the nibble tables.
    #[inline]
    fn axpy_tail(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a ^= nt.mul(s);
        }
    }

    #[inline]
    fn scale_tail(block: &mut [u8], nt: &NibbleTables) {
        for b in block.iter_mut() {
            *b = nt.mul(*b);
        }
    }

    /// One 32-lane product. VPSHUFB shuffles within each 128-bit half, so
    /// broadcasting the 16-entry table to both halves gives the correct
    /// per-byte lookup across all 32 lanes. Indices are masked to 0..15,
    /// so the high-bit-clears-lane rule never triggers.
    #[inline(always)]
    unsafe fn mul32(v: __m256i, lo_tbl: __m256i, hi_tbl: __m256i, mask: __m256i) -> __m256i {
        let lo = _mm256_and_si256(v, mask);
        // Byte-wise >>4 does not exist; shift 64-bit lanes and re-mask.
        let hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo),
            _mm256_shuffle_epi8(hi_tbl, hi),
        )
    }

    /// Broadcast a 16-entry nibble table to both 128-bit halves.
    ///
    /// # Safety
    /// The CPU must support AVX2 (like [`mul32`], only called from the
    /// `avx2` kernels below).
    #[inline(always)]
    unsafe fn table(t: &[u8; 16]) -> __m256i {
        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
    }

    /// `dst ^= src`, 64 bytes per iteration.
    ///
    /// # Safety
    /// The CPU must support AVX2; the slices must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_into(dst: &mut [u8], src: &[u8]) {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let n64 = dst.len() / 64 * 64;
        let mut i = 0;
        while i < n64 {
            let a0 = _mm256_loadu_si256(d.add(i) as *const __m256i);
            let b0 = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let a1 = _mm256_loadu_si256(d.add(i + 32) as *const __m256i);
            let b1 = _mm256_loadu_si256(s.add(i + 32) as *const __m256i);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, _mm256_xor_si256(a0, b0));
            _mm256_storeu_si256(d.add(i + 32) as *mut __m256i, _mm256_xor_si256(a1, b1));
            i += 64;
        }
        for (db, sb) in dst[n64..].iter_mut().zip(&src[n64..]) {
            *db ^= *sb;
        }
    }

    /// `acc ^= coef · src` over GF(2⁸).
    ///
    /// # Safety
    /// The CPU must support AVX2; the slices must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gf_axpy(acc: &mut [u8], coef: u8, src: &[u8]) {
        match coef {
            0 => return,
            1 => return xor_into(acc, src),
            _ => {}
        }
        let nt = NibbleTables::new(coef);
        let (lo_tbl, hi_tbl) = (table(&nt.lo), table(&nt.hi));
        let mask = _mm256_set1_epi8(0x0F);
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        // 64-byte main loop: two independent shuffle chains in flight.
        let n64 = acc.len() / 64 * 64;
        let mut i = 0;
        while i < n64 {
            let v0 = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s.add(i + 32) as *const __m256i);
            let d0 = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let d1 = _mm256_loadu_si256(a.add(i + 32) as *const __m256i);
            let p0 = mul32(v0, lo_tbl, hi_tbl, mask);
            let p1 = mul32(v1, lo_tbl, hi_tbl, mask);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d0, p0));
            _mm256_storeu_si256(a.add(i + 32) as *mut __m256i, _mm256_xor_si256(d1, p1));
            i += 64;
        }
        let n32 = acc.len() / 32 * 32;
        while i < n32 {
            let v = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p = mul32(v, lo_tbl, hi_tbl, mask);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d, p));
            i += 32;
        }
        axpy_tail(&mut acc[n32..], &nt, &src[n32..]);
    }

    /// `acc ^= Σ coefᵢ · srcᵢ` with every coefficient nonzero. Sources
    /// fold in pairs per pass, so the destination round-trips memory half
    /// as often as per-source application, with two independent shuffle
    /// chains in flight.
    ///
    /// # Safety
    /// The CPU must support AVX2; every source must match `acc`'s length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gf_axpy_multi(acc: &mut [u8], live: &[(u8, &[u8])]) {
        let mut pairs = live.chunks_exact(2);
        for pair in &mut pairs {
            axpy2(acc, pair[0], pair[1]);
        }
        for &(coef, src) in pairs.remainder() {
            gf_axpy(acc, coef, src);
        }
    }

    /// Two-source fused axpy: one destination round trip per pair.
    ///
    /// # Safety
    /// The CPU must support AVX2; both sources must match `acc`'s length.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy2(acc: &mut [u8], (c0, src0): (u8, &[u8]), (c1, src1): (u8, &[u8])) {
        let (nt0, nt1) = (NibbleTables::new(c0), NibbleTables::new(c1));
        let (lo0, hi0) = (table(&nt0.lo), table(&nt0.hi));
        let (lo1, hi1) = (table(&nt1.lo), table(&nt1.hi));
        let mask = _mm256_set1_epi8(0x0F);
        let n32 = acc.len() / 32 * 32;
        let (a, s0, s1) = (acc.as_mut_ptr(), src0.as_ptr(), src1.as_ptr());
        let mut i = 0;
        while i < n32 {
            let v0 = _mm256_loadu_si256(s0.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s1.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p0 = mul32(v0, lo0, hi0, mask);
            let p1 = mul32(v1, lo1, hi1, mask);
            let x = _mm256_xor_si256(d, _mm256_xor_si256(p0, p1));
            _mm256_storeu_si256(a.add(i) as *mut __m256i, x);
            i += 32;
        }
        axpy_tail(&mut acc[n32..], &nt0, &src0[n32..]);
        axpy_tail(&mut acc[n32..], &nt1, &src1[n32..]);
    }

    /// In-place `block = x · block` over GF(2⁸).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gf_scale(block: &mut [u8], x: u8) {
        match x {
            0 => return block.fill(0),
            1 => return,
            _ => {}
        }
        let nt = NibbleTables::new(x);
        let (lo_tbl, hi_tbl) = (table(&nt.lo), table(&nt.hi));
        let mask = _mm256_set1_epi8(0x0F);
        let n = block.len() / 32 * 32;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(b.add(i) as *const __m256i);
            _mm256_storeu_si256(b.add(i) as *mut __m256i, mul32(v, lo_tbl, hi_tbl, mask));
            i += 32;
        }
        scale_tail(&mut block[n..], &nt);
    }
}

/// Not x86_64: [`Kernel::Avx2`](crate::kernels::Kernel::Avx2) is never
/// `available()`, so the dispatchers never reach these. Each only
/// panics, so none has a safety requirement; they are `unsafe` to match
/// the other architectures' signatures.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::missing_safety_doc)]
mod none {
    pub unsafe fn xor_into(_: &mut [u8], _: &[u8]) {
        unreachable!("no AVX2 on this architecture")
    }
    pub unsafe fn gf_axpy(_: &mut [u8], _: u8, _: &[u8]) {
        unreachable!("no AVX2 on this architecture")
    }
    pub unsafe fn gf_axpy_multi(_: &mut [u8], _: &[(u8, &[u8])]) {
        unreachable!("no AVX2 on this architecture")
    }
    pub unsafe fn gf_scale(_: &mut [u8], _: u8) {
        unreachable!("no AVX2 on this architecture")
    }
}
