//! Hot-loop coding kernels: GF(256) multiply-accumulate, wide XOR, and
//! block-buffer pooling.
//!
//! Every code in this crate bottoms out in two inner loops — `acc ^= src`
//! (LT/Raptor/Tornado/parity) and `acc ^= coef · src` over GF(2⁸)
//! (Reed–Solomon) — so this module is the single substrate they all share.
//! The paper makes coding bandwidth a first-class constraint (§5.2.3
//! item 4: "long operands, register- and cache-conscious loops"; Table 5-1
//! rules RS out for long code words because its per-byte field math halves
//! bandwidth with every K doubling). Each of the four operations
//! ([`xor_into`], [`gf_axpy`], [`gf_axpy_multi`], [`gf_scale`]) has one
//! implementation per [`Kernel`]:
//!
//! * **Scalar reference** — the textbook byte-at-a-time loops (log/exp
//!   table lookups for GF, single-byte XOR). These pin the semantics: the
//!   other kernels must be *byte-identical* to them for every input, a
//!   guarantee enforced by differential property tests. They double as
//!   the ablation baseline mirroring the paper's pre-optimisation loops —
//!   [`std::hint::black_box`] keeps the XOR reference genuinely
//!   byte-at-a-time so the compiler cannot quietly vectorize the baseline
//!   and erase the very effect §5.2.3 measures. Never dispatched.
//! * **Vector** — portable safe-Rust wide loops over 32-byte chunks
//!   (4 × `u64` lanes) that LLVM lowers to whatever SIMD the target
//!   baseline has. The GF multiply is table-driven in the ISA-L style: per
//!   coefficient, two 16-entry split-nibble tables ([`NibbleTables`],
//!   `c·b = lo[b & 15] ^ hi[b >> 4]`) are expanded once into a 256-entry
//!   product table that stays L1-resident for the whole block, so the
//!   inner loop is one branch-free lookup per byte; long blocks switch to
//!   a byte-*pair* table and multi-source rows fuse four sources per
//!   pass. The fallback on CPUs without AVX2.
//! * **AVX2** — the split-nibble multiply on x86_64 shuffle hardware
//!   (`crate::simd`): two 32-lane `VPSHUFB` table lookups per vector
//!   instead of one load per byte.
//!
//! The entry points run [`kernel()`], probed from the CPU once per
//! process: AVX2 on x86_64 hosts that have it, Vector otherwise. There
//! is no switch to flip — because the kernels agree byte-for-byte, the
//! choice can never change what any code computes, only how fast. Tests and benchmarks pin a kernel through the `*_on`
//! twins ([`xor_into_on`], …), which assert [`Kernel::available`].
//!
//! Alignment note: the wide loops read/write through
//! `u64::from_ne_bytes`/`to_ne_bytes` on exact 32-byte chunks, which LLVM
//! merges into full-width vector loads, and the AVX2 kernel uses
//! unaligned loads and stores. On x86-64 and aarch64 the unaligned forms
//! run at aligned speed when the data is aligned (and `Vec<u8>`
//! allocations are), so a separately-dispatched aligned path would only
//! duplicate code without a measurable win.
//!
//! [`BlockPool`] rounds out the memory-discipline side: a free-list of
//! equal-sized blocks with allocation counters, so per-trial segment
//! buffers are recycled across a request loop instead of reallocated, and
//! tests can assert that a decode path performed no hidden copies.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::{simd, Block};

/// GF(2⁸) arithmetic with the AES polynomial x⁸+x⁴+x³+x+1 (0x11B).
pub mod gf {
    /// Exponential table: EXP[i] = g^i for generator g = 0x03, doubled to
    /// avoid a modulo in `mul`.
    pub struct Tables {
        /// g^i for i in 0..510 (duplicated past 255 so `mul` skips a mod).
        pub exp: [u8; 512],
        /// Discrete log base g of each nonzero field element.
        pub log: [u16; 256],
    }

    /// Build the log/exp tables at first use.
    pub fn tables() -> &'static Tables {
        use std::sync::OnceLock;
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut exp = [0u8; 512];
            let mut log = [0u16; 256];
            let mut x: u16 = 1;
            for (i, e) in exp.iter_mut().enumerate().take(255) {
                *e = x as u8;
                log[x as usize] = i as u16;
                // multiply by generator 0x03 = x + 1: x*3 = x*2 ^ x
                let x2 = x << 1;
                let x2 = if x2 & 0x100 != 0 { x2 ^ 0x11B } else { x2 };
                x = (x2 ^ x) & 0xFF;
            }
            for i in 255..512 {
                exp[i] = exp[i - 255];
            }
            Tables { exp, log }
        })
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero, which has no inverse.
    #[inline]
    pub fn inv(a: u8) -> u8 {
        assert_ne!(a, 0, "inverse of zero in GF(256)");
        let t = tables();
        t.exp[255 - t.log[a as usize] as usize]
    }

    /// Field addition (= subtraction = XOR).
    #[inline]
    pub fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }
}

/// A coding-kernel implementation. All kernels are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Byte-at-a-time loops: the differential-test reference and ablation
    /// baseline. Never dispatched.
    Scalar,
    /// Portable wide loops over `u64` lanes with expanded product tables.
    Vector,
    /// x86_64 AVX2: 32-lane `VPSHUFB` split-nibble lookups.
    Avx2,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Vector, Kernel::Avx2];

    /// Short stable name (bench rows, test messages).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Vector => "vector",
            Kernel::Avx2 => "avx2",
        }
    }

    /// True when this CPU can run the kernel.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Vector => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
        }
    }
}

/// The kernel the entry points dispatch to on this CPU, probed once:
/// [`Kernel::Avx2`] when the CPU has it, else [`Kernel::Vector`].
pub fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        if Kernel::Avx2.available() {
            Kernel::Avx2
        } else {
            Kernel::Vector
        }
    })
}

/// Panic unless this CPU can run `kernel` — the safety gate in front of
/// every AVX2 call.
#[inline]
fn check(kernel: Kernel) -> Kernel {
    assert!(
        kernel.available(),
        "{} kernel unsupported on this CPU",
        kernel.name()
    );
    kernel
}

/// Per-coefficient split-nibble multiply tables (ISA-L layout): for a
/// fixed coefficient `c`, `c·b = lo[b & 15] ^ hi[b >> 4]` because
/// b = (b & 0x0F) ⊕ (b & 0xF0) and multiplication distributes over ⊕.
/// 32 bytes per coefficient — they live in registers/L1 for a whole block.
pub struct NibbleTables {
    /// Products of the coefficient with 0x00..=0x0F.
    pub lo: [u8; 16],
    /// Products of the coefficient with 0x00, 0x10, .., 0xF0.
    pub hi: [u8; 16],
}

impl NibbleTables {
    /// Build the two 16-entry tables for coefficient `c`.
    pub fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for i in 0..16u8 {
            lo[i as usize] = gf::mul(c, i);
            hi[i as usize] = gf::mul(c, i << 4);
        }
        NibbleTables { lo, hi }
    }

    /// Multiply `b` by the tables' coefficient.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// Expand into the full 256-entry product table the wide loops index
    /// by whole bytes: `expand()[b] = c·b`. 256 bytes per coefficient —
    /// L1-resident for the duration of a block operation.
    pub fn expand(&self) -> [u8; 256] {
        let mut full = [0u8; 256];
        for (b, e) in full.iter_mut().enumerate() {
            *e = self.lo[b & 0x0F] ^ self.hi[b >> 4];
        }
        full
    }
}

#[inline(always)]
fn load4(chunk: &[u8]) -> [u64; 4] {
    [
        u64::from_ne_bytes(chunk[0..8].try_into().unwrap()),
        u64::from_ne_bytes(chunk[8..16].try_into().unwrap()),
        u64::from_ne_bytes(chunk[16..24].try_into().unwrap()),
        u64::from_ne_bytes(chunk[24..32].try_into().unwrap()),
    ]
}

#[inline(always)]
fn store4(chunk: &mut [u8], w: [u64; 4]) {
    chunk[0..8].copy_from_slice(&w[0].to_ne_bytes());
    chunk[8..16].copy_from_slice(&w[1].to_ne_bytes());
    chunk[16..24].copy_from_slice(&w[2].to_ne_bytes());
    chunk[24..32].copy_from_slice(&w[3].to_ne_bytes());
}

/// The product `coef · src` of one 8-byte group through the expanded
/// split-nibble table, assembled in little-endian byte order (byte `i` of
/// the group lands in bits `8i..8i+8`, matching `u64::from_le_bytes` on
/// the destination). The 8 lookups carry no inter-dependencies, so they
/// pipeline — and assembling in registers avoids the store-forwarding
/// round trip a staging byte array would cost.
#[inline(always)]
fn mul8(w: u64, full: &[u8; 256]) -> u64 {
    // The group arrives as one u64 load; bytes are extracted with shifts
    // (ALU work) rather than eight extra byte-loads, halving load-port
    // pressure — the table lookups are then the only loads. Assembly is
    // tree-shaped: three OR levels instead of a serial chain of eight.
    let at = |i: u32| full[(w >> (8 * i)) as u8 as usize] as u64;
    let p0 = at(0) | at(1) << 8;
    let p1 = at(2) << 16 | at(3) << 24;
    let p2 = at(4) << 32 | at(5) << 40;
    let p3 = at(6) << 48 | at(7) << 56;
    (p0 | p1) | (p2 | p3)
}

// ---------------------------------------------------------------------------
// XOR kernels
// ---------------------------------------------------------------------------

/// XOR `src` into `dst` element-wise, on the dispatched [`kernel()`].
///
/// # Panics
/// Panics if the slices differ in length — codes operate on equal-sized
/// blocks only, and a mismatch indicates corruption upstream.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    xor_into_on(kernel(), dst, src)
}

/// [`xor_into`] on a specific kernel.
///
/// # Panics
/// Panics if the slices differ in length or this CPU cannot run `kernel`.
pub fn xor_into_on(kernel: Kernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    match check(kernel) {
        Kernel::Scalar => xor_into_scalar(dst, src),
        Kernel::Vector => xor_into_wide(dst, src),
        // SAFETY: `check` confirmed the CPU runs AVX2, and the lengths
        // match.
        Kernel::Avx2 => unsafe { simd::xor_into(dst, src) },
    }
}

/// Byte-at-a-time XOR reference. `black_box` pins the loop to genuinely
/// scalar execution (see module docs); use only as an oracle/baseline.
fn xor_into_scalar(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = std::hint::black_box(*d ^ s);
    }
}

/// Wide XOR: 32-byte chunks (4 × u64), then an 8-byte loop, then bytes.
fn xor_into_wide(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    let mut d = dst.chunks_exact_mut(32);
    let mut s = src.chunks_exact(32);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let a = load4(dw);
        let b = load4(sw);
        store4(dw, [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]);
    }
    let dr = d.into_remainder();
    let sr = s.remainder();
    let mut d8 = dr.chunks_exact_mut(8);
    let mut s8 = sr.chunks_exact(8);
    for (dw, sw) in (&mut d8).zip(&mut s8) {
        let x =
            u64::from_ne_bytes(dw.try_into().unwrap()) ^ u64::from_ne_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, sb) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *db ^= *sb;
    }
}

// ---------------------------------------------------------------------------
// GF(256) multiply-accumulate / scale kernels
// ---------------------------------------------------------------------------

/// `acc ^= coef · src` over GF(2⁸), element-wise, on the dispatched
/// [`kernel()`].
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn gf_axpy(acc: &mut [u8], coef: u8, src: &[u8]) {
    gf_axpy_on(kernel(), acc, coef, src)
}

/// [`gf_axpy`] on a specific kernel.
///
/// # Panics
/// Panics if the slices differ in length or this CPU cannot run `kernel`.
pub fn gf_axpy_on(kernel: Kernel, acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    match check(kernel) {
        Kernel::Scalar => gf_axpy_scalar(acc, coef, src),
        Kernel::Vector => gf_axpy_vector(acc, coef, src),
        // SAFETY: `check` confirmed the CPU runs AVX2, and the lengths
        // match.
        Kernel::Avx2 => unsafe { simd::gf_axpy(acc, coef, src) },
    }
}

/// Scalar reference multiply-accumulate: a branch plus two dependent
/// table lookups per byte (the loop Table 5-1's RS numbers come from).
fn gf_axpy_scalar(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    if coef == 0 {
        return;
    }
    if coef == 1 {
        xor_into_scalar(acc, src);
        return;
    }
    let t = gf::tables();
    let lc = t.log[coef as usize] as usize;
    for (a, &s) in acc.iter_mut().zip(src) {
        if s != 0 {
            *a ^= t.exp[t.log[s as usize] as usize + lc];
        }
    }
}

/// Vectorized multiply-accumulate: expanded split-nibble table over
/// 32-byte chunks, per-byte table lookups on the tail.
fn gf_axpy_vector(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    if coef == 0 {
        return;
    }
    if coef == 1 {
        xor_into_wide(acc, src);
        return;
    }
    if acc.len() >= PAIR_TABLE_MIN_LEN {
        gf_axpy_pair_table(acc, coef, src);
        return;
    }
    let full = NibbleTables::new(coef).expand();
    // Two independent 8-byte groups per iteration keep 16 lookups in
    // flight at once.
    let mut d = acc.chunks_exact_mut(16);
    let mut s = src.chunks_exact(16);
    for (dg, sg) in (&mut d).zip(&mut s) {
        let x0 = u64::from_le_bytes(dg[0..8].try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg[0..8].try_into().unwrap()), &full);
        let x1 = u64::from_le_bytes(dg[8..16].try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg[8..16].try_into().unwrap()), &full);
        dg[0..8].copy_from_slice(&x0.to_le_bytes());
        dg[8..16].copy_from_slice(&x1.to_le_bytes());
    }
    let dr = d.into_remainder();
    let sr = s.remainder();
    let mut d8 = dr.chunks_exact_mut(8);
    let mut s8 = sr.chunks_exact(8);
    for (dg, sg) in (&mut d8).zip(&mut s8) {
        let x = u64::from_le_bytes(dg.as_ref().try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg.try_into().unwrap()), &full);
        dg.copy_from_slice(&x.to_le_bytes());
    }
    for (a, &sb) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *a ^= full[sb as usize];
    }
}

/// Block length above which the per-coefficient byte-pair table pays for
/// itself. Building the 64 Ki-entry table costs a fixed ~64 Ki stores;
/// past this length the halved lookup count wins it back.
const PAIR_TABLE_MIN_LEN: usize = 1 << 15;

/// Multiply-accumulate over a 65 536-entry byte-*pair* product table:
/// `t2[hi·256+lo] = (coef·hi) << 8 | coef·lo`. One 16-bit lookup covers
/// two source bytes, so an 8-byte group needs four table loads instead of
/// eight — the lookup stream is what saturates the load ports, so this is
/// the lever that matters on big blocks. The table is boxed as a
/// fixed-size array so `u16`-cast indices provably need no bounds checks.
fn gf_axpy_pair_table(acc: &mut [u8], coef: u8, src: &[u8]) {
    /// Per-thread pair-table cache. `built_for` records which coefficient
    /// the table currently holds (`None` until the first build), and is
    /// only set *after* the 64 Ki-entry fill completes — so a caller can
    /// never observe a partially initialized table: either `built_for`
    /// matches and the table is complete, or it doesn't and the table is
    /// rebuilt from scratch. Each worker thread owns its table outright
    /// (`thread_local!`), so the parallel encode/trial paths cannot race
    /// on it by construction; the concurrent-init differential test in
    /// `tests/kernel_differential.rs` pins this.
    struct PairTable {
        built_for: Option<u8>,
        t2: Box<[u16; 65536]>,
    }
    // The table is thread-local, not per-call: at 128 KiB a fresh Vec sits
    // exactly at glibc's mmap threshold, and an mmap + page-fault + munmap
    // cycle per axpy call quietly dominates the decode. Caching the
    // coefficient it was built for also makes back-to-back calls with one
    // coefficient (RS row application, repeated bench reps) skip the
    // 64 Ki-store rebuild entirely.
    thread_local! {
        static PAIR_TABLE: std::cell::RefCell<PairTable> =
            std::cell::RefCell::new(PairTable {
                built_for: None,
                t2: vec![0u16; 65536].into_boxed_slice().try_into().unwrap(),
            });
    }
    let full = NibbleTables::new(coef).expand();
    PAIR_TABLE.with(|cell| {
        let mut guard = cell.borrow_mut();
        if guard.built_for != Some(coef) {
            guard.built_for = None; // invalidate while the fill is in progress
            let t2: &mut [u16; 65536] = &mut guard.t2;
            for hi in 0..256usize {
                let h = (full[hi] as u16) << 8;
                let base = hi << 8;
                for lo in 0..256usize {
                    t2[base | lo] = h | full[lo] as u16;
                }
            }
            guard.built_for = Some(coef);
        }
        let t2: &[u16; 65536] = &guard.t2;
        let mul8p = |w: u64, t2: &[u16; 65536]| -> u64 {
            let p0 = t2[w as u16 as usize] as u64;
            let p1 = (t2[(w >> 16) as u16 as usize] as u64) << 16;
            let p2 = (t2[(w >> 32) as u16 as usize] as u64) << 32;
            let p3 = (t2[(w >> 48) as u16 as usize] as u64) << 48;
            (p0 | p1) | (p2 | p3)
        };
        let mut d = acc.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dg, sg) in (&mut d).zip(&mut s) {
            let x0 = u64::from_le_bytes(dg[0..8].try_into().unwrap())
                ^ mul8p(u64::from_le_bytes(sg[0..8].try_into().unwrap()), t2);
            let x1 = u64::from_le_bytes(dg[8..16].try_into().unwrap())
                ^ mul8p(u64::from_le_bytes(sg[8..16].try_into().unwrap()), t2);
            dg[0..8].copy_from_slice(&x0.to_le_bytes());
            dg[8..16].copy_from_slice(&x1.to_le_bytes());
        }
        let dr = d.into_remainder();
        let sr = s.remainder();
        let mut d8 = dr.chunks_exact_mut(8);
        let mut s8 = sr.chunks_exact(8);
        for (dg, sg) in (&mut d8).zip(&mut s8) {
            let x = u64::from_le_bytes(dg.as_ref().try_into().unwrap())
                ^ mul8p(u64::from_le_bytes(sg.try_into().unwrap()), t2);
            dg.copy_from_slice(&x.to_le_bytes());
        }
        for (a, &sb) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
            *a ^= full[sb as usize];
        }
    });
}

/// Fused multiply-accumulate of several sources into one destination:
/// `acc ^= Σᵢ coefᵢ · srcᵢ`, element-wise over GF(2⁸), on the dispatched
/// [`kernel()`]. XOR accumulation is exact and order-free, so the result
/// is byte-identical to applying [`gf_axpy`] once per source — but the
/// fast kernels fold several sources into each destination group while
/// it sits in a register. For a K×K Reed–Solomon decode that cuts
/// destination memory traffic, which is where the per-source loop
/// saturates.
///
/// # Panics
/// Panics if any source's length differs from `acc`'s.
pub fn gf_axpy_multi(acc: &mut [u8], srcs: &[(u8, &[u8])]) {
    gf_axpy_multi_on(kernel(), acc, srcs)
}

/// [`gf_axpy_multi`] on a specific kernel.
///
/// # Panics
/// Panics if any source's length differs from `acc`'s or this CPU cannot
/// run `kernel`.
pub fn gf_axpy_multi_on(kernel: Kernel, acc: &mut [u8], srcs: &[(u8, &[u8])]) {
    for &(_, src) in srcs {
        assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    }
    // Zero coefficients contribute nothing; drop them before building
    // tables so the hot loops only visit live sources.
    let live: Vec<(u8, &[u8])> = srcs.iter().filter(|&&(c, _)| c != 0).copied().collect();
    match check(kernel) {
        // The pre-kernel decoder's structure: one source at a time.
        Kernel::Scalar => {
            for &(coef, src) in &live {
                gf_axpy_scalar(acc, coef, src);
            }
        }
        Kernel::Vector => gf_axpy_multi_vector(acc, &live),
        // SAFETY: `check` confirmed the CPU runs AVX2, and every source
        // matches `acc`'s length.
        Kernel::Avx2 => unsafe { simd::gf_axpy_multi(acc, &live) },
    }
}

/// Vectorized fused multiply-accumulate over nonzero coefficients:
/// sources are folded in four at a time by [`gf_axpy_quad`] (a
/// fixed-arity loop the compiler can strip of bounds checks, with four
/// independent lookup chains in flight), so the destination is traversed
/// once per four sources instead of once per source.
fn gf_axpy_multi_vector(acc: &mut [u8], live: &[(u8, &[u8])]) {
    if acc.len() >= PAIR_TABLE_MIN_LEN {
        // Long blocks: the byte-pair-table path is load-port-limited and
        // gains nothing from fusion — run it per source.
        for &(coef, src) in live {
            gf_axpy_vector(acc, coef, src);
        }
        return;
    }
    let mut quads = live.chunks_exact(4);
    for quad in &mut quads {
        let tables = [
            NibbleTables::new(quad[0].0).expand(),
            NibbleTables::new(quad[1].0).expand(),
            NibbleTables::new(quad[2].0).expand(),
            NibbleTables::new(quad[3].0).expand(),
        ];
        gf_axpy_quad(acc, &tables, [quad[0].1, quad[1].1, quad[2].1, quad[3].1]);
    }
    for &(coef, src) in quads.remainder() {
        gf_axpy_vector(acc, coef, src);
    }
}

/// Fold exactly four sources into `acc` in a single pass. All slices must
/// share `acc`'s length (checked by the caller).
fn gf_axpy_quad(acc: &mut [u8], tables: &[[u8; 256]; 4], srcs: [&[u8]; 4]) {
    let mut d = acc.chunks_exact_mut(8);
    let mut c0 = srcs[0].chunks_exact(8);
    let mut c1 = srcs[1].chunks_exact(8);
    let mut c2 = srcs[2].chunks_exact(8);
    let mut c3 = srcs[3].chunks_exact(8);
    for ((((dg, s0), s1), s2), s3) in (&mut d).zip(&mut c0).zip(&mut c1).zip(&mut c2).zip(&mut c3) {
        let x = u64::from_le_bytes(dg.as_ref().try_into().unwrap())
            ^ mul8(u64::from_le_bytes(s0.try_into().unwrap()), &tables[0])
            ^ mul8(u64::from_le_bytes(s1.try_into().unwrap()), &tables[1])
            ^ mul8(u64::from_le_bytes(s2.try_into().unwrap()), &tables[2])
            ^ mul8(u64::from_le_bytes(s3.try_into().unwrap()), &tables[3]);
        dg.copy_from_slice(&x.to_le_bytes());
    }
    for ((((a, &b0), &b1), &b2), &b3) in d
        .into_remainder()
        .iter_mut()
        .zip(c0.remainder())
        .zip(c1.remainder())
        .zip(c2.remainder())
        .zip(c3.remainder())
    {
        *a ^= tables[0][b0 as usize]
            ^ tables[1][b1 as usize]
            ^ tables[2][b2 as usize]
            ^ tables[3][b3 as usize];
    }
}

/// In-place multiply of every byte of `block` by field scalar `x`, on
/// the dispatched [`kernel()`].
#[inline]
pub fn gf_scale(block: &mut [u8], x: u8) {
    gf_scale_on(kernel(), block, x)
}

/// [`gf_scale`] on a specific kernel.
///
/// # Panics
/// Panics if this CPU cannot run `kernel`.
pub fn gf_scale_on(kernel: Kernel, block: &mut [u8], x: u8) {
    match check(kernel) {
        Kernel::Scalar => gf_scale_scalar(block, x),
        Kernel::Vector => gf_scale_vector(block, x),
        // SAFETY: `check` confirmed the CPU runs AVX2.
        Kernel::Avx2 => unsafe { simd::gf_scale(block, x) },
    }
}

/// Scalar reference in-place scale.
fn gf_scale_scalar(block: &mut [u8], x: u8) {
    if x == 1 {
        return;
    }
    if x == 0 {
        block.fill(0);
        return;
    }
    let t = gf::tables();
    let lx = t.log[x as usize] as usize;
    for b in block.iter_mut() {
        if *b != 0 {
            *b = t.exp[t.log[*b as usize] as usize + lx];
        }
    }
}

/// Vectorized in-place scale: expanded split-nibble table over 32-byte
/// chunks, per-byte table lookups on the tail.
fn gf_scale_vector(block: &mut [u8], x: u8) {
    if x == 1 {
        return;
    }
    if x == 0 {
        block.fill(0);
        return;
    }
    let full = NibbleTables::new(x).expand();
    let mut d = block.chunks_exact_mut(8);
    for dg in &mut d {
        let x = mul8(u64::from_le_bytes(dg.as_ref().try_into().unwrap()), &full);
        dg.copy_from_slice(&x.to_le_bytes());
    }
    for b in d.into_remainder().iter_mut() {
        *b = full[*b as usize];
    }
}

// ---------------------------------------------------------------------------
// Block pooling
// ---------------------------------------------------------------------------

/// Free-list of equal-sized blocks, so a request loop recycles its segment
/// buffers instead of reallocating them every trial.
///
/// The counters make memory discipline testable: after a warm-up pass,
/// a loop that truly recycles shows `fresh_allocations()` frozen while
/// `reuses()` climbs, and a decode path that secretly copied blocks would
/// need allocations the pool never saw. `outstanding_blocks()` tracks
/// checked-out-minus-returned, so a completed access can assert it leaked
/// nothing.
///
/// Threading model: the free list needs `&mut self`, so a pool is owned
/// by exactly one thread at a time — the parallel encode/trial paths give
/// each worker its *own* pool and [`BlockPool::absorb`] merges the
/// workers' free lists and counters back into a parent afterwards. The
/// counters themselves are atomic ([`AtomicU64`]/[`AtomicI64`]), so the
/// accounting stays exact across the absorb (no read-modify-write races
/// on shared references) and read-only probes work through `&self` even
/// while another handle's counters are being merged in.
#[derive(Debug, Default)]
pub struct BlockPool {
    block_len: usize,
    free: Vec<Block>,
    fresh: AtomicU64,
    reused: AtomicU64,
    /// Blocks checked out minus blocks returned. Signed: adopting a
    /// foreign buffer via [`BlockPool::put`] counts as a return without a
    /// checkout, which is legitimate (the read path adopts the decoder's
    /// buffers) and must not wrap.
    outstanding: AtomicI64,
}

impl BlockPool {
    /// A pool of `block_len`-byte blocks.
    pub fn new(block_len: usize) -> Self {
        BlockPool {
            block_len,
            free: Vec::new(),
            fresh: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            outstanding: AtomicI64::new(0),
        }
    }

    /// The block size this pool serves.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// A zeroed block, recycled from the free list when possible.
    pub fn get(&mut self) -> Block {
        let mut b = self.get_scratch();
        b.fill(0);
        b
    }

    /// A block with unspecified contents — for callers that overwrite it
    /// entirely (e.g. reading from a backend), skipping the memset.
    pub fn get_scratch(&mut self) -> Block {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        match self.free.pop() {
            Some(b) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0u8; self.block_len]
            }
        }
    }

    /// Return a block to the free list.
    ///
    /// # Panics
    /// Panics if the block's length does not match the pool's.
    pub fn put(&mut self, block: Block) {
        assert_eq!(block.len(), self.block_len, "pooled block length mismatch");
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.free.push(block);
    }

    /// Return a buffer whose length may have changed (e.g. one a backend
    /// read into) to the free list, cleared and resized to the pool's
    /// block length.
    pub fn recycle(&mut self, mut buf: Block) {
        buf.clear();
        buf.resize(self.block_len, 0);
        self.put(buf);
    }

    /// Return every block of an iterator to the free list.
    pub fn put_all(&mut self, blocks: impl IntoIterator<Item = Block>) {
        for b in blocks {
            self.put(b);
        }
    }

    /// Account `blocks` checked-out buffers whose *ownership moved* to an
    /// external consumer (e.g. a storage backend that keeps the
    /// allocation as the stored block): outstanding drops as if they had
    /// been returned, but the buffers never rejoin the free list. This is
    /// what lets a zero-copy write path assert
    /// [`BlockPool::outstanding_blocks`]` == 0` after every outcome —
    /// a buffer is either back in a pool or durably owned elsewhere,
    /// never in limbo.
    pub fn mark_consumed(&self, blocks: u64) {
        self.outstanding.fetch_sub(blocks as i64, Ordering::Relaxed);
    }

    /// Merge another pool (typically a per-worker pool from a parallel
    /// section) into this one: its free blocks join this free list and
    /// its counters fold in, so system-wide accounting stays exact no
    /// matter how many workers allocated.
    ///
    /// # Panics
    /// Panics if the pools serve different block sizes.
    pub fn absorb(&mut self, other: BlockPool) {
        assert_eq!(
            other.block_len, self.block_len,
            "absorbing a pool of a different block size"
        );
        self.free.extend(other.free);
        self.fresh
            .fetch_add(other.fresh.load(Ordering::Relaxed), Ordering::Relaxed);
        self.reused
            .fetch_add(other.reused.load(Ordering::Relaxed), Ordering::Relaxed);
        self.outstanding
            .fetch_add(other.outstanding.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Blocks newly allocated (not served from the free list).
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Blocks served from the free list.
    pub fn reuses(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Total bytes this pool has ever allocated — the byte-allocation
    /// counter zero-copy tests assert against.
    pub fn allocated_bytes(&self) -> u64 {
        self.fresh_allocations() * self.block_len as u64
    }

    /// Blocks checked out and not yet returned (negative if the pool
    /// adopted more foreign buffers than it handed out). A completed
    /// access that recycles everything leaves this at zero.
    pub fn outstanding_blocks(&self) -> i64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Bytes checked out and not yet returned — zero at the end of a
    /// leak-free access.
    pub fn outstanding_bytes(&self) -> i64 {
        self.outstanding_blocks() * self.block_len as i64
    }

    /// Blocks currently idle in the free list.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive check of the chunk product against the log/exp tables:
    /// every (coefficient, byte) pair, via a 32-byte chunk.
    #[test]
    fn chunk_product_matches_tables_exhaustively() {
        for c in 0..=255u8 {
            if c < 2 {
                continue; // axpy special-cases 0 and 1 before the table path
            }
            let full = NibbleTables::new(c).expand();
            for b0 in 0..=255u8 {
                let bytes = mul8(u64::from_le_bytes([b0; 8]), &full).to_le_bytes();
                let expect = gf::mul(c, b0);
                assert!(
                    bytes.iter().all(|&x| x == expect),
                    "c={c} b={b0}: got {:#x}, want {expect:#x}",
                    bytes[0]
                );
            }
        }
    }

    #[test]
    fn nibble_tables_match_mul() {
        for c in [0u8, 1, 2, 3, 0x53, 0x80, 0xFF] {
            let nt = NibbleTables::new(c);
            for b in 0..=255u8 {
                assert_eq!(nt.mul(b), gf::mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn axpy_vector_handles_tails_and_special_coefficients() {
        for len in [0usize, 1, 7, 8, 31, 32, 33, 40, 63, 64, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for coef in [0u8, 1, 2, 0x1D, 0xFF] {
                let mut a: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let mut b = a.clone();
                gf_axpy_vector(&mut a, coef, &src);
                gf_axpy_scalar(&mut b, coef, &src);
                assert_eq!(a, b, "len={len} coef={coef}");
            }
        }
    }

    #[test]
    fn scale_vector_matches_scalar() {
        for len in [0usize, 5, 31, 32, 33, 96, 129] {
            let init: Vec<u8> = (0..len).map(|i| (i * 29 + 1) as u8).collect();
            for x in [0u8, 1, 2, 0x35, 0xFE] {
                let mut a = init.clone();
                let mut b = init.clone();
                gf_scale_vector(&mut a, x);
                gf_scale_scalar(&mut b, x);
                assert_eq!(a, b, "len={len} x={x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn wide_xor_rejects_unequal_lengths() {
        let mut a = vec![0u8; 8];
        xor_into_wide(&mut a, &[0u8; 9]);
    }

    #[test]
    fn pool_recycles_and_counts() {
        let mut pool = BlockPool::new(16);
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.fresh_allocations(), 2);
        assert_eq!(pool.allocated_bytes(), 32);
        assert_eq!(pool.outstanding_blocks(), 2);
        assert_eq!(pool.outstanding_bytes(), 32);
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.outstanding_blocks(), 0);
        let c = pool.get();
        assert!(
            c.iter().all(|&x| x == 0),
            "recycled blocks come back zeroed"
        );
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.fresh_allocations(), 2, "no fresh alloc on reuse");
        pool.put(c);
        pool.put_all((0..2).map(|_| vec![0u8; 16]));
        assert_eq!(pool.available(), 4);
        // Adopting foreign buffers counts as returns without checkouts.
        assert_eq!(pool.outstanding_blocks(), -2);
    }

    #[test]
    fn pool_recycle_restores_block_length() {
        let mut pool = BlockPool::new(16);
        let mut short = pool.get_scratch();
        short.truncate(3); // a backend shrank it
        pool.recycle(short);
        pool.recycle(vec![7u8; 40]); // a foreign, oversized buffer
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.outstanding_blocks(), -1);
        for _ in 0..2 {
            assert_eq!(pool.get(), vec![0u8; 16]);
        }
    }

    #[test]
    fn pool_mark_consumed_accounts_ownership_transfer() {
        // A write path draws buffers and hands them to the backend for
        // keeps: outstanding must settle to zero without the buffers ever
        // coming back to the free list.
        let mut pool = BlockPool::new(16);
        let a = pool.get_scratch();
        let b = pool.get_scratch();
        assert_eq!(pool.outstanding_blocks(), 2);
        drop((a, b)); // ownership notionally moved to the backend
        pool.mark_consumed(2);
        assert_eq!(pool.outstanding_blocks(), 0);
        assert_eq!(pool.available(), 0, "consumed buffers never rejoin");
    }

    #[test]
    fn pool_absorb_merges_blocks_and_counters() {
        let mut parent = BlockPool::new(8);
        let p = parent.get();
        let mut worker = BlockPool::new(8);
        let w1 = worker.get_scratch();
        let w2 = worker.get_scratch();
        worker.put(w1);
        worker.put(w2);
        let w3 = worker.get(); // reuse
        worker.put(w3);
        parent.absorb(worker);
        assert_eq!(parent.fresh_allocations(), 3, "1 parent + 2 worker");
        assert_eq!(parent.reuses(), 1);
        assert_eq!(parent.available(), 2, "worker's free list joins");
        assert_eq!(parent.outstanding_blocks(), 1, "only `p` is still out");
        parent.put(p);
        assert_eq!(parent.outstanding_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "different block size")]
    fn pool_absorb_rejects_size_mismatch() {
        BlockPool::new(8).absorb(BlockPool::new(16));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pool_rejects_foreign_sizes() {
        BlockPool::new(8).put(vec![0u8; 9]);
    }
}
