//! Differential tests pinning every coding kernel to the scalar reference.
//!
//! The acceptance bar for the wide-loop and hardware-shuffle kernels is
//! *bit identity* with the byte-at-a-time reference on randomized inputs
//! — coefficients, lengths (including tails that are not multiples of 8,
//! 16 or 32), and alignments (slices taken at arbitrary offsets into
//! larger buffers). Every case family runs once per [`Kernel`] this CPU
//! can execute, through the pinned `*_on` entry points, so a kernel the
//! dispatcher does not pick here is still checked. Every case is seeded
//! and therefore reproducible.
//!
//! RS, LT, Raptor, Tornado and parity touch block bytes only through the
//! four dispatchers (`xor_into`, `gf_axpy`, `gf_axpy_multi`, `gf_scale`),
//! so per-kernel primitive identity implies whole-code identity; the
//! round-trip tests at the end check the codes at the dispatched kernel.

use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use robustore_erasure::kernels::{
    gf_axpy, gf_axpy_multi, gf_axpy_multi_on, gf_axpy_on, gf_scale, gf_scale_on, xor_into,
    xor_into_on,
};
use robustore_erasure::{kernel, Kernel, LtCode, LtDecoder, LtParams, ReedSolomon};
use robustore_simkit::SeedSequence;

/// Every kernel this CPU runs except the scalar reference itself.
fn fast_kernels() -> Vec<Kernel> {
    Kernel::ALL
        .into_iter()
        .filter(|k| *k != Kernel::Scalar && k.available())
        .collect()
}

/// Case generator: a (dst, src, coefficient) triple where both operands
/// are unaligned slices of random length into larger random buffers.
struct Case {
    dst_buf: Vec<u8>,
    src_buf: Vec<u8>,
    dst_off: usize,
    src_off: usize,
    len: usize,
    coef: u8,
}

impl Case {
    fn random(rng: &mut impl Rng, round: usize) -> Case {
        // Cycle through length regimes so short tails, chunk boundaries,
        // and multi-chunk bodies all appear many times.
        let len: usize = match round % 4 {
            0 => rng.gen_range(0usize..40),     // tail-only and boundary
            1 => 32 * rng.gen_range(0usize..5), // exact chunk multiples
            2 => 32 * rng.gen_range(0usize..5) + rng.gen_range(1usize..32), // body+tail
            _ => rng.gen_range(0usize..600),    // anything
        };
        let dst_off = rng.gen_range(0..32);
        let src_off = rng.gen_range(0..32);
        let mut dst_buf = vec![0u8; dst_off + len];
        let mut src_buf = vec![0u8; src_off + len];
        rng.fill_bytes(&mut dst_buf);
        rng.fill_bytes(&mut src_buf);
        Case {
            dst_buf,
            src_buf,
            dst_off,
            src_off,
            len,
            coef: rng.gen(),
        }
    }

    fn dst(&self) -> Vec<u8> {
        self.dst_buf[self.dst_off..].to_vec()
    }

    fn src(&self) -> &[u8] {
        &self.src_buf[self.src_off..]
    }
}

/// 0..6 extra sources of `len` bytes, with coefficients that include
/// zeros (the fused paths skip them).
fn extra_sources(rng: &mut impl Rng, len: usize) -> Vec<(u8, Vec<u8>)> {
    (0..rng.gen_range(0usize..6))
        .map(|_| {
            let mut s = vec![0u8; len];
            rng.fill_bytes(&mut s);
            (rng.gen::<u8>() & rng.gen::<u8>(), s)
        })
        .collect()
}

#[test]
fn dispatched_kernel_is_best_available() {
    // A silent fallback to the portable loops would still pass every
    // identity test; pin the dispatch so it cannot.
    let k = kernel();
    assert_ne!(k, Kernel::Scalar, "the reference is never dispatched");
    assert!(k.available());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(k, Kernel::Avx2);
    } else {
        assert_eq!(k, Kernel::Vector);
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(k, Kernel::Vector);
    assert_eq!(kernel(), k, "the probe runs once");
}

#[test]
fn unavailable_kernels_are_refused() {
    for k in Kernel::ALL.into_iter().filter(|k| !k.available()) {
        let r = std::panic::catch_unwind(|| xor_into_on(k, &mut [0u8; 4], &[0u8; 4]));
        assert!(r.is_err(), "{} ran on a CPU without it", k.name());
    }
}

#[test]
fn axpy_matches_scalar_on_500_random_cases_per_kernel() {
    for k in fast_kernels() {
        let mut rng = SeedSequence::new(0xA1).fork("axpy", 0);
        for round in 0..500 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            gf_axpy_on(k, &mut a, case.coef, case.src());
            gf_axpy_on(Kernel::Scalar, &mut b, case.coef, case.src());
            assert_eq!(
                a,
                b,
                "{} round {round}: len={} coef={} offs=({},{})",
                k.name(),
                case.len,
                case.coef,
                case.dst_off,
                case.src_off
            );
        }
    }
}

#[test]
fn xor_matches_scalar_on_300_random_cases_per_kernel() {
    for k in fast_kernels() {
        let mut rng = SeedSequence::new(0xA2).fork("xor", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            xor_into_on(k, &mut a, case.src());
            xor_into_on(Kernel::Scalar, &mut b, case.src());
            assert_eq!(
                a,
                b,
                "{} round {round}: len={} offs=({},{})",
                k.name(),
                case.len,
                case.dst_off,
                case.src_off
            );
        }
    }
}

#[test]
fn fused_axpy_matches_scalar_on_300_random_cases_per_kernel() {
    for k in fast_kernels() {
        let mut rng = SeedSequence::new(0xA5).fork("multi", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            let extra = extra_sources(&mut rng, case.len);
            let mut srcs: Vec<(u8, &[u8])> = vec![(case.coef, case.src())];
            srcs.extend(extra.iter().map(|(c, s)| (*c, s.as_slice())));
            let mut a = case.dst();
            let mut b = case.dst();
            gf_axpy_multi_on(k, &mut a, &srcs);
            gf_axpy_multi_on(Kernel::Scalar, &mut b, &srcs);
            assert_eq!(
                a,
                b,
                "{} round {round}: len={} sources={} coef0={}",
                k.name(),
                case.len,
                srcs.len(),
                case.coef
            );
        }
    }
}

#[test]
fn scale_matches_scalar_on_300_random_cases_per_kernel() {
    for k in fast_kernels() {
        let mut rng = SeedSequence::new(0xA3).fork("scale", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            gf_scale_on(k, &mut a, case.coef);
            gf_scale_on(Kernel::Scalar, &mut b, case.coef);
            assert_eq!(
                a,
                b,
                "{} round {round}: len={} coef={} off={}",
                k.name(),
                case.len,
                case.coef,
                case.dst_off
            );
        }
    }
}

/// The vector axpy switches to a byte-pair product table above a length
/// threshold; exercise lengths straddling it (including odd tails) so the
/// large-block path of every kernel is pinned to the reference as well.
#[test]
fn axpy_matches_scalar_across_pair_table_threshold_per_kernel() {
    for k in fast_kernels() {
        let mut rng = SeedSequence::new(0xA6).fork("pair", 0);
        for round in 0..40 {
            let len = 32 * 1024 - 20 + rng.gen_range(0usize..64) + 1024 * rng.gen_range(0usize..3);
            let coef: u8 = rng.gen();
            let mut src = vec![0u8; len];
            let mut a = vec![0u8; len];
            rng.fill_bytes(&mut src);
            rng.fill_bytes(&mut a);
            let mut b = a.clone();
            gf_axpy_on(k, &mut a, coef, &src);
            gf_axpy_on(Kernel::Scalar, &mut b, coef, &src);
            assert_eq!(a, b, "{} round {round}: len={len} coef={coef}", k.name());
        }
    }
}

/// The byte-pair product table is rebuilt lazily per thread and per
/// coefficient; many threads initializing it at once — with different
/// coefficients, over table-threshold lengths — must each still match the
/// scalar reference exactly. Regression for the table being observed
/// partially filled. Every kernel runs the same schedule.
#[test]
fn large_axpy_is_exact_under_concurrency_per_kernel() {
    let seq = SeedSequence::new(0xA7);
    for k in fast_kernels() {
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let seq = &seq;
                scope.spawn(move || {
                    let mut rng = seq.fork("pair-concurrent", t);
                    for round in 0..6 {
                        // Over the pair-table threshold, coef varies per
                        // round so the per-thread table is rebuilt
                        // repeatedly while sibling threads do the same.
                        let len = 32 * 1024 + rng.gen_range(0usize..100);
                        let coef: u8 = rng.gen_range(1..=255);
                        let mut src = vec![0u8; len];
                        let mut a = vec![0u8; len];
                        rng.fill_bytes(&mut src);
                        rng.fill_bytes(&mut a);
                        let mut b = a.clone();
                        gf_axpy_on(k, &mut a, coef, &src);
                        gf_axpy_on(Kernel::Scalar, &mut b, coef, &src);
                        assert_eq!(
                            a,
                            b,
                            "{} thread {t} round {round}: len={len} coef={coef}",
                            k.name()
                        );
                    }
                });
            }
        });
    }
}

/// Large lengths through the dispatchers themselves — covers the
/// unrolled main loops and their tails of whichever kernel this CPU
/// dispatches to, plus the dispatch.
#[test]
fn dispatched_ops_match_scalar_on_large_unaligned_cases() {
    let mut rng = SeedSequence::new(0xA8).fork("large", 0);
    for round in 0..40 {
        // 1–3 KiB bodies at every alignment, odd tails included.
        let len = rng.gen_range(1024usize..3072);
        let dst_off = rng.gen_range(0..64);
        let src_off = rng.gen_range(0..64);
        let coef: u8 = rng.gen();
        let mut dst_buf = vec![0u8; dst_off + len];
        let mut src_buf = vec![0u8; src_off + len];
        rng.fill_bytes(&mut dst_buf);
        rng.fill_bytes(&mut src_buf);
        let mut a = dst_buf[dst_off..].to_vec();
        let mut b = a.clone();
        let src = &src_buf[src_off..];

        gf_axpy(&mut a, coef, src);
        gf_axpy_on(Kernel::Scalar, &mut b, coef, src);
        assert_eq!(a, b, "axpy round {round}: len={len} coef={coef}");

        xor_into(&mut a, src);
        xor_into_on(Kernel::Scalar, &mut b, src);
        assert_eq!(a, b, "xor round {round}: len={len}");

        gf_scale(&mut a, coef);
        gf_scale_on(Kernel::Scalar, &mut b, coef);
        assert_eq!(a, b, "scale round {round}: len={len} coef={coef}");

        let extra = extra_sources(&mut rng, len);
        let mut srcs: Vec<(u8, &[u8])> = vec![(coef, src)];
        srcs.extend(extra.iter().map(|(c, s)| (*c, s.as_slice())));
        gf_axpy_multi(&mut a, &srcs);
        gf_axpy_multi_on(Kernel::Scalar, &mut b, &srcs);
        assert_eq!(a, b, "multi round {round}: len={len}");
    }
}

/// RS encode/decode round-trips at the dispatched kernel: the dense
/// GF(256) path (`gf_scale`, `gf_axpy`, `gf_axpy_multi`) end to end.
#[test]
fn rs_roundtrip_at_dispatched_kernel() {
    let mut rng = SeedSequence::new(0xA4).fork("rs", 0);
    for round in 0..40 {
        let k = rng.gen_range(1..12);
        let n = k + rng.gen_range(1..=k);
        let len = rng.gen_range(1..100);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect();
        let rs = ReedSolomon::new(k, n).unwrap();
        let coded = rs.encode(&data).unwrap();
        // Decode from the last K blocks (all parity-heavy subsets work).
        let rx: Vec<_> = (n - k..n).map(|i| (i, coded[i].clone())).collect();
        assert_eq!(rs.decode(&rx).unwrap(), data, "round {round}");
    }
}

/// LT encode/decode round-trips at the dispatched kernel — the XOR path
/// the store runs — on block lengths with sub-vector tails.
#[test]
fn lt_roundtrip_at_dispatched_kernel() {
    let seq = SeedSequence::new(0xAA);
    for round in 0..10u64 {
        let mut rng = seq.fork("lt", round);
        let k = rng.gen_range(8usize..64);
        let n = 3 * k;
        let len = rng.gen_range(1usize..2048);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| {
                let mut b = vec![0u8; len];
                rng.fill_bytes(&mut b);
                b
            })
            .collect();
        let code = LtCode::plan(k, n, LtParams::default(), seq.seed_for("plan", round)).unwrap();
        let coded = code.encode(&data).unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut decoder = LtDecoder::new(&code, len);
        for &j in &order {
            if decoder.receive(j, coded[j].clone()) {
                break;
            }
        }
        assert_eq!(
            decoder.into_data(),
            Some(data),
            "round {round}: k={k} len={len}"
        );
    }
}
