//! Block representation and XOR helpers.
//!
//! A *block* is the symbol unit of every code in this crate — in RobuSTore
//! deployments, 1 MB of data (§5.2.2 recommends K=128..1024 blocks per
//! segment). All LT coding work reduces to XOR over blocks, so the XOR
//! kernel is the throughput-critical path the paper optimises (§5.2.3
//! item 4: long operands, register- and cache-conscious loops). The actual
//! loops live in [`crate::kernels`], which runs the fastest byte-identical
//! kernel this CPU supports.

pub use crate::kernels::xor_into;

/// A data block: owned bytes of the segment's block size.
pub type Block = Vec<u8>;

/// Allocate a zero block of `len` bytes.
#[inline]
pub fn zero_block(len: usize) -> Block {
    vec![0u8; len]
}

/// XOR a set of blocks together into a fresh block.
///
/// Returns a zero block when `blocks` is empty (the XOR identity), sized by
/// `len`.
pub fn xor_all<'a>(blocks: impl IntoIterator<Item = &'a [u8]>, len: usize) -> Block {
    let mut acc = zero_block(len);
    for b in blocks {
        xor_into(&mut acc, b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let a: Block = (0..=255u8).collect();
        let b: Block = (0..=255u8).rev().collect();
        let mut c = a.clone();
        xor_into(&mut c, &b);
        xor_into(&mut c, &b);
        assert_eq!(c, a);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a: Block = (0..100u8).collect();
        let mut c = a.clone();
        xor_into(&mut c, &a);
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn xor_handles_non_multiple_of_eight() {
        for len in [0usize, 1, 7, 8, 9, 15, 17, 63, 100] {
            let a: Block = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let b: Block = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let mut c = a.clone();
            xor_into(&mut c, &b);
            let expect: Block = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(c, expect, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn unequal_lengths_panic() {
        let mut a = vec![0u8; 8];
        xor_into(&mut a, &[0u8; 9]);
    }

    #[test]
    fn xor_all_empty_is_zero() {
        let z = xor_all(std::iter::empty(), 16);
        assert_eq!(z, vec![0u8; 16]);
    }

    #[test]
    fn xor_all_matches_fold() {
        let blocks: Vec<Block> = (0..5)
            .map(|i| (0..32).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let got = xor_all(blocks.iter().map(|b| b.as_slice()), 32);
        let mut expect = vec![0u8; 32];
        for b in &blocks {
            for (e, x) in expect.iter_mut().zip(b) {
                *e ^= x;
            }
        }
        assert_eq!(got, expect);
    }
}
