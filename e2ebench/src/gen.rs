//! Seeded input generation: payload bytes, op mixes, loss victims and
//! arrival offsets all come from one workload seed through these streams.

/// SplitMix64: a small, fast generator; one stream per purpose, forked
/// from the workload seed with a label so streams never share draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Fill `buf` with the payload identified by `content`: the same id always
/// gives the same bytes, so expected data is regenerated, never stored.
pub fn fill_payload(content: u64, buf: &mut [u8]) {
    let mut rng = Rng::new(content, "payload");
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = rng.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Poisson arrival offsets in microseconds: `count` arrivals at `rate`
/// per second, starting after `start_us`.
pub fn poisson_offsets(rng: &mut Rng, count: usize, rate: f64, start_us: f64) -> Vec<u64> {
    let mean_gap_us = 1e6 / rate;
    let mut at = start_us;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() * mean_gap_us;
            at as u64
        })
        .collect()
}
