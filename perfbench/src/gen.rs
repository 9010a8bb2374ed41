//! Seeded input generation, self-contained on purpose: a change to the
//! repository's own workload or RNG crates cannot change what the benchmark
//! feeds the program.
//!
//! [`Rng`] is xorshift64* seeded through SplitMix64; [`Zipf`] samples ranks
//! by binary search over the cumulative weights `1/(i+1)^s` (an inverse
//! CDF). Everything a workload generates is a pure function of its seed.

/// xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on `stream` (independent streams of one seed
    /// for independent parts of a workload).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x6a09_e667_f3bc_c909);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(s) over ranks `0..n`, sampled through the inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf population must be non-empty");
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(exponent);
                total
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty CDF");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A fixed pseudo-random permutation of `0..n`, so popularity rank and id
/// are unrelated (hot files and heavy users are spread over the id space
/// and therefore over every shard).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut c = Rng::new(7, 2);
        assert_ne!(Rng::new(7, 1).next_u64(), c.next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(head > 10 * tail.max(1));
        assert!(draws.iter().all(|&r| r < 1000));
    }
}
