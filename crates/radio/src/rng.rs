//! Deterministic pseudo-random number generator.
//!
//! Scenario reproducibility is a hard requirement: every experiment in the
//! paper is replayed from its seed, and `rand`'s default generators do not
//! guarantee stream stability across versions. `DetRng` is a self-contained
//! xoshiro256** (seeded via SplitMix64) whose output is fixed forever by
//! this crate, used everywhere the simulator needs sequential draws
//! (deployment jitter, HO stage durations, workload generation).

/// SplitMix64 step, used for seeding and one-shot hashing.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes a pair of values into a u64 — handy for keyed sub-seeds
/// (`hash2(scenario_seed, cell_id)`).
#[inline]
pub fn hash2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F))
}

/// A deterministic xoshiro256** stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = splitmix64(z);
            *slot = z;
        }
        Self { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Returns 0 for `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller.
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-15);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal draw parameterized by the *target* mean and the sigma of
    /// the underlying normal (shape). Used for HO stage durations, which are
    /// positive and right-skewed in the measurements.
    pub fn lognormal_mean(&mut self, mean: f64, shape_sigma: f64) -> f64 {
        // E[lognormal(mu, s)] = exp(mu + s^2/2) => mu = ln(mean) - s^2/2
        let mu = mean.max(1e-9).ln() - shape_sigma * shape_sigma / 2.0;
        (mu + shape_sigma * self.gauss()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // pinned values: every deployment seed and `DetRng` stream derives
        // from this function, so it must never drift between releases
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn deterministic_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = DetRng::new(11);
        let mean = (0..20_000).map(|_| r.uniform()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn gauss_moments() {
        let mut r = DetRng::new(13);
        let n = 30_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "{mean}");
        assert!((var - 1.0).abs() < 0.05, "{var}");
    }

    #[test]
    fn lognormal_hits_target_mean() {
        let mut r = DetRng::new(17);
        let n = 50_000;
        let target = 167.0;
        let mean = (0..n).map(|_| r.lognormal_mean(target, 0.4)).sum::<f64>() / n as f64;
        assert!((mean - target).abs() < target * 0.03, "{mean}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = DetRng::new(19);
        for _ in 0..1000 {
            assert!(r.lognormal_mean(50.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = DetRng::new(23);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn hash2_differs_by_key() {
        assert_ne!(hash2(1, 2), hash2(1, 3));
        assert_ne!(hash2(1, 2), hash2(2, 2));
        assert_eq!(hash2(5, 9), hash2(5, 9));
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(29);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
