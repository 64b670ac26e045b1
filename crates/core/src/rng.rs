//! A small, fast, dependency-free deterministic RNG (xoshiro256++).
//!
//! The workload generators, attack schedules, and Monte-Carlo models all
//! need a seedable general-purpose generator. The hardware-modelled swap
//! randomness keeps using [`crate::prng::PrinceCtrRng`] (the paper's PRINCE
//! CTR construction); this module serves the *simulation harness* side,
//! where statistical quality and speed matter but cipher fidelity does not.
//!
//! Determinism contract: the output sequence for a given seed is part of
//! the repository's reproducibility surface — campaign results are only
//! byte-stable across runs because this generator is.

/// SplitMix64 step — used for seeding and for hashing seeds together.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two 64-bit values into one — for deriving per-cell/per-core seeds.
#[inline]
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32);
    let x = splitmix64(&mut s);
    splitmix64(&mut s) ^ x
}

/// xoshiro256++ deterministic generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, bound)` via rejection sampling (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Uniform draw in `[lo, hi)` for `usize` ranges.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below `hi - lo`, which came from a usize"
    )]
    pub fn next_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval_and_fills_it() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < 0.01 && max > 0.99, "poor coverage: [{min}, {max}]");
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "draws < 10 fit 10 buckets")]
    fn bounded_draws_are_in_range_and_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn mix_seed_decorrelates() {
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
        assert_ne!(mix_seed(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::seed_from_u64(0).next_below(0);
    }
}
