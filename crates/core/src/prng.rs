//! Cryptographically strong pseudo-random numbers from PRINCE in CTR mode.
//!
//! §4.4 of the paper: "The random swap destinations are generated using a
//! hardware pseudo-random-number-generator (PRNG). This is accomplished by a
//! low-latency cipher (64-bit PRINCE cipher has < 2ns latency) in CTR-mode
//! with a 64-bit cycle counter as input."
//!
//! [`PrinceCtrRng`] is exactly that construction. It is deterministic given
//! its key and starting counter, which keeps every simulation reproducible.

use crate::prince::Prince;

/// Counters encrypted per keystream refill.
const KEYSTREAM_BLOCKS: usize = 8;

/// A deterministic PRNG: PRINCE encryptions of an incrementing counter.
///
/// The keystream is produced eight consecutive counters at a time, with
/// the eight encryptions run side by side ([`Prince::encrypt_lanes`]),
/// and served from a buffer. The values are exactly
/// `encrypt(counter), encrypt(counter + 1), …`, as if each were
/// encrypted on demand.
#[derive(Debug, Clone)]
pub struct PrinceCtrRng {
    cipher: Prince,
    /// The counter of the next value returned.
    counter: u64,
    /// Encryptions of the counters `counter - used .. counter - used + 8`.
    keystream: [u64; KEYSTREAM_BLOCKS],
    /// Values of `keystream` already returned; `KEYSTREAM_BLOCKS` when
    /// it is spent (or was never filled).
    used: usize,
}

impl PrinceCtrRng {
    /// Creates a generator from a 128-bit key, starting at counter 0.
    pub fn new(key: u128) -> Self {
        Self::with_counter(key, 0)
    }

    /// Creates a generator with an explicit starting counter (e.g. a cycle
    /// count, as in the hardware design).
    pub fn with_counter(key: u128, counter: u64) -> Self {
        PrinceCtrRng {
            cipher: Prince::new(key),
            counter,
            keystream: [0; KEYSTREAM_BLOCKS],
            used: KEYSTREAM_BLOCKS,
        }
    }

    /// The next counter value that will be encrypted.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = match self.keystream.get(self.used) {
            Some(&v) => {
                self.used += 1;
                v
            }
            None => self.refill(),
        };
        self.counter = self.counter.wrapping_add(1);
        out
    }

    /// Encrypts the eight counters from `counter` on and returns the
    /// first encryption, buffering the other seven.
    fn refill(&mut self) -> u64 {
        let base = self.counter;
        let cipher = &self.cipher;
        self.keystream = Prince::encrypt_lanes(std::array::from_fn(|i| {
            (cipher, base.wrapping_add(i as u64))
        }));
        self.used = 1;
        let [first, ..] = self.keystream;
        first
    }

    /// Returns a uniformly distributed value in `0..bound` using rejection
    /// sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection zone: values >= floor(2^64 / bound) * bound are biased.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_key_and_counter() {
        let mut a = PrinceCtrRng::new(0x1234);
        let mut b = PrinceCtrRng::new(0x1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_keys_diverge() {
        let mut a = PrinceCtrRng::new(1);
        let mut b = PrinceCtrRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn counter_advances() {
        let mut r = PrinceCtrRng::with_counter(7, 100);
        assert_eq!(r.counter(), 100);
        r.next_u64();
        assert_eq!(r.counter(), 101);
    }

    /// The buffered keystream is `encrypt(counter)` for consecutive
    /// counters, across refills and from any starting counter.
    #[test]
    fn keystream_is_ctr_mode_across_refills() {
        let key = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        let cipher = Prince::new(key);
        for start in [0u64, 5, 8, u64::MAX - 3] {
            let mut r = PrinceCtrRng::with_counter(key, start);
            for i in 0..3 * KEYSTREAM_BLOCKS as u64 + 3 {
                let counter = start.wrapping_add(i);
                assert_eq!(r.counter(), counter);
                assert_eq!(r.next_u64(), cipher.encrypt(counter), "counter {counter}");
            }
        }
    }

    #[test]
    fn clone_taken_mid_buffer_continues_the_sequence() {
        let key = 0xfeed_f00d;
        let cipher = Prince::new(key);
        let mut r = PrinceCtrRng::new(key);
        for _ in 0..KEYSTREAM_BLOCKS + 3 {
            r.next_u64();
        }
        let mut c = r.clone();
        assert_eq!(c.counter(), r.counter());
        for _ in 0..2 * KEYSTREAM_BLOCKS {
            let counter = r.counter();
            let expected = cipher.encrypt(counter);
            assert_eq!(r.next_u64(), expected);
            assert_eq!(c.next_u64(), expected);
        }
    }

    #[test]
    fn next_below_is_in_range() {
        let mut r = PrinceCtrRng::new(42);
        for bound in [1u64, 2, 3, 7, 128, 131_072, u64::MAX] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "draws < 8 index 8 buckets")]
    fn next_below_covers_small_ranges_uniformly() {
        let mut r = PrinceCtrRng::new(9);
        let mut counts = [0u32; 8];
        let n = 8_000;
        for _ in 0..n {
            counts[r.next_below(8) as usize] += 1;
        }
        // Each bucket should hold ~1000; allow generous 3-sigma-ish slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((850..=1150).contains(&c), "bucket {i} = {c}");
        }
    }

    #[test]
    fn next_bool_matches_probability_roughly() {
        let mut r = PrinceCtrRng::new(77);
        let hits = (0..10_000).filter(|_| r.next_bool(0.25)).count();
        assert!((2_200..=2_800).contains(&hits), "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        PrinceCtrRng::new(0).next_below(0);
    }

    #[test]
    fn bit_balance_is_reasonable() {
        // Across 64k outputs, each bit position should be ~50% ones.
        let mut r = PrinceCtrRng::new(0xfeed);
        let mut ones = [0u32; 64];
        let n = 4096;
        for _ in 0..n {
            let v = r.next_u64();
            for (bit, c) in ones.iter_mut().enumerate() {
                *c += ((v >> bit) & 1) as u32;
            }
        }
        for (bit, &c) in ones.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((0.45..=0.55).contains(&frac), "bit {bit}: {frac}");
        }
    }
}
