//! # geoind-rng — deterministic randomness for a hermetic workspace
//!
//! A from-scratch seeded PRNG so the workspace builds and tests with zero
//! external dependencies. The generator is **xoshiro256++** (Blackman &
//! Vigna), whose 256-bit state is expanded from a single `u64` seed with
//! **SplitMix64** — the standard pairing recommended by the xoshiro authors,
//! which guarantees a non-zero state and decorrelates nearby seeds.
//!
//! This is a *statistical* PRNG for sampling mechanisms and experiments; it
//! is explicitly **not** cryptographically secure. Every draw is a pure
//! function of the seed, so any experiment is reproducible bit-for-bit by
//! recording one `u64`.
//!
//! ```
//! use geoind_rng::{Rng, SeededRng};
//!
//! let mut rng = SeededRng::from_seed(42);
//! let u = rng.gen_f64();          // uniform in [0, 1)
//! let i = rng.gen_range(0..10);   // uniform in {0, .., 9}
//! let x = rng.gen_range(-2.0..2.0);
//! assert!((0.0..1.0).contains(&u) && i < 10 && (-2.0..2.0).contains(&x));
//!
//! // Same seed, same stream — always.
//! let (mut a, mut b) = (SeededRng::from_seed(7), SeededRng::from_seed(7));
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. Used for seed expansion and for deriving per-case seeds in
/// the test harness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit: the workspace's one dependency-free byte hash. It
/// checksums WAL records and snapshots (integrity, not authenticity),
/// checksums the offline channel bundle, and routes users to ledger
/// shards and channel-cache keys to cache shards — so its output is
/// pinned: every one of those depends on it staying the same.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A source of uniform randomness.
///
/// The trait is deliberately tiny: everything derives from [`next_u64`].
/// It mirrors the subset of `rand::Rng` this workspace actually used, so
/// call sites read the same (`gen_f64`, `gen_range`, `gen_bool`).
///
/// [`next_u64`]: Rng::next_u64
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // Take the top 53 bits: the low bits of xoshiro256++ are its
        // weakest, and 53 is all an f64 mantissa can hold anyway.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `u64` in `[0, n)` without modulo bias (rejection sampling).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn gen_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_u64_below: empty range");
        // Accept x < zone where zone is the largest multiple of n <= 2^64;
        // each residue then appears exactly zone/n times.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// A uniform sample from `range` (exclusive `a..b` or inclusive
    /// `a..=b`, over the float and integer types used in this workspace).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draw one uniform sample using `rng`.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> Self::Output;
}

/// Largest `f64` strictly below `x` (for `x` finite and positive-normal
/// arithmetic results); used to keep `gen_range(a..b)` strictly below `b`
/// when rounding would otherwise land exactly on `b`.
fn next_below(x: f64) -> f64 {
    // Bit-decrement works for all finite positive-magnitude cases we can
    // reach here (a < b implies the sampled value is finite).
    if x == f64::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x > 0.0 {
        bits - 1
    } else if x < 0.0 {
        bits + 1
    } else {
        // x == 0.0 (either sign): step to the smallest negative subnormal.
        (-f64::from_bits(1)).to_bits()
    };
    f64::from_bits(next)
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(
            self.start < self.end,
            "gen_range: empty f64 range {:?}",
            self
        );
        let v = self.start + (self.end - self.start) * rng.gen_f64();
        // Rounding can land exactly on `end`; keep the contract half-open.
        if v < self.end {
            v
        } else {
            next_below(self.end)
        }
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "gen_range: empty f64 range {:?}", self);
        a + (b - a) * rng.gen_f64()
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range {:?}", self);
                let width = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.gen_u64_below(width) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "gen_range: empty range {:?}", self);
                let width = (b as i128 - a as i128) as u64;
                if width == u64::MAX {
                    // Full-width range: every u64 pattern is valid.
                    return a.wrapping_add(rng.next_u64() as $t);
                }
                a.wrapping_add(rng.gen_u64_below(width + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A seeded xoshiro256++ generator — the workspace's only PRNG.
///
/// Construct with [`SeededRng::from_seed`]; identical seeds yield identical
/// streams on every platform (the algorithm is pure 64-bit integer
/// arithmetic, no floating point in the state transition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// Expand a single `u64` seed into the 256-bit state via SplitMix64.
    ///
    /// SplitMix64 never produces four zero outputs in a row, so the
    /// all-zero fixed point of xoshiro is unreachable.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Construct from a raw 256-bit state (must not be all zeros).
    ///
    /// # Panics
    /// Panics if `state == [0; 4]` — the degenerate fixed point.
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(state != [0; 4], "xoshiro256++ state must be non-zero");
        Self { s: state }
    }

    /// Derive an independent generator from this one (e.g. one stream per
    /// thread or per test case) by reseeding through SplitMix64.
    pub fn fork(&mut self) -> Self {
        Self::from_seed(self.next_u64())
    }
}

impl Rng for SeededRng {
    fn next_u64(&mut self) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector for xoshiro256++ from state [1, 2, 3, 4]
    /// (cross-checked against an independent implementation and the
    /// published rand_xoshiro test vector).
    #[test]
    fn xoshiro_reference_vector() {
        let mut rng = SeededRng::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// The published FNV-1a 64-bit test vectors.
    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Reference vector for SplitMix64 from state 0.
    #[test]
    fn splitmix_reference_vector() {
        let mut state = 0u64;
        let expected: [u64; 4] = [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
            17909611376780542444,
        ];
        for &e in &expected {
            assert_eq!(splitmix64(&mut state), e);
        }
    }

    /// from_seed = SplitMix64 expansion feeding xoshiro256++ (pinned so a
    /// refactor cannot silently change every seeded experiment).
    #[test]
    fn seeding_is_pinned() {
        let mut rng = SeededRng::from_seed(42);
        let expected: [u64; 5] = [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
            14637574242682825331,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::from_seed(1234567);
        let mut b = SeededRng::from_seed(1234567);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_f64_is_half_open_unit() {
        let mut rng = SeededRng::from_seed(9);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u), "out of [0,1): {u}");
        }
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = SeededRng::from_seed(10);
        for _ in 0..10_000 {
            let v = rng.gen_range(-1.5..1.5);
            assert!((-1.5..1.5).contains(&v), "out of range: {v}");
            let w = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(w > 0.0 && w < 1.0);
        }
    }

    #[test]
    fn int_ranges_cover_exactly_their_support() {
        let mut rng = SeededRng::from_seed(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never sampled");
        for _ in 0..1000 {
            let v = rng.gen_range(1..=10usize);
            assert!((1..=10).contains(&v));
            let n = rng.gen_range(-3..3i64);
            assert!((-3..3).contains(&n));
        }
        // Degenerate one-element ranges.
        assert_eq!(rng.gen_range(5..6usize), 5);
        assert_eq!(rng.gen_range(7..=7u32), 7);
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut a = SeededRng::from_seed(3);
        let mut b = a.fork();
        let pa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let pb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = SeededRng::from_state([0; 4]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        let mut rng = SeededRng::from_seed(1);
        let _ = rng.gen_range(5..5usize);
    }
}
