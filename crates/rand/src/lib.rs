//! Vendored stand-in for the `rand` crate (0.8-era API subset).
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the subset it uses: `rngs::SmallRng` seeded via
//! `SeedableRng::seed_from_u64`, and the `Rng` extension methods
//! `gen`, `gen_range`, and `gen_bool`. The generator is xoshiro256++
//! (what real `SmallRng` uses on 64-bit targets), seeded through
//! SplitMix64 — high-quality, fast, and fully deterministic from the seed,
//! which is the property the simulator's replay/debugging workflow relies
//! on (DESIGN §5).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Constructing a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// A distribution that can produce values of `T`.
pub trait Distribution<T> {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "natural" distribution for a type: uniform over the whole domain for
/// integers, uniform in `[0, 1)` for floats, fair coin for `bool`.
pub struct Standard;

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// A range that `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty, matching the real crate.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit: f64 = Standard.sample(rng);
                self.start + (self.end - self.start) * unit as $t
            }
        }
    )*};
}
impl_sample_range_float!(f64, f32);

/// User-facing convenience methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Samples from the type's [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
        Self: Sized,
    {
        Standard.sample(self)
    }

    /// Samples uniformly from a range.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = self.gen();
        u < p
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SmallRng {
        /// The raw xoshiro256++ state words. The entire future stream is a
        /// pure function of these, so they are exactly what a state
        /// fingerprint (model checking, replay digests) must capture.
        pub fn state_words(&self) -> [u64; 4] {
            self.s
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> SmallRng {
            let mut sm = state;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(0usize..=5);
            assert!(y <= 5);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut r = SmallRng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}
