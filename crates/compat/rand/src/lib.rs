//! Offline, API-compatible subset of the `rand` crate (v0.8 surface).
//!
//! This workspace builds in environments with no access to crates.io, so the
//! external `rand` dependency is replaced by this vendored shim that implements
//! exactly the API surface the workspace uses:
//!
//! * [`rngs::StdRng`] seeded through [`SeedableRng::seed_from_u64`],
//! * the [`Rng`] extension trait with `gen_range` / `gen_bool` / `gen`,
//! * [`distributions::Uniform`] with [`distributions::Distribution::sample`],
//! * [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — deterministic per seed,
//! which is all the reproduction needs (seeded test/benchmark inputs). It is NOT
//! the same stream as the real `rand::rngs::StdRng` (ChaCha12), so seeds produce
//! different—but equally reproducible—values.

#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (subset: seeding from a `u64`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled uniformly from a range (the `gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Converts 64 random bits into a double in `[0, 1)`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * unit_f64(rng.next_u64())
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = unit_f64(rng.next_u64()) as f32;
        self.start + (self.end - self.start) * unit
    }
}

/// Uniform integer in `[0, span)` without modulo bias (Lemire's method would be
/// overkill here; rejection sampling keeps it simple and exact).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_sample_range!(usize, u64, u32, u16, u8);

/// User-facing random-value methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value from a range, e.g. `rng.gen_range(-1.0f32..1.0)`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1]"
        );
        unit_f64(self.next_u64()) < p
    }

    /// Uniform value of the output type (`f32`/`f64` in `[0, 1)`, integers over
    /// their whole domain).
    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types with a canonical "standard" distribution for [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one standard-distributed value.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
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

/// Distribution objects (subset: [`Uniform`](distributions::Uniform)).
pub mod distributions {
    use super::{Rng, SampleRange};
    use std::ops::Range;

    /// A distribution that can be sampled with any generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform distribution over `[low, high)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Uniform<T> {
        low: T,
        high: T,
    }

    impl<T: Copy> Uniform<T> {
        /// Creates a uniform distribution over `[low, high)`.
        pub fn new(low: T, high: T) -> Self {
            Uniform { low, high }
        }
    }

    impl<T> Distribution<T> for Uniform<T>
    where
        T: Copy + PartialOrd,
        Range<T>: SampleRange<T>,
    {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (self.low..self.high).sample_single(rng)
        }
    }
}

/// Sequence helpers (subset: [`SliceRandom::shuffle`](seq::SliceRandom::shuffle)).
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` for an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.gen_range(3usize..10);
            assert!((3..10).contains(&u));
            let i = rng.gen_range(0usize..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(4);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        rng.gen_bool(1.5);
    }
}
