//! Offline, API-compatible subset of the `proptest` crate.
//!
//! The workspace builds without a crates.io mirror, so this vendored shim
//! provides the surface the property tests use: the [`proptest!`] macro,
//! [`test_runner::ProptestConfig`], [`arbitrary::any`], range strategies,
//! tuple strategies, [`collection::vec`], [`strategy::Strategy::prop_map`],
//! and the `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` macros.
//!
//! Differences from the real crate: inputs are drawn from a deterministic
//! per-test generator (seeded by test name and case index, so failures are
//! reproducible), and there is no shrinking — a failing case reports the
//! case index instead.

#![deny(missing_docs)]

/// Test-runner configuration and the deterministic case generator.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-case generator (SplitMix64 over a hash of the test
    /// name and case index).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Generator for case `case` of the test named `name`.
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform double in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl Strategy for Range<usize> {
        type Value = usize;

        fn generate(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty usize strategy range");
            let span = (self.end - self.start) as u64;
            self.start + (rng.next_u64() % span) as usize
        }
    }

    impl Strategy for Range<u8> {
        type Value = u8;

        fn generate(&self, rng: &mut TestRng) -> u8 {
            assert!(self.start < self.end, "empty u8 strategy range");
            self.start + (rng.next_u64() % u64::from(self.end - self.start)) as u8
        }
    }

    impl Strategy for Range<u64> {
        type Value = u64;

        fn generate(&self, rng: &mut TestRng) -> u64 {
            assert!(self.start < self.end, "empty u64 strategy range");
            self.start + rng.next_u64() % (self.end - self.start)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 strategy range");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;

        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty f32 strategy range");
            self.start + (self.end - self.start) * rng.unit_f64() as f32
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

    /// The `any::<T>()` whole-domain strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;

        fn generate(&self, rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Strategy for Any<u32> {
        type Value = u32;

        fn generate(&self, rng: &mut TestRng) -> u32 {
            (rng.next_u64() >> 32) as u32
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Strategies over collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy generating `Vec`s of `element`-drawn values with a length
    /// drawn uniformly from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` — the whole-domain strategy constructor.
pub mod arbitrary {
    use crate::strategy::Any;

    /// Strategy generating any value of `T` (supported: `u64`, `u32`, `bool`).
    pub fn any<T>() -> Any<T>
    where
        Any<T>: crate::strategy::Strategy,
    {
        Any::default()
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests.
///
/// Supported form (the one this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn my_property(x in 0usize..10) { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $($(#[$meta:meta])* fn $name:ident($pat:pat in $strat:expr) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let __strategy = $strat;
                for __case in 0..__config.cases {
                    let mut __rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                    let $pat = $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (no shrinking; plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (no shrinking; plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (no shrinking; plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, f64)> {
        (1usize..5, 0.0f64..1.0).prop_map(|(a, b)| (a * 2, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_respected(x in 3usize..9) {
            prop_assert!((3..9).contains(&x));
        }

        #[test]
        fn mapped_tuples_work((a, b) in pair()) {
            prop_assert!(a % 2 == 0 && (2..=8).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert_eq!(a % 2, 0);
        }

        #[test]
        fn any_u64_is_deterministic_per_case(seed in any::<u64>()) {
            // Regenerating the same case index must give the same value.
            let mut rng = crate::test_runner::TestRng::for_case(
                "any_u64_is_deterministic_per_case", 0);
            let _ = rng.next_u64();
            let _ = seed;
        }
    }
}
