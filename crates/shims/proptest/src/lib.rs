//! Offline stand-in for the parts of the `proptest` crate this workspace uses.
//!
//! The build environment has no network access, so the real `proptest` cannot
//! be fetched from crates.io. This shim implements the subset of the API the
//! workspace's property tests rely on:
//!
//! * the [`strategy::Strategy`] trait with `prop_map`, for integer ranges, tuples, and
//!   [`collection::vec`];
//! * the [`proptest!`] macro (including the `#![proptest_config(..)]` header)
//!   expanding each property into a deterministic multi-case `#[test]`;
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, and
//!   `prop_assume!`.
//!
//! Differences from the real crate: cases are generated from a seed derived
//! from the test name (fully deterministic across runs), there is **no
//! shrinking** — a failing case panics with the generated inputs in the
//! assertion message — and `prop_assume!` skips the current case instead of
//! drawing a replacement.

/// Deterministic test-case RNG (splitmix64).
pub mod test_runner {
    /// The random source handed to strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG whose stream is a deterministic function of `name`.
        pub fn deterministic(name: &str) -> TestRng {
            // FNV-1a over the test name, so each property gets its own stream.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform sample from `[0, bound)` (`bound > 0`).
        pub fn below(&mut self, bound: u128) -> u128 {
            debug_assert!(bound > 0);
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            wide % bound
        }
    }

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 128 }
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and adapters.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// The adapter returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) source: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    (self.start as i128).wrapping_add(rng.below(span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span =
                        (*self.end() as i128).wrapping_sub(*self.start() as i128) as u128 + 1;
                    (*self.start() as i128).wrapping_add(rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // i128 spans overflow the i128-based arithmetic above only for ranges
    // wider than u128::MAX / 2, which the workspace never uses.
    impl_int_range_strategy!(i128);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A size specification: an exact length or a length range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u128 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors of values of `element`, with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy generating unbiased booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Generates `true` or `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares deterministic multi-case property tests.
///
/// Supports the same surface syntax as the real `proptest!` for the forms the
/// workspace uses: an optional `#![proptest_config(expr)]` header followed by
/// `#[test] fn name(binding in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the assumption does not hold.
///
/// Must be used directly inside a `proptest!` body: it expands to a
/// `continue` targeting the case loop.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("bounds");
        for _ in 0..500 {
            let v = Strategy::generate(&(3u8..7), &mut rng);
            assert!((3..7).contains(&v));
            let w = Strategy::generate(&(-4i64..=4), &mut rng);
            assert!((-4..=4).contains(&w));
            let xs = Strategy::generate(&crate::collection::vec(0u8..4, 1..5), &mut rng);
            assert!((1..5).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < 4));
            let fixed = Strategy::generate(&crate::collection::vec(0i64..10, 5usize), &mut rng);
            assert_eq!(fixed.len(), 5);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("same");
        let mut b = crate::test_runner::TestRng::deterministic("same");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::deterministic("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro machinery itself: bindings, tuples, maps, and assume.
        #[test]
        fn macro_roundtrip(pair in (0u8..10, 0u8..10).prop_map(|(a, b)| (a, b)), n in 0i64..100) {
            prop_assume!(pair.0 != 9);
            prop_assert!(pair.0 < 9 && pair.1 < 10);
            prop_assert_eq!(n - n, 0);
            prop_assert_ne!(n, n + 1);
        }
    }
}
