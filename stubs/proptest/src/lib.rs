//! Offline stub of `proptest` implementing the subset of the API this
//! workspace's property tests use:
//!
//! * the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   inner attribute and any number of `#[test]` functions),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * [`strategy::Strategy`] implemented for integer ranges,
//! * [`arbitrary::any`] for the primitive integer types and `bool`,
//! * [`collection::vec`],
//! * [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest: inputs are sampled from a deterministic
//! per-case SplitMix64 stream (every run tests the same inputs), there is no
//! shrinking (a failure reports the case index and the assertion message),
//! and the default number of cases is 64 rather than 256 to keep
//! `cargo test` latency low.

#![warn(missing_docs)]

pub mod test_runner {
    //! Test runner configuration and error types.

    use std::fmt;

    /// Configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of test cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed property assertion.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure carrying `message`.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic per-case random number generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The generator for case number `case` of a property. Each case gets
        /// an independent, reproducible stream.
        pub fn for_case(case: u64) -> Self {
            TestRng {
                state: (case.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ 0xD1B5_4A32_D192_ED03,
            }
        }

        /// Next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`. `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Lemire-style widening multiply; the slight bias is irrelevant
            // for test-input generation.
            (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] abstraction: a recipe for generating test values.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for sampling values of type [`Strategy::Value`].
    ///
    /// Unlike real proptest there are no value trees or shrinking; a strategy
    /// is just a sampler.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $ty)
                }
            }

            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;

                fn sample(&self, rng: &mut TestRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                    if span == 0 {
                        // Full u64/usize domain.
                        return rng.next_u64() as $ty;
                    }
                    start.wrapping_add(rng.below(span) as $ty)
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize);

    /// A strategy producing a single fixed value (clone per case).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod arbitrary {
    //! Default strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Samples an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`: uniform over the whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Half-open range of collection sizes. Mirrors real proptest's
    /// `SizeRange` so bare `0..100` length literals infer as `usize`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty size range");
            SizeRange {
                start: range.start,
                end: range.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            SizeRange {
                start: *range.start(),
                end: range.end().checked_add(1).expect("size range overflow"),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                start: exact,
                end: exact + 1,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The glob-import surface used by test modules.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. Supports the real crate's block form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(12))]
///     #[test]
///     fn prop(x in 0u32..10, mut v in proptest::collection::vec(any::<u32>(), 0..100)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr)) => {};
    (@funcs ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::test_runner::TestRng::for_case(case);
                $(let $pat = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(error) = outcome {
                    panic!("property failed at case {case}: {error}");
                }
            }
        }
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Asserts two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn sampling_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strategy = crate::collection::vec(any::<u32>(), 5usize..10);
        let a = strategy.sample(&mut TestRng::for_case(3));
        let b = strategy.sample(&mut TestRng::for_case(3));
        assert_eq!(a, b);
        assert!(a.len() >= 5 && a.len() < 10);
    }

    #[test]
    fn ranges_respect_bounds() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut rng = TestRng::for_case(0);
        for _ in 0..10_000 {
            let x = (10u32..20).sample(&mut rng);
            assert!((10..20).contains(&x));
            let y = (0usize..=(1 << 40)).sample(&mut rng);
            assert!(y <= 1 << 40);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_supports_config_and_multiple_args(
            x in 1u8..5,
            mut v in crate::collection::vec(any::<u16>(), 0..8),
        ) {
            v.push(x as u16);
            prop_assert!(!v.is_empty());
            prop_assert_eq!(v.last().copied(), Some(x as u16));
            prop_assert_ne!(v.len(), 0);
        }
    }

    proptest! {
        #[test]
        fn macro_supports_default_config(x in any::<u64>()) {
            prop_assert_eq!(x, x);
        }
    }
}
