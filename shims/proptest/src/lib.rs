//! Offline stand-in for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! `proptest!` macro with `#![proptest_config(ProptestConfig::with_cases(N))]`,
//! integer/float range strategies, tuple strategies, `any::<bool>()`,
//! `prop::collection::vec`, `prop::sample::select`, `.prop_map`, and the
//! `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Generation is deterministic (seeded per test case index) and there is no
//! shrinking: a failing case panics with the generated inputs so it can be
//! reproduced by reading the message. `proptest-regressions` files are
//! ignored.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property assertion (from `prop_assert!`-family macros).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic random source driving strategy sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds a generator from a case index (SplitMix64-expanded xoshiro256++).
    #[must_use]
    pub fn for_case(seed: u64) -> Self {
        let mut state = seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(0xA076_1D64_78BD_642F);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform draw below `n` (must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Drives the cases of one property.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Creates a runner with the given config.
    #[must_use]
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config }
    }

    /// Number of cases to run.
    #[must_use]
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The deterministic generator for case `case`.
    #[must_use]
    pub fn rng_for_case(&self, case: u32) -> TestRng {
        TestRng::for_case(u64::from(case))
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.abs_diff(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = end.abs_diff(start) as u64;
                match span.checked_add(1) {
                    Some(n) => start.wrapping_add(rng.below(n) as $t),
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        start + rng.unit_f64() * (end - start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for any value of `T` (see [`any`]).
#[derive(Debug)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of arbitrary values of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// The `prop::` namespace (`prop::collection`, `prop::sample`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::fmt::Debug;
        use std::ops::{Range, RangeInclusive};

        /// Anything usable as a size range for [`vec()`].
        pub trait SizeRange {
            /// Draws a length.
            fn sample_len(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn sample_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for Range<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                assert!(self.start < self.end, "empty size range");
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }

        impl SizeRange for RangeInclusive<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty size range");
                s + rng.below((e - s + 1) as u64) as usize
            }
        }

        /// Strategy for vectors of values from `element`.
        #[derive(Debug)]
        pub struct VecStrategy<S, R> {
            element: S,
            size: R,
        }

        impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R>
        where
            S::Value: Debug,
        {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let len = self.size.sample_len(rng);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Vectors whose length is drawn from `size` and whose elements come
        /// from `element`.
        pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
            VecStrategy { element, size }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::{Strategy, TestRng};
        use std::fmt::Debug;

        /// Strategy choosing uniformly from a fixed set (see [`select`]).
        #[derive(Debug)]
        pub struct Select<T: Clone + Debug>(Vec<T>);

        impl<T: Clone + Debug> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.0[rng.below(self.0.len() as u64) as usize].clone()
            }
        }

        /// Chooses uniformly from `options` (must be non-empty).
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select requires options");
            Select(options)
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests. See the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __runner = $crate::TestRunner::new(__config);
                for __case in 0..__runner.cases() {
                    let mut __rng = __runner.rng_for_case(__case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "property `{}` failed at case {}: {}\n  inputs: {}",
                            stringify!($name), __case, __e, __inputs,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property, reporting the inputs on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{} ({:?} != {:?})", format!($($fmt)*), l, r);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{} ({:?} == {:?})", format!($($fmt)*), l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone)]
    struct Spec {
        p: u64,
        mask: u8,
    }

    fn spec() -> impl Strategy<Value = Spec> {
        (1u64..100, 0u8..=255).prop_map(|(p, mask)| Spec { p, mask })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 0usize..=3, f in -2.0f64..2.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y <= 3);
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_and_select(
            v in prop::collection::vec((1u64..50, 0u8..=7), 1..20),
            pick in prop::sample::select(vec![1u32, 5, 9]),
            flag in any::<bool>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!([1u32, 5, 9].contains(&pick));
            let _ = flag;
            for (a, b) in v {
                prop_assert!((1..50).contains(&a), "a = {}", a);
                prop_assert!(b <= 7);
            }
        }

        #[test]
        fn mapped_strategies(s in spec(), same in prop::collection::vec(spec(), 2..5)) {
            prop_assert!(s.p >= 1 && s.p < 100);
            let _ = s.mask;
            prop_assert_ne!(same.len(), 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let runner = TestRunner::new(ProptestConfig::with_cases(4));
        let s = (1u64..1_000, 0u8..=255);
        let a: Vec<_> = (0..4)
            .map(|c| s.generate(&mut runner.rng_for_case(c)))
            .collect();
        let b: Vec<_> = (0..4)
            .map(|c| s.generate(&mut runner.rng_for_case(c)))
            .collect();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    use crate::{ProptestConfig, Strategy, TestRunner};
}
