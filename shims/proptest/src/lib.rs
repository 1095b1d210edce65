//! In-tree stand-in for the slice of `proptest` this workspace uses.
//!
//! Provides the [`Strategy`] trait, range / tuple / `Just` / mapped /
//! one-of / collection strategies, `any::<T>()`, the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!`, and `prop_oneof!` macros, and
//! [`ProptestConfig`] with bounded case counts.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the case number and
//!   the assertion message; cases are deterministic (seeded from the
//!   test name and case index), so failures reproduce exactly.
//! * **Bounded defaults.** `ProptestConfig::default()` runs 64 cases
//!   (override with the `PROPTEST_CASES` environment variable), which
//!   keeps the tier-1 suite fast.

use std::fmt;
use std::ops::Range;

/// Per-test configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

/// The `PROPTEST_CASES` environment override, when set and valid.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

impl ProptestConfig {
    /// A config running `cases` cases. The `PROPTEST_CASES`
    /// environment variable overrides the in-source count so soak
    /// runs can deepen every suite without editing test files.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(64)
    }
}

/// Why a test case failed; produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with `msg`.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic per-test RNG (splitmix64 over name-hash + case).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose stream is a pure function of `(name, case)`.
    pub fn deterministic(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A generator of test-case values (subset of proptest's `Strategy`:
/// generation only, no shrink tree).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Boxes the strategy behind a uniform type (used by
    /// `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Mapped strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over `options`; must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*
    };
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy [`any`] returns.
    type Strategy: Strategy<Value = Self>;

    /// The strategy generating arbitrary values of `Self`.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for all values of a primitive type.
#[derive(Debug, Clone, Default)]
pub struct AnyOf<T>(std::marker::PhantomData<T>);

impl Strategy for AnyOf<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyOf<bool>;

    fn arbitrary() -> Self::Strategy {
        AnyOf(std::marker::PhantomData)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),* $(,)?) => {
        $(
            impl Strategy for AnyOf<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = AnyOf<$t>;

                fn arbitrary() -> Self::Strategy {
                    AnyOf(std::marker::PhantomData)
                }
            }
        )*
    };
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy generating arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The glob-import surface tests use: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// Mirror of proptest's `prelude::prop` module path.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Fails the current case unless the operands differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Uniform choice among heterogeneous strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $($crate::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ..)`
/// item becomes a libtest test running `cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $(
        $(#[$meta:meta])+
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let strategy = ($($strategy,)+);
                for case in 0..cfg.cases {
                    let mut rng = $crate::TestRng::deterministic(stringify!($name), case);
                    let ($($pat,)+) = $crate::Strategy::generate(&strategy, &mut rng);
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest case {case} of {}: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds", 0);
        let s = prop::collection::vec((0u32..10, 5usize..6), 2..4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v.len() >= 2 && v.len() < 4);
            for (a, b) in v {
                assert!(a < 10);
                assert_eq!(b, 5);
            }
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = TestRng::deterministic("arms", 1);
        let s = prop_oneof![(0usize..3).prop_map(|i| i), Just(7usize),];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.generate(&mut rng));
        }
        assert!(seen.contains(&7));
        assert!(seen.iter().any(|&v| v < 3));
    }

    #[test]
    fn deterministic_across_runs() {
        let s = prop::collection::vec(0u64..1000, 0..50);
        let mut r1 = TestRng::deterministic("det", 3);
        let mut r2 = TestRng::deterministic("det", 3);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..50, ys in prop::collection::vec(0usize..9, 0..10)) {
            prop_assert!(x < 50);
            for y in ys {
                prop_assert!(y < 9, "y was {y}");
            }
        }

        #[test]
        fn destructuring_bindings_work((a, b) in (0u32..5, any::<bool>())) {
            prop_assert!(a < 5);
            prop_assert_eq!(b as u32 <= 1, true);
            prop_assert_ne!(a, 99);
        }
    }
}
