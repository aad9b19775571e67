//! Offline shim for `proptest`.
//!
//! Provides deterministic random testing with the `proptest!` macro,
//! strategies (ranges, tuples, `collection::vec`, `prop_map`, `Just`,
//! `prop_oneof!`, `any`) and the `prop_assert*` family. Inputs are drawn
//! from a SplitMix64 stream seeded by the test name, so every run explores
//! the same cases. A failing case is shrunk — `Vec`s by halving and by
//! dropping one element, tuples one component at a time — and the
//! property panics with the minimal input and the seed of its case
//! ([`test_runner::run`]).

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Deterministic generator feeding the strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary byte string (typically the test name).
    pub fn deterministic(tag: &str) -> Self {
        // FNV-1a, then a warm-up step.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = TestRng { state: h };
        rng.next_u64();
        rng
    }

    /// The generator whose stream starts where this one stands: what a
    /// failing case reports, and [`TestRng::from_seed`] takes back.
    pub fn seed(&self) -> u64 {
        self.state
    }

    /// The generator a failing case reported as `seed`.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits (SplitMix64).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`Arbitrary::arbitrary`].
    type Strategy: strategy::Strategy<Value = Self>;

    /// Full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for `T` (e.g. `any::<u32>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = strategy::AnyInt<$t>;
            fn arbitrary() -> Self::Strategy {
                strategy::AnyInt(std::marker::PhantomData)
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    type Strategy = strategy::AnyBool;
    fn arbitrary() -> Self::Strategy {
        strategy::AnyBool
    }
}

/// The prelude mirrors `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Assert inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip this case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::boxed_sampler($strat)),+
        ])
    };
}

/// Define deterministic property tests.
///
/// Supports the upstream surface this workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn prop(x in 0u32..10, v in proptest::collection::vec(any::<u32>(), 3)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                // The body runs per case as a closure; prop_assume! skips
                // a case by returning from it.
                $crate::test_runner::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    $cfg,
                    ($($strat,)+),
                    |($($arg,)+)| $body,
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()); $($rest)*);
    };
}
