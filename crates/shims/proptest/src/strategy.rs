//! Strategy trait and the combinators the workspace uses.

use crate::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Smaller values to try in place of `value` when it fails a property,
    /// most aggressive first. None by default: a value shrinks only through
    /// a strategy that knows how.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategies are usable through references (the `proptest!` macro samples
/// through `&strat`).
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Full-domain integer strategy (returned by `any::<T>()`).
#[derive(Debug, Clone, Copy)]
pub struct AnyInt<T>(pub(crate) PhantomData<T>);

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyInt<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Full-domain bool strategy.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// A tuple shrinks one component at a time, the others held.
macro_rules! impl_tuple_strategy {
    ($(($($name:ident $index:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut smaller = Vec::new();
                $(
                    for part in self.$index.shrink(&value.$index) {
                        let mut candidate = value.clone();
                        candidate.$index = part;
                        smaller.push(candidate);
                    }
                )+
                smaller
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A 0),
    (A 0, B 1),
    (A 0, B 1, C 2),
    (A 0, B 1, C 2, D 3),
    (A 0, B 1, C 2, D 3, E 4),
    (A 0, B 1, C 2, D 3, E 4, F 5)
);

/// A boxed sampling closure producing values of type `V`.
pub type Sampler<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Erase a strategy into a boxed sampling closure (used by `prop_oneof!`;
/// a plain generic function so integer-literal types unify across arms).
pub fn boxed_sampler<S>(strategy: S) -> Sampler<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(move |rng| strategy.sample(rng))
}

/// Uniform choice among boxed samplers (built by `prop_oneof!`).
pub struct OneOf<V> {
    options: Vec<Sampler<V>>,
}

impl<V> OneOf<V> {
    /// Build from at least one sampler.
    pub fn new(options: Vec<Sampler<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len());
        (self.options[i])(rng)
    }
}
