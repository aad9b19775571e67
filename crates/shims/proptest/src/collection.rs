//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::TestRng;
use std::ops::{Range, RangeInclusive};

/// Admissible sizes for a generated collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy producing `Vec`s of values from an element strategy.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = if self.size.lo == self.size.hi {
            self.size.lo
        } else {
            self.size.lo + rng.below(self.size.hi - self.size.lo + 1)
        };
        (0..n).map(|_| self.element.sample(rng)).collect()
    }

    /// Each half, then the vector less one element, for every element —
    /// never shorter than the size range allows.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let n = value.len();
        let mut smaller = Vec::new();
        if n / 2 >= self.size.lo && n >= 2 {
            smaller.push(value[..n / 2].to_vec());
            smaller.push(value[n / 2..].to_vec());
        }
        if n > self.size.lo {
            for i in 0..n {
                let mut less = value.clone();
                less.remove(i);
                smaller.push(less);
            }
        }
        smaller
    }
}

/// `Vec` strategy over `element` with sizes drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
