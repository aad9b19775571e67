//! Distribution sampling (the subset the workspace uses).

use crate::RngCore;

/// Types that can draw values of `T` from a generator.
pub trait Distribution<T> {
    /// Draw one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}
