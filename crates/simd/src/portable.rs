//! The portable fallback backend: emulated vectors as a [`Backend`].
//!
//! [`U8x16`] and [`I16x8`] are plain fixed-size arrays with SSE2-style
//! saturating semantics, written as lane loops so LLVM can auto-vectorize
//! them. Their operations exist once, as the [`ByteSimd`]/[`WordSimd`]
//! impl bodies, so the generic kernels run on any target and the
//! differential tests have a known-good baseline that is independent of
//! `core::arch`.

#![allow(clippy::needless_range_loop)] // lane-indexed loops mirror SIMD semantics

use crate::backend::{Backend, ByteSimd, WordSimd};

/// Lanes in portable byte mode (`__m128i` as 16 × u8).
const BYTE_LANES: usize = 16;

/// Lanes in portable word mode (`__m128i` as 8 × i16, SWPS3's word mode).
const WORD_LANES: usize = 8;

/// A 16-lane `u8` vector with SSE2-style unsigned saturating semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U8x16(pub [u8; BYTE_LANES]);

/// An 8-lane `i16` vector with SSE2-style signed saturating semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct I16x8(pub [i16; WORD_LANES]);

impl ByteSimd for U8x16 {
    const LANES: usize = BYTE_LANES;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        Self([v; BYTE_LANES])
    }

    #[inline(always)]
    fn load(lanes: &[u8]) -> Self {
        let mut out = [0u8; BYTE_LANES];
        out.copy_from_slice(&lanes[..BYTE_LANES]);
        Self(out)
    }

    #[inline(always)]
    fn store(self, out: &mut [u8]) {
        out[..BYTE_LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].saturating_add(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].saturating_sub(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].max(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        for i in 0..BYTE_LANES {
            if self.0[i] > rhs.0[i] {
                return true;
            }
        }
        false
    }

    #[inline(always)]
    fn shift(self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        out[1..].copy_from_slice(&self.0[..BYTE_LANES - 1]);
        Self(out)
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        let mut out = [0u8; BYTE_LANES];
        let n = n.min(BYTE_LANES);
        out[n..].copy_from_slice(&self.0[..BYTE_LANES - n]);
        Self(out)
    }

    #[inline(always)]
    fn horizontal_max(self) -> u8 {
        let mut m = self.0[0];
        for i in 1..BYTE_LANES {
            m = m.max(self.0[i]);
        }
        m
    }
}

impl WordSimd for I16x8 {
    const LANES: usize = WORD_LANES;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        Self([v; WORD_LANES])
    }

    #[inline(always)]
    fn load(lanes: &[i16]) -> Self {
        let mut out = [0i16; WORD_LANES];
        out.copy_from_slice(&lanes[..WORD_LANES]);
        Self(out)
    }

    #[inline(always)]
    fn store(self, out: &mut [i16]) {
        out[..WORD_LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        let mut out = [0i16; WORD_LANES];
        for i in 0..WORD_LANES {
            out[i] = self.0[i].saturating_add(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        let mut out = [0i16; WORD_LANES];
        for i in 0..WORD_LANES {
            out[i] = self.0[i].saturating_sub(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        let mut out = [0i16; WORD_LANES];
        for i in 0..WORD_LANES {
            out[i] = self.0[i].max(rhs.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        for i in 0..WORD_LANES {
            if self.0[i] > rhs.0[i] {
                return true;
            }
        }
        false
    }

    #[inline(always)]
    fn shift(self) -> Self {
        let mut out = [0i16; WORD_LANES];
        out[1..].copy_from_slice(&self.0[..WORD_LANES - 1]);
        Self(out)
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        let mut out = [0i16; WORD_LANES];
        let n = n.min(WORD_LANES);
        out[n..].copy_from_slice(&self.0[..WORD_LANES - n]);
        Self(out)
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        let mut m = self.0[0];
        for i in 1..WORD_LANES {
            m = m.max(self.0[i]);
        }
        m
    }
}

/// The always-available emulated-vector backend.
pub struct PortableBackend;

impl Backend for PortableBackend {
    type Byte = U8x16;
    type Word = I16x8;
    const NAME: &'static str = "portable";

    fn available() -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_ops_saturate_at_both_ends() {
        let a = U8x16::splat(250);
        assert_eq!(a.sat_add(U8x16::splat(10)), U8x16::splat(255));
        assert_eq!(U8x16::splat(3).sat_sub(U8x16::splat(10)), U8x16::zero());
        let mut v = [0u8; 16];
        v[15] = 9;
        assert_eq!(U8x16(v).horizontal_max(), 9);
        assert!(U8x16(v).any_gt(U8x16::zero()));
        assert!(!U8x16::zero().any_gt(U8x16::zero()));
        assert_eq!(U8x16(v).max(U8x16::splat(4)).0[0], 4);
        assert_eq!(U8x16(v).max(U8x16::splat(4)).0[15], 9);
    }

    #[test]
    fn word_ops_saturate_at_both_ends() {
        assert_eq!(I16x8::splat(3).0, [3; 8]);
        assert_eq!(I16x8::zero().0, [0; 8]);
        let a = I16x8::splat(i16::MAX - 1);
        assert_eq!(a.sat_add(I16x8::splat(10)).0, [i16::MAX; 8]);
        let c = I16x8::splat(i16::MIN).sat_sub(I16x8::splat(5));
        assert_eq!(c.0, [i16::MIN; 8]);
    }

    #[test]
    fn word_max_any_gt_and_horizontal_max_are_lane_wise() {
        let a = I16x8([1, -2, 3, -4, 5, -6, 7, -8]);
        let b = I16x8([-1, 2, -3, 4, -5, 6, -7, 8]);
        assert_eq!(a.max(b).0, [1, 2, 3, 4, 5, 6, 7, 8]);
        let one_hot = I16x8([0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(one_hot.any_gt(I16x8::zero()));
        assert!(!I16x8::zero().any_gt(I16x8::zero()));
        assert_eq!(I16x8([-5, 2, 9, -1, 0, 3, 8, 7]).horizontal_max(), 9);
        assert_eq!(I16x8::splat(i16::MIN).horizontal_max(), i16::MIN);
    }

    #[test]
    fn shifts_move_towards_higher_lanes_and_fill_with_zero() {
        let mut v = [0u8; 16];
        v[0] = 3;
        v[15] = 9;
        let shifted = U8x16(v).shift();
        assert_eq!(shifted.0[0], 0);
        assert_eq!(shifted.0[1], 3);
        assert_eq!(shifted.0[15], 0, "the top lane falls off");
        let a = I16x8([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.shift().0, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(a.shift_lanes(3).0, [0, 0, 0, 1, 2, 3, 4, 5]);
        assert_eq!(a.shift_lanes(9).0, [0; 8]);
        assert_eq!(U8x16(v).shift_lanes(15).0[15], 3);
    }
}
