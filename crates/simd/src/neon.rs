//! AArch64 NEON backend: 16×u8 / 8×i16 in `uint8x16_t` / `int16x8_t`.
//!
//! NEON (ASIMD) is part of the AArch64 baseline, so the intrinsics are
//! statically enabled and safe to call; only the pointer loads need
//! `unsafe`. The lane shift uses `vextq` with an all-zero donor vector —
//! `vextq_u8(zero, v, 15)` yields `[0, v0..v14]` — and the horizontal
//! maxima use the across-lanes `vmaxvq` reductions.

#![cfg(all(target_arch = "aarch64", feature = "native-simd"))]

use crate::backend::{Backend, ByteSimd, WordSimd};
use core::arch::aarch64::*;

/// 16 × u8 in a `uint8x16_t`.
#[derive(Clone, Copy)]
pub struct U8x16Neon(uint8x16_t);

impl ByteSimd for U8x16Neon {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        Self(vdupq_n_u8(v))
    }

    #[inline(always)]
    fn load(lanes: &[u8]) -> Self {
        assert!(lanes.len() >= 16);
        // SAFETY: unaligned load of 16 bytes; the bound is asserted above.
        Self(unsafe { vld1q_u8(lanes.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, out: &mut [u8]) {
        assert!(out.len() >= 16);
        // SAFETY: unaligned store of 16 bytes; the bound is asserted above.
        unsafe { vst1q_u8(out.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        Self(vqaddq_u8(self.0, rhs.0))
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        Self(vqsubq_u8(self.0, rhs.0))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(vmaxq_u8(self.0, rhs.0))
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        vmaxvq_u8(vcgtq_u8(self.0, rhs.0)) != 0
    }

    #[inline(always)]
    fn shift(self) -> Self {
        Self(vextq_u8::<15>(vdupq_n_u8(0), self.0))
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // `vextq` needs a constant lane count; the scan only asks for
        // powers of two, everything else falls back to repeated shifts.
        let zero = vdupq_n_u8(0);
        match n {
            0 => self,
            1 => Self(vextq_u8::<15>(zero, self.0)),
            2 => Self(vextq_u8::<14>(zero, self.0)),
            4 => Self(vextq_u8::<12>(zero, self.0)),
            8 => Self(vextq_u8::<8>(zero, self.0)),
            n if n >= 16 => Self(zero),
            n => {
                let mut v = self;
                for _ in 0..n {
                    v = v.shift();
                }
                v
            }
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> u8 {
        vmaxvq_u8(self.0)
    }
}

/// 8 × i16 in an `int16x8_t`.
#[derive(Clone, Copy)]
pub struct I16x8Neon(int16x8_t);

impl WordSimd for I16x8Neon {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        Self(vdupq_n_s16(v))
    }

    #[inline(always)]
    fn load(lanes: &[i16]) -> Self {
        assert!(lanes.len() >= 8);
        // SAFETY: unaligned load of 8 words; the bound is asserted above.
        Self(unsafe { vld1q_s16(lanes.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, out: &mut [i16]) {
        assert!(out.len() >= 8);
        // SAFETY: unaligned store of 8 words; the bound is asserted above.
        unsafe { vst1q_s16(out.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        Self(vqaddq_s16(self.0, rhs.0))
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        Self(vqsubq_s16(self.0, rhs.0))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(vmaxq_s16(self.0, rhs.0))
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        vmaxvq_u16(vcgtq_s16(self.0, rhs.0)) != 0
    }

    #[inline(always)]
    fn shift(self) -> Self {
        Self(vextq_s16::<7>(vdupq_n_s16(0), self.0))
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // See `U8x16Neon::shift_lanes`.
        let zero = vdupq_n_s16(0);
        match n {
            0 => self,
            1 => Self(vextq_s16::<7>(zero, self.0)),
            2 => Self(vextq_s16::<6>(zero, self.0)),
            4 => Self(vextq_s16::<4>(zero, self.0)),
            n if n >= 8 => Self(zero),
            n => {
                let mut v = self;
                for _ in 0..n {
                    v = v.shift();
                }
                v
            }
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        vmaxvq_s16(self.0)
    }
}

/// The NEON backend (AArch64 baseline).
pub struct NeonBackend;

impl Backend for NeonBackend {
    type Byte = U8x16Neon;
    type Word = I16x8Neon;
    const NAME: &'static str = "neon";
    /// Not measured on AArch64 hardware: NEON keeps the striped pass.
    const GROUPS: bool = false;

    fn available() -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::{I16x8, U8x16};

    #[test]
    fn neon_bytes_match_portable_semantics() {
        let a_vals = [
            0, 1, 127, 128, 200, 250, 255, 3, 9, 0, 50, 60, 70, 80, 90, 100,
        ];
        let b_vals = [
            255, 0, 128, 127, 100, 10, 1, 3, 8, 1, 49, 61, 70, 81, 89, 101,
        ];
        let a = U8x16Neon::load(&a_vals);
        let b = U8x16Neon::load(&b_vals);
        let pa = U8x16(a_vals);
        let pb = U8x16(b_vals);
        let store = |v: U8x16Neon| {
            let mut out = [0u8; 16];
            ByteSimd::store(v, &mut out);
            out
        };
        assert_eq!(store(a.sat_add(b)), pa.sat_add(pb).0);
        assert_eq!(store(a.sat_sub(b)), pa.sat_sub(pb).0);
        assert_eq!(store(ByteSimd::max(a, b)), pa.max(pb).0);
        assert_eq!(a.any_gt(b), pa.any_gt(pb));
        assert_eq!(store(ByteSimd::shift(a)), pa.shift().0);
        assert_eq!(ByteSimd::horizontal_max(a), pa.horizontal_max());
    }

    #[test]
    fn neon_words_match_portable_semantics() {
        let a_vals = [0, -1, i16::MAX, i16::MIN, 200, -250, 3000, -3];
        let b_vals = [1, -1, i16::MIN, i16::MAX, -200, 250, 2999, 3];
        let a = I16x8Neon::load(&a_vals);
        let b = I16x8Neon::load(&b_vals);
        let pa = I16x8(a_vals);
        let pb = I16x8(b_vals);
        let store = |v: I16x8Neon| {
            let mut out = [0i16; 8];
            WordSimd::store(v, &mut out);
            out
        };
        assert_eq!(store(a.sat_add(b)), pa.sat_add(pb).0);
        assert_eq!(store(a.sat_sub(b)), pa.sat_sub(pb).0);
        assert_eq!(store(WordSimd::max(a, b)), pa.max(pb).0);
        assert_eq!(a.any_gt(b), pa.any_gt(pb));
        assert_eq!(store(WordSimd::shift(a)), pa.shift().0);
        assert_eq!(WordSimd::horizontal_max(a), pa.horizontal_max());
    }
}
