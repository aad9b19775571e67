//! The portable fallback backend: the emulated vectors as a [`Backend`].
//!
//! [`U8x16`] and [`I16x8`] are plain fixed-size arrays written so LLVM can
//! auto-vectorize them; here they implement the [`ByteSimd`]/[`WordSimd`]
//! traits so the generic kernels run on any target, and so the differential
//! tests have a known-good baseline that is independent of `core::arch`.

use crate::backend::{Backend, ByteSimd, WordSimd};
use crate::byte_mode::{U8x16, BYTE_LANES};
use crate::vector::{I16x8, LANES};

impl ByteSimd for U8x16 {
    const LANES: usize = BYTE_LANES;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        U8x16::splat(v)
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
        U8x16::sat_add(self, rhs)
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        U8x16::sat_sub(self, rhs)
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        U8x16::max(self, rhs)
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        U8x16::any_gt(self, rhs)
    }

    #[inline(always)]
    fn shift(self) -> Self {
        self.shift_in(0)
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
        U8x16::horizontal_max(self)
    }
}

impl WordSimd for I16x8 {
    const LANES: usize = LANES;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        I16x8::splat(v)
    }

    #[inline(always)]
    fn load(lanes: &[i16]) -> Self {
        let mut out = [0i16; LANES];
        out.copy_from_slice(&lanes[..LANES]);
        Self(out)
    }

    #[inline(always)]
    fn store(self, out: &mut [i16]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        I16x8::sat_add(self, rhs)
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        I16x8::sat_sub(self, rhs)
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        I16x8::max(self, rhs)
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        I16x8::any_gt(self, rhs)
    }

    #[inline(always)]
    fn shift(self) -> Self {
        self.shift_in(0)
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        let mut out = [0i16; LANES];
        let n = n.min(LANES);
        out[n..].copy_from_slice(&self.0[..LANES - n]);
        Self(out)
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        I16x8::horizontal_max(self)
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
    use crate::backend::{sw_bytes, sw_words, ByteProfileOf, WordProfileOf};
    use crate::byte_mode::{sw_striped_bytes, ByteProfile};
    use crate::farrar::{striped_profile, sw_striped};
    use sw_align::smith_waterman::{sw_score, SwParams};
    use sw_db::synth::make_query;

    #[test]
    fn generic_kernels_match_legacy_wrappers() {
        let p = SwParams::cudasw_default();
        let q = make_query(70, 5);
        let d = make_query(55, 9);

        let byte_prof = ByteProfileOf::<U8x16>::build(&p, &q);
        let byte = sw_bytes(&p.gaps, &byte_prof, &d);
        let legacy_prof = ByteProfile::build(&p, &q);
        assert_eq!(byte.score.ok(), sw_striped_bytes(&p, &legacy_prof, &d));

        let word_prof = WordProfileOf::<I16x8>::build(&p, &q);
        let word = sw_words(&p.gaps, &word_prof, &d);
        let legacy_word = striped_profile(&p, &q);
        assert_eq!(word.score, sw_striped(&p, &legacy_word, &d).score);
        assert_eq!(word.score, sw_score(&p, &q, &d));
    }

    #[test]
    fn trait_shift_is_zero_fill() {
        let mut v = [0u8; 16];
        v[0] = 3;
        v[15] = 9;
        let shifted = ByteSimd::shift(U8x16(v));
        assert_eq!(shifted.0[0], 0);
        assert_eq!(shifted.0[1], 3);
        let mut w = [0i16; 8];
        w[0] = -4;
        let shifted = WordSimd::shift(I16x8(w));
        assert_eq!(shifted.0[0], 0);
        assert_eq!(shifted.0[1], -4);
    }
}
