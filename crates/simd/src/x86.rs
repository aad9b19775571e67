//! x86-64 backends: SSE2 (16×u8 / 8×i16) and AVX2 (32×u8 / 16×i16).
//!
//! SSE2 is part of the x86-64 baseline, so its intrinsics are statically
//! enabled and safe to call; the generic kernels vectorize directly.
//!
//! AVX2 is *not* baseline: its intrinsics are `#[target_feature]` functions
//! that may only execute on a CPU that reports the feature. The safety
//! story has two parts:
//!
//! 1. every AVX2 intrinsic call below sits in an `unsafe` block whose
//!    contract is "the dispatcher only selects [`Avx2Backend`] after
//!    `is_x86_feature_detected!("avx2")` returned true" (enforced by
//!    [`crate::engine::QueryEngine::with_backend_and_mode`]);
//! 2. the entry points `score_avx2` and `group_avx2` carry
//!    `#[target_feature(enable = "avx2")]`, so the `#[inline(always)]`
//!    generic ladders and kernels — and, transitively, the intrinsics —
//!    inline into a feature-enabled context and compile to straight-line
//!    AVX2 code.
//!
//! **AVX2 byte lanes are offset-binary.** [`U8x32Avx`] stores level `v`
//! as the byte `v ^ 0x80`, i.e. the signed byte `v − 128`, and the profile
//! holds raw `i8` scores. `vpaddsb` then floors `level + score` at level 0
//! (−128) and saturates it at level 255 (127) by itself, so Farrar's
//! `⊖ bias` never issues; `vpsubsb` / `vpmaxsb` do the rest, `vpcmpgtb` is
//! the unsigned-level compare SSE2 has to build from `max` + `cmpeq`, and
//! every lane shift fills with `0x80`. The price is the operand range of
//! `vpsubsb`: an amount is a non-negative signed byte, so
//! [`ByteSimd::SUB_LIMIT`] is 127 (the byte kernel declines larger gap
//! penalties to the word kernel) and the scan's decays of up to 255 go
//! through `sub_amount`, which adds them as two negative bytes. SSE2 keeps
//! the biased bytes: its loop is the trait's provided methods, unchanged.
//!
//! The one non-obvious idiom is the 256-bit lane shift: `_mm256_slli_si256`
//! shifts each 128-bit half independently, so the byte crossing the middle
//! is recovered with `_mm256_permute2x128_si256::<0x02>` (lower half ←
//! the fill, upper half ← old lower half) + `_mm256_alignr_epi8`.

#![cfg(target_arch = "x86_64")]

use crate::backend::{Backend, ByteSimd, ColumnCheck, WordSimd};
use crate::engine::{group_ladder, score_ladder, AdaptiveStats, Precision, Profiles};
use core::arch::x86_64::*;
use sw_align::GapPenalties;

// ---------------------------------------------------------------- SSE2 ----

/// 16 × u8 in an `__m128i` (SSE2, x86-64 baseline).
#[derive(Clone, Copy)]
pub struct U8x16Sse(__m128i);

impl ByteSimd for U8x16Sse {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_set1_epi8(v as i8) })
    }

    #[inline(always)]
    fn load(lanes: &[u8]) -> Self {
        assert!(lanes.len() >= 16);
        // SAFETY: SSE2 is baseline; `loadu` has no alignment requirement
        // and the bound is asserted above.
        Self(unsafe { _mm_loadu_si128(lanes.as_ptr() as *const __m128i) })
    }

    #[inline(always)]
    fn store(self, out: &mut [u8]) {
        assert!(out.len() >= 16);
        // SAFETY: SSE2 is baseline; `storeu` has no alignment requirement
        // and the bound is asserted above.
        unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, self.0) }
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_adds_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_subs_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_max_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // No unsigned compare in SSE2: a > b somewhere iff max(a,b) != b
        // somewhere.
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(self.0, rhs.0), rhs.0)) != 0xFFFF }
    }

    #[inline(always)]
    fn shift(self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_slli_si128::<1>(self.0) })
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // `pslldq` needs a constant shift; the scan only asks for
        // powers of two, everything else falls back to repeated shifts.
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            match n {
                0 => self,
                1 => Self(_mm_slli_si128::<1>(self.0)),
                2 => Self(_mm_slli_si128::<2>(self.0)),
                4 => Self(_mm_slli_si128::<4>(self.0)),
                8 => Self(_mm_slli_si128::<8>(self.0)),
                n if n >= 16 => Self::splat(0),
                n => {
                    let mut v = self;
                    for _ in 0..n {
                        v = v.shift();
                    }
                    v
                }
            }
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> u8 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            let mut v = self.0;
            v = _mm_max_epu8(v, _mm_srli_si128::<8>(v));
            v = _mm_max_epu8(v, _mm_srli_si128::<4>(v));
            v = _mm_max_epu8(v, _mm_srli_si128::<2>(v));
            v = _mm_max_epu8(v, _mm_srli_si128::<1>(v));
            (_mm_extract_epi16::<0>(v) & 0xFF) as u8
        }
    }
}

/// 8 × i16 in an `__m128i` (SSE2, x86-64 baseline).
#[derive(Clone, Copy)]
pub struct I16x8Sse(__m128i);

impl WordSimd for I16x8Sse {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_set1_epi16(v) })
    }

    #[inline(always)]
    fn load(lanes: &[i16]) -> Self {
        assert!(lanes.len() >= 8);
        // SAFETY: SSE2 is baseline; `loadu` has no alignment requirement
        // and the bound is asserted above.
        Self(unsafe { _mm_loadu_si128(lanes.as_ptr() as *const __m128i) })
    }

    #[inline(always)]
    fn store(self, out: &mut [i16]) {
        assert!(out.len() >= 8);
        // SAFETY: SSE2 is baseline; `storeu` has no alignment requirement
        // and the bound is asserted above.
        unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, self.0) }
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_adds_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_subs_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_max_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_movemask_epi8(_mm_cmpgt_epi16(self.0, rhs.0)) != 0 }
    }

    #[inline(always)]
    fn shift(self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Self(unsafe { _mm_slli_si128::<2>(self.0) })
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // See `U8x16Sse::shift_lanes`; one lane is two bytes here.
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            match n {
                0 => self,
                1 => Self(_mm_slli_si128::<2>(self.0)),
                2 => Self(_mm_slli_si128::<4>(self.0)),
                4 => Self(_mm_slli_si128::<8>(self.0)),
                n if n >= 8 => Self::splat(0),
                n => {
                    let mut v = self;
                    for _ in 0..n {
                        v = v.shift();
                    }
                    v
                }
            }
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            let mut v = self.0;
            v = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
            v = _mm_max_epi16(v, _mm_srli_si128::<4>(v));
            v = _mm_max_epi16(v, _mm_srli_si128::<2>(v));
            _mm_extract_epi16::<0>(v) as i16
        }
    }
}

/// The SSE2 backend (always available on x86-64).
pub struct Sse2Backend;

impl Backend for Sse2Backend {
    type Byte = U8x16Sse;
    type Word = I16x8Sse;
    const NAME: &'static str = "sse2";
    /// No byte shuffle, so scalar lookups: 0.86–1.10× the striped pass at
    /// queries 64–1,500 over two rounds, below it at 144 and 1,500 in both.
    const GROUPS: bool = false;

    fn available() -> bool {
        // Baseline on x86-64; the dynamic check keeps the probe uniform.
        is_x86_feature_detected!("sse2")
    }
}

// ---------------------------------------------------------------- AVX2 ----

/// 32 score levels in an `__m256i` (AVX2), offset-binary: level `v` is the
/// byte `v ^ 0x80` (see the module docs).
#[derive(Clone, Copy)]
pub struct U8x32Avx(__m256i);

/// Shift a 256-bit vector towards higher lanes by `16 - ALIGN` bytes
/// (`ALIGN` = 15 shifts one byte, 14 shifts one word), feeding `fill`'s
/// bytes in at the bottom and carrying bytes across the 128-bit boundary.
///
/// SAFETY: caller must ensure AVX2 is available.
#[inline(always)]
unsafe fn shift_256<const ALIGN: i32>(v: __m256i, fill: __m256i) -> __m256i {
    // SAFETY: AVX2 availability is the caller's contract.
    unsafe { _mm256_alignr_epi8::<ALIGN>(v, low_half_up(v, fill)) }
}

/// `[fill.low, v.low]`: `v` shifted up by a whole 128-bit half — and, as
/// `alignr`'s donor, the tail of `v.low` that crosses into the upper half.
///
/// SAFETY: caller must ensure AVX2 is available.
#[inline(always)]
unsafe fn low_half_up(v: __m256i, fill: __m256i) -> __m256i {
    // SAFETY: AVX2 availability is the caller's contract.
    unsafe { _mm256_permute2x128_si256::<0x02>(v, fill) }
}

impl ByteSimd for U8x32Avx {
    const LANES: usize = 32;

    /// `vpsubsb` reads its amount as a signed byte.
    const SUB_LIMIT: u8 = 127;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        // SAFETY: only constructed after the dispatcher verified AVX2.
        Self(unsafe { _mm256_set1_epi8(v as i8) })
    }

    #[inline(always)]
    fn level(v: u8) -> Self {
        Self::splat(v ^ 0x80)
    }

    #[inline(always)]
    fn load(lanes: &[u8]) -> Self {
        assert!(lanes.len() >= 32);
        // SAFETY: AVX2 verified by the dispatcher; `loadu` is unaligned and
        // the bound is asserted above.
        Self(unsafe { _mm256_loadu_si256(lanes.as_ptr() as *const __m256i) })
    }

    #[inline(always)]
    fn store(self, out: &mut [u8]) {
        assert!(out.len() >= 32);
        // SAFETY: AVX2 verified by the dispatcher; `storeu` is unaligned
        // and the bound is asserted above.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, self.0) }
    }

    #[inline(always)]
    fn decode(lane: u8) -> u8 {
        lane ^ 0x80
    }

    /// The raw score: `vpaddsb` needs no bias.
    #[inline(always)]
    fn encode_score(score: i32, _bias: u8) -> u8 {
        score as i8 as u8
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_adds_epi8(self.0, rhs.0) })
    }

    /// One `vpaddsb`: floored at level 0 and saturated at level 255 by the
    /// signed range itself.
    #[inline(always)]
    fn add_score(self, scores: Self, _bias: Self) -> Self {
        self.sat_add(scores)
    }

    #[inline(always)]
    fn sat_sub(self, amount: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_subs_epi8(self.0, amount.0) })
    }

    #[inline(always)]
    fn sub_amount(self, n: u8) -> Self {
        // `n as i8` is negative past 127 and `vpsubsb` would add it. Adding
        // negatives reaches further, −128 being a signed byte: two `vpaddsb`
        // carry 128 + 127. No branch on `n`, so the scan's rounds unroll.
        let first = n.min(128);
        self.sat_add(Self::splat(first.wrapping_neg()))
            .sat_add(Self::splat((n - first).wrapping_neg()))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_max_epi8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // Offset-binary keeps the order of levels under a signed compare.
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi8(self.0, rhs.0)) != 0 }
    }

    #[inline(always)]
    fn shift(self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { shift_256::<15>(self.0, Self::zero().0) })
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // `shift_256::<ALIGN>` shifts by 16 − ALIGN bytes with the
        // boundary carry; a full-half shift is the bare permute.
        let floor = Self::zero().0;
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe {
            match n {
                0 => self,
                1 => Self(shift_256::<15>(self.0, floor)),
                2 => Self(shift_256::<14>(self.0, floor)),
                4 => Self(shift_256::<12>(self.0, floor)),
                8 => Self(shift_256::<8>(self.0, floor)),
                16 => Self(low_half_up(self.0, floor)),
                n if n >= 32 => Self::zero(),
                n => {
                    let mut v = self;
                    for _ in 0..n {
                        v = v.shift();
                    }
                    v
                }
            }
        }
    }

    /// Two `vpshufb` on both table halves broadcast (each reads an index's
    /// low four bits) and a `vpblendvb` on bit 4, shifted to bit 7.
    #[inline(always)]
    fn lookup(self, table: &[u8; 32]) -> Self {
        // SAFETY: AVX2 verified by the dispatcher; both 16-byte loads lie
        // inside `table`.
        unsafe {
            let half = |at: usize| {
                let bytes = _mm_loadu_si128(table.as_ptr().add(at) as *const __m128i);
                _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(bytes), self.0)
            };
            let high = _mm256_slli_epi16::<3>(self.0);
            Self(_mm256_blendv_epi8(half(0), half(16), high))
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> u8 {
        // Flip the offset bit (level 0 is 0x80 in every byte): plain
        // unsigned bytes, where SSE2 already has the fold.
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe {
            let levels = _mm256_xor_si256(self.0, Self::zero().0);
            let lo = _mm256_castsi256_si128(levels);
            let hi = _mm256_extracti128_si256::<1>(levels);
            U8x16Sse(_mm_max_epu8(lo, hi)).horizontal_max()
        }
    }
}

/// 16 × i16 in an `__m256i` (AVX2).
#[derive(Clone, Copy)]
pub struct I16x16Avx(__m256i);

impl WordSimd for I16x16Avx {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: only constructed after the dispatcher verified AVX2.
        Self(unsafe { _mm256_set1_epi16(v) })
    }

    #[inline(always)]
    fn load(lanes: &[i16]) -> Self {
        assert!(lanes.len() >= 16);
        // SAFETY: AVX2 verified by the dispatcher; `loadu` is unaligned and
        // the bound is asserted above.
        Self(unsafe { _mm256_loadu_si256(lanes.as_ptr() as *const __m256i) })
    }

    #[inline(always)]
    fn store(self, out: &mut [i16]) {
        assert!(out.len() >= 16);
        // SAFETY: AVX2 verified by the dispatcher; `storeu` is unaligned
        // and the bound is asserted above.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, self.0) }
    }

    #[inline(always)]
    fn sat_add(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_adds_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sat_sub(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_subs_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sub_floor(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_subs_epu16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { _mm256_max_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi16(self.0, rhs.0)) != 0 }
    }

    #[inline(always)]
    fn shift(self) -> Self {
        // SAFETY: AVX2 verified by the dispatcher.
        Self(unsafe { shift_256::<14>(self.0, _mm256_setzero_si256()) })
    }

    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        // See `U8x32Avx::shift_lanes`; one lane is two bytes here.
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe {
            let zero = _mm256_setzero_si256();
            match n {
                0 => self,
                1 => Self(shift_256::<14>(self.0, zero)),
                2 => Self(shift_256::<12>(self.0, zero)),
                4 => Self(shift_256::<8>(self.0, zero)),
                8 => Self(low_half_up(self.0, zero)),
                n if n >= 16 => Self::splat(0),
                n => {
                    let mut v = self;
                    for _ in 0..n {
                        v = v.shift();
                    }
                    v
                }
            }
        }
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        // SAFETY: AVX2 verified by the dispatcher.
        unsafe {
            let lo = _mm256_castsi256_si128(self.0);
            let hi = _mm256_extracti128_si256::<1>(self.0);
            I16x8Sse(_mm_max_epi16(lo, hi)).horizontal_max()
        }
    }

    /// Two 128-bit `vpshufb` on the table's halves, a `vpblendvb` on bit 4
    /// shifted to bit 7, and `vpmovsxbw` to sixteen words.
    #[inline(always)]
    fn lookup(codes: &[u8; 32], table: &[i8; 32]) -> Self {
        // SAFETY: AVX2 verified by the dispatcher; every 16-byte load lies
        // inside `codes` or `table`.
        unsafe {
            let idx = _mm_loadu_si128(codes.as_ptr() as *const __m128i);
            let half = |at: usize| {
                let bytes = _mm_loadu_si128(table.as_ptr().add(at) as *const __m128i);
                _mm_shuffle_epi8(bytes, idx)
            };
            let high = _mm_slli_epi16::<3>(idx);
            Self(_mm256_cvtepi8_epi16(_mm_blendv_epi8(
                half(0),
                half(16),
                high,
            )))
        }
    }
}

/// The AVX2 backend (runtime-detected).
pub struct Avx2Backend;

impl Backend for Avx2Backend {
    type Byte = U8x32Avx;
    type Word = I16x16Avx;
    const NAME: &'static str = "avx2";

    fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }
}

/// The precision ladder — byte pass, hand-off, word pass — compiled
/// with AVX2 statically enabled.
///
/// # Safety
///
/// The executing CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn score_avx2<C: ColumnCheck>(
    gaps: &GapPenalties,
    profiles: &Profiles<Avx2Backend>,
    db: &[u8],
    precision: Precision,
    force_scan: bool,
    stats: &mut AdaptiveStats,
    check: &C,
) -> Option<i32> {
    score_ladder(gaps, profiles, db, precision, force_scan, stats, check)
}

/// The grouped ladder, likewise (a closure handed to one such function is
/// not reliably inlined: once it was not, and ran 40× slower).
///
/// # Safety
///
/// The executing CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn group_avx2<C: ColumnCheck>(
    gaps: &GapPenalties,
    profiles: &Profiles<Avx2Backend>,
    subjects: &[&[u8]],
    check: &C,
) -> Option<Vec<(i32, AdaptiveStats)>> {
    group_ladder(gaps, profiles, subjects, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::{I16x8, U8x16};

    fn bytes(vals: [u8; 16]) -> (U8x16Sse, U8x16) {
        (U8x16Sse::load(&vals), U8x16(vals))
    }

    fn words(vals: [i16; 8]) -> (I16x8Sse, I16x8) {
        (I16x8Sse::load(&vals), I16x8(vals))
    }

    fn store_b(v: U8x16Sse) -> [u8; 16] {
        let mut out = [0u8; 16];
        v.store(&mut out);
        out
    }

    fn store_w(v: I16x8Sse) -> [i16; 8] {
        let mut out = [0i16; 8];
        v.store(&mut out);
        out
    }

    #[test]
    fn sse_bytes_match_portable_semantics() {
        let a_vals = [
            0, 1, 127, 128, 200, 250, 255, 3, 9, 0, 50, 60, 70, 80, 90, 100,
        ];
        let b_vals = [
            255, 0, 128, 127, 100, 10, 1, 3, 8, 1, 49, 61, 70, 81, 89, 101,
        ];
        let (a, pa) = bytes(a_vals);
        let (b, pb) = bytes(b_vals);
        assert_eq!(store_b(a.sat_add(b)), pa.sat_add(pb).0);
        assert_eq!(store_b(a.sat_sub(b)), pa.sat_sub(pb).0);
        assert_eq!(store_b(ByteSimd::max(a, b)), pa.max(pb).0);
        assert_eq!(a.any_gt(b), pa.any_gt(pb));
        assert_eq!(b.any_gt(a), pb.any_gt(pa));
        assert!(!a.any_gt(a));
        assert_eq!(store_b(ByteSimd::shift(a)), pa.shift().0);
        assert_eq!(ByteSimd::horizontal_max(a), pa.horizontal_max());
    }

    #[test]
    fn sse_words_match_portable_semantics() {
        let a_vals = [0, -1, i16::MAX, i16::MIN, 200, -250, 3000, -3];
        let b_vals = [1, -1, i16::MIN, i16::MAX, -200, 250, 2999, 3];
        let (a, pa) = words(a_vals);
        let (b, pb) = words(b_vals);
        assert_eq!(store_w(a.sat_add(b)), pa.sat_add(pb).0);
        assert_eq!(store_w(a.sat_sub(b)), pa.sat_sub(pb).0);
        assert_eq!(store_w(WordSimd::max(a, b)), pa.max(pb).0);
        assert_eq!(a.any_gt(b), pa.any_gt(pb));
        assert_eq!(b.any_gt(a), pb.any_gt(pa));
        assert_eq!(store_w(WordSimd::shift(a)), pa.shift().0);
        assert_eq!(WordSimd::horizontal_max(a), pa.horizontal_max());
    }

    // `U8x32Avx`'s shifts, maxima and compares are tested in levels by
    // `tests/vector_contract.rs`: its raw bytes are offset-binary and mean
    // nothing by themselves.

    #[test]
    fn avx_shift_crosses_the_lane_boundary() {
        if !Avx2Backend::available() {
            return;
        }
        let mut wvals = [0i16; 16];
        for (i, v) in wvals.iter_mut().enumerate() {
            *v = i as i16 + 1;
        }
        let v = I16x16Avx::load(&wvals);
        let shifted = WordSimd::shift(v);
        let mut wout = [0i16; 16];
        shifted.store(&mut wout);
        assert_eq!(wout[0], 0);
        assert_eq!(&wout[1..16], &wvals[0..15], "word 7 must carry into lane 1");
    }

    #[test]
    fn shift_lanes_overrides_match_repeated_shift() {
        let mut vals = [0u8; 32];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as u8 + 1;
        }
        let mut wvals = [0i16; 16];
        for (i, v) in wvals.iter_mut().enumerate() {
            *v = (i as i16 + 1) * -3;
        }
        let repeated_b = |v: U8x16Sse, n: usize| {
            let mut v = v;
            for _ in 0..n.min(16) {
                v = ByteSimd::shift(v);
            }
            v
        };
        let repeated_w = |v: I16x8Sse, n: usize| {
            let mut v = v;
            for _ in 0..n.min(8) {
                v = WordSimd::shift(v);
            }
            v
        };
        for n in 0..=17 {
            let v = U8x16Sse::load(&vals);
            assert_eq!(
                store_b(v.shift_lanes(n)),
                store_b(repeated_b(v, n)),
                "sse byte shift_lanes({n})"
            );
            let v = I16x8Sse::load(&wvals);
            assert_eq!(
                store_w(v.shift_lanes(n)),
                store_w(repeated_w(v, n)),
                "sse word shift_lanes({n})"
            );
        }
        if !Avx2Backend::available() {
            return;
        }
        let store_b32 = |v: U8x32Avx| {
            let mut out = [0u8; 32];
            v.store(&mut out);
            out
        };
        let store_w16 = |v: I16x16Avx| {
            let mut out = [0i16; 16];
            v.store(&mut out);
            out
        };
        for n in 0..=33 {
            let v = U8x32Avx::load(&vals);
            let mut r = v;
            for _ in 0..n.min(32) {
                r = ByteSimd::shift(r);
            }
            assert_eq!(
                store_b32(v.shift_lanes(n)),
                store_b32(r),
                "avx byte shift_lanes({n})"
            );
        }
        for n in 0..=17 {
            let v = I16x16Avx::load(&wvals);
            let mut r = v;
            for _ in 0..n.min(16) {
                r = WordSimd::shift(r);
            }
            assert_eq!(
                store_w16(v.shift_lanes(n)),
                store_w16(r),
                "avx word shift_lanes({n})"
            );
        }
    }

    #[test]
    fn avx_horizontal_max_and_any_gt() {
        if !Avx2Backend::available() {
            return;
        }
        let mut wvals = [-5i16; 16];
        wvals[3] = 999;
        let v = I16x16Avx::load(&wvals);
        assert_eq!(WordSimd::horizontal_max(v), 999);
        assert!(v.any_gt(I16x16Avx::splat(998)));
        assert!(!v.any_gt(I16x16Avx::splat(999)));
    }
}
