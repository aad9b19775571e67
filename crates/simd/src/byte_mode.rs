//! Byte-mode striped Smith-Waterman with word-mode fallback.
//!
//! SWPS3 (and Farrar's original implementation) first runs the striped
//! kernel with **8-bit unsigned** arithmetic — twice the lane count of word
//! mode — and only falls back to 16-bit word mode when the score saturates.
//! Scores are kept non-negative by adding a *bias* (the magnitude of the
//! most negative substitution score) to every profile entry and subtracting
//! it back after the diagonal add.
//!
//! The kernel itself lives in [`crate::backend`] (generic over lane count
//! so every dispatched backend shares it); this module keeps the
//! 16-lane portable vector type [`U8x16`] and the legacy entry points.
//! [`sw_striped_adaptive`] is the portable-backend adaptive driver: byte
//! mode first, exact word-mode re-run on overflow. Production code should
//! prefer [`crate::engine::QueryEngine`], which picks the widest backend
//! the CPU supports.

#![allow(clippy::needless_range_loop)] // lane loops mirror SIMD semantics

use crate::backend::{sw_bytes, ByteProfileOf};
use crate::farrar::{striped_profile, sw_striped_with_stats};
use sw_align::smith_waterman::SwParams;

/// Lanes in portable byte mode (`__m128i` as 16 × u8).
pub const BYTE_LANES: usize = 16;

/// A 16-lane `u8` vector with SSE2-style unsigned saturating semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U8x16(pub [u8; BYTE_LANES]);

impl U8x16 {
    /// All lanes equal to `v`.
    #[inline]
    pub fn splat(v: u8) -> Self {
        Self([v; BYTE_LANES])
    }

    /// All-zero vector.
    #[inline]
    pub fn zero() -> Self {
        Self::splat(0)
    }

    /// Lane-wise unsigned saturating addition (`paddusb`).
    #[inline]
    pub fn sat_add(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].saturating_add(rhs.0[i]);
        }
        Self(out)
    }

    /// Lane-wise unsigned saturating subtraction (`psubusb`).
    #[inline]
    pub fn sat_sub(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].saturating_sub(rhs.0[i]);
        }
        Self(out)
    }

    /// Lane-wise maximum (`pmaxub`).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        let mut out = [0u8; BYTE_LANES];
        for i in 0..BYTE_LANES {
            out[i] = self.0[i].max(rhs.0[i]);
        }
        Self(out)
    }

    /// True when any lane of `self` is strictly greater than `rhs`.
    #[inline]
    pub fn any_gt(self, rhs: Self) -> bool {
        for i in 0..BYTE_LANES {
            if self.0[i] > rhs.0[i] {
                return true;
            }
        }
        false
    }

    /// Shift lanes towards higher indices by one, inserting `fill`.
    #[inline]
    pub fn shift_in(self, fill: u8) -> Self {
        let mut out = [fill; BYTE_LANES];
        out[1..BYTE_LANES].copy_from_slice(&self.0[..BYTE_LANES - 1]);
        Self(out)
    }

    /// Maximum over all lanes.
    #[inline]
    pub fn horizontal_max(self) -> u8 {
        let mut m = self.0[0];
        for i in 1..BYTE_LANES {
            m = m.max(self.0[i]);
        }
        m
    }
}

/// Striped byte profile for the portable 16-lane vector: biased scores,
/// 16 lanes per segment.
pub type ByteProfile = ByteProfileOf<U8x16>;

/// Byte-mode result: `None` means the score saturated and word mode must
/// be used.
pub fn sw_striped_bytes(params: &SwParams, profile: &ByteProfile, db: &[u8]) -> Option<i32> {
    sw_bytes(&params.gaps, profile, db).score.ok()
}

/// Statistics of an adaptive (byte-first) alignment batch.
///
/// Lazy-F repair operations are counted **per precision mode**: byte-mode
/// passes (including those of alignments that later overflowed) land in
/// `lazy_f_byte`, resumed word-mode passes in `lazy_f_word`. Both count
/// vector operations executed — scan rounds, the untested prefix of
/// `min(PEEL, seg_len)` steps every column runs ([`crate::backend`]) and
/// the tested steps after it, at most `seg_len + log2(LANES) +
/// open/extend + 1` per column. They measure work, not time: the prefix
/// executes more operations than the tests it replaced, and is faster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Alignments resolved in byte mode.
    pub byte_mode: u64,
    /// Alignments that overflowed and re-ran in word mode.
    pub word_fallbacks: u64,
    /// Lazy-F repair operations executed by byte-mode passes.
    pub lazy_f_byte: u64,
    /// Lazy-F repair operations executed by resumed word-mode passes.
    pub lazy_f_word: u64,
}

impl AdaptiveStats {
    /// Fold another batch's counts into this one.
    pub fn merge(&mut self, other: &AdaptiveStats) {
        self.byte_mode += other.byte_mode;
        self.word_fallbacks += other.word_fallbacks;
        self.lazy_f_byte += other.lazy_f_byte;
        self.lazy_f_word += other.lazy_f_word;
    }
}

/// Byte mode first, exact word-mode re-run on saturation — SWPS3's
/// production strategy, on the portable backend.
pub fn sw_striped_adaptive(
    params: &SwParams,
    byte_profile: &ByteProfile,
    query: &[u8],
    db: &[u8],
    stats: &mut AdaptiveStats,
) -> i32 {
    if query.is_empty() || db.is_empty() {
        return 0;
    }
    let byte = sw_bytes(&params.gaps, byte_profile, db);
    stats.lazy_f_byte += byte.lazy_f;
    match byte.score {
        Ok(score) => {
            stats.byte_mode += 1;
            score
        }
        // The legacy driver restarts at column 0; `QueryEngine` resumes.
        Err(_) => {
            stats.word_fallbacks += 1;
            let profile = striped_profile(params, query);
            sw_striped_with_stats(params, &profile, db, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_align::alphabet::encode_protein;
    use sw_align::smith_waterman::sw_score;
    use sw_db::synth::make_query;

    fn p() -> SwParams {
        SwParams::cudasw_default()
    }

    #[test]
    fn byte_mode_matches_scalar_below_saturation() {
        let cases = [
            ("MKVLAW", "MKVLAW"),
            ("ACDEFG", "ACDXXEFG"),
            ("WWWW", "PPPP"),
            ("MSPARKLNQWETYCV", "MSPRKLNQWWETYCV"),
        ];
        for (q, d) in cases {
            let qc = encode_protein(q).unwrap();
            let dc = encode_protein(d).unwrap();
            let profile = ByteProfile::build(&p(), &qc);
            let byte = sw_striped_bytes(&p(), &profile, &dc).expect("no overflow");
            assert_eq!(byte, sw_score(&p(), &qc, &dc), "q={q} d={d}");
        }
    }

    #[test]
    fn long_self_alignment_overflows_byte_range() {
        // A 200-residue self alignment scores far above 255.
        let q = make_query(200, 31);
        let profile = ByteProfile::build(&p(), &q);
        assert!(sw_striped_bytes(&p(), &profile, &q).is_none());
    }

    #[test]
    fn adaptive_is_always_exact() {
        let mut stats = AdaptiveStats::default();
        // Mix of small (byte-mode) and self-matching (fallback) pairs.
        let queries = [make_query(40, 1), make_query(120, 2)];
        for q in &queries {
            let profile = ByteProfile::build(&p(), q);
            let others = [make_query(60, 3), q.clone(), make_query(25, 4)];
            for d in &others {
                let adaptive = sw_striped_adaptive(&p(), &profile, q, d, &mut stats);
                assert_eq!(adaptive, sw_score(&p(), q, d));
            }
        }
        assert!(stats.byte_mode > 0, "some pairs must stay in byte mode");
        assert!(stats.word_fallbacks > 0, "self matches must fall back");
        assert!(stats.lazy_f_byte > 0, "byte passes must count repairs");
        assert!(stats.lazy_f_word > 0, "word re-runs must count repairs");
    }

    #[test]
    fn stats_merge_adds_all_fields() {
        let mut a = AdaptiveStats {
            byte_mode: 1,
            word_fallbacks: 2,
            lazy_f_byte: 3,
            lazy_f_word: 4,
        };
        a.merge(&AdaptiveStats {
            byte_mode: 10,
            word_fallbacks: 20,
            lazy_f_byte: 30,
            lazy_f_word: 40,
        });
        assert_eq!(
            a,
            AdaptiveStats {
                byte_mode: 11,
                word_fallbacks: 22,
                lazy_f_byte: 33,
                lazy_f_word: 44,
            }
        );
    }

    #[test]
    fn vector_ops() {
        let a = U8x16::splat(250);
        assert_eq!(a.sat_add(U8x16::splat(10)), U8x16::splat(255));
        assert_eq!(U8x16::splat(3).sat_sub(U8x16::splat(10)), U8x16::zero());
        let mut v = [0u8; 16];
        v[15] = 9;
        assert_eq!(U8x16(v).horizontal_max(), 9);
        assert!(U8x16(v).any_gt(U8x16::zero()));
        assert_eq!(U8x16(v).shift_in(7).0[0], 7);
        assert_eq!(U8x16(v).shift_in(7).0[15], 0);
    }

    #[test]
    fn profile_bias_is_matrix_minimum() {
        let q = encode_protein("MKV").unwrap();
        let profile = ByteProfile::build(&p(), &q);
        assert_eq!(profile.bias() as i32, -p().matrix.min_score());
        assert_eq!(profile.seg_len(), 1);
    }
}
