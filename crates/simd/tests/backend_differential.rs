//! Differential property tests across dispatched backends.
//!
//! The tentpole invariant of the host backend: **scores are bit-identical
//! everywhere**. For random sequences and gap models, byte mode, word
//! mode, and every backend available on this host (AVX2 / SSE2 / NEON /
//! portable) must produce exactly the score of the `sw_align` scalar
//! reference — and the byte-mode overflow verdict must not depend on the
//! backend's lane count either. The fixed cases pin the edges the random
//! ones rarely reach: queries shorter than one vector, `open == extend`
//! (where the Lazy-F early exit is unsound) and true scores either side of
//! the `i16` saturation point.

use proptest::prelude::*;
use sw_align::alphabet::encode_protein;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_simd::{oracle_score, AdaptiveStats, BackendKind, Precision, QueryEngine};

fn protein_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, 1..=max_len)
}

fn params() -> SwParams {
    SwParams::cudasw_default()
}

/// `q` against `d` on every available backend in both precisions.
fn every_path(p: &SwParams, q: &[u8], d: &[u8]) -> Vec<(BackendKind, Precision, i32)> {
    let mut out = Vec::new();
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), q, kind);
        for precision in [Precision::Adaptive, Precision::Word] {
            let mut stats = AdaptiveStats::default();
            out.push((kind, precision, engine.score_with(d, precision, &mut stats)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_backend_equals_scalar_adaptive(q in protein_seq(150), d in protein_seq(150)) {
        let p = params();
        let expected = sw_score(&p, &q, &d);
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(p.clone(), &q, kind);
            let mut stats = AdaptiveStats::default();
            let got = engine.score_with(&d, Precision::Adaptive, &mut stats);
            prop_assert_eq!(got, expected, "adaptive mismatch on {}", kind);
        }
    }

    #[test]
    fn every_backend_equals_scalar_word(q in protein_seq(100), d in protein_seq(100)) {
        let p = params();
        let expected = sw_score(&p, &q, &d);
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(p.clone(), &q, kind);
            let mut stats = AdaptiveStats::default();
            let got = engine.score_with(&d, Precision::Word, &mut stats);
            prop_assert_eq!(got, expected, "word mismatch on {}", kind);
        }
    }

    #[test]
    fn overflow_verdict_is_backend_independent(q in protein_seq(120), d in protein_seq(120)) {
        // The byte-mode overflow check triggers on the running maximum,
        // which is layout-independent — so whether a pair fell back to
        // word mode must agree across lane counts.
        let p = params();
        let mut verdicts = Vec::new();
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(p.clone(), &q, kind);
            let mut stats = AdaptiveStats::default();
            engine.score_with(&d, Precision::Adaptive, &mut stats);
            verdicts.push((kind, stats.word_fallbacks));
        }
        for window in verdicts.windows(2) {
            prop_assert_eq!(
                window[0].1, window[1].1,
                "overflow verdict differs: {} vs {}", window[0].0, window[1].0
            );
        }
    }

    #[test]
    fn every_backend_with_other_gap_models(
        q in protein_seq(60),
        d in protein_seq(60),
        open in 1i32..20,
        extend in 1i32..5,
    ) {
        prop_assume!(open >= extend);
        let mut p = params();
        p.gaps = GapPenalties::new(open, extend).unwrap();
        let expected = sw_score(&p, &q, &d);
        for (kind, precision, got) in every_path(&p, &q, &d) {
            prop_assert_eq!(
                got, expected, "gaps=({},{}) on {} {:?}", open, extend, kind, precision
            );
        }
    }
}

/// Hand-picked pairs: exact and gapped matches, no positive overlap, a
/// one-residue query and a two-residue one (`seg_len = 1`, every lane past
/// the query is padding on every backend).
#[test]
fn fixed_cases_agree_everywhere() {
    let p = params();
    let cases = [
        ("MKVLAW", "MKVLAW"),
        ("ACDEFG", "ACDXXEFG"),
        ("WWWW", "PPPP"),
        ("MSPARKLNQWETYCV", "MSPRKLNQWWETYCV"),
        ("M", "MKVLLLLAW"),
        ("MK", "MKMKMK"),
        ("GGGMKVLAWGGGACDEFGMSPARKL", "PPPMKVLAWPPPACDXXEFGMSPRK"),
    ];
    for (q, d) in cases {
        let qc = encode_protein(q).unwrap();
        let dc = encode_protein(d).unwrap();
        let expected = sw_score(&p, &qc, &dc);
        for (kind, precision, got) in every_path(&p, &qc, &dc) {
            assert_eq!(got, expected, "q={q} d={d} on {kind} {precision:?}");
        }
    }
}

/// Regression: with `open == extend` (linear gaps) the Lazy-F early exit
/// dropped a propagation chain generated by a lazily-raised H. Found by
/// the property tests; kept as a fixed case in both precisions.
#[test]
fn linear_gap_regression_agrees_everywhere() {
    let q: Vec<u8> = vec![
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 0, 0, 13, 0, 7, 1, 17, 0, 5, 0, 0, 0, 0, 0, 0,
        0, 0, 0,
    ];
    let d: Vec<u8> = vec![4, 12, 7, 17];
    let mut p = params();
    p.gaps = GapPenalties::new(2, 2).unwrap();
    let expected = sw_score(&p, &q, &d);
    for (kind, precision, got) in every_path(&p, &q, &d) {
        assert_eq!(got, expected, "{kind} {precision:?}");
    }
}

/// Self-alignments whose true scores are 32766, 32767 and 32768: a run of
/// 2,978 `W` (11 each under BLOSUM62) topped up with one or two other
/// residues. Word mode saturates at `i16::MAX`, so the last one reads
/// 32767 on every path — and the scalar oracle that fault recovery
/// recomputes on is clamped to agree with it.
#[test]
fn scores_either_side_of_word_saturation_agree_with_the_oracle() {
    let p = params();
    for (tail, truth) in [("H", 32766), ("C", 32767), ("AG", 32768)] {
        let mut q = encode_protein(&"W".repeat(2978)).unwrap();
        q.extend(encode_protein(tail).unwrap());
        assert_eq!(sw_score(&p, &q, &q), truth, "tail {tail}");
        let expected = truth.min(i16::MAX as i32);
        assert_eq!(oracle_score(&p, &q, &q), expected, "tail {tail}");
        for (kind, precision, got) in every_path(&p, &q, &q) {
            assert_eq!(got, expected, "tail {tail} on {kind} {precision:?}");
        }
    }
}

/// Deliberately overflow-prone input: long near-identical sequences score
/// far above 255, so every backend must take the word-mode rerun path and
/// still agree with the scalar reference.
#[test]
fn forced_overflow_agrees_everywhere() {
    let p = params();
    let q: Vec<u8> = (0..400).map(|i| (i % 20) as u8).collect();
    let mut d = q.clone();
    d[13] = (d[13] + 1) % 20;
    let expected = sw_score(&p, &q, &d);
    assert!(expected > 255, "case must exceed the byte range");
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), &q, kind);
        let mut stats = AdaptiveStats::default();
        assert_eq!(
            engine.score_with(&d, Precision::Adaptive, &mut stats),
            expected,
            "{kind}"
        );
        assert_eq!(stats.word_fallbacks, 1, "{kind} must have fallen back");
        assert!(stats.lazy_f_byte > 0, "{kind} byte pass counted");
        assert!(stats.lazy_f_word > 0, "{kind} word rerun counted");
    }
}

/// The `SW_SIMD_BACKEND` names round-trip through detection when the
/// backend is available (exercised here for every *available* kind without
/// mutating the process environment).
#[test]
fn engines_report_their_backend() {
    let p = params();
    let q: Vec<u8> = (0..40).map(|i| (i % 20) as u8).collect();
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), &q, kind);
        assert_eq!(engine.kind(), kind);
    }
}
