//! Differential property tests for the prefix-scan Lazy-F kernel mode.
//!
//! Snytsar's deconstruction (arXiv:1909.00899) replaces the correction
//! loop with a Kogge-Stone max-scan over the lane-boundary F values plus a
//! single repair pass; the kernels take it on the columns whose F outlives
//! a chunk, and `KernelMode::PrefixScan` forces it on every column. The
//! claim is *exactness*: for every
//! backend and every input, the scan mode must produce (1) the bit-exact
//! score of the correction-loop mode and the scalar reference, and (2) the
//! identical byte→word overflow verdict — the adaptive ladder may not
//! change shape under a kernel-mode switch. On top of exactness, the
//! repair must be *bounded*: whichever route a column takes, it spends at
//! most `seg_len + log2(LANES) + open/extend + 1` `lazy_f` vector
//! operations. The first `min(PEEL, seg_len)` steps of every column run
//! without the early-exit test (`tests/peel_differential.rs`); they count
//! too, and the bound holds unchanged because the prefix is never longer
//! than the stripe: `max(PEEL, exit) ≤ seg_len + …`.

use proptest::prelude::*;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_simd::{AdaptiveStats, BackendKind, KernelMode, Precision, QueryEngine};

fn protein_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, 1..=max_len)
}

fn params() -> SwParams {
    SwParams::cudasw_default()
}

/// Run one (query, db) pair through an engine, returning (score, stats).
fn run(
    p: &SwParams,
    q: &[u8],
    d: &[u8],
    kind: BackendKind,
    mode: KernelMode,
    precision: Precision,
) -> (i32, AdaptiveStats) {
    let engine = QueryEngine::with_backend_and_mode(p.clone(), q, kind, mode);
    let mut stats = AdaptiveStats::default();
    let score = engine.score_with(d, precision, &mut stats);
    (score, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_matches_loop_and_scalar_adaptive(q in protein_seq(150), d in protein_seq(150)) {
        let p = params();
        let expected = sw_score(&p, &q, &d);
        for kind in BackendKind::available() {
            let (loop_score, loop_stats) =
                run(&p, &q, &d, kind, KernelMode::CorrectionLoop, Precision::Adaptive);
            let (scan_score, scan_stats) =
                run(&p, &q, &d, kind, KernelMode::PrefixScan, Precision::Adaptive);
            prop_assert_eq!(loop_score, expected, "loop vs scalar on {}", kind);
            prop_assert_eq!(scan_score, expected, "scan vs scalar on {}", kind);
            // The overflow verdict must be mode-independent: v_max is the
            // same running maximum in both formulations.
            prop_assert_eq!(
                scan_stats.word_fallbacks, loop_stats.word_fallbacks,
                "fallback verdict differs between modes on {}", kind
            );
            prop_assert_eq!(
                scan_stats.byte_mode, loop_stats.byte_mode,
                "byte-mode count differs between modes on {}", kind
            );
        }
    }

    #[test]
    fn scan_matches_loop_and_scalar_word(q in protein_seq(100), d in protein_seq(100)) {
        let p = params();
        let expected = sw_score(&p, &q, &d);
        for kind in BackendKind::available() {
            let (loop_score, _) =
                run(&p, &q, &d, kind, KernelMode::CorrectionLoop, Precision::Word);
            let (scan_score, _) =
                run(&p, &q, &d, kind, KernelMode::PrefixScan, Precision::Word);
            prop_assert_eq!(loop_score, expected, "loop word vs scalar on {}", kind);
            prop_assert_eq!(scan_score, expected, "scan word vs scalar on {}", kind);
        }
    }

    #[test]
    fn scan_matches_loop_under_arbitrary_gap_models(
        q in protein_seq(80),
        d in protein_seq(80),
        open in 1i32..20,
        extend in 1i32..5,
    ) {
        prop_assume!(open >= extend);
        let mut p = params();
        p.gaps = sw_align::GapPenalties::new(open, extend).unwrap();
        let expected = sw_score(&p, &q, &d);
        for kind in BackendKind::available() {
            for precision in [Precision::Adaptive, Precision::Word] {
                let (score, _) = run(&p, &q, &d, kind, KernelMode::PrefixScan, precision);
                prop_assert_eq!(
                    score, expected,
                    "scan gaps=({},{}) on {} ({:?})", open, extend, kind, precision
                );
            }
        }
    }

    #[test]
    fn scan_overflow_verdict_is_backend_independent(
        q in protein_seq(120),
        d in protein_seq(120),
    ) {
        // Same invariant as the correction-loop suite: the byte-mode
        // verdict comes from the layout-independent running max, so it may
        // depend on neither lane count nor kernel mode.
        let p = params();
        let mut verdicts = Vec::new();
        for kind in BackendKind::available() {
            let (_, stats) = run(&p, &q, &d, kind, KernelMode::PrefixScan, Precision::Adaptive);
            verdicts.push((kind, stats.word_fallbacks));
        }
        for window in verdicts.windows(2) {
            prop_assert_eq!(
                window[0].1, window[1].1,
                "scan verdict differs: {} vs {}", window[0].0, window[1].0
            );
        }
    }
}

/// The repair is bounded per column in both modes. When no lane's exit F
/// outlives a chunk the correction loop's early exit ends it within
/// `seg_len + open/extend + 1` steps; otherwise — and always under
/// `open == extend`, where that exit is unsound, or a forced scan — it
/// costs `log2(LANES)` scan rounds plus one pass of `seg_len`. A
/// self-alignment is the input that used to drive the loop towards its
/// `LANES × seg_len` worst case.
#[test]
fn lazy_f_per_column_is_bounded() {
    let q: Vec<u8> = (0..400).map(|i| (i % 20) as u8).collect();
    let cols = q.len() as u64;
    for (open, extend) in [(10, 2), (2, 2)] {
        let mut p = params();
        p.gaps = sw_align::GapPenalties::new(open, extend).unwrap();
        let expected = sw_score(&p, &q, &q);
        for kind in BackendKind::available() {
            let bound = |lanes: usize| {
                let seg_len = q.len().div_ceil(lanes) as u64;
                seg_len + lanes.ilog2() as u64 + (open / extend) as u64 + 1
            };
            for mode in KernelMode::ALL {
                let (score, adaptive) = run(&p, &q, &q, kind, mode, Precision::Adaptive);
                let (_, word) = run(&p, &q, &q, kind, mode, Precision::Word);
                assert_eq!(score, expected, "{kind} / {mode}");
                assert_eq!(adaptive.word_fallbacks, 1, "{kind} / {mode} must hand off");
                // The byte pass and the resumed word pass share the columns.
                let spent = [
                    ("byte pass", adaptive.lazy_f_byte, bound(kind.byte_lanes())),
                    (
                        "resumed word pass",
                        adaptive.lazy_f_word,
                        bound(kind.word_lanes()),
                    ),
                    ("word-only run", word.lazy_f_word, bound(kind.word_lanes())),
                ];
                for (what, ops, per_column) in spent {
                    assert!(
                        ops > 0 && ops <= cols * per_column,
                        "{kind} / {mode} gaps ({open},{extend}): {what} spent {ops} repair \
                         ops over {cols} columns, bound {per_column} per column"
                    );
                }
            }
        }
    }
}

/// The engine honours an explicit kernel mode and reports it back.
#[test]
fn engines_report_their_kernel_mode() {
    let p = params();
    let q: Vec<u8> = (0..40).map(|i| (i % 20) as u8).collect();
    for kind in BackendKind::available() {
        for mode in KernelMode::ALL {
            let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.mode(), mode);
        }
    }
}
