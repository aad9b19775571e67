//! Differential tests for the byte→word hand-off.
//!
//! When byte mode gives up, the word kernel continues from the byte
//! kernel's de-striped state instead of restarting at column 0. The state
//! crosses lane widths that differ per backend (32→16 lanes on AVX2, 16→8
//! elsewhere), so every case runs on every available backend, in both
//! kernel modes, against the scalar oracle — and against a from-scratch
//! word-mode run, which the resumed run must equal even where i16
//! saturates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_align::alphabet::{encode_protein, Alphabet};
use sw_align::matrix::ScoringMatrix;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_db::synth::make_query;
use sw_simd::{AdaptiveStats, BackendKind, KernelMode, Precision, QueryEngine};

/// `prefix` random residues, a 70%-identity copy of `query[window]`, then
/// `suffix` random residues.
fn homolog(
    query: &[u8],
    window: std::ops::Range<usize>,
    prefix: usize,
    suffix: usize,
    seed: u64,
) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = make_query(prefix, seed ^ 0x5052);
    for &r in &query[window] {
        d.push(if rng.gen_range(0.0..1.0) < 0.7 {
            r
        } else {
            rng.gen_range(0..20u8)
        });
    }
    d.extend(make_query(suffix, seed ^ 0x5355));
    d
}

fn run(engine: &QueryEngine, d: &[u8], precision: Precision) -> (i32, AdaptiveStats) {
    let mut stats = AdaptiveStats::default();
    (engine.score_with(d, precision, &mut stats), stats)
}

/// Adaptive and word-only scores on every backend × mode must equal the
/// oracle (saturated at `i16::MAX`), and the overflow verdict must not
/// depend on backend or mode. Returns the verdict.
fn check_everywhere(p: &SwParams, q: &[u8], d: &[u8]) -> u64 {
    let expected = sw_score(p, q, d).min(i16::MAX as i32);
    let mut verdicts = Vec::new();
    for kind in BackendKind::available() {
        for mode in KernelMode::ALL {
            let engine = QueryEngine::with_backend_and_mode(p.clone(), q, kind, mode);
            let (adaptive, stats) = run(&engine, d, Precision::Adaptive);
            let (word, _) = run(&engine, d, Precision::Word);
            assert_eq!(adaptive, expected, "adaptive on {kind} / {mode}");
            assert_eq!(word, expected, "word on {kind} / {mode}");
            verdicts.push(stats.word_fallbacks);
        }
    }
    assert!(
        verdicts.windows(2).all(|w| w[0] == w[1]),
        "overflow verdict differs across backends/modes: {verdicts:?}"
    );
    verdicts[0]
}

/// Length of the shortest prefix of `d` on which `kind`'s byte mode
/// overflows (the running maximum only grows, so the verdict is monotone in
/// the prefix).
fn overflow_column(p: &SwParams, q: &[u8], d: &[u8], kind: BackendKind) -> usize {
    let engine = QueryEngine::with_backend(p.clone(), q, kind);
    let overflows = |len: usize| {
        run(&engine, &d[..len], Precision::Adaptive)
            .1
            .word_fallbacks
            == 1
    };
    assert!(overflows(d.len()), "pair must overflow byte mode");
    let (mut lo, mut hi) = (0, d.len()); // !overflows(lo), overflows(hi)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if overflows(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// In forced-scan mode every resumed column costs at least one repair
/// operation, so the word pass's count tells how many columns it ran.
fn resumed_word_ops(p: &SwParams, q: &[u8], d: &[u8], kind: BackendKind) -> (u64, u64) {
    let engine = QueryEngine::with_backend_and_mode(p.clone(), q, kind, KernelMode::PrefixScan);
    let (_, adaptive) = run(&engine, d, Precision::Adaptive);
    let (_, word) = run(&engine, d, Precision::Word);
    (adaptive.lazy_f_word, word.lazy_f_word)
}

#[test]
fn overflow_early_mid_subject_and_on_the_last_column() {
    let mut params = vec![SwParams::cudasw_default(), SwParams::cudasw_default()];
    params[1].gaps = GapPenalties::new(3, 3).unwrap();
    for p in &params {
        // 100 and 375 are multiples of no lane count (8, 16, 32).
        for (qlen, seed) in [(100usize, 1u64), (375, 2), (375, 3)] {
            let q = make_query(qlen, seed);
            for prefix in [0usize, 300] {
                let d = homolog(&q, 0..qlen, prefix, 200, seed + 10);
                assert_eq!(check_everywhere(p, &q, &d), 1, "q={qlen} prefix={prefix}");
                let col = overflow_column(p, &q, &d, BackendKind::Portable);
                assert!(
                    col > prefix && col < prefix + qlen,
                    "overflow inside the planted region"
                );
                // Truncated there, the overflow lands on the last column:
                // the word pass has nothing left to resume.
                let last = &d[..col];
                assert_eq!(check_everywhere(p, &q, last), 1);
                for kind in BackendKind::available() {
                    let (resumed, scratch) = resumed_word_ops(p, &q, &d, kind);
                    assert!(
                        resumed > 0 && resumed < scratch,
                        "{kind}: the word pass must resume, not restart \
                         (resumed {resumed} vs from scratch {scratch})"
                    );
                    let (resumed, _) = resumed_word_ops(p, &q, last, kind);
                    assert_eq!(resumed, 0, "{kind}: no column left after the last");
                }
            }
        }
    }
}

/// BLOSUM62 with one unused cell (the `*`/`*` pair, never in a sequence
/// here) lowered to `-bias`: alignments are unchanged, but byte mode's
/// overflow threshold `255 − bias − 11` moves wherever the test wants it.
fn blosum62_with_bias(bias: u8) -> ScoringMatrix {
    let base = ScoringMatrix::blosum62();
    let size = base.size();
    let mut raw: Vec<i8> = (0..size as u8).flat_map(|a| base.row(a).to_vec()).collect();
    raw[size * size - 1] = (-(bias as i32)) as i8;
    ScoringMatrix::from_raw("BLOSUM62-biased", Alphabet::Protein, size, raw).unwrap()
}

#[test]
fn hand_off_at_every_threshold_including_inside_an_open_gap() {
    // The optimal alignment matches q[..20], gaps over 24 subject columns,
    // then matches q[20..]. Those 24 columns copy q[110..134], a decoy that
    // outscores the first 20 matches — so while the winning path sits in
    // its open gap, the running maximum still climbs and, for some
    // thresholds, byte mode gives up right there: the E it hands over is
    // the only record of the gap.
    let q = make_query(140, 41);
    let mut d = make_query(30, 42);
    d.extend_from_slice(&q[..20]);
    d.extend_from_slice(&q[110..134]);
    d.extend_from_slice(&q[20..]);
    d.extend(make_query(30, 43));
    let gap_cols = 50..74;
    let mut inside_gap = 0;
    for bias in 4..=128u8 {
        let p = SwParams {
            matrix: blosum62_with_bias(bias),
            gaps: GapPenalties::cudasw_default(),
        };
        assert_eq!(check_everywhere(&p, &q, &d), 1, "bias {bias}");
        let col = overflow_column(&p, &q, &d, BackendKind::Portable);
        inside_gap += usize::from(gap_cols.contains(&(col - 1)));
    }
    assert!(inside_gap > 0, "no threshold landed inside the open gap");
}

#[test]
fn queries_shorter_than_one_vector() {
    // 25 tryptophans (11 each under BLOSUM62) overflow byte mode and fit
    // one 32-lane byte vector with padding to spare.
    let p = SwParams::cudasw_default();
    let q = vec![17u8; 25];
    let mut d = make_query(40, 5);
    d.extend_from_slice(&q);
    d.extend(make_query(40, 6));
    assert_eq!(check_everywhere(&p, &q, &d), 1);

    // Under +60/−4 four matches already overflow, so queries shorter than
    // even the 8-lane word vector hand off.
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 60, -4),
        gaps: GapPenalties::cudasw_default(),
    };
    for qlen in [5usize, 7, 13, 21] {
        let q = make_query(qlen, qlen as u64);
        let d = homolog(&q, 0..qlen, 30, 30, 7);
        assert_eq!(check_everywhere(&p, &q, &d), 1, "q={qlen}");
    }
}

#[test]
fn query_past_the_byte_decay_clamp() {
    // seg_len·extend = 132·2 (32 lanes) and 263·2 (16 lanes), both past the
    // byte clamp of 255: the predictor can never fire in byte mode there.
    let p = SwParams::cudasw_default();
    let q = make_query(4200, 11);
    let d = homolog(&q, 1000..1400, 100, 100, 12);
    assert_eq!(check_everywhere(&p, &q, &d), 1);
    let col = overflow_column(&p, &q, &d, BackendKind::Portable);
    assert_eq!(check_everywhere(&p, &q, &d[..col]), 1);
}

#[test]
fn chunk_decays_either_side_of_the_signed_byte_limit() {
    // AVX2 subtracts with `vpsubsb`, whose amount is a signed byte, so its
    // scan splits a chunk decay (`seg_len × extend` on 32 lanes) past 127:
    // 94·2 = 188 goes as 127 + 61, 127·2 = 254 is the most two
    // subtractions carry, and 85·3 = 255 empties every level, as does
    // 132·2 = 264 once clamped. (On 16 lanes all four are past the clamp.)
    // A self-alignment scans from its first columns and hands off within
    // thirty; the 40-residue homolog keeps byte mode to the end with F
    // crossing chunk boundaries. `check_everywhere` runs both routes.
    let cases = [
        (3000usize, 2, 188),
        (4064, 2, 254),
        (2720, 3, 255),
        (4200, 2, 264),
    ];
    for (qlen, extend, decay) in cases {
        let p = SwParams {
            matrix: ScoringMatrix::blosum62(),
            gaps: GapPenalties::new(10, extend).unwrap(),
        };
        let (q, seed) = (make_query(qlen, decay), decay + 10);
        assert_eq!(qlen.div_ceil(32) as u64 * extend as u64, decay);
        assert_eq!(check_everywhere(&p, &q, &q[..200]), 1, "q={qlen} self");
        let d = homolog(&q, 500..540, 100, 100, seed);
        assert_eq!(check_everywhere(&p, &q, &d), 0, "q={qlen} homolog");
    }
}

#[test]
fn gap_penalties_past_the_signed_byte_limit_decline_to_word_mode() {
    // One `vpsubsb` cannot carry a penalty above 127, so there the AVX2
    // byte pass declines before its first column — the way a profile with
    // no headroom does — and the word pass scores every pair alone. The
    // biased backends carry 255 in one `psubusb` (a clamped penalty beyond
    // that floors every H it is taken from, as the true one would) and
    // keep their byte pass.
    let q = make_query(100, 51);
    let subjects = [make_query(150, 52), homolog(&q, 0..100, 30, 30, 53)];
    let cases = [
        (127, 1, true),
        (127, 127, true),
        (128, 1, false),
        (200, 2, false),
        (200, 130, false),
        (300, 256, false),
    ];
    for (open, extend, avx2_byte_pass) in cases {
        let p = SwParams {
            matrix: ScoringMatrix::blosum62(),
            gaps: GapPenalties::new(open, extend).unwrap(),
        };
        for kind in BackendKind::available() {
            for mode in KernelMode::ALL {
                let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
                let mut stats = AdaptiveStats::default();
                for d in &subjects {
                    let expected = sw_score(&p, &q, d);
                    let what = format!("gaps ({open}, {extend}) on {kind} / {mode}");
                    let adaptive = engine.score_with(d, Precision::Adaptive, &mut stats);
                    assert_eq!(adaptive, expected, "adaptive, {what}");
                    assert_eq!(run(&engine, d, Precision::Word).0, expected, "word, {what}");
                }
                if kind == BackendKind::Avx2 && !avx2_byte_pass {
                    assert_eq!(
                        stats.lazy_f_byte, 0,
                        "({open}, {extend}): no byte column ran"
                    );
                    assert_eq!(stats.byte_mode, 0);
                    assert_eq!(stats.word_fallbacks, subjects.len() as u64);
                } else {
                    assert!(stats.lazy_f_byte > 0, "({open}, {extend}) on {kind}");
                    assert!(stats.byte_mode > 0, "({open}, {extend}) on {kind}");
                }
            }
        }
    }
}

#[test]
fn scores_either_side_of_the_overflow_threshold_hand_off_at_one_column() {
    // Under BLOSUM62 `overflow_at` is 255 − 4 − 11 = 240 and byte mode
    // gives up once the running maximum reaches it. 21 tryptophans (231)
    // topped up to a true score of exactly 239, 240 and 241: the first
    // resolves in byte mode, the other two hand off — on the column where
    // the maximum gets there, whatever the backend's lanes or encoding.
    let p = SwParams::cudasw_default();
    for (tail, truth, hand_off) in [
        ("H", 239, None),
        ("C", 240, Some(22)),
        ("AG", 241, Some(23)),
    ] {
        let mut q = encode_protein(&"W".repeat(21)).unwrap();
        q.extend(encode_protein(tail).unwrap());
        let mut d = q.clone();
        d.extend(make_query(20, 71));
        assert_eq!(sw_score(&p, &q, &d), truth, "tail {tail}");
        let verdict = check_everywhere(&p, &q, &d);
        assert_eq!(verdict, u64::from(hand_off.is_some()), "tail {tail}");
        if let Some(col) = hand_off {
            for kind in BackendKind::available() {
                assert_eq!(
                    overflow_column(&p, &q, &d, kind),
                    col,
                    "tail {tail} on {kind}"
                );
            }
        }
    }
}

#[test]
fn saturation_after_a_hand_off_equals_a_from_scratch_word_run() {
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 100, -4),
        gaps: GapPenalties::cudasw_default(),
    };
    let q = make_query(400, 21);
    assert!(sw_score(&p, &q, &q) > i16::MAX as i32);
    // check_everywhere compares both precisions against the clamped oracle.
    assert_eq!(check_everywhere(&p, &q, &q), 1);
}

#[test]
fn a_profile_with_no_byte_headroom_overflows_up_front() {
    // bias 128 + max 127 leave overflow_at == 0: byte mode reports overflow
    // before its first column and word mode starts from the zero state.
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 127, -128),
        gaps: GapPenalties::cudasw_default(),
    };
    let q = make_query(10, 31);
    let d = homolog(&q, 0..10, 20, 20, 32);
    assert_eq!(check_everywhere(&p, &q, &d), 1);
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), &q, kind);
        let (_, stats) = run(&engine, &d, Precision::Adaptive);
        assert_eq!(stats.lazy_f_byte, 0, "{kind}: no byte column ran");
    }
}
