//! Differential tests for the byte→word hand-off.
//!
//! When byte mode gives up, the word kernel continues from the byte
//! kernel's de-striped state instead of restarting at column 0. The state
//! crosses lane widths that differ per backend (32→16 lanes on AVX2, 16→8
//! elsewhere), so every case runs on every available backend, in both
//! kernel modes, against the scalar oracle — and against a from-scratch
//! word-mode run, which the resumed run must equal even where i16
//! saturates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_align::alphabet::{encode_protein, Alphabet};
use sw_align::matrix::ScoringMatrix;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_db::synth::make_query;
use sw_simd::backend::{
    sw_bytes_checked, sw_bytes_grouped, sw_words_checked, sw_words_grouped, ByteProfileOf,
    ByteSimd, Handoff, WordProfileOf, WordSimd,
};
use sw_simd::{
    AdaptiveStats, BackendKind, CancelToken, Cancelled, KernelMode, NeverCancel, Precision,
    QueryEngine,
};

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
/// oracle, and the overflow verdict must not depend on backend or mode.
/// Returns the verdict.
fn check_everywhere(p: &SwParams, q: &[u8], d: &[u8]) -> u64 {
    let expected = sw_score(p, q, d);
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

// The byte pass's overflow verdict comes from the layout-independent
// running maximum, so whether a pair handed off to word mode depends on
// neither the backend's lane count nor the kernel mode.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn overflow_verdict_is_backend_and_mode_independent(
        q in proptest::collection::vec(0u8..20, 1..=120),
        d in proptest::collection::vec(0u8..20, 1..=120),
    ) {
        let p = SwParams::cudasw_default();
        let mut verdicts = Vec::new();
        for kind in BackendKind::available() {
            for mode in KernelMode::ALL {
                let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
                verdicts.push((kind, mode, run(&engine, &d, Precision::Adaptive).1.word_fallbacks));
            }
        }
        for w in verdicts.windows(2) {
            prop_assert_eq!(w[0].2, w[1].2, "verdict differs: {:?} vs {:?}", w[0], w[1]);
        }
    }
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

/// The raw byte kernels on one vector type: `group` streamed through the
/// grouped pass in one call, each subject ending as the striped pass does on
/// it — the same score, or the same `Handoff` (column, H, E, maximum).
/// Returns the striped outcomes.
fn same_lanes<V: ByteSimd>(p: &SwParams, q: &[u8], group: &[&[u8]], what: &str) -> Vec<usize> {
    let profile = ByteProfileOf::<V>::build(p, q);
    let grouped = sw_bytes_grouped(&p.gaps, &profile, group, &NeverCancel, &mut [0; 3]).unwrap();
    let mut cols = Vec::new();
    for (d, lane) in group.iter().zip(grouped) {
        let striped = sw_bytes_checked(&p.gaps, &profile, d, false, &NeverCancel).unwrap();
        assert_eq!(
            lane,
            striped.score,
            "{what}: subject {} on {} lanes",
            cols.len(),
            V::LANES
        );
        cols.push(striped.score.err().map_or(0, |h| h.cols));
    }
    cols
}

/// The raw word kernels on one vector type: every hand-off of `group`,
/// streamed through the grouped word pass in one call, scores what the
/// striped word pass scores from the same start (saturating at `i16::MAX`
/// alike). Returns the hand-offs.
fn same_words<V: WordSimd>(p: &SwParams, q: &[u8], group: &[&[u8]], what: &str) -> usize {
    let byte = ByteProfileOf::<sw_simd::portable::U8x16>::build(p, q);
    let profile = WordProfileOf::<V>::build(p, q);
    let striped = |d: &[u8]| sw_bytes_checked(&p.gaps, &byte, d, false, &NeverCancel).unwrap();
    let handed: Vec<(&[u8], Handoff)> = (group.iter())
        .filter_map(|&d| striped(d).score.err().map(|start| (d, start)))
        .collect();
    let subjects: Vec<&[u8]> = handed.iter().map(|(d, _)| *d).collect();
    let starts: Vec<&Handoff> = handed.iter().map(|(_, start)| start).collect();
    let grouped = sw_words_grouped(
        &p.gaps,
        &profile,
        &subjects,
        &starts,
        &NeverCancel,
        &mut [0; 3],
    );
    for (k, ((d, start), score)) in handed.iter().zip(grouped.unwrap()).enumerate() {
        let want = sw_words_checked(&p.gaps, &profile, d, false, start, &NeverCancel);
        assert_eq!(score, want.unwrap().score, "{what}: hand-off {k}");
    }
    handed.len()
}

/// `group` through the grouped passes on every vector type and through
/// `score_group` on every backend and mode, each subject held to the
/// striped pass. Returns each subject's hand-off column (0: none).
fn check_group(p: &SwParams, q: &[u8], group: &[Vec<u8>]) -> Vec<usize> {
    let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
    let cols = same_lanes::<sw_simd::portable::U8x16>(p, q, &refs, "portable");
    let handed = same_words::<sw_simd::portable::I16x8>(p, q, &refs, "portable");
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(
            same_lanes::<sw_simd::x86::U8x16Sse>(p, q, &refs, "sse2"),
            cols
        );
        same_words::<sw_simd::x86::I16x8Sse>(p, q, &refs, "sse2");
        if BackendKind::Avx2.is_available() {
            assert_eq!(
                same_lanes::<sw_simd::x86::U8x32Avx>(p, q, &refs, "avx2"),
                cols
            );
            same_words::<sw_simd::x86::I16x16Avx>(p, q, &refs, "avx2");
        }
    }
    assert_eq!(handed, cols.iter().filter(|&&c| c > 0).count());
    for kind in BackendKind::available() {
        for mode in KernelMode::ALL {
            let engine = QueryEngine::with_backend_and_mode(p.clone(), q, kind, mode);
            for (k, (d, (score, grouped))) in group
                .iter()
                .zip(engine.score_group(&refs, None).unwrap())
                .enumerate()
            {
                let (want, striped) = run(&engine, d, Precision::Adaptive);
                assert_eq!(
                    (score, want),
                    (sw_score(p, q, d), want),
                    "lane {k} on {kind} / {mode}"
                );
                // The grouped passes run no Lazy-F; the verdict is the
                // striped pass's.
                assert_eq!(
                    grouped,
                    AdaptiveStats {
                        lazy_f_byte: 0,
                        lazy_f_word: 0,
                        ..striped
                    },
                    "lane {k} on {kind} / {mode}: the counts"
                );
            }
        }
    }
    cols
}

/// `n` random subjects of lengths `len(k)` over the residues a query made
/// of codes `0..10` never uses, so under a match/mismatch matrix they
/// score no match and stay in byte mode.
fn strangers(n: usize, len: impl Fn(usize) -> usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| (0..len(k)).map(|_| rng.gen_range(10..20u8)).collect())
        .collect()
}

#[test]
fn a_lane_hands_off_at_column_one_and_on_its_last_column_among_byte_mode_neighbours() {
    // Under +127/−4 one match passes `overflow_at` (255 − 4 − 127 = 124).
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 127, -4),
        gaps: GapPenalties::cudasw_default(),
    };
    let q: Vec<u8> = make_query(60, 81).into_iter().map(|r| r % 10).collect();
    for (size, lane) in [(1usize, 0usize), (15, 7), (31, 0), (31, 30)] {
        for equal in [true, false] {
            let len = |k: usize| if equal { 90 } else { 20 + 7 * k };
            let mut group = strangers(size, len, size as u64);
            // Column 1: the subject opens with a query residue.
            group[lane][0] = q[0];
            let cols = check_group(&p, &q, &group);
            let want: Vec<usize> = (0..size).map(|k| usize::from(k == lane)).collect();
            assert_eq!(cols, want, "{size} subjects, equal lengths {equal}");
            // Its last column: the one match ends the subject.
            group[lane] = [group[lane][1..].to_vec(), vec![q[0]]].concat();
            let last = group[lane].len();
            let cols = check_group(&p, &q, &group);
            assert_eq!(cols[lane], last, "{size} subjects: on the last column");
            assert_eq!(cols.iter().filter(|&&c| c > 0).count(), 1);
        }
    }
}

#[test]
fn a_lane_hands_off_inside_an_open_gap_among_byte_mode_neighbours() {
    // The subject of `hand_off_at_every_threshold_including_inside_an_open_gap`
    // in lane 5 of 31 (and of 16 on the 16-lane vectors), beside random
    // subjects of equal and unequal lengths: under BLOSUM62 the pairs of
    // columns the grouped pass sweeps at once stop before any lane's
    // maximum can pass its limit, so each threshold lands where the
    // striped pass lands it.
    let q = make_query(140, 41);
    let mut d = make_query(30, 42);
    d.extend_from_slice(&q[..20]);
    d.extend_from_slice(&q[110..134]);
    d.extend_from_slice(&q[20..]);
    d.extend(make_query(30, 43));
    let gap_cols = 50..74;
    let mut inside_gap = 0;
    for bias in (4..=128u8).step_by(4) {
        let p = SwParams {
            matrix: blosum62_with_bias(bias),
            gaps: GapPenalties::cudasw_default(),
        };
        let equal = bias % 8 == 0;
        let mut group: Vec<Vec<u8>> = (0..31)
            .map(|k| make_query(if equal { d.len() } else { 150 + 9 * k }, 500 + k as u64))
            .collect();
        group[5] = d.clone();
        let cols = check_group(&p, &q, &group);
        assert!(cols[5] > 0, "bias {bias}: the planted subject hands off");
        inside_gap += usize::from(gap_cols.contains(&(cols[5] - 1)));
    }
    assert!(inside_gap > 0, "no threshold landed inside the open gap");
}

#[test]
fn hand_offs_fill_several_word_groups_of_unequal_remaining_columns() {
    // Homologs of the query planted after prefixes of 0..400 residues and
    // followed by tails of 0..300 hand off at different columns with
    // different columns left; among them random subjects stay in byte
    // mode. 1, 7, 9, 15 and 17 hand-offs straddle one word group of 8 and
    // of 16 lanes; 100 fill several and pass the flush of four groups
    // (32 on 8 lanes, 64 on 16) before the last byte group of the call.
    let p = SwParams::cudasw_default();
    let q = make_query(120, 61);
    for handed in [1usize, 7, 9, 15, 17, 100] {
        let n = handed + 20;
        // Subject `k` is a homolog when `k·7919 mod n` (a prime, so a
        // permutation of `0..n`) falls below `handed`.
        let group: Vec<Vec<u8>> = (0..n)
            .map(|k| {
                let seed = 1000 * handed as u64 + k as u64;
                if k * 7919 % n < handed {
                    homolog(&q, 0..120, (k * 37) % 400, (k * 53) % 300, seed)
                } else {
                    make_query(100 + (k * 29) % 300, seed)
                }
            })
            .collect();
        let cols = check_group(&p, &q, &group);
        let lefts: Vec<usize> = (group.iter().zip(&cols))
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| d.len() - c)
            .collect();
        assert_eq!(lefts.len(), handed, "{handed} planted subjects hand off");
        if handed > 1 {
            assert!(
                lefts.windows(2).any(|w| w[0] != w[1]),
                "unequal columns left"
            );
        }
    }
}

#[test]
fn a_lane_saturating_the_word_range_beside_exact_lanes() {
    // Under +100/−4 the query against itself scores 40,000, past
    // `i16::MAX`: its word lane saturates and the pair is finished on the
    // scalar reference, while the homologs beside it stay exact.
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 100, -4),
        gaps: GapPenalties::cudasw_default(),
    };
    let q = make_query(400, 21);
    let mut group: Vec<Vec<u8>> = (0..6)
        .map(|k| homolog(&q, 100..160, 50 * k, 40, 90 + k as u64))
        .collect();
    group.insert(3, q.clone());
    let cols = check_group(&p, &q, &group);
    assert!(cols.iter().all(|&c| c > 0), "every subject hands off");
    assert!(sw_score(&p, &q, &q) > i32::from(i16::MAX));
    assert!((group.iter()).all(|d| d == &q || sw_score(&p, &q, d) < i32::from(i16::MAX)));
}

/// Thirty tryptophans (11 a match under BLOSUM62), then random residues.
fn tryptophan_query() -> Vec<u8> {
    [encode_protein(&"W".repeat(30)).unwrap(), make_query(60, 91)].concat()
}

/// `prefix` random residues, 25 tryptophans, `tail` random residues:
/// against [`tryptophan_query`] the maximum reaches BLOSUM62's hand-off
/// level 240 about 22 columns into the run.
fn tryptophan_run(prefix: usize, tail: usize, seed: u64) -> Vec<u8> {
    let run = encode_protein(&"W".repeat(25)).unwrap();
    [make_query(prefix, seed), run, make_query(tail, seed ^ 0x7a)].concat()
}

#[test]
fn a_two_column_sweep_never_straddles_a_block_boundary_in_either_precision() {
    // A lane sweeps single columns once its maximum passes 228 (one
    // column's largest score below the limit) until it hands off at 240.
    // After a hand-off on an odd column the pairs resume on odd columns and
    // reach column 63, the last of the first block, where one column fits.
    // The word lane's 80-odd remaining columns cross a block of their own.
    let (p, q) = (SwParams::cudasw_default(), tryptophan_query());
    let mut odd = 0;
    for prefix in 0..8 {
        let mut group: Vec<Vec<u8>> = (0..20)
            .map(|k| make_query(100 + 3 * k, 900 + k as u64))
            .collect();
        group[3] = tryptophan_run(prefix, 80, 95 + prefix as u64);
        let cols = check_group(&p, &q, &group);
        assert!(cols[3] > 0 && cols.iter().filter(|&&c| c > 0).count() == 1);
        assert!(group[3].len() - cols[3] > 64, "a word block boundary");
        odd += usize::from(cols[3] % 2 == 1 && cols[3] < 63);
    }
    assert!(odd > 0, "no hand-off on an odd column before column 63");
}

#[test]
fn a_word_group_whose_longest_remaining_subject_is_odd() {
    // Nine hand-offs with unequal columns left; over five tails the longest
    // is odd at least once, and its last column is swept alone.
    let (p, q) = (SwParams::cudasw_default(), tryptophan_query());
    let mut odd = 0;
    for tail in 40..45 {
        let group: Vec<Vec<u8>> = (0..9)
            .map(|k| tryptophan_run(k, tail + 2 * k, 300 + k as u64))
            .collect();
        let cols = check_group(&p, &q, &group);
        assert!(cols.iter().all(|&c| c > 0), "every subject hands off");
        let left = group.iter().zip(&cols).map(|(d, c)| d.len() - c);
        odd += left.max().unwrap() % 2;
    }
    assert!(odd > 0, "no odd longest remainder");
}

#[test]
fn a_matrix_whose_largest_score_leaves_no_room_for_two_column_sweeps() {
    // `overflow_at = 255 − bias − max_score` is 126 under +126/−3, no more
    // than one column's largest score, so no two columns are swept at once;
    // under +125/−3 it is 127 and pairs run until a maximum passes 1. A
    // match on columns 1 and 2 hands off after column 1, then after 2.
    let q: Vec<u8> = make_query(40, 83).into_iter().map(|r| r % 10).collect();
    for (hit, hand_off) in [(126, 1), (125, 2)] {
        let p = SwParams {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, hit, -3),
            gaps: GapPenalties::cudasw_default(),
        };
        let mut group = strangers(20, |k| 30 + k, hit as u64);
        group[6][..2].copy_from_slice(&q[..2]);
        let want: Vec<usize> = (0..20).map(|k| if k == 6 { hand_off } else { 0 }).collect();
        assert_eq!(check_group(&p, &q, &group), want, "+{hit}/−3");
    }
}

#[test]
fn every_lane_hands_off_on_the_same_column() {
    // A full AVX2 group whose subjects share a prefix and a tryptophan run
    // and differ after the column where every lane hands off.
    let (p, q) = (SwParams::cudasw_default(), tryptophan_query());
    let group: Vec<Vec<u8>> = (0..32)
        .map(|k| {
            [
                &tryptophan_run(3, 0, 7)[..],
                &make_query(20 + k, 700 + k as u64),
            ]
            .concat()
        })
        .collect();
    let cols = check_group(&p, &q, &group);
    assert!(
        cols[0] > 0 && cols.iter().all(|&c| c == cols[0]),
        "{cols:?}"
    );
}

/// Under +127/−4 one match passes `overflow_at` (255 − 4 − 127 = 124), and
/// no two columns are swept at once.
fn one_match_hands_off() -> SwParams {
    SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 127, -4),
        gaps: GapPenalties::cudasw_default(),
    }
}

/// A query of codes `0..10`, which [`strangers`] never use.
fn low_query(len: usize, seed: u64) -> Vec<u8> {
    make_query(len, seed).into_iter().map(|r| r % 10).collect()
}

#[test]
fn streams_of_one_more_subject_than_lanes_with_empty_single_and_odd_subjects() {
    // Past every lane count (8, 16, 32 and one more of each) subjects take
    // freed lanes: empty ones never enter, one-residue and odd-length ones
    // leave a pad column behind them, and a homolog or two hand off.
    let p = SwParams::cudasw_default();
    let q = make_query(90, 71);
    for n in [9usize, 17, 33] {
        let mut group: Vec<Vec<u8>> = (0..n)
            .map(|k| make_query(40 + (k * 37) % 61, 700 + k as u64))
            .collect();
        group[n / 2] = Vec::new();
        group[n / 3] = vec![q[0]];
        group[2] = homolog(&q, 0..90, 5, 11, 72);
        let cols = check_group(&p, &q, &group);
        assert!(cols[2] > 0, "{n} subjects: the homolog hands off");
        assert!(group.iter().any(|d| d.len() % 2 == 1), "an odd subject");
    }
}

#[test]
fn a_lane_refills_on_the_column_it_hands_off() {
    // The match on a subject's second column hands it off after two columns,
    // an even count: the next subject enters that lane on that column. Beside
    // long strangers, with more subjects queued than any vector has lanes.
    let (p, q) = (one_match_hands_off(), low_query(50, 73));
    let mut group = strangers(40, |k| 60 + 3 * k, 74);
    for k in [0, 5, 33] {
        group[k][1] = q[0];
    }
    let cols = check_group(&p, &q, &group);
    for k in [0, 5, 33] {
        assert_eq!(cols[k], 2, "subject {k} hands off after two columns");
    }
}

#[test]
fn a_subject_enters_on_the_last_column_of_the_stream() {
    // Every lane's subject ends on column 10 and a one-residue subject takes
    // a freed lane there: the stream's last column holds it alone.
    let (p, q) = (one_match_hands_off(), low_query(40, 75));
    for lanes in [8usize, 16, 32] {
        let mut group = strangers(lanes, |_| 10, 76);
        group.push(vec![q[0]]);
        let cols = check_group(&p, &q, &group);
        assert_eq!(
            cols[lanes], 1,
            "{lanes} lanes: the last subject hands off at once"
        );
    }
}

#[test]
fn every_lane_hands_off_on_one_column_and_refills_there() {
    // All lanes of the widest vector hand off after two columns, and as many
    // subjects again wait: every lane refills on the column it handed off.
    let (p, q) = (one_match_hands_off(), low_query(50, 77));
    let mut group = strangers(64, |k| 30 + k, 78);
    for d in &mut group[..32] {
        d[1] = q[0];
    }
    let cols = check_group(&p, &q, &group);
    assert!(cols[..32].iter().all(|&c| c == 2), "{cols:?}");
}

#[test]
fn a_cancel_mid_stream_leaks_no_score() {
    // Every checkpoint of a stream of more subjects than lanes, in the byte
    // pass and in the word pass, abandons the whole stream.
    let p = SwParams::cudasw_default();
    let q = make_query(120, 79);
    let group: Vec<Vec<u8>> = (0..40)
        .map(|k| match k % 5 {
            0 => homolog(&q, 0..120, 20 + k, 150, 80 + k as u64),
            _ => make_query(100 + 13 * k, 120 + k as u64),
        })
        .collect();
    let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), &q, kind);
        let full = CancelToken::new();
        let expected = engine.score_group(&refs, Some(&full)).unwrap();
        for (d, (score, _)) in group.iter().zip(&expected) {
            assert_eq!(*score, sw_score(&p, &q, d), "{kind}");
        }
        assert!(full.polls() > 2, "{kind}: several checkpoints");
        for budget in 1..=full.polls() {
            let token = CancelToken::after_polls(budget);
            let r = engine.score_group(&refs, Some(&token));
            assert_eq!(r, Err(Cancelled), "{kind}: budget {budget}");
        }
    }
}
