//! Differential tests for the unconditional Lazy-F prefix.
//!
//! Every column runs its first `min(PEEL, seg_len)` repair steps before
//! the early-exit test is consulted (`backend.rs`, DESIGN.md §14). Two
//! claims are pinned here. *Degenerate stripes*: when the prefix is as
//! long as the stripe, or one short of it, or one past it — `seg_len` 1,
//! 2, `PEEL − 1`, `PEEL`, `PEEL + 1` on every lane count in use — every
//! backend × precision × gap model still equals the scalar oracle,
//! including pairs that hand off from byte to word mode (every hand-off
//! column has run the prefix) and true scores of 254, 255 and 256. *Inert
//! extra steps*: a step past the point where the tested loop would have
//! stopped changes nothing, so the byte kernel's complete outcome — score,
//! or the `Handoff` (columns, H, E, maximum) at overflow — is identical
//! with the scan forced on every column, and its `lazy_f` count never
//! falls below the prefix.
//!
//! Every failure message carries the seed and the lengths that rebuild the
//! pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_align::alphabet::Alphabet;
use sw_align::matrix::ScoringMatrix;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_db::catalog::PaperDb;
use sw_db::synth::make_query;
use sw_simd::backend::{sw_bytes_checked, ByteProfileOf, ByteSimd};
use sw_simd::{AdaptiveStats, BackendKind, KernelMode, NeverCancel, Precision, QueryEngine};

/// The repair is bounded per column whichever route a column takes: the
/// correction loop's early exit ends it within `seg_len + open/extend + 1`
/// steps, and otherwise — always under `open == extend` or a forced scan —
/// it costs `log2(LANES)` scan rounds plus one pass of `seg_len`. The
/// prefix counts too and never outgrows the bound. A self-alignment drove
/// the loop towards its `LANES × seg_len` worst case.
#[test]
fn lazy_f_per_column_is_bounded() {
    let q: Vec<u8> = (0..400).map(|i| (i % 20) as u8).collect();
    let cols = q.len() as u64;
    for (open, extend) in [(10, 2), (2, 2)] {
        let p = params(ScoringMatrix::blosum62(), (open, extend));
        for kind in BackendKind::available() {
            let bound = |lanes: usize| {
                let seg_len = q.len().div_ceil(lanes) as u64;
                seg_len + lanes.ilog2() as u64 + (open / extend) as u64 + 1
            };
            for mode in KernelMode::ALL {
                let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
                let run = |precision| {
                    let mut stats = AdaptiveStats::default();
                    let score = engine.score_with(&q, precision, &mut stats);
                    assert_eq!(score, sw_score(&p, &q, &q), "{kind} / {mode}");
                    stats
                };
                let (adaptive, word) = (run(Precision::Adaptive), run(Precision::Word));
                assert_eq!(adaptive.word_fallbacks, 1, "{kind} / {mode} must hand off");
                for (what, ops, per_column) in [
                    ("byte pass", adaptive.lazy_f_byte, bound(kind.byte_lanes())),
                    (
                        "resumed word pass",
                        adaptive.lazy_f_word,
                        bound(kind.word_lanes()),
                    ),
                    ("word-only run", word.lazy_f_word, bound(kind.word_lanes())),
                ] {
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

/// On a Swissprot-shaped database the scan forced on every column spends
/// more repair operations than the default correction loop, whose early
/// exit ends most columns within the prefix — why the loop is the default.
/// The striped kernels are measured pair by pair (`score_with`): the
/// pool's grouped byte pass has no Lazy-F.
#[test]
fn the_forced_scan_repairs_more_than_the_loop() {
    let db = PaperDb::Swissprot.generate(200, 2011);
    let q = make_query(128, 2011);
    let p = params(ScoringMatrix::blosum62(), (10, 2));
    for kind in BackendKind::available() {
        let run = |mode| {
            let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
            let mut stats = AdaptiveStats::default();
            let scores: Vec<i32> = (db.sequences().iter())
                .map(|s| engine.score_with(&s.residues, Precision::Adaptive, &mut stats))
                .collect();
            (scores, stats.lazy_f_byte + stats.lazy_f_word)
        };
        let (looped, scanned) = (run(KernelMode::CorrectionLoop), run(KernelMode::PrefixScan));
        assert_eq!(looped.0, scanned.0, "{kind}: the modes disagree on a score");
        assert!(
            looped.1 > 0 && scanned.1 > looped.1,
            "{kind}: forced scan {} repair ops, correction loop {}",
            scanned.1,
            looped.1
        );
    }
}

/// The private `backend::PEEL`. A different value there fails
/// `the_prefix_is_inert_and_always_counted` until this one follows.
const PEEL: usize = 4;

/// The default model, a long cheap gap, and linear gaps (no early exit).
const GAPS: [(i32, i32); 3] = [(10, 2), (11, 1), (2, 2)];

fn params(matrix: ScoringMatrix, (open, extend): (i32, i32)) -> SwParams {
    SwParams {
        matrix,
        gaps: GapPenalties::new(open, extend).unwrap(),
    }
}

/// Query lengths that stripe to `seg_len` 1, 2, `PEEL − 1`, `PEEL` and
/// `PEEL + 1` on some available backend's byte or word vectors: the
/// shortest (one real row in the last segment) and the longest (no
/// padding) for each.
fn degenerate_lengths() -> Vec<usize> {
    let mut lens = Vec::new();
    for kind in BackendKind::available() {
        for lanes in [kind.byte_lanes(), kind.word_lanes()] {
            for seg_len in [1, 2, PEEL - 1, PEEL, PEEL + 1] {
                lens.extend([(seg_len - 1) * lanes + 1, seg_len * lanes]);
            }
        }
    }
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// A copy of `q` with substitutions, one deletion and one insertion,
/// between random flanks: strong enough to open gaps and, for all but the
/// shortest queries, to overflow byte mode.
fn mutated_copy(q: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = make_query(rng.gen_range(0..40), seed ^ 0xF1);
    let cut = rng.gen_range(0..q.len());
    for (i, &r) in q.iter().enumerate() {
        if i == cut {
            d.extend(make_query(rng.gen_range(1..4), seed ^ 0xF2));
        } else if i == cut / 2 {
            continue;
        }
        d.push(if rng.gen_range(0.0..1.0) < 0.85 {
            r
        } else {
            rng.gen_range(0..20u8)
        });
    }
    d.extend(make_query(rng.gen_range(0..40), seed ^ 0xF3));
    d
}

/// Score on every available backend and precision; returns how many
/// adaptive runs handed off.
fn assert_all_backends(p: &SwParams, q: &[u8], d: &[u8], what: &str) -> u64 {
    let expected = sw_score(p, q, d);
    let mut handoffs = 0;
    for kind in BackendKind::available() {
        let engine = QueryEngine::with_backend(p.clone(), q, kind);
        for precision in [Precision::Adaptive, Precision::Word] {
            let mut stats = AdaptiveStats::default();
            let score = engine.score_with(d, precision, &mut stats);
            assert_eq!(
                score, expected,
                "{what}: {kind} {precision:?} gaps ({}, {})",
                p.gaps.open, p.gaps.extend
            );
            handoffs += stats.word_fallbacks;
        }
    }
    handoffs
}

#[test]
fn degenerate_stripes_match_the_oracle() {
    let mut handoffs = 0;
    for qlen in degenerate_lengths() {
        for seed in 0..4u64 {
            let seed = seed ^ (qlen as u64) << 8;
            let q = make_query(qlen, seed);
            let random = make_query(1 + (seed as usize * 37) % 150, seed ^ 0xDB);
            let copy = mutated_copy(&q, seed);
            for gaps in GAPS {
                let p = params(ScoringMatrix::blosum62(), gaps);
                for d in [&random, &copy] {
                    let what = format!("seed {seed} qlen {qlen} dlen {}", d.len());
                    handoffs += assert_all_backends(&p, &q, d, &what);
                }
            }
        }
    }
    assert!(handoffs > 0, "no degenerate-stripe pair handed off");
}

#[test]
fn scores_of_254_255_and_256_on_degenerate_stripes() {
    // Under +a/−4 an exact copy of `k` query residues between flanks of a
    // residue the query never uses scores exactly `a·k`. Every such pair
    // passes byte mode's overflow threshold (at most 250), so the adaptive
    // run hands off and the word pass finishes the count.
    const FLANK: u8 = 19;
    for target in [254i32, 255, 256] {
        for qlen in degenerate_lengths().into_iter().filter(|&m| m >= 2) {
            // The longest copy that divides the target and fits the query.
            let k = (1..=qlen)
                .rev()
                .find(|&k| target % k as i32 == 0 && target / k as i32 <= 127)
                .unwrap();
            let a = (target / k as i32) as i8;
            let q: Vec<u8> = make_query(qlen, qlen as u64)
                .into_iter()
                .map(|r| r % FLANK)
                .collect();
            let mut d = vec![FLANK; 7];
            d.extend_from_slice(&q[..k]);
            d.extend([FLANK; 5]);
            for gaps in GAPS {
                let p = params(
                    ScoringMatrix::match_mismatch(Alphabet::Protein, a, -4),
                    gaps,
                );
                let what = format!("target {target} qlen {qlen} copy {k} match {a}");
                assert_eq!(sw_score(&p, &q, &d), target, "{what}: construction");
                let handoffs = assert_all_backends(&p, &q, &d, &what);
                assert_eq!(
                    handoffs,
                    BackendKind::available().len() as u64,
                    "{what}: every adaptive run must hand off"
                );
            }
        }
    }
}

/// Loop route against forced scan on one vector type: identical outcome,
/// and never fewer repair operations than the prefix.
fn assert_prefix_is_inert<V: ByteSimd>(backend: &str) {
    let (mut finished, mut handed_off) = (0, 0);
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let qlen = rng.gen_range(1..=6 * V::LANES);
        let q = make_query(qlen, seed);
        let d = if seed % 2 == 0 {
            mutated_copy(&q, seed)
        } else {
            make_query(rng.gen_range(1..300), seed ^ 0xDB)
        };
        for gaps in GAPS {
            let p = params(ScoringMatrix::blosum62(), gaps);
            let profile = ByteProfileOf::<V>::build(&p, &q);
            let looped = sw_bytes_checked(&p.gaps, &profile, &d, false, &NeverCancel).unwrap();
            let scanned = sw_bytes_checked(&p.gaps, &profile, &d, true, &NeverCancel).unwrap();
            let what = format!(
                "{backend} seed {seed} qlen {qlen} dlen {} gaps {gaps:?}",
                d.len()
            );
            assert_eq!(looped.score, scanned.score, "{what}: outcome");
            let cols = match &looped.score {
                Ok(_) => {
                    finished += 1;
                    d.len()
                }
                Err(handoff) => {
                    handed_off += 1;
                    handoff.cols
                }
            };
            let floor = (cols * PEEL.min(profile.seg_len())) as u64;
            assert!(
                looped.lazy_f >= floor,
                "{what}: {} repair ops over {cols} columns, prefix alone is {floor}",
                looped.lazy_f
            );
        }
    }
    assert!(
        finished > 0 && handed_off > 0,
        "{backend}: {finished} finished, {handed_off} handed off — need both"
    );
}

#[test]
fn the_prefix_is_inert_and_always_counted() {
    assert_prefix_is_inert::<sw_simd::portable::U8x16>("portable");
    #[cfg(all(target_arch = "x86_64", feature = "native-simd"))]
    {
        assert_prefix_is_inert::<sw_simd::x86::U8x16Sse>("sse2");
        if BackendKind::Avx2.is_available() {
            assert_prefix_is_inert::<sw_simd::x86::U8x32Avx>("avx2");
        }
    }
    #[cfg(all(target_arch = "aarch64", feature = "native-simd"))]
    assert_prefix_is_inert::<sw_simd::neon::U8x16Neon>("neon");
}
