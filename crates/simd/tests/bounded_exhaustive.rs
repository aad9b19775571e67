//! Bounded-exhaustive conformance for the striped engine.
//!
//! Every ordered pair of sequences of length 1..=5 over a three-letter
//! alphabet — 363 sequences, 131,769 pairs — on every available backend,
//! in both Lazy-F kernel modes and both precisions, and through the
//! grouped byte pass (`QueryEngine::score_group`), against the scalar
//! `sw_score`. The random suites sample long sequences; this one leaves no
//! short pair out, and short pairs are where one vector holds the whole
//! query beside its padding lanes and the untested Lazy-F prefix is the
//! whole stripe. A, C and W score 4, 9 and 11 against themselves and 0, −3
//! and −2 against each other under BLOSUM62, so a pair can prefer a match,
//! a mismatch or a gap. Three gap models: the default (10, 2), a cheap
//! affine (3, 1) where gaps pay, and the linear (2, 2) where the Lazy-F
//! early exit is off. About 2 s in the test profile.

use sw_align::alphabet::encode_protein;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_simd::{AdaptiveStats, BackendKind, KernelMode, Precision, QueryEngine};

const MAX_LEN: usize = 5;

/// Every sequence of length 1..=`MAX_LEN` over `letters`.
fn all_sequences(letters: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut layer: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..MAX_LEN {
        layer = layer
            .iter()
            .flat_map(|s| {
                letters.iter().map(move |&l| {
                    let mut t = s.clone();
                    t.push(l);
                    t
                })
            })
            .collect();
        out.extend(layer.iter().cloned());
    }
    out
}

#[test]
fn every_short_pair_matches_the_oracle_on_every_path() {
    let seqs = all_sequences(&encode_protein("ACW").unwrap());
    assert_eq!(seqs.len(), 363);
    let refs: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
    for (open, extend) in [(10, 2), (3, 1), (2, 2)] {
        let mut p = SwParams::cudasw_default();
        p.gaps = GapPenalties::new(open, extend).unwrap();
        for q in &seqs {
            let expected: Vec<i32> = seqs.iter().map(|d| sw_score(&p, q, d)).collect();
            for kind in BackendKind::available() {
                for mode in KernelMode::ALL {
                    let engine = QueryEngine::with_backend_and_mode(p.clone(), q, kind, mode);
                    for precision in [Precision::Adaptive, Precision::Word] {
                        let mut stats = AdaptiveStats::default();
                        for (d, &want) in seqs.iter().zip(&expected) {
                            assert_eq!(
                                engine.score_with(d, precision, &mut stats),
                                want,
                                "q={q:?} d={d:?} gaps=({open},{extend}) on {kind} / {mode} / \
                                 {precision:?}"
                            );
                        }
                    }
                    // The grouped entry, every subject in the lanes of a
                    // few groups.
                    for ((d, &want), (score, _)) in seqs
                        .iter()
                        .zip(&expected)
                        .zip(engine.score_group(&refs, None).unwrap())
                    {
                        assert_eq!(
                            score, want,
                            "q={q:?} d={d:?} gaps=({open},{extend}) on {kind} / {mode} / grouped"
                        );
                    }
                }
            }
        }
    }
}
