//! Property tests for pool work granularity and score reassembly.
//!
//! The pool's contract is layout-independence: however the database is cut
//! into chunks and however those chunks land on workers (including steals),
//! the reassembled score vector must be bit-identical to the inline loop.
//! These tests drive [`search_protected_with_chunks`] with *arbitrary*
//! valid chunk boundaries — not just the ones [`length_aware_chunks`] would
//! pick — and pin the [`MIN_SEQS_PER_WORKER`] clamp at its documented
//! thresholds. The wave differential holds the one job shape,
//! [`search_wave_protected_with_chunks`], to `k` separate searches: the
//! same score vectors in engine order and the same merged stats.

use proptest::prelude::*;
use std::ops::Range;
use sw_align::smith_waterman::SwParams;
use sw_simd::{
    effective_workers, length_aware_chunks, search_protected_with_chunks, search_sequences,
    search_wave_protected, search_wave_protected_with_chunks, AdaptiveStats, BackendKind,
    HostSearchResult, PoolConfig, Precision, QueryEngine, MIN_SEQS_PER_WORKER,
};

/// A fault-free pooled search over an explicit chunking.
fn search_chunked(
    engine: &QueryEngine,
    seqs: &[sw_db::Sequence],
    threads: usize,
    precision: Precision,
    chunks: &[Range<usize>],
) -> HostSearchResult {
    let cfg = PoolConfig::new(threads, precision);
    match search_protected_with_chunks(engine, seqs, &cfg, chunks) {
        Ok(r) => r,
        Err(e) => panic!("no cancel token configured: {e}"),
    }
}

/// Turn a set of cut positions into contiguous covering ranges.
fn ranges_from_cuts(n: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % n).filter(|&c| c > 0).collect();
    bounds.sort_unstable();
    bounds.dedup();
    bounds.push(n);
    let mut out = Vec::with_capacity(bounds.len());
    let mut start = 0;
    for b in bounds {
        if b > start {
            out.push(start..b);
            start = b;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_chunk_boundaries_reassemble_bit_identically(
        lens in proptest::collection::vec(10usize..120, 4..60),
        cuts in proptest::collection::vec(0usize..1000, 0..12),
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let db = sw_db::synth::database_with_lengths("prop", &lens, seed);
        let query = sw_db::synth::make_query(40, seed.wrapping_add(7));
        let engine = QueryEngine::new(SwParams::cudasw_default(), &query);
        let whole = length_aware_chunks(db.sequences(), 1);
        let inline = search_chunked(&engine, db.sequences(), 1, Precision::Adaptive, &whole);
        let chunks = ranges_from_cuts(db.len(), &cuts);
        let chunked = search_chunked(
            &engine, db.sequences(), threads, Precision::Adaptive, &chunks,
        );
        prop_assert_eq!(&chunked.scores, &inline.scores, "chunks {:?}", chunks);
        // Stats are merged across workers, never lost or double-counted.
        prop_assert_eq!(
            chunked.stats.byte_mode + chunked.stats.word_fallbacks,
            db.len() as u64
        );
    }

    // A wave of k queries is k searches, bit for bit: score vectors in
    // engine order, stats summed, on every backend this machine has.
    #[test]
    fn wave_equals_k_separate_searches(
        lens in proptest::collection::vec(10usize..120, 4..40),
        cuts in proptest::collection::vec(0usize..1000, 0..12),
        k in 0usize..4,
        threads in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (k, threads) = ([1usize, 2, 5, 16][k], [1usize, 2, 7][threads]);
        let db = sw_db::synth::database_with_lengths("prop", &lens, seed);
        let chunks = ranges_from_cuts(db.len(), &cuts);
        for kind in BackendKind::available() {
            let engines: Vec<QueryEngine> = (0..k)
                .map(|j| {
                    let query = sw_db::synth::make_query(12 + (j * 29) % 70, seed + j as u64);
                    QueryEngine::with_backend(SwParams::cudasw_default(), &query, kind)
                })
                .collect();
            let mut scores = Vec::with_capacity(k);
            let mut stats = AdaptiveStats::default();
            for engine in &engines {
                let r = search_sequences(engine, db.sequences(), 1, Precision::Adaptive);
                scores.push(r.scores);
                stats.merge(&r.stats);
            }
            let cfg = PoolConfig::new(threads, Precision::Adaptive);
            let wave = search_wave_protected_with_chunks(&engines, db.sequences(), &cfg, &chunks)
                .unwrap_or_else(|e| panic!("no cancel token configured: {e}"));
            prop_assert_eq!(&wave.scores, &scores, "{} k={} chunks {:?}", kind, k, chunks);
            prop_assert_eq!(wave.stats, stats, "{} k={}", kind, k);
            prop_assert!(wave.faults.is_clean());
        }
    }

    #[test]
    fn length_aware_chunks_are_always_a_valid_cover(
        lens in proptest::collection::vec(5usize..3000, 1..80),
        target in 1usize..40,
    ) {
        let db = sw_db::synth::database_with_lengths("prop", &lens, 3);
        let chunks = length_aware_chunks(db.sequences(), target);
        prop_assert!(!chunks.is_empty());
        prop_assert!(chunks.len() <= target.max(1));
        prop_assert_eq!(chunks.first().unwrap().start, 0);
        prop_assert_eq!(chunks.last().unwrap().end, db.len());
        for w in chunks.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
            prop_assert!(!w[0].is_empty());
        }
        prop_assert!(!chunks.last().unwrap().is_empty());
    }

    #[test]
    fn default_chunking_matches_inline(
        lens in proptest::collection::vec(10usize..200, 1..50),
        threads in 1usize..8,
    ) {
        let db = sw_db::synth::database_with_lengths("prop", &lens, 11);
        let query = sw_db::synth::make_query(33, 5);
        let engine = QueryEngine::new(SwParams::cudasw_default(), &query);
        let inline = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
        let pooled = search_sequences(&engine, db.sequences(), threads, Precision::Adaptive);
        prop_assert_eq!(&pooled.scores, &inline.scores);
    }
}

/// The `MIN_SEQS_PER_WORKER` clamp engages and disengages at exactly the
/// documented boundaries: a worker is only spawned when it can clear
/// [`MIN_SEQS_PER_WORKER`] sequences, and the count never exceeds the
/// hardware's concurrency.
#[test]
fn min_seqs_clamp_thresholds_are_exact() {
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // Below one worker's worth: inline.
    assert_eq!(effective_workers(8, 0), 1);
    assert_eq!(effective_workers(8, MIN_SEQS_PER_WORKER - 1), 1);
    // Exactly one worker's worth: still one (pool pays off at 2 workers).
    assert_eq!(effective_workers(8, MIN_SEQS_PER_WORKER), 1);
    // One sequence short of two workers' worth: stays on one.
    assert_eq!(effective_workers(8, 2 * MIN_SEQS_PER_WORKER - 1), 1);
    // Exactly two workers' worth: two (if the hardware has them).
    assert_eq!(
        effective_workers(8, 2 * MIN_SEQS_PER_WORKER),
        2.min(hardware)
    );
    // The requested thread count is an upper bound, not a floor.
    assert_eq!(effective_workers(1, 10_000), 1);
    // Hardware is always the final clamp.
    assert!(effective_workers(usize::MAX, usize::MAX) <= hardware);
}

/// Word-precision runs reassemble identically too (the chunked path must
/// not depend on the adaptive ladder).
#[test]
fn word_precision_chunked_matches_inline() {
    let lens: Vec<usize> = (0..48).map(|i| 20 + (i * 13) % 150).collect();
    let db = sw_db::synth::database_with_lengths("w", &lens, 23);
    let query = sw_db::synth::make_query(64, 2);
    let engine = QueryEngine::new(SwParams::cudasw_default(), &query);
    let inline = search_sequences(&engine, db.sequences(), 1, Precision::Word);
    for target in [1, 3, 7, 48] {
        let chunks = length_aware_chunks(db.sequences(), target);
        let r = search_chunked(&engine, db.sequences(), 4, Precision::Word, &chunks);
        assert_eq!(r.scores, inline.scores, "target={target}");
    }
}

/// `search_protected` is the wave of one — same scores, stats and fault
/// report — and a wave over the default chunking clamps its workers by
/// alignments, not subjects.
#[test]
fn single_query_search_is_the_wave_of_one() {
    let lens: Vec<usize> = (0..20).map(|i| 20 + (i * 13) % 150).collect();
    let db = sw_db::synth::database_with_lengths("w", &lens, 23);
    let engines: Vec<QueryEngine> = (0..16)
        .map(|j| {
            QueryEngine::new(
                SwParams::cudasw_default(),
                &sw_db::synth::make_query(30 + j, j as u64),
            )
        })
        .collect();
    let cfg = PoolConfig::new(2, Precision::Adaptive);
    let wave = search_wave_protected(&engines, db.sequences(), &cfg)
        .unwrap_or_else(|e| panic!("no cancel token configured: {e}"));
    assert_eq!(wave.scores.len(), engines.len());
    for (engine, scores) in engines.iter().zip(&wave.scores) {
        let single = search_sequences(engine, db.sequences(), 2, Precision::Adaptive);
        assert_eq!(&single.scores, scores);
        let one = search_wave_protected(std::slice::from_ref(engine), db.sequences(), &cfg)
            .unwrap_or_else(|e| panic!("no cancel token configured: {e}"));
        assert_eq!(one.scores, vec![single.scores]);
        assert_eq!(one.stats, single.stats);
        assert_eq!(one.faults, single.faults);
    }
    // Degenerate waves: no queries, no subjects.
    let none = search_wave_protected(&[], db.sequences(), &cfg);
    assert!(matches!(none, Ok(r) if r.scores.is_empty()));
    let empty = search_wave_protected(&engines[..3], &[], &cfg);
    assert!(matches!(empty, Ok(r) if r.scores == vec![Vec::<i32>::new(); 3]));
}
