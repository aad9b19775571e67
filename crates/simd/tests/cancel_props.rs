//! Cooperative cancellation is all-or-nothing.
//!
//! The contract of `search_protected` under a `CancelToken` and of
//! `QueryEngine::score_with_cancel`:
//! for *any* cancellation point, the search either completes with scores
//! bit-identical to the uncancelled run or returns `Cancelled` — never a
//! partial, reordered, or perturbed result. `CancelToken::after_polls`
//! makes the cancellation point deterministic (the poll sequence of a
//! single-threaded search is a pure function of the workload), so the
//! property is exhaustive over poll budgets, backends, and kernel modes.
//! A wave is cancelled as a whole: a token that fires anywhere inside it
//! yields `Cancelled` and no score vector for any of its queries.

use proptest::prelude::*;
use sw_align::smith_waterman::SwParams;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Sequence;
use sw_simd::{
    search_protected, search_sequences, search_wave_protected, AdaptiveStats, BackendKind,
    CancelToken, Cancelled, HostSearchResult, KernelMode, PoolConfig, Precision, QueryEngine,
    CANCEL_CHECK_COLS,
};

fn params() -> SwParams {
    SwParams::cudasw_default()
}

/// An adaptive pooled search that `token` can cancel.
fn search_cancellable(
    engine: &QueryEngine,
    seqs: &[Sequence],
    threads: usize,
    token: &CancelToken,
) -> Result<HostSearchResult, Cancelled> {
    let cfg = PoolConfig::new(threads, Precision::Adaptive).with_cancel(token.clone());
    search_protected(engine, seqs, &cfg)
}

fn protein_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, 1..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Pool-level: any poll budget yields the full bit-identical result
    // or `Cancelled`, with no partial scores observable.
    #[test]
    fn pool_cancellation_is_all_or_nothing(
        q in protein_seq(100),
        db in proptest::collection::vec(protein_seq(120), 1..8),
        budget in 0u64..600,
    ) {
        let seqs: Vec<Sequence> = db
            .into_iter()
            .enumerate()
            .map(|(i, residues)| Sequence::new(format!("s{i}"), residues))
            .collect();
        let engine = QueryEngine::new(params(), &q);
        let reference = search_sequences(&engine, &seqs, 1, Precision::Adaptive);
        let token = CancelToken::after_polls(budget);
        match search_cancellable(&engine, &seqs, 1, &token) {
            Ok(r) => {
                prop_assert_eq!(r.scores, reference.scores, "budget={}", budget);
                prop_assert_eq!(r.stats, reference.stats, "budget={}", budget);
            }
            Err(Cancelled) => prop_assert!(token.is_cancelled()),
        }
    }

    // Engine-level, across every available backend and both kernel
    // modes: same all-or-nothing contract, and a completed cancellable
    // score equals the plain score exactly.
    #[test]
    fn engine_cancellation_across_backends_and_modes(
        q in protein_seq(90),
        d in protein_seq(90),
        budget in 0u64..64,
    ) {
        let p = params();
        for kind in BackendKind::available() {
            for mode in KernelMode::ALL {
                let engine = QueryEngine::with_backend_and_mode(p.clone(), &q, kind, mode);
                let mut plain_stats = AdaptiveStats::default();
                let expected = engine.score_with(&d, Precision::Adaptive, &mut plain_stats);
                let token = CancelToken::after_polls(budget);
                let mut stats = AdaptiveStats::default();
                match engine.score_with_cancel(&d, Precision::Adaptive, &mut stats, &token) {
                    Ok(got) => {
                        prop_assert_eq!(got, expected, "{} / {}", kind, mode);
                        prop_assert_eq!(stats, plain_stats, "{} / {}", kind, mode);
                    }
                    Err(Cancelled) => {
                        prop_assert!(token.is_cancelled(), "{} / {}", kind, mode);
                        // No partial stats may leak from an abandoned run.
                        prop_assert_eq!(stats, AdaptiveStats::default(), "{} / {}", kind, mode);
                    }
                }
            }
        }
    }
}

/// Cancellation is honored *within one chunk*: once the token trips, the
/// kernels bail at their next stripe-column checkpoint instead of
/// finishing the chunk (or even the current alignment). The poll counter
/// pins this to the checkpoint interval: a budget-`k` token on a database
/// whose full scan polls hundreds of times must stop at poll `k`, give or
/// take the final checkpoint that observes the trip.
#[test]
fn cancellation_is_honored_at_the_next_checkpoint() {
    let query = make_query(80, 5);
    // One chunk of one long sequence: the full byte-mode scan alone has
    // ~len / CANCEL_CHECK_COLS in-kernel checkpoints.
    let db = database_with_lengths("t", &[20_000], 3);
    let engine = QueryEngine::new(params(), &query);

    let full = CancelToken::new();
    let complete = search_cancellable(&engine, db.sequences(), 1, &full)
        .unwrap_or_else(|e| panic!("uncancelled search must complete: {e}"));
    let full_polls = full.polls();
    assert!(
        full_polls as usize >= 20_000 / CANCEL_CHECK_COLS,
        "full scan must poll at least once per {CANCEL_CHECK_COLS} columns (saw {full_polls})"
    );

    let budget = 3u64;
    let token = CancelToken::after_polls(budget);
    let r = search_cancellable(&engine, db.sequences(), 1, &token);
    assert_eq!(r.err(), Some(Cancelled));
    assert!(
        token.polls() <= budget + 2,
        "cancelled at poll {budget} but {} polls ran — the kernel must stop at the next \
         stripe-column checkpoint, not finish the chunk",
        token.polls()
    );
    assert!(complete.scores[0] > 0, "sanity: the alignment scores");
}

/// A cancel landing inside a *resumed* word pass leaks nothing either. The
/// subject opens with the query itself, so byte mode hands over before its
/// second checkpoint: the byte pass polls once (column 0) and every later
/// poll belongs to the word pass that continues from the hand-off.
#[test]
fn cancel_inside_a_resumed_word_pass_leaks_no_score_and_no_stats() {
    let p = params();
    let query = make_query(200, 3);
    let mut d = query.clone();
    d.extend(make_query(1000, 4));
    for kind in BackendKind::available() {
        for mode in KernelMode::ALL {
            let engine = QueryEngine::with_backend_and_mode(p.clone(), &query, kind, mode);
            let mut early = AdaptiveStats::default();
            engine.score_with(&d[..CANCEL_CHECK_COLS], Precision::Adaptive, &mut early);
            assert_eq!(
                early.word_fallbacks, 1,
                "hand-off before the second checkpoint"
            );

            let full = CancelToken::new();
            let mut full_stats = AdaptiveStats::default();
            let expected = engine
                .score_with_cancel(&d, Precision::Adaptive, &mut full_stats, &full)
                .unwrap_or_else(|e| panic!("uncancelled run must complete: {e}"));
            let polls = full.polls();
            assert_eq!(polls as usize, 1 + (d.len() - 1) / CANCEL_CHECK_COLS);

            // Budgets 2..=polls trip at a checkpoint of the resumed pass.
            for budget in 1..=polls + 1 {
                let token = CancelToken::after_polls(budget);
                let mut stats = AdaptiveStats::default();
                let r = engine.score_with_cancel(&d, Precision::Adaptive, &mut stats, &token);
                if budget <= polls {
                    assert_eq!(r, Err(Cancelled), "{kind} / {mode} budget {budget}");
                    assert_eq!(
                        stats,
                        AdaptiveStats::default(),
                        "{kind} / {mode} leaked stats"
                    );
                    assert_eq!(token.polls(), budget, "stops at the tripping checkpoint");
                } else {
                    assert_eq!(r, Ok(expected), "{kind} / {mode}");
                    assert_eq!(stats, full_stats, "{kind} / {mode}");
                }
            }
        }
    }
}

/// A token cancelled before the search starts yields `Cancelled` without
/// scoring anything.
#[test]
fn pre_cancelled_token_short_circuits() {
    let query = make_query(40, 1);
    let db = database_with_lengths("t", &[50, 60], 2);
    let engine = QueryEngine::new(params(), &query);
    let token = CancelToken::new();
    token.cancel();
    let polls_before = token.polls();
    let r = search_cancellable(&engine, db.sequences(), 1, &token);
    assert_eq!(r.err(), Some(Cancelled));
    assert!(
        token.polls() <= polls_before + 1,
        "at most the boundary poll"
    );
}

/// Multi-threaded cancellation: every worker observes the trip and the
/// search returns `Cancelled` (or, if workers raced past the budget,
/// the complete bit-identical result — never anything in between).
#[test]
fn threaded_cancellation_is_all_or_nothing() {
    let lens: Vec<usize> = (0..64).map(|i| 200 + (i * 13) % 300).collect();
    let db = database_with_lengths("t", &lens, 7);
    let query = make_query(64, 9);
    let engine = QueryEngine::new(params(), &query);
    let reference = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
    for budget in [0u64, 1, 5, 20, 100, 10_000_000] {
        for threads in [2usize, 4] {
            let token = CancelToken::after_polls(budget);
            match search_cancellable(&engine, db.sequences(), threads, &token) {
                Ok(r) => assert_eq!(
                    r.scores, reference.scores,
                    "budget={budget} threads={threads}"
                ),
                Err(Cancelled) => assert!(token.is_cancelled()),
            }
        }
    }
}

/// A wave is all-or-nothing across its queries. With one thread the poll
/// sequence is a pure function of the workload, so every budget that
/// trips inside the wave — after some queries' cells of early chunks are
/// already committed — must return `Cancelled` (the `Err` carries no score
/// vector), and the first budget past the wave's last poll must return all
/// k vectors, bit-identical to k separate searches.
#[test]
fn a_token_firing_mid_wave_serves_none_of_its_queries() {
    let lens: Vec<usize> = (0..24).map(|i| 90 + (i * 13) % 200).collect();
    let db = database_with_lengths("t", &lens, 7);
    let engines: Vec<QueryEngine> = (0..4usize)
        .map(|j| QueryEngine::new(params(), &make_query(48 + 20 * j, j as u64)))
        .collect();
    let reference: Vec<Vec<i32>> = engines
        .iter()
        .map(|e| search_sequences(e, db.sequences(), 1, Precision::Adaptive).scores)
        .collect();
    let wave = |token: &CancelToken| {
        let cfg = PoolConfig::new(1, Precision::Adaptive).with_cancel(token.clone());
        search_wave_protected(&engines, db.sequences(), &cfg)
    };

    let full = CancelToken::new();
    let complete = wave(&full).unwrap_or_else(|e| panic!("uncancelled wave must complete: {e}"));
    assert_eq!(complete.scores, reference);
    let polls = full.polls();
    assert!(polls > 100, "the wave polls at chunk starts and in-kernel");

    for budget in (1..=polls).step_by(7).chain([polls]) {
        let token = CancelToken::after_polls(budget);
        assert_eq!(wave(&token).err(), Some(Cancelled), "budget {budget}");
        assert!(token.polls() <= budget + 1, "stops at the tripping poll");
    }
    let late = CancelToken::after_polls(polls + 1);
    let r = wave(&late).unwrap_or_else(|e| panic!("budget past the last poll: {e}"));
    assert_eq!(r.scores, reference);
    assert_eq!(r.stats, complete.stats);
}

/// Threaded waves: `Cancelled`, or every vector complete and exact.
#[test]
fn threaded_wave_cancellation_is_all_or_nothing() {
    let lens: Vec<usize> = (0..64).map(|i| 200 + (i * 13) % 300).collect();
    let db = database_with_lengths("t", &lens, 7);
    let engines: Vec<QueryEngine> = (0..3usize)
        .map(|j| QueryEngine::new(params(), &make_query(40 + 24 * j, j as u64)))
        .collect();
    let reference: Vec<Vec<i32>> = engines
        .iter()
        .map(|e| search_sequences(e, db.sequences(), 1, Precision::Adaptive).scores)
        .collect();
    for budget in [0u64, 1, 5, 20, 100, 1000, 10_000_000] {
        for threads in [2usize, 4] {
            let token = CancelToken::after_polls(budget);
            let cfg = PoolConfig::new(threads, Precision::Adaptive).with_cancel(token.clone());
            match search_wave_protected(&engines, db.sequences(), &cfg) {
                Ok(r) => assert_eq!(r.scores, reference, "budget={budget} threads={threads}"),
                Err(Cancelled) => assert!(token.is_cancelled()),
            }
        }
    }
}
