//! Host fault-domain chaos: the pool absorbs panics, stalls, and
//! admission failures without changing a single score.
//!
//! The acceptance invariants (mirroring the GPU chaos suite):
//! * scores bit-identical to the fault-free run for every seed, fault
//!   kind, and thread count;
//! * zero lost sequences (every index committed exactly once);
//! * zero duplicated answers (CAS losers are suppressed and counted);
//! * the fault plan demonstrably fired (a chaos run that injected nothing
//!   proves nothing);
//! * the pool publishes its fault report as `cudasw.simd.pool.*`
//!   counters, each equal to the report field it is named for.
//!
//! The wave cases hold the same invariants per (query, sequence) cell: a
//! fault is drawn once per chunk per wave, and every cell is accounted for
//! exactly once — by a winning kernel commit or by the quarantine oracle.

use std::ops::Range;
use sw_align::smith_waterman::SwParams;
use sw_db::synth::{database_with_lengths, make_query};
use sw_simd::{
    search_protected_with_chunks, search_sequences, search_wave_protected_with_chunks, BackendKind,
    HostFaultKind, HostFaultPlan, HostFaultRates, HostMemoryBudget, HostSearchResult,
    HostWaveResult, PoolConfig, PoolFaultReport, Precision, QueryEngine,
};

fn params() -> SwParams {
    SwParams::cudasw_default()
}

fn fixed_chunks(n: usize, per: usize) -> Vec<Range<usize>> {
    (0..n).step_by(per).map(|s| s..(s + per).min(n)).collect()
}

fn run(
    engine: &QueryEngine,
    seqs: &[sw_db::Sequence],
    cfg: &PoolConfig,
    chunks: &[Range<usize>],
) -> HostSearchResult {
    match search_protected_with_chunks(engine, seqs, cfg, chunks) {
        Ok(r) => r,
        Err(e) => panic!("no cancel token configured: {e}"),
    }
}

/// Every `cudasw.simd.pool.*` fault counter a captured run published
/// equals the report field it is named for (a zero field publishes
/// nothing, which reads back as 0).
fn assert_published(faults: &PoolFaultReport, metrics: &obs::MetricsRegistry, what: &str) {
    for (name, field) in [
        ("panics", faults.panics),
        ("quarantines", faults.quarantined_chunks),
        ("oracle_recomputes", faults.oracle_scored),
        ("redispatches", faults.redispatches),
        ("duplicates_suppressed", faults.duplicates_suppressed),
        ("budget_denied", faults.budget_denials),
        ("rechunks", faults.rechunks),
        ("forced_admissions", faults.forced_admissions),
        ("faults_injected", faults.injected()),
    ] {
        let name = format!("cudasw.simd.pool.{name}");
        assert_eq!(
            metrics.counter_sum(&name, &[]),
            field as f64,
            "{what}: {name}"
        );
    }
}

/// The full matrix the CI host-fault gate runs: ≥3 seeds × every fault
/// kind, forced onto known chunks so each recovery path is provably
/// exercised, at 1 and 3 threads, each cell publishing its fault report.
#[test]
fn forced_fault_matrix_is_bit_identical() {
    let lens: Vec<usize> = (0..36).map(|i| 30 + (i * 11) % 120).collect();
    let db = database_with_lengths("t", &lens, 17);
    let query = make_query(72, 4);
    let engine = QueryEngine::new(params(), &query);
    let clean = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
    let chunks = fixed_chunks(db.len(), 4);

    for seed in [11u64, 22, 33] {
        for kind in HostFaultKind::ALL {
            // Force the drawn kind onto a mid-run chunk (identity (8, 4))
            // on top of the seeded background noise.
            let plan = HostFaultPlan::random(seed, HostFaultRates::none())
                .with_fault_at((8, 4), kind)
                .with_stall_ms(30);
            for threads in [1usize, 3] {
                let cfg = PoolConfig::new(threads, Precision::Adaptive)
                    .with_fault_plan(plan.clone())
                    .with_watchdog(10, 2);
                let (r, published) = obs::capture(|| run(&engine, db.sequences(), &cfg, &chunks));
                let what = format!("seed={seed} kind={kind} threads={threads}");
                assert_eq!(r.scores, clean.scores, "{what}");
                assert_published(&r.faults, &published.metrics, &what);
                assert_eq!(r.scores.len(), db.len(), "zero lost sequences");
                assert_eq!(
                    r.faults.injected(),
                    1,
                    "seed={seed} kind={kind} threads={threads}: the forced fault must fire"
                );
                match kind {
                    HostFaultKind::Panic => {
                        assert_eq!(r.faults.panics, 1);
                        assert_eq!(r.faults.quarantined_chunks, 1);
                        assert!(r.faults.oracle_scored >= 1, "quarantine recomputed");
                    }
                    HostFaultKind::Stall => {
                        if threads > 1 {
                            assert!(
                                r.faults.redispatches >= 1,
                                "threads={threads}: watchdog must re-dispatch the stalled chunk"
                            );
                        }
                    }
                    HostFaultKind::AllocFail => {
                        assert!(r.faults.rechunks >= 1, "admission failure must re-chunk");
                    }
                }
            }
        }
    }
}

/// The quarantine recomputes on the scalar oracle, code the engine shares
/// nothing with. The sharpest case is the portable backend in word
/// precision, where any striped "oracle" would be the instantiation that
/// had just panicked: a forced chunk panic there still yields the
/// fault-free scores, every quarantined sequence from the oracle.
#[test]
fn portable_word_panic_is_recomputed_on_the_scalar_oracle() {
    let lens: Vec<usize> = (0..24).map(|i| 40 + (i * 17) % 160).collect();
    let mut seqs = database_with_lengths("t", &lens, 29).sequences().to_vec();
    let query = make_query(300, 6);
    // A self-match in the panicking chunk: far above the byte range, so
    // the recompute has to agree with word mode's arithmetic.
    seqs[9].residues = query.clone();
    let engine = QueryEngine::with_backend(params(), &query, BackendKind::Portable);
    let clean = search_sequences(&engine, &seqs, 1, Precision::Word);
    assert!(clean.scores[9] > 255);
    let chunks = fixed_chunks(seqs.len(), 4);
    let plan = HostFaultPlan::none().with_fault_at((8, 4), HostFaultKind::Panic);
    for threads in [1usize, 3] {
        let cfg = PoolConfig::new(threads, Precision::Word).with_fault_plan(plan.clone());
        let r = run(&engine, &seqs, &cfg, &chunks);
        assert_eq!(r.scores, clean.scores, "threads={threads}");
        assert_eq!(r.faults.panics, 1);
        assert_eq!(r.faults.oracle_scored, 4, "the whole chunk was quarantined");
    }
}

/// Random chaos storms: seeded rates over small chunks, every thread
/// count, scores always bit-identical and every sequence accounted for.
/// Every seed's storm lands at every thread count: the draw is a pure
/// function of (seed, chunk), and every initial chunk is executed.
#[test]
fn seeded_chaos_storms_never_corrupt_results() {
    let lens: Vec<usize> = (0..60).map(|i| 25 + (i * 7) % 100).collect();
    let db = database_with_lengths("t", &lens, 23);
    let query = make_query(56, 8);
    let engine = QueryEngine::new(params(), &query);
    let clean = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
    let chunks = fixed_chunks(db.len(), 3);

    for seed in [1u64, 2, 3, 4] {
        let plan = HostFaultPlan::random(seed, HostFaultRates::chaos()).with_stall_ms(15);
        for threads in [1usize, 2, 4] {
            let cfg = PoolConfig::new(threads, Precision::Adaptive)
                .with_fault_plan(plan.clone())
                .with_watchdog(8, 2);
            let r = run(&engine, db.sequences(), &cfg, &chunks);
            assert_eq!(r.scores, clean.scores, "seed={seed} threads={threads}");
            assert!(
                r.faults.injected() > 0,
                "seed={seed} threads={threads}: chaos rates over {} chunks must inject something",
                chunks.len()
            );
        }
    }
}

/// A panic in one chunk must not lose or duplicate its neighbours' work:
/// the quarantine recomputes only uncommitted sequences, and commits are
/// exactly-once even when a stalled worker finishes late.
#[test]
fn stall_plus_redispatch_commits_exactly_once() {
    let db = database_with_lengths("t", &[80; 24], 31);
    let query = make_query(64, 6);
    let engine = QueryEngine::new(params(), &query);
    let clean = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
    let chunks = fixed_chunks(db.len(), 6);
    // Stall long enough that the watchdog fires and a survivor finishes
    // the chunk first; the stalled worker then loses every commit race.
    let plan = HostFaultPlan::none()
        .with_fault_at((6, 6), HostFaultKind::Stall)
        .with_stall_ms(120);
    let cfg = PoolConfig::new(2, Precision::Adaptive)
        .with_fault_plan(plan)
        .with_watchdog(15, 3);
    let r = run(&engine, db.sequences(), &cfg, &chunks);
    assert_eq!(r.scores, clean.scores);
    assert_eq!(r.faults.injected_stalls, 1);
    assert!(r.faults.redispatches >= 1, "watchdog must act");
    // The re-dispatched chunk is computed by two workers; one side's
    // commits must have been suppressed (no duplicate answers).
    assert!(
        r.faults.duplicates_suppressed <= 6,
        "at most the chunk's sequences race"
    );
}

/// Budget pressure composes with chaos: a starvation-level budget plus a
/// fault storm still yields bit-identical scores.
#[test]
fn budget_starvation_under_chaos_stays_correct() {
    let db = database_with_lengths("t", &[40; 30], 41);
    let query = make_query(48, 2);
    let engine = QueryEngine::new(params(), &query);
    let clean = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
    let chunks = fixed_chunks(db.len(), 10);
    let plan = HostFaultPlan::random(9, HostFaultRates::chaos()).with_stall_ms(10);
    for threads in [1usize, 2] {
        let cfg = PoolConfig::new(threads, Precision::Adaptive)
            .with_fault_plan(plan.clone())
            .with_budget(HostMemoryBudget::bytes(1))
            .with_watchdog(10, 2);
        let r = run(&engine, db.sequences(), &cfg, &chunks);
        assert_eq!(r.scores, clean.scores, "threads={threads}");
        assert!(r.faults.rechunks > 0, "starved budget must split chunks");
        assert!(r.faults.forced_admissions > 0, "progress is guaranteed");
    }
}

/// A five-query wave over `db` and its fault-free reference (k separate
/// searches).
fn wave_fixture(db: &sw_db::Database) -> (Vec<QueryEngine>, Vec<Vec<i32>>) {
    let engines: Vec<QueryEngine> = (0..5usize)
        .map(|j| QueryEngine::new(params(), &make_query(40 + 17 * j, j as u64)))
        .collect();
    let clean = engines
        .iter()
        .map(|e| search_sequences(e, db.sequences(), 1, Precision::Adaptive).scores)
        .collect();
    (engines, clean)
}

fn run_wave(
    engines: &[QueryEngine],
    seqs: &[sw_db::Sequence],
    cfg: &PoolConfig,
    chunks: &[Range<usize>],
) -> HostWaveResult {
    match search_wave_protected_with_chunks(engines, seqs, cfg, chunks) {
        Ok(r) => r,
        Err(e) => panic!("no cancel token configured: {e}"),
    }
}

/// Every cell exactly once: kernel stats are merged by commit winners
/// only, so winners plus oracle recomputes must count the whole wave.
fn assert_every_cell_once(r: &HostWaveResult, what: &str) {
    let cells: usize = r.scores.iter().map(Vec::len).sum();
    assert_eq!(
        r.stats.byte_mode + r.stats.word_fallbacks + r.faults.oracle_scored,
        cells as u64,
        "{what}: lost or doubled cells"
    );
}

/// Chaos storms over a wave: scores equal k fault-free searches, no
/// (query, sequence) cell lost or doubled, at one and three workers.
#[test]
fn wave_chaos_storms_lose_and_double_no_cell() {
    let lens: Vec<usize> = (0..48).map(|i| 25 + (i * 7) % 100).collect();
    let db = database_with_lengths("t", &lens, 23);
    let (engines, clean) = wave_fixture(&db);
    let chunks = fixed_chunks(db.len(), 4);
    let mut total_injected = 0u64;
    for seed in [1u64, 2, 3] {
        let plan = HostFaultPlan::random(seed, HostFaultRates::chaos()).with_stall_ms(30);
        for threads in [1usize, 3] {
            let cfg = PoolConfig::new(threads, Precision::Adaptive)
                .with_fault_plan(plan.clone())
                .with_watchdog(20, 2);
            let r = run_wave(&engines, db.sequences(), &cfg, &chunks);
            let what = format!("seed={seed} threads={threads}");
            assert_eq!(r.scores, clean, "{what}");
            assert_every_cell_once(&r, &what);
            total_injected += r.faults.injected();
        }
    }
    assert!(total_injected > 0, "the storms must inject something");
}

/// A pinned chunk panic under a wave quarantines that chunk for every
/// query: the oracle recomputes exactly its uncommitted cells (all of
/// them — an injected panic fires before the first alignment).
#[test]
fn wave_pinned_panic_quarantines_the_chunk_for_every_query() {
    let lens: Vec<usize> = (0..36).map(|i| 30 + (i * 11) % 120).collect();
    let db = database_with_lengths("t", &lens, 17);
    let (engines, clean) = wave_fixture(&db);
    let chunks = fixed_chunks(db.len(), 4);
    let plan = HostFaultPlan::none().with_fault_at((8, 4), HostFaultKind::Panic);
    for threads in [1usize, 3] {
        let cfg = PoolConfig::new(threads, Precision::Adaptive)
            .with_fault_plan(plan.clone())
            .with_watchdog(20, 2);
        let r = run_wave(&engines, db.sequences(), &cfg, &chunks);
        assert_eq!(r.scores, clean, "threads={threads}");
        assert_eq!(r.faults.injected_panics, 1, "drawn once for the wave");
        assert_eq!(r.faults.panics, 1);
        assert_eq!(r.faults.quarantined_chunks, 1);
        assert_eq!(r.faults.oracle_scored, 4 * engines.len() as u64);
        assert_every_cell_once(&r, "pinned panic");
    }
}

/// A pinned 100 ms stall: the watchdog hands the silent worker's chunk to
/// the survivor, which commits it for every query; the stalled worker's
/// late finish loses every commit race and is absorbed as duplicates.
#[test]
fn wave_pinned_stall_is_redispatched_and_its_late_finish_absorbed() {
    let db = database_with_lengths("t", &[80; 24], 31);
    let (engines, clean) = wave_fixture(&db);
    let chunks = fixed_chunks(db.len(), 6);
    let plan = HostFaultPlan::none()
        .with_fault_at((6, 6), HostFaultKind::Stall)
        .with_stall_ms(100);
    let cfg = PoolConfig::new(2, Precision::Adaptive)
        .with_fault_plan(plan)
        .with_watchdog(20, 2);
    let r = run_wave(&engines, db.sequences(), &cfg, &chunks);
    assert_eq!(r.scores, clean);
    assert_eq!(r.faults.injected_stalls, 1, "drawn once for the wave");
    assert!(r.faults.redispatches >= 1, "watchdog must act");
    assert_every_cell_once(&r, "pinned stall");
    let chunk_cells = 6 * engines.len() as u64;
    assert!(
        (1..=r.faults.redispatches * chunk_cells).contains(&r.faults.duplicates_suppressed),
        "the late finish races at most the re-dispatched chunks' cells, saw {}",
        r.faults.duplicates_suppressed
    );
}
