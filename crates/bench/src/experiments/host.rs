//! `bench host` — real wall-clock GCUPS of the host compute backend.
//!
//! Unlike the paper figures (simulated-clock GPU predictions), this
//! experiment measures the machine it runs on: one full database pass per
//! (backend × kernel-mode × thread-count) cell, best-of-N wall-clock. The
//! workload is *Swissprot-shaped*: `sw-db`'s log-normal synthesizer at
//! 10⁵ sequences by default (`--db-size` overrides), searched
//! length-sorted like every real CUDASW++ database — the 800-sequence
//! uniform toy of the v1 bench never let the pool amortize and reported
//! 4 threads slower than 1. The smoke run is the *same* code path at
//! reduced size, so CI exercises exactly what the full run measures.
//!
//! The first row is the pre-backend host path — the portable emulated
//! vectors in word-only mode on one thread — beside which each native
//! adaptive row reads as "what the byte-mode backend buys over the old
//! code". Every backend is measured in both Lazy-F kernel modes
//! (the default per-column choice between correction loop and prefix scan
//! vs the scan forced on every column), with the `cudasw.simd.lazy_f.*`
//! counts carried per row.
//!
//! Scores are asserted identical across every measured cell before any
//! number is reported; a perf figure from diverging kernels is worthless.
//! Results are persisted as an append-only trajectory document
//! (`cudasw.bench.host/v2`, see [`super::host_trajectory`]).

use crate::report::Table;
use crate::workloads;
use sw_db::catalog::PaperDb;
use sw_db::synth::make_query;
use sw_db::Database;
use sw_simd::{search_sequences, AdaptiveStats, BackendKind, KernelMode, Precision, QueryEngine};

/// Sequences in the full Swissprot-shaped synthetic database.
pub const FULL_DB_SIZE: usize = 100_000;

/// Sequences in the smoke run — same log-normal shape, same code path,
/// CI-scale wall-clock.
pub const SMOKE_DB_SIZE: usize = 1_500;

/// Options for a host benchmark run.
#[derive(Debug, Clone, Default)]
pub struct HostBenchOpts {
    /// CI-scale run: smaller database, fewer thread counts, one rep.
    pub smoke: bool,
    /// Override the database size (sequences) of either profile.
    pub db_size: Option<usize>,
}

/// One measured cell: a backend × kernel-mode × precision × thread-count
/// pass over the whole database.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRow {
    /// Backend name (`avx2` / `sse2` / `neon` / `portable`).
    pub backend: String,
    /// `adaptive` (byte first, word from the overflow column) or `word`
    /// (exact 16-bit only).
    pub precision: String,
    /// Lazy-F kernel mode (`correction-loop` or `prefix-scan`).
    pub kernel_mode: String,
    /// Worker threads.
    pub threads: usize,
    /// Best-of-reps wall-clock seconds for one database pass.
    pub seconds: f64,
    /// Cells / seconds / 1e9.
    pub gcups: f64,
    /// Alignments resolved in byte mode (adaptive rows).
    pub byte_mode: u64,
    /// Alignments handed to word mode after byte overflow.
    pub word_fallbacks: u64,
    /// Lazy-F vector operations (byte + word passes) in the best pass.
    pub lazy_f: u64,
    /// Work-stealing events in the measured (best) pass.
    pub steals: u64,
}

/// Everything `bench host` measured: one entry of the host trajectory
/// (see [`super::host_trajectory`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HostBenchResult {
    /// Git revision measured; empty until `repro` keys the run to record it.
    pub rev: String,
    /// One row per measured cell.
    pub rows: Vec<HostRow>,
    /// DP cells of one database pass.
    pub cells: u64,
    /// Database sequences.
    pub db_size: usize,
    /// Query length.
    pub query_len: usize,
    /// Stable workload key for trajectory matching (shape + size + query).
    pub config: String,
    /// `std::thread::available_parallelism` of this host — thread-scaling
    /// numbers are only meaningful up to this count.
    pub host_threads: usize,
    /// Per backend: correction-loop adaptive GCUPS at the highest measured
    /// thread count divided by its own single-thread GCUPS.
    pub thread_scaling: Vec<(String, f64)>,
    /// Per backend: correction-loop lazy-F ops divided by prefix-scan
    /// lazy-F ops (1-thread adaptive rows) — >1 means the scan saved work.
    pub lazy_f_delta: Vec<(String, f64)>,
}

impl HostBenchResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "host backend wall-clock GCUPS (real time, this machine)".to_string(),
            &[
                "backend",
                "precision",
                "kernel-mode",
                "threads",
                "seconds",
                "GCUPS",
                "byte-mode",
                "word-reruns",
                "lazy-F",
                "steals",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.backend.clone(),
                r.precision.clone(),
                r.kernel_mode.clone(),
                r.threads.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.3}", r.gcups),
                r.byte_mode.to_string(),
                r.word_fallbacks.to_string(),
                r.lazy_f.to_string(),
                r.steals.to_string(),
            ]);
        }
        t
    }
}

struct Workload {
    db: Database,
    query: Vec<u8>,
    thread_counts: Vec<usize>,
    reps: usize,
}

fn workload(opts: &HostBenchOpts) -> Workload {
    // One synthesizer for both profiles: the Swissprot-shaped log-normal
    // catalog entry, length-sorted on construction like every Database.
    // The smoke run differs from the full run only in scale.
    if opts.smoke {
        let db_size = opts.db_size.unwrap_or(SMOKE_DB_SIZE);
        Workload {
            db: PaperDb::Swissprot.generate(db_size, workloads::SEED),
            query: make_query(128, workloads::SEED),
            thread_counts: vec![1, 2],
            reps: 1,
        }
    } else {
        let db_size = opts.db_size.unwrap_or(FULL_DB_SIZE);
        Workload {
            db: PaperDb::Swissprot.generate(db_size, workloads::SEED),
            query: make_query(256, workloads::SEED),
            thread_counts: vec![1, 2, 4],
            reps: 2,
        }
    }
}

/// Measure one (engine, threads) cell: best-of-`reps` seconds.
fn measure(
    engine: &QueryEngine,
    db: &Database,
    threads: usize,
    precision: Precision,
    reps: usize,
) -> (f64, Vec<i32>, AdaptiveStats, u64) {
    let mut best_seconds = f64::INFINITY;
    let mut best: Option<(Vec<i32>, AdaptiveStats, u64)> = None;
    for _ in 0..reps.max(1) {
        let r = search_sequences(engine, db.sequences(), threads, precision);
        if r.seconds < best_seconds {
            best_seconds = r.seconds;
            best = Some((r.scores, r.stats, r.steals));
        }
    }
    let (scores, stats, steals) = best.expect("at least one rep");
    (best_seconds, scores, stats, steals)
}

/// Run the host benchmark.
pub fn run(opts: &HostBenchOpts) -> HostBenchResult {
    let w = workload(opts);
    let cells = w.db.total_cells(w.query.len());
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = format!("swissprot-synth-{}x{}", w.db.len(), w.query.len());

    let mut rows: Vec<HostRow> = Vec::new();
    let mut reference: Option<Vec<i32>> = None;
    let mut push_row = |backend: BackendKind,
                        mode: KernelMode,
                        precision: Precision,
                        threads: usize,
                        reference: &mut Option<Vec<i32>>|
     -> (f64, u64) {
        let engine = QueryEngine::with_backend_and_mode(
            sw_align::SwParams::cudasw_default(),
            &w.query,
            backend,
            mode,
        );
        let (seconds, scores, stats, steals) = measure(&engine, &w.db, threads, precision, w.reps);
        match reference {
            None => *reference = Some(scores),
            Some(expected) => assert_eq!(
                &scores, expected,
                "scores diverged on {backend} {mode} {precision:?} x{threads}"
            ),
        }
        sw_simd::record_stats(backend, &stats);
        let gcups = if seconds > 0.0 {
            cells as f64 / seconds / 1.0e9
        } else {
            0.0
        };
        let lazy_f = stats.lazy_f_byte + stats.lazy_f_word;
        rows.push(HostRow {
            backend: backend.name().to_string(),
            precision: match precision {
                Precision::Adaptive => "adaptive".to_string(),
                Precision::Word => "word".to_string(),
            },
            kernel_mode: mode.name().to_string(),
            threads,
            seconds,
            gcups,
            byte_mode: stats.byte_mode,
            word_fallbacks: stats.word_fallbacks,
            lazy_f,
            steals,
        });
        (gcups, lazy_f)
    };

    // The emulated row: the exact pre-backend host path (portable
    // word-only vectors, correction loop, one thread).
    push_row(
        BackendKind::Portable,
        KernelMode::CorrectionLoop,
        Precision::Word,
        1,
        &mut reference,
    );

    let backends = BackendKind::available();
    let mut thread_scaling = Vec::new();
    let mut lazy_f_delta = Vec::new();
    for &backend in &backends {
        let mut loop_one_thread_gcups = 0.0f64;
        let mut loop_max_thread_gcups = 0.0f64;
        let mut loop_lazy_f = 0u64;
        let mut scan_lazy_f = 0u64;
        for mode in KernelMode::ALL {
            for &threads in &w.thread_counts {
                let (gcups, lazy_f) =
                    push_row(backend, mode, Precision::Adaptive, threads, &mut reference);
                if threads == 1 {
                    match mode {
                        KernelMode::CorrectionLoop => {
                            loop_one_thread_gcups = gcups;
                            loop_lazy_f = lazy_f;
                        }
                        KernelMode::PrefixScan => scan_lazy_f = lazy_f,
                    }
                }
                if mode == KernelMode::CorrectionLoop
                    && threads == *w.thread_counts.last().expect("non-empty")
                {
                    loop_max_thread_gcups = gcups;
                }
            }
        }
        if loop_one_thread_gcups > 0.0 {
            thread_scaling.push((
                backend.name().to_string(),
                loop_max_thread_gcups / loop_one_thread_gcups,
            ));
        }
        if scan_lazy_f > 0 {
            lazy_f_delta.push((
                backend.name().to_string(),
                loop_lazy_f as f64 / scan_lazy_f as f64,
            ));
        }
    }

    HostBenchResult {
        rev: String::new(),
        rows,
        cells,
        db_size: w.db.len(),
        query_len: w.query.len(),
        config,
        host_threads,
        thread_scaling,
        lazy_f_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measures_the_large_db_code_path() {
        // A scaled-down smoke (200 sequences keeps the unit test fast)
        // must still be Swissprot-shaped, length-sorted, and cover both
        // kernel modes on every backend.
        let r = run(&HostBenchOpts {
            smoke: true,
            db_size: Some(200),
        });
        assert_eq!(r.db_size, 200);
        assert_eq!(r.config, format!("swissprot-synth-200x{}", r.query_len));
        // Emulated row first, then adaptive rows per backend × mode.
        assert_eq!(r.rows[0].backend, "portable");
        assert_eq!(r.rows[0].precision, "word");
        assert_eq!(r.rows[0].kernel_mode, "correction-loop");
        let backends = sw_simd::BackendKind::available();
        for kind in &backends {
            for mode in ["correction-loop", "prefix-scan"] {
                assert!(
                    r.rows.iter().any(|row| row.backend == kind.name()
                        && row.kernel_mode == mode
                        && row.precision == "adaptive"),
                    "missing {kind} {mode} row"
                );
            }
        }
        // The scan must have saved lazy-F work on every backend.
        assert_eq!(r.lazy_f_delta.len(), backends.len());
        for (backend, delta) in &r.lazy_f_delta {
            assert!(*delta > 0.0, "{backend}: lazy-F delta must be positive");
        }
        assert!(!r.thread_scaling.is_empty());
        assert!(r.host_threads >= 1);
    }
}
