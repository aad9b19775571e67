//! The host-benchmark schema of the perf trajectory (`BENCH_host.json`,
//! `cudasw.bench.host/v2`): one entry per measured `repro host` run,
//! keyed by `(git rev, workload config, host_threads)`. The append-only
//! document, the merge-by-key and the baseline lookup are
//! [`crate::trajectory`]'s; this module is the entry's fields, their
//! parser and its gates:
//!
//! * **regression comparator** ([`regressions`]) — the freshly measured
//!   entry is compared against the most recent committed entry with the
//!   same config and host thread count, row by row (backend × precision ×
//!   kernel-mode × threads). A GCUPS drop beyond [`GCUPS_TOLERANCE`] fails.
//! * **thread-scaling gate** ([`scaling_gate`]) — on the large synthetic
//!   database (≥ [`SCALING_GATE_MIN_DB`] sequences), a host with
//!   `n = min(4, host_threads) ≥ 2` hardware threads must show ≥
//!   [`MIN_SCALING_PER_THREAD`]` × n` self-scaling on its widest backend.
//!   The gate is conditional on the recorded `host_threads`: a 1-core CI
//!   box cannot measure scaling and must not fake a pass or a failure.
//! * **coverage** ([`HostBenchResult::missing_rows`]) — an entry must hold
//!   a `portable` backend row and a `prefix-scan` kernel-mode row.

use super::host::{HostBenchResult, HostRow};
use crate::trajectory::{inline_object, num, quoted, rows, rows_array, text};
use obs::json::Json;

/// JSON schema tag of the trajectory document.
pub const SCHEMA: &str = "cudasw.bench.host/v2";

/// Rev of the oldest committed entry, upgraded from the single snapshot
/// the v1 bench overwrote; it predates kernel modes.
pub const LEGACY_REV: &str = "pre-v2";

/// Allowed fractional GCUPS drop vs the committed baseline row before the
/// comparator fails. Wall-clock on shared machines is noisy; 35% is far
/// above run-to-run jitter but catches real regressions (the lazy-F loop
/// reappearing, granularity collapsing).
pub const GCUPS_TOLERANCE: f64 = 0.35;

/// Minimum self-scaling per gated thread: the scaling gate demands
/// `0.75 × n` at `n = min(`[`SCALING_GATE_MAX_THREADS`]`, host_threads)`.
pub const MIN_SCALING_PER_THREAD: f64 = 0.75;

/// Thread count beyond which the scaling gate stops asking for more.
pub const SCALING_GATE_MAX_THREADS: usize = 4;

/// The scaling gate only applies to entries measured on at least this many
/// sequences — small databases legitimately collapse to one worker.
pub const SCALING_GATE_MIN_DB: usize = 10_000;

impl HostBenchResult {
    /// `(workload config, host threads)`: entries are comparable when both
    /// match; with `rev`, the replace-vs-append key.
    pub fn workload(&self) -> (&str, usize) {
        (&self.config, self.host_threads)
    }

    /// The entry's JSON fields in document order, values serialized.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        // Per-backend pairs are written sorted by name — the order the
        // parser returns — so a document is a fixed point of parse → write.
        let pairs = |pairs: &[(String, f64)]| {
            let mut pairs: Vec<_> = pairs.iter().map(|(k, v)| (k, format!("{v:.3}"))).collect();
            pairs.sort();
            inline_object(&pairs)
        };
        let rows = self.rows.iter().map(|r| {
            inline_object(&[
                ("backend", quoted(&r.backend)),
                ("precision", quoted(&r.precision)),
                ("kernel_mode", quoted(&r.kernel_mode)),
                ("threads", r.threads.to_string()),
                ("seconds", format!("{:.6}", r.seconds)),
                ("gcups", format!("{:.4}", r.gcups)),
                ("byte_mode", r.byte_mode.to_string()),
                ("word_fallbacks", r.word_fallbacks.to_string()),
                ("lazy_f", r.lazy_f.to_string()),
                ("steals", r.steals.to_string()),
            ])
        });
        vec![
            ("rev", quoted(&self.rev)),
            ("config", quoted(&self.config)),
            ("db_size", self.db_size.to_string()),
            ("query_len", self.query_len.to_string()),
            ("cells", self.cells.to_string()),
            ("host_threads", self.host_threads.to_string()),
            ("rows", rows_array(rows)),
            ("thread_scaling", pairs(&self.thread_scaling)),
            ("lazy_f_delta", pairs(&self.lazy_f_delta)),
        ]
    }

    /// Parse one element of the `entries` array; every field is required.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            rev: text(v, "rev")?,
            config: text(v, "config")?,
            db_size: num(v, "db_size")? as usize,
            query_len: num(v, "query_len")? as usize,
            cells: num(v, "cells")? as u64,
            host_threads: num(v, "host_threads")? as usize,
            rows: rows(v, "rows", row_from_json)?,
            thread_scaling: pairs_from_json(v, "thread_scaling")?,
            lazy_f_delta: pairs_from_json(v, "lazy_f_delta")?,
        })
    }

    /// Every run measures the portable backend (the one every machine
    /// has) and forces the prefix-scan kernel mode once; the
    /// [`LEGACY_REV`] entry predates kernel modes. One failure per missing
    /// row; what `repro gate` checks on a written document.
    pub fn missing_rows(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.rows.iter().any(|r| r.backend == "portable") {
            failures.push("no row with \"backend\": \"portable\"".to_string());
        }
        if self.rev != LEGACY_REV && !self.rows.iter().any(|r| r.kernel_mode == "prefix-scan") {
            failures.push("no row with \"kernel_mode\": \"prefix-scan\"".to_string());
        }
        failures
    }

    /// Failures of the gates a fresh measurement must pass on its own.
    pub fn standalone_gates(&self) -> Vec<String> {
        let mut failures = self.missing_rows();
        failures.extend(scaling_gate(self));
        failures
    }
}

/// A required object of backend name → number.
fn pairs_from_json(v: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    match v.get(key) {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(name, n)| match n.as_f64() {
                Some(n) => Ok((name.clone(), n)),
                None => Err(format!("{key:?}: {name:?} is not a number")),
            })
            .collect(),
        _ => Err(format!("missing object field {key:?} (name → number)")),
    }
}

fn row_from_json(v: &Json) -> Result<HostRow, String> {
    Ok(HostRow {
        backend: text(v, "backend")?,
        precision: text(v, "precision")?,
        kernel_mode: text(v, "kernel_mode")?,
        threads: num(v, "threads")? as usize,
        seconds: num(v, "seconds")?,
        gcups: num(v, "gcups")?,
        byte_mode: num(v, "byte_mode")? as u64,
        word_fallbacks: num(v, "word_fallbacks")? as u64,
        lazy_f: num(v, "lazy_f")? as u64,
        steals: num(v, "steals")? as u64,
    })
}

/// Compare a fresh entry against its committed baseline: every row key
/// present in both must not have lost more than [`GCUPS_TOLERANCE`] of its
/// GCUPS. Returns human-readable failures (empty = pass).
pub fn regressions(baseline: &HostBenchResult, new: &HostBenchResult) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.rows {
        let Some(fresh) = new.rows.iter().find(|r| {
            r.backend == old.backend
                && r.precision == old.precision
                && r.kernel_mode == old.kernel_mode
                && r.threads == old.threads
        }) else {
            continue;
        };
        if fresh.gcups < old.gcups * (1.0 - GCUPS_TOLERANCE) {
            failures.push(format!(
                "{} {} {} x{}: {:.3} GCUPS vs committed {:.3} (allowed floor {:.3})",
                fresh.backend,
                fresh.precision,
                fresh.kernel_mode,
                fresh.threads,
                fresh.gcups,
                old.gcups,
                old.gcups * (1.0 - GCUPS_TOLERANCE),
            ));
        }
    }
    failures
}

/// The conditional thread-scaling gate. Only entries that could measure
/// scaling are gated: a large-enough database, `n = min(4, host_threads)`
/// of at least 2, and an `n`-thread row actually present. Returns failures
/// (empty = pass or not applicable).
pub fn scaling_gate(entry: &HostBenchResult) -> Vec<String> {
    let n = entry.host_threads.min(SCALING_GATE_MAX_THREADS);
    if entry.db_size < SCALING_GATE_MIN_DB || n < 2 || !entry.rows.iter().any(|r| r.threads >= n) {
        return Vec::new();
    }
    let best = entry
        .thread_scaling
        .iter()
        .map(|(_, s)| *s)
        .fold(0.0f64, f64::max);
    let floor = MIN_SCALING_PER_THREAD * n as f64;
    if best < floor {
        vec![format!(
            "thread scaling {best:.2}x at {n} threads is below the {floor}x gate \
             (db_size {}, host_threads {})",
            entry.db_size, entry.host_threads
        )]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::trajectory::Trajectory;

    fn sample_row(backend: &str, mode: &str, threads: usize, gcups: f64) -> HostRow {
        HostRow {
            backend: backend.to_string(),
            precision: "adaptive".to_string(),
            kernel_mode: mode.to_string(),
            threads,
            seconds: 1.0 / gcups.max(1e-9),
            gcups,
            byte_mode: 90,
            word_fallbacks: 10,
            lazy_f: 1234,
            steals: 2,
        }
    }

    fn sample_entry(rev: &str, gcups_at_4: f64) -> HostBenchResult {
        HostBenchResult {
            rev: rev.to_string(),
            config: "swissprot-synth-100000x256".to_string(),
            db_size: 100_000,
            query_len: 256,
            cells: 9_200_000_000,
            host_threads: 8,
            rows: vec![
                sample_row("avx2", "correction-loop", 1, 5.0),
                sample_row("avx2", "correction-loop", 4, gcups_at_4),
                sample_row("avx2", "prefix-scan", 1, 5.5),
            ],
            thread_scaling: vec![("avx2".to_string(), gcups_at_4 / 5.0)],
            lazy_f_delta: vec![("avx2".to_string(), 7.5)],
        }
    }

    #[test]
    fn v2_round_trips_bit_exactly_through_json() {
        let mut t = Trajectory::default();
        t.append(sample_entry("abc1234", 15.0));
        t.append(sample_entry("def5678", 16.0));
        let json = t.to_json();
        let parsed = Trajectory::parse(&json).expect("valid v2");
        assert_eq!(parsed.entries.len(), 2);
        for (a, b) in t.entries.iter().zip(&parsed.entries) {
            assert_eq!(a.rev, b.rev);
            assert_eq!(a.config, b.config);
            assert_eq!(a.db_size, b.db_size);
            assert_eq!(a.host_threads, b.host_threads);
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x.backend, y.backend);
                assert_eq!(x.kernel_mode, y.kernel_mode);
                assert_eq!(x.threads, y.threads);
                assert_eq!(x.lazy_f, y.lazy_f);
                assert!((x.gcups - y.gcups).abs() < 1e-3);
            }
            assert_eq!(a.thread_scaling.len(), b.thread_scaling.len());
            assert_eq!(a.lazy_f_delta.len(), b.lazy_f_delta.len());
        }
    }

    #[test]
    fn comparator_rejects_a_synthetic_slowdown() {
        let committed = sample_entry("aaa", 15.0);
        // Fresh run at a new rev, 3x slower on the 4-thread cell.
        let mut slow = sample_entry("bbb", 5.0);
        slow.rows[1].gcups = 5.0;
        let failures = regressions(&committed, &slow);
        assert_eq!(failures.len(), 1, "exactly the slowed row fails");
        assert!(failures[0].contains("avx2 adaptive correction-loop x4"));
        // Within-tolerance noise passes.
        let mut noisy = sample_entry("ccc", 15.0);
        for r in &mut noisy.rows {
            r.gcups *= 0.9;
        }
        assert!(regressions(&committed, &noisy).is_empty());
        // Rows that only exist in the fresh run are not compared.
        let mut extra = sample_entry("ddd", 15.0);
        extra.rows.push(sample_row("sse2", "prefix-scan", 2, 0.001));
        assert!(regressions(&committed, &extra).is_empty());
    }

    #[test]
    fn scaling_gate_is_conditional_and_bites() {
        // Applicable and passing: 3.0x at 4 of 8 threads.
        assert!(scaling_gate(&sample_entry("aaa", 15.0)).is_empty());
        // Applicable and failing: flat scaling on a big DB with 8 cores.
        let flat = sample_entry("bbb", 5.0);
        let failures = scaling_gate(&flat);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("at 4 threads is below the 3x gate"));
        // A 2-thread host is gated at n = 2: 1.5x is the floor there.
        let mut two = sample_entry("ccc", 7.5);
        two.host_threads = 2;
        assert!(scaling_gate(&two).is_empty());
        two.thread_scaling[0].1 = 1.49;
        let failures = scaling_gate(&two);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("at 2 threads is below the 1.5x gate"));
        // Not applicable: 1-core host cannot measure scaling.
        let mut one_core = sample_entry("ccc", 5.0);
        one_core.host_threads = 1;
        assert!(scaling_gate(&one_core).is_empty());
        // Not applicable: smoke-sized database.
        let mut small = sample_entry("ddd", 5.0);
        small.db_size = 1500;
        assert!(scaling_gate(&small).is_empty());
        // Not applicable: no 4-thread row was measured.
        let mut no4 = sample_entry("eee", 5.0);
        no4.rows.retain(|r| r.threads < 4);
        assert!(scaling_gate(&no4).is_empty());
    }

    /// The committed `host_threads: 2` entry is the first one the scaling
    /// gate can measure: it must be armed there, and pass.
    #[test]
    fn committed_two_thread_entry_arms_and_passes_the_scaling_gate() {
        let t = Trajectory::parse(include_str!("../../../../BENCH_host.json")).unwrap();
        let two = t
            .entries
            .iter()
            .find(|e| e.host_threads == 2 && e.db_size >= SCALING_GATE_MIN_DB)
            .expect("a committed large-database entry from a 2-thread host");
        assert_eq!(scaling_gate(two), Vec::<String>::new());
        let mut flat = two.clone();
        for (_, s) in &mut flat.thread_scaling {
            *s = 1.0;
        }
        assert_eq!(scaling_gate(&flat).len(), 1, "the gate is armed at n = 2");
        for e in &t.entries {
            assert_eq!(e.standalone_gates(), Vec::<String>::new(), "rev {}", e.rev);
        }
    }
}
