//! The device-optimization schema of the perf trajectory
//! (`BENCH_device.json`, `cudasw.bench.device/v1`): one entry per
//! measured run of the §VII optimization matrix, keyed by `(git rev,
//! workload config, device)`. The append-only document, the merge-by-key
//! and the baseline lookup are [`crate::trajectory`]'s; this module is
//! the schema's [`Entry`] impl and its two gate families:
//!
//! * **invariant gates** ([`invariant_gates`]) — properties every fresh
//!   entry must satisfy on its own: the whole matrix present, identical score CRCs
//!   and cell counts across the matrix, the counted per-optimization
//!   claims (staging cuts global transactions ≥
//!   [`STAGING_MIN_TRANSACTION_CUT`]×, fusion hides stalls the baseline
//!   exposes, streaming hides copy time without changing bytes, balance
//!   never worsens block skew), and the all-on row beating the baseline.
//! * **regression comparator** ([`regressions`]) — the fresh entry
//!   against the most recent committed entry with the same config and
//!   device, row by row: GCUPs must not drop beyond [`GCUPS_TOLERANCE`]
//!   and global transactions must not grow beyond
//!   [`TRANSACTION_TOLERANCE`].

use super::device_opt::{DeviceOptResult, DeviceOptRow};
use crate::trajectory::{inline_object, num, quoted, rows, rows_array, text, Entry};
use obs::json::Json;

/// JSON schema tag of the trajectory document.
pub const SCHEMA: &str = "cudasw.bench.device/v1";

/// Allowed fractional GCUPs drop vs the committed baseline row. The
/// simulated clock is deterministic, so this only has to absorb model
/// retunes, not wall-clock noise.
pub const GCUPS_TOLERANCE: f64 = 0.25;

/// Allowed fractional growth of a row's inter-task global transactions
/// vs the committed baseline row.
pub const TRANSACTION_TOLERANCE: f64 = 0.05;

/// Minimum factor by which boundary staging must cut inter-task global
/// transactions (the §VII claim: strip-boundary traffic moves to shared
/// memory, leaving only per-strip edge words).
pub const STAGING_MIN_TRANSACTION_CUT: f64 = 4.0;

/// Minimum factor by which SaLoBa balance must cut intra-task block
/// imbalance — applied only when the baseline skew is at least
/// [`BALANCE_GATE_MIN_SKEW`] (a near-uniform workload has nothing to
/// cut; the non-regression half of the gate always applies).
pub const BALANCE_MIN_IMBALANCE_CUT: f64 = 1.5;

/// Baseline max/min block-cycle skew below which the balance *cut* gate
/// does not apply.
pub const BALANCE_GATE_MIN_SKEW: f64 = 2.0;

/// Relative tolerance on the streamed-copy accounting identity
/// `exposed + hidden == synchronous` (float summation only).
pub const ACCOUNTING_TOLERANCE: f64 = 1e-9;

/// One measured run in the trajectory.
pub type TrajectoryEntry = DeviceOptResult;

impl Entry for TrajectoryEntry {
    const SCHEMA: &'static str = SCHEMA;

    fn rev(&self) -> &str {
        &self.rev
    }

    fn workload(&self) -> (&str, String) {
        (&self.config, format!("device {}", self.device))
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let rows = self.rows.iter().map(|r| {
            inline_object(&[
                ("config", quoted(&r.label)),
                ("gcups", format!("{:.4}", r.gcups)),
                ("kernel_seconds", format!("{:.9}", r.kernel_seconds)),
                ("cells", r.cells.to_string()),
                (
                    "inter_global_transactions",
                    r.inter_global_transactions.to_string(),
                ),
                ("hidden_latency_cycles", r.hidden_latency_cycles.to_string()),
                ("h2d_seconds", format!("{:.9}", r.h2d_seconds)),
                ("h2d_hidden_seconds", format!("{:.9}", r.h2d_hidden_seconds)),
                ("h2d_bytes", r.h2d_bytes.to_string()),
                ("intra_imbalance", format!("{:.4}", r.intra_imbalance)),
                ("score_crc", r.score_crc.to_string()),
            ])
        });
        vec![
            ("rev", quoted(&self.rev)),
            ("config", quoted(&self.config)),
            ("device", quoted(&self.device)),
            ("db_size", self.db_size.to_string()),
            ("query_len", self.query_len.to_string()),
            ("cells", self.cells.to_string()),
            ("rows", rows_array(rows)),
        ]
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            rev: text(v, "rev")?,
            config: text(v, "config")?,
            device: text(v, "device")?,
            db_size: num(v, "db_size")? as usize,
            query_len: num(v, "query_len")? as usize,
            cells: num(v, "cells")? as u64,
            rows: rows(v, "rows", row_from_json)?,
        })
    }

    /// The optimization matrix every entry holds: the baseline, each
    /// optimization alone, all together.
    fn missing_rows(&self) -> Vec<String> {
        [
            "none", "staging", "shared", "fusion", "stream", "balance", "all",
        ]
        .iter()
        .filter(|label| self.row(label).is_none())
        .map(|label| format!("matrix row {label:?} missing"))
        .collect()
    }

    fn standalone_gates(&self) -> Vec<String> {
        invariant_gates(self)
    }

    fn regressions(baseline: &Self, new: &Self) -> Vec<String> {
        regressions(baseline, new)
    }
}

fn row_from_json(v: &Json) -> Result<DeviceOptRow, String> {
    Ok(DeviceOptRow {
        label: text(v, "config")?,
        gcups: num(v, "gcups")?,
        kernel_seconds: num(v, "kernel_seconds")?,
        cells: num(v, "cells")? as u64,
        inter_global_transactions: num(v, "inter_global_transactions")? as u64,
        hidden_latency_cycles: num(v, "hidden_latency_cycles")? as u64,
        h2d_seconds: num(v, "h2d_seconds")?,
        h2d_hidden_seconds: num(v, "h2d_hidden_seconds")?,
        h2d_bytes: num(v, "h2d_bytes")? as u64,
        intra_imbalance: num(v, "intra_imbalance")?,
        score_crc: num(v, "score_crc")? as u32,
    })
}

/// The standalone counted gates every fresh entry must satisfy. They read
/// the measured values: the document rounds seconds to 1e-9, coarser than
/// [`ACCOUNTING_TOLERANCE`]. Returns human-readable failures (empty =
/// pass).
pub fn invariant_gates(e: &TrajectoryEntry) -> Vec<String> {
    let mut failures = e.missing_rows();
    if !failures.is_empty() {
        return failures;
    }
    let row = |label: &str| e.row(label).expect("presence checked above");
    let none = row("none");

    // The optimizations are pure memory/overlap moves: same answers,
    // same DP work, everywhere.
    for r in &e.rows {
        if r.score_crc != none.score_crc {
            failures.push(format!(
                "row {}: score CRC {:08x} differs from baseline {:08x}",
                r.label, r.score_crc, none.score_crc
            ));
        }
        if r.cells != none.cells {
            failures.push(format!(
                "row {}: {} cells vs baseline {}",
                r.label, r.cells, none.cells
            ));
        }
    }

    // Shared-memory staging: the strip-boundary traffic leaves global
    // memory.
    let staging = row("staging");
    if (none.inter_global_transactions as f64)
        < STAGING_MIN_TRANSACTION_CUT * staging.inter_global_transactions as f64
    {
        failures.push(format!(
            "staging cut {} -> {} global transactions, below the \
             {STAGING_MIN_TRANSACTION_CUT}x gate",
            none.inter_global_transactions, staging.inter_global_transactions
        ));
    }
    let shared = row("shared");
    if shared.inter_global_transactions >= none.inter_global_transactions {
        failures.push(format!(
            "shared-only kernel did not reduce global transactions: {} vs {}",
            shared.inter_global_transactions, none.inter_global_transactions
        ));
    }
    let all = row("all");
    if all.inter_global_transactions > staging.inter_global_transactions {
        failures.push(format!(
            "all-on row has more global transactions ({}) than staging alone ({})",
            all.inter_global_transactions, staging.inter_global_transactions
        ));
    }

    // Cross-strip fusion: the baseline exposes every inter-strip stall,
    // the fused kernel hides a counted number of them.
    if none.hidden_latency_cycles != 0 {
        failures.push(format!(
            "unfused baseline claims {} hidden cycles",
            none.hidden_latency_cycles
        ));
    }
    let fusion = row("fusion");
    if fusion.hidden_latency_cycles == 0 {
        failures.push("fusion hid zero stall cycles".to_string());
    }

    // Streamed H2D: same bytes, part of the copy time hidden, and the
    // accounting identity holds.
    let stream = row("stream");
    if stream.h2d_bytes != none.h2d_bytes {
        failures.push(format!(
            "streaming changed H2D bytes: {} vs {}",
            stream.h2d_bytes, none.h2d_bytes
        ));
    }
    if stream.h2d_hidden_seconds <= 0.0 {
        failures.push("streaming hid no copy time".to_string());
    }
    if stream.h2d_seconds >= none.h2d_seconds {
        failures.push(format!(
            "streaming did not shrink exposed H2D time: {} vs {}",
            stream.h2d_seconds, none.h2d_seconds
        ));
    }
    let identity = (stream.h2d_seconds + stream.h2d_hidden_seconds - none.h2d_seconds).abs();
    if identity > ACCOUNTING_TOLERANCE * none.h2d_seconds.max(1e-12) {
        failures.push(format!(
            "streamed accounting identity broken: exposed {} + hidden {} != sync {}",
            stream.h2d_seconds, stream.h2d_hidden_seconds, none.h2d_seconds
        ));
    }

    // SaLoBa balance: never worse, and a real cut when the baseline is
    // actually skewed.
    let balance = row("balance");
    if balance.intra_imbalance > none.intra_imbalance {
        failures.push(format!(
            "balance worsened block imbalance: {:.2} vs {:.2}",
            balance.intra_imbalance, none.intra_imbalance
        ));
    }
    if none.intra_imbalance >= BALANCE_GATE_MIN_SKEW
        && none.intra_imbalance < BALANCE_MIN_IMBALANCE_CUT * balance.intra_imbalance
    {
        failures.push(format!(
            "balance cut {:.2} -> {:.2}, below the {BALANCE_MIN_IMBALANCE_CUT}x gate",
            none.intra_imbalance, balance.intra_imbalance
        ));
    }

    // All optimizations together must not be slower than none of them.
    if all.kernel_seconds > none.kernel_seconds {
        failures.push(format!(
            "all-on row is slower than the baseline: {:.6}s vs {:.6}s",
            all.kernel_seconds, none.kernel_seconds
        ));
    }
    failures
}

/// Compare a fresh entry against its committed baseline, row by row
/// (matched on configuration label): GCUPs must not drop beyond
/// [`GCUPS_TOLERANCE`] and inter-task global transactions must not grow
/// beyond [`TRANSACTION_TOLERANCE`]. Returns failures (empty = pass).
pub fn regressions(baseline: &TrajectoryEntry, new: &TrajectoryEntry) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.rows {
        let Some(fresh) = new.rows.iter().find(|r| r.label == old.label) else {
            continue;
        };
        if fresh.gcups < old.gcups * (1.0 - GCUPS_TOLERANCE) {
            failures.push(format!(
                "{}: {:.3} GCUPs vs committed {:.3} (allowed floor {:.3})",
                fresh.label,
                fresh.gcups,
                old.gcups,
                old.gcups * (1.0 - GCUPS_TOLERANCE),
            ));
        }
        let ceiling = old.inter_global_transactions as f64 * (1.0 + TRANSACTION_TOLERANCE);
        if fresh.inter_global_transactions as f64 > ceiling {
            failures.push(format!(
                "{}: {} global transactions vs committed {} (allowed ceiling {:.0})",
                fresh.label,
                fresh.inter_global_transactions,
                old.inter_global_transactions,
                ceiling,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    type Trajectory = crate::trajectory::Trajectory<TrajectoryEntry>;

    fn sample_row(label: &str) -> DeviceOptRow {
        let (glob, hidden, h2d, h2d_hidden, imb) = match label {
            "none" => (40_000, 0, 0.004, 0.0, 3.2),
            "staging" => (5_000, 0, 0.004, 0.0, 3.2),
            "shared" => (31_000, 0, 0.004, 0.0, 3.2),
            "fusion" => (40_000, 9_000, 0.004, 0.0, 3.2),
            "stream" => (40_000, 0, 0.0025, 0.0015, 3.2),
            "balance" => (40_000, 0, 0.004, 0.0, 1.2),
            "all" => (5_000, 9_000, 0.0025, 0.0015, 1.2),
            other => panic!("unknown sample row {other}"),
        };
        DeviceOptRow {
            label: label.to_string(),
            gcups: if label == "all" { 3.4 } else { 3.0 },
            kernel_seconds: if label == "all" { 0.0042 } else { 0.005 },
            cells: 14_900_000,
            inter_global_transactions: glob,
            hidden_latency_cycles: hidden,
            h2d_seconds: h2d,
            h2d_hidden_seconds: h2d_hidden,
            h2d_bytes: 65_536,
            intra_imbalance: imb,
            score_crc: 0xdeadbeef,
        }
    }

    fn sample_entry(rev: &str) -> TrajectoryEntry {
        TrajectoryEntry {
            rev: rev.to_string(),
            config: "devopt-full-208x300".to_string(),
            device: "tesla-c2050/sm4x1".to_string(),
            db_size: 208,
            query_len: 300,
            cells: 14_900_000,
            rows: [
                "none", "staging", "shared", "fusion", "stream", "balance", "all",
            ]
            .iter()
            .map(|l| sample_row(l))
            .collect(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut t = Trajectory::default();
        t.append(sample_entry("abc1234"));
        t.append(sample_entry("def5678"));
        let parsed = Trajectory::parse(&t.to_json()).expect("valid document");
        assert_eq!(parsed.entries.len(), 2);
        for (a, b) in t.entries.iter().zip(&parsed.entries) {
            assert_eq!(a.rev, b.rev);
            assert_eq!(a.config, b.config);
            assert_eq!(a.device, b.device);
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x.label, y.label);
                assert_eq!(x.inter_global_transactions, y.inter_global_transactions);
                assert_eq!(x.hidden_latency_cycles, y.hidden_latency_cycles);
                assert_eq!(x.h2d_bytes, y.h2d_bytes);
                assert_eq!(x.score_crc, y.score_crc);
                assert!((x.gcups - y.gcups).abs() < 1e-3);
                assert!((x.h2d_seconds - y.h2d_seconds).abs() < 1e-8);
                assert!((x.intra_imbalance - y.intra_imbalance).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn invariant_gates_pass_on_a_healthy_entry() {
        assert_eq!(invariant_gates(&sample_entry("aaa")), Vec::<String>::new());
    }

    #[test]
    fn invariant_gates_catch_each_broken_claim() {
        let trip = |mutate: fn(&mut TrajectoryEntry), needle: &str| {
            let mut e = sample_entry("aaa");
            mutate(&mut e);
            let failures = invariant_gates(&e);
            assert!(
                failures.iter().any(|f| f.contains(needle)),
                "expected a failure containing {needle:?}, got {failures:?}"
            );
        };
        trip(|e| e.rows[1].score_crc ^= 1, "score CRC");
        trip(|e| e.rows[3].cells += 1, "cells vs baseline");
        trip(
            |e| e.rows[1].inter_global_transactions = 20_000,
            "below the 4x gate",
        );
        trip(
            |e| e.rows[2].inter_global_transactions = 40_000,
            "did not reduce",
        );
        trip(
            |e| e.rows[6].inter_global_transactions = 6_000,
            "more global transactions",
        );
        trip(|e| e.rows[0].hidden_latency_cycles = 5, "unfused baseline");
        trip(
            |e| e.rows[3].hidden_latency_cycles = 0,
            "hid zero stall cycles",
        );
        trip(|e| e.rows[4].h2d_bytes += 8, "changed H2D bytes");
        trip(
            |e| e.rows[4].h2d_hidden_seconds = 0.0,
            "accounting identity",
        );
        trip(
            |e| e.rows[5].intra_imbalance = 3.5,
            "worsened block imbalance",
        );
        trip(|e| e.rows[5].intra_imbalance = 2.5, "below the 1.5x gate");
        trip(
            |e| e.rows[6].kernel_seconds = 0.006,
            "slower than the baseline",
        );
        trip(
            |e| {
                e.rows.remove(2);
            },
            "missing",
        );
    }

    #[test]
    fn balance_cut_gate_is_conditional_on_baseline_skew() {
        // Near-uniform baseline: a small residual imbalance passes even
        // though the cut is under 1.5x (nothing to cut).
        let mut e = sample_entry("aaa");
        for r in &mut e.rows {
            r.intra_imbalance = match r.label.as_str() {
                "balance" | "all" => 1.3,
                _ => 1.5,
            };
        }
        assert_eq!(invariant_gates(&e), Vec::<String>::new());
    }

    #[test]
    fn comparator_rejects_slowdowns_and_transaction_growth() {
        let committed = sample_entry("aaa");
        let mut slow = sample_entry("bbb");
        slow.rows[6].gcups = 1.0;
        let failures = regressions(&committed, &slow);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("all:"));
        let mut chatty = sample_entry("ccc");
        chatty.rows[1].inter_global_transactions = 8_000;
        let failures = regressions(&committed, &chatty);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allowed ceiling"));
        // Within-tolerance noise passes; unmatched rows are skipped.
        let mut noisy = sample_entry("ddd");
        for r in &mut noisy.rows {
            r.gcups *= 0.9;
        }
        assert!(regressions(&committed, &noisy).is_empty());
        let mut extra = sample_entry("eee");
        extra.rows.push(DeviceOptRow {
            label: "staging+fusion".to_string(),
            ..sample_row("staging")
        });
        assert!(regressions(&committed, &extra).is_empty());
    }
}
