//! §VII device-kernel optimization bench (`repro device-opt`).
//!
//! Runs the same mixed workload once per [`DeviceKernelConfig`] of
//! interest — baseline, each optimization alone, and all together — and
//! records the *counted* metric each optimization claims to move:
//! inter-task global transactions (shared-memory staging), hidden
//! pipeline latency (cross-strip fusion), hidden H2D seconds (streamed
//! copy), and intra-task block-cycle imbalance (SaLoBa balance). The two
//! §VI boundary flags move intra-task global transactions, which this
//! schema has no column for (`repro ablation` prints them); their rows
//! hold them to the same scores, cells and inter-task traffic. Every
//! row also records a CRC of the scores: the optimizations must be
//! bit-identical, and [`invariant_gates`] holds them to it.
//!
//! The workload runs on a deliberately trimmed Fermi (4 SMs, one block
//! per SM) so that, at bench scale, the driver forms one inter-task
//! group that fits a single shared-memory panel *and* one that spans
//! several panels, and the intra-task phase has several times more
//! pairs than SMs — each optimization has something to optimize.
//!
//! Every number is simulated, so `BENCH_device.json` ([`to_json`]) is a
//! snapshot of the full and smoke runs, no rev, checked with `cmp`.

use crate::report::Table;
use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    VariantConfig,
};
use gpu_sim::{crc32, DeviceSpec};
use obs::json::escape;
use sw_db::synth::{database_with_lengths, make_query};

/// One measured optimization configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOptRow {
    /// `DeviceKernelConfig::label()` — "none", "staging", ..., "all".
    pub label: String,
    /// Overall GCUPs of the search.
    pub gcups: f64,
    /// Simulated kernel seconds (inter + intra).
    pub kernel_seconds: f64,
    /// DP cells computed (must be identical across rows).
    pub cells: u64,
    /// Global memory transactions of the inter-task kernel.
    pub inter_global_transactions: u64,
    /// Pipeline-stall cycles hidden by cross-strip fusion (0 unfused).
    pub hidden_latency_cycles: u64,
    /// Exposed H2D seconds.
    pub h2d_seconds: f64,
    /// H2D seconds hidden behind kernel execution (0 unstreamed).
    pub h2d_hidden_seconds: f64,
    /// Bytes moved host→device (must be identical across rows).
    pub h2d_bytes: u64,
    /// Max/min block cycles of the intra-task launch.
    pub intra_imbalance: f64,
    /// CRC-32 of the score vector (must be identical across rows).
    pub score_crc: u32,
}

/// The whole measured matrix: one run of the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOptResult {
    /// Stable workload key (`devopt-<mode>-<db>x<query>`).
    pub config: String,
    /// Device the matrix ran on.
    pub device: String,
    /// Database sequences.
    pub db_size: usize,
    /// Query length.
    pub query_len: usize,
    /// DP cells of one database pass.
    pub cells: u64,
    /// One row per measured configuration.
    pub rows: Vec<DeviceOptRow>,
}

impl DeviceOptResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "§VII device optimizations — {} on {} ({} seqs, query {})",
                self.config, self.device, self.db_size, self.query_len
            ),
            &[
                "config",
                "GCUPs",
                "inter glob txns",
                "hidden cycles",
                "h2d exposed (s)",
                "h2d hidden (s)",
                "intra imbalance",
                "score crc",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.label.clone(),
                format!("{:.2}", r.gcups),
                r.inter_global_transactions.to_string(),
                r.hidden_latency_cycles.to_string(),
                format!("{:.6}", r.h2d_seconds),
                format!("{:.6}", r.h2d_hidden_seconds),
                format!("{:.2}", r.intra_imbalance),
                format!("{:08x}", r.score_crc),
            ]);
        }
        t
    }

    /// Row by configuration label.
    pub fn row(&self, label: &str) -> Option<&DeviceOptRow> {
        self.rows.iter().find(|r| r.label == label)
    }
}

/// The measured configurations: baseline, each flag alone, all together.
pub fn bench_configs() -> Vec<DeviceKernelConfig> {
    let base = DeviceKernelConfig::default();
    vec![
        base,
        DeviceKernelConfig {
            boundary_staging: true,
            ..base
        },
        DeviceKernelConfig {
            shared_only: true,
            ..base
        },
        DeviceKernelConfig {
            pipeline_fusion: true,
            ..base
        },
        DeviceKernelConfig {
            streamed_h2d: true,
            ..base
        },
        DeviceKernelConfig {
            balanced_intra: true,
            ..base
        },
        DeviceKernelConfig {
            coalesced_boundary: true,
            ..base
        },
        DeviceKernelConfig {
            shared_boundary: true,
            ..base
        },
        DeviceKernelConfig::all_on(),
    ]
}

/// The bench device: a Fermi trimmed to 4 SMs × 1 block so the group
/// structure (single-panel group, multi-panel group, pairs ≫ SMs) is
/// reachable at bench scale. Shared memory per SM — which decides panel
/// geometry — is stock C2050.
pub fn bench_spec() -> DeviceSpec {
    let mut spec = DeviceSpec::tesla_c2050();
    spec.sm_count = 4;
    spec.max_blocks_per_sm = 1;
    spec
}

/// Name of [`bench_spec`] recorded in the snapshot.
pub const BENCH_DEVICE: &str = "tesla-c2050/sm4x1";

/// Length threshold used by the bench (shrunk with the workload so the
/// intra-task phase exists at bench scale).
pub const BENCH_THRESHOLD: usize = 1000;

fn workload(smoke: bool) -> (Vec<usize>, usize) {
    let mut lengths = Vec::new();
    if smoke {
        // Group 1: 128 subjects that fit one 64-column panel.
        lengths.extend(std::iter::repeat_n(40usize, 128));
        // Group 2: multi-panel subjects.
        lengths.extend(std::iter::repeat_n(128usize, 32));
        // Intra-task: a heavy head plus a balanced tail.
        lengths.push(2000);
        lengths.extend((0..7).map(|i| 1150 + 50 * i));
        (lengths, 160)
    } else {
        lengths.extend(std::iter::repeat_n(60usize, 128));
        lengths.extend(std::iter::repeat_n(256usize, 64));
        lengths.push(4000);
        lengths.extend((0..15).map(|i| 1100 + 50 * i));
        (lengths, 300)
    }
}

/// Run the optimization matrix. `smoke` shrinks the workload to CI
/// scale on the identical code path.
pub fn run(smoke: bool) -> DeviceOptResult {
    let (lengths, query_len) = workload(smoke);
    let db = database_with_lengths("device-opt", &lengths, 101);
    let query = make_query(query_len, 53);
    let mode = if smoke { "smoke" } else { "full" };

    let mut rows = Vec::new();
    for device in bench_configs() {
        let cfg = CudaSwConfig {
            threshold: BENCH_THRESHOLD,
            inter_threads_per_block: 32,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            intra: IntraKernelChoice::Improved(VariantConfig::improved()),
            device,
            ..CudaSwConfig::improved()
        };
        let (result, run) = obs::capture(|| {
            let mut driver = CudaSwDriver::new(bench_spec(), cfg);
            driver.search(&query, &db)
        });
        let result = match result {
            Ok(r) => r,
            Err(e) => panic!("device-opt bench search failed ({}): {e}", device.label()),
        };
        let m = &run.metrics;
        let inter = [("kernel", "inter_task")];
        let intra = [("kernel", "intra_improved")];
        let min_cycles = m.counter_sum("cudasw.gpu_sim.launch.block_cycles_min", &intra);
        let score_bytes: Vec<u8> = result.scores.iter().flat_map(|s| s.to_le_bytes()).collect();
        rows.push(DeviceOptRow {
            label: device.label(),
            gcups: result.gcups(),
            kernel_seconds: result.kernel_seconds(),
            cells: result.total_cells(),
            inter_global_transactions: m
                .counter_sum("cudasw.gpu_sim.launch.global_transactions", &inter)
                as u64,
            hidden_latency_cycles: m
                .counter_sum("cudasw.gpu_sim.launch.hidden_latency_cycles", &intra)
                as u64,
            h2d_seconds: m.counter_sum("cudasw.gpu_sim.h2d.seconds", &[]),
            // Synchronous sessions sum to a ~1e-19 negative through
            // float cancellation; clamp so "no hiding" reads as zero.
            h2d_hidden_seconds: m
                .counter_sum("cudasw.gpu_sim.h2d.hidden_seconds", &[])
                .max(0.0),
            h2d_bytes: m.counter_sum("cudasw.gpu_sim.h2d.bytes", &[]) as u64,
            intra_imbalance: if min_cycles > 0.0 {
                m.counter_sum("cudasw.gpu_sim.launch.block_cycles_max", &intra) / min_cycles
            } else {
                1.0
            },
            score_crc: crc32(&score_bytes),
        });
    }

    DeviceOptResult {
        config: format!("devopt-{mode}-{}x{query_len}", db.len()),
        device: BENCH_DEVICE.to_string(),
        db_size: db.len(),
        query_len,
        cells: db.total_cells(query_len),
        rows,
    }
}

/// JSON schema tag of `BENCH_device.json`.
pub const SCHEMA: &str = "cudasw.bench.device/v2";

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

/// The counted claims every run must hold on its own: the whole matrix
/// present (the baseline, each §VII optimization alone, all together),
/// identical score CRCs and cell counts across the matrix, staging cuts
/// global transactions ≥ [`STAGING_MIN_TRANSACTION_CUT`]×, fusion hides
/// stalls the baseline exposes, streaming hides copy time without
/// changing bytes, balance never worsens block skew, and the all-on row
/// beats the baseline. They read the measured values: the document rounds
/// seconds to 1e-9, coarser than [`ACCOUNTING_TOLERANCE`]. Returns
/// human-readable failures (empty = pass).
pub fn invariant_gates(e: &DeviceOptResult) -> Vec<String> {
    let mut failures: Vec<String> = [
        "none", "staging", "shared", "fusion", "stream", "balance", "all",
    ]
    .iter()
    .filter(|label| e.row(label).is_none())
    .map(|label| format!("matrix row {label:?} missing"))
    .collect();
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

/// Serialize `runs` as the [`SCHEMA`] snapshot, one matrix row per line.
pub fn to_json(runs: &[DeviceOptResult]) -> String {
    let run = |r: &DeviceOptResult| {
        let rows = r.rows.iter().map(|r| {
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
            ("config", quoted(&r.config)),
            ("device", quoted(&r.device)),
            ("db_size", r.db_size.to_string()),
            ("query_len", r.query_len.to_string()),
            ("cells", r.cells.to_string()),
            ("rows", rows_array(rows)),
        ]
    };
    document(SCHEMA, "runs", runs.iter().map(run))
}

/// A `{"schema": …, "<list>": [{…}, …]}` document: one object per
/// element of `objects`, one field per line in the order given, values
/// already serialized (see [`quoted`], [`rows_array`], [`inline_object`]).
fn document(
    schema: &str,
    list: &str,
    objects: impl Iterator<Item = Vec<(&'static str, String)>>,
) -> String {
    let objects: Vec<String> = objects
        .map(|fields| {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("      \"{k}\": {v}"))
                .collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"{list}\": [\n{}\n  ]\n}}\n",
        objects.join(",\n")
    )
}

/// `"s"`, escaped: a JSON string value.
fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A one-line object `{"k": v, "k": v}` of already-serialized values.
fn inline_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The value of a run's rows field: an array of one row per line.
fn rows_array(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|row| format!("        {row}")).collect();
    format!("[\n{}\n      ]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_moves_every_counted_metric() {
        let runs = [run(false), run(true)];
        for r in &runs {
            assert_eq!(r.rows.len(), bench_configs().len());
            assert_eq!(invariant_gates(r), Vec::<String>::new(), "{}", r.config);
            let row = |label: &str| r.row(label).unwrap_or_else(|| panic!("row {label}"));
            let none = row("none");
            // The §VI boundary flags are intra-task only.
            for label in ["coalesce", "shared-boundary"] {
                assert_eq!(
                    row(label).inter_global_transactions,
                    none.inter_global_transactions
                );
            }
            assert!(row("shared-boundary").kernel_seconds <= none.kernel_seconds);
        }
        // The simulated clock is deterministic: the committed snapshot is
        // this code's output, byte for byte.
        assert!(to_json(&runs) == include_str!("../../../../BENCH_device.json"));
    }

    #[test]
    fn table_renders_every_row() {
        let r = run(true);
        let rendered = r.table().render();
        for row in &r.rows {
            assert!(rendered.contains(&row.label), "{} missing", row.label);
        }
    }

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

    fn sample_entry() -> DeviceOptResult {
        DeviceOptResult {
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
    fn invariant_gates_pass_on_a_healthy_entry() {
        assert_eq!(invariant_gates(&sample_entry()), Vec::<String>::new());
    }

    #[test]
    fn invariant_gates_catch_each_broken_claim() {
        let trip = |mutate: fn(&mut DeviceOptResult), needle: &str| {
            let mut e = sample_entry();
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
        let mut e = sample_entry();
        for r in &mut e.rows {
            r.intra_imbalance = match r.label.as_str() {
                "balance" | "all" => 1.3,
                _ => 1.5,
            };
        }
        assert_eq!(invariant_gates(&e), Vec::<String>::new());
    }
}
