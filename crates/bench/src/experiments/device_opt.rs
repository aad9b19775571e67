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
//! bit-identical, and the trajectory gates hold them to it.
//!
//! The workload runs on a deliberately trimmed Fermi (4 SMs, one block
//! per SM) so that, at bench scale, the driver forms one inter-task
//! group that fits a single shared-memory panel *and* one that spans
//! several panels, and the intra-task phase has several times more
//! pairs than SMs — each optimization has something to optimize.

use crate::report::Table;
use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    VariantConfig,
};
use gpu_sim::{crc32, DeviceSpec};
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

/// The whole measured matrix: one entry of the device trajectory (see
/// [`super::device_trajectory`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOptResult {
    /// Git revision measured; empty until `repro` keys the run to record it.
    pub rev: String,
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

/// Name of [`bench_spec`] recorded in the trajectory.
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
        rev: String::new(),
        config: format!("devopt-{mode}-{}x{query_len}", db.len()),
        device: BENCH_DEVICE.to_string(),
        db_size: db.len(),
        query_len,
        cells: db.total_cells(query_len),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_moves_every_counted_metric() {
        let r = run(true);
        assert_eq!(r.rows.len(), bench_configs().len());
        let row = |label: &str| r.row(label).unwrap_or_else(|| panic!("row {label}"));
        let none = row("none");
        // Identical answers and identical work across the matrix.
        for other in &r.rows {
            assert_eq!(other.score_crc, none.score_crc, "row {}", other.label);
            assert_eq!(other.cells, none.cells, "row {}", other.label);
        }
        // Each optimization moved its own metric.
        assert!(
            none.inter_global_transactions >= 4 * row("staging").inter_global_transactions,
            "staging: {} vs {}",
            none.inter_global_transactions,
            row("staging").inter_global_transactions
        );
        assert!(row("shared").inter_global_transactions < none.inter_global_transactions);
        assert_eq!(none.hidden_latency_cycles, 0);
        assert!(row("fusion").hidden_latency_cycles > 0);
        assert_eq!(row("stream").h2d_bytes, none.h2d_bytes);
        assert!(row("stream").h2d_hidden_seconds > 0.0);
        assert!(row("stream").h2d_seconds < none.h2d_seconds);
        assert!(row("balance").intra_imbalance < none.intra_imbalance);
        // The §VI boundary flags are intra-task only.
        for label in ["coalesce", "shared-boundary"] {
            assert_eq!(
                row(label).inter_global_transactions,
                none.inter_global_transactions
            );
        }
        assert!(row("shared-boundary").kernel_seconds <= none.kernel_seconds);
        assert!(row("all").kernel_seconds <= none.kernel_seconds);
    }

    #[test]
    fn table_renders_every_row() {
        let r = run(true);
        let rendered = r.table().render();
        for row in &r.rows {
            assert!(rendered.contains(&row.label), "{} missing", row.label);
        }
    }
}
