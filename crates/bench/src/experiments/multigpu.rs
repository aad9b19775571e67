//! §IV-B / §V — multi-GPU scaling.
//!
//! "the kernel tasks are independent, and thus the running time will scale
//! almost linearly with the number of GPUs available" — measured here
//! functionally by sharding a scaled Swissprot across 1, 2 and 4 simulated
//! devices.

use crate::report::Table;
use crate::workloads;
use cudasw_core::{multi_gpu_search_resilient, CudaSwConfig, RecoveryPolicy};
use gpu_sim::DeviceSpec;
use sw_db::catalog::PaperDb;
use sw_db::{Database, SynthConfig};

/// One row of the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of devices.
    pub devices: usize,
    /// Wall seconds (slowest device).
    pub wall_seconds: f64,
    /// Speedup over one device.
    pub speedup: f64,
    /// Parallel efficiency (`speedup / devices`).
    pub efficiency: f64,
}

/// The experiment's data.
#[derive(Debug, Clone)]
pub struct MultiGpuResultTable {
    /// Rows for each device count.
    pub rows: Vec<ScalingRow>,
}

impl MultiGpuResultTable {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "§IV-B multi-GPU scaling (functional, scaled Swissprot)",
            &["GPUs", "wall seconds", "speedup", "efficiency"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.devices.to_string(),
                format!("{:.4}", r.wall_seconds),
                format!("{:.2}x", r.speedup),
                format!("{:.0}%", r.efficiency * 100.0),
            ]);
        }
        t
    }
}

/// Run the scaling experiment on `db_size` sequences for 1/2/4 devices.
///
/// Linear scaling needs every shard to stay compute-rich. At reduced
/// functional scale a single near-threshold sequence is a straggler warp
/// comparable to the whole shard (at paper scale the same sequence is
/// <2% of a launch), so the workload caps lengths at 800 and uses
/// 64-thread inter-task blocks to keep every shard block-rich — the
/// regime the paper's linear-scaling statement is about.
pub fn run(spec: &DeviceSpec, db_size: usize, query_len: usize) -> MultiGpuResultTable {
    let mut synth = SynthConfig::new(
        "swissprot-capped",
        db_size,
        PaperDb::Swissprot.lognormal(),
        workloads::SEED,
    );
    synth.max_len = 800;
    let db: Database = synth.generate();
    let query = workloads::query(query_len);
    let mut cfg = CudaSwConfig::improved();
    cfg.inter_threads_per_block = 64;
    let mut rows = Vec::new();
    let mut base = 0.0;
    for k in [1usize, 2, 4] {
        let policy = RecoveryPolicy::default();
        let r = multi_gpu_search_resilient(spec, &cfg, &query, &db, k, &[], &policy)
            .expect("multi-gpu search");
        if k == 1 {
            base = r.wall_seconds();
        }
        let speedup = base / r.wall_seconds();
        rows.push(ScalingRow {
            devices: k,
            wall_seconds: r.wall_seconds(),
            speedup,
            efficiency: speedup / k as f64,
        });
    }
    MultiGpuResultTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_near_linear() {
        // At reduced functional scale the block-count granularity caps the
        // 4-GPU efficiency (a shard of a few hundred sequences is only a
        // handful of blocks over 30 SMs); the paper-scale behaviour is
        // linear because every shard stays device-filling.
        let r = run(&DeviceSpec::tesla_c1060(), 16_000, 64);
        assert_eq!(r.rows.len(), 3);
        assert!((r.rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(r.rows[1].speedup > 1.6, "2 GPUs: {:.2}x", r.rows[1].speedup);
        assert!(r.rows[2].speedup > 2.8, "4 GPUs: {:.2}x", r.rows[2].speedup);
        for row in &r.rows {
            assert!(
                row.efficiency > 0.7,
                "{} GPUs: {:.0}%",
                row.devices,
                row.efficiency * 100.0
            );
        }
    }
}
