//! Chaos run — the resilient driver under random fault injection.
//!
//! Not a paper figure: a robustness demonstration. A 2-device search runs
//! with seeded random faults (transient launch failures, hangs, transfer
//! corruption) plus one scripted device loss, and the merged scores are
//! checked byte-for-byte against a fault-free run. The interesting output
//! is the recovery ledger: how many retries, re-chunks, shard
//! re-dispatches and CPU-fallback sequences the faults cost.

use std::path::Path;

use crate::report::Table;
use crate::workloads;
use cudasw_core::{multi_gpu_search_resilient, CudaSwConfig, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use sw_db::catalog::PaperDb;
use sw_db::{Database, SynthConfig};

/// Watchdog budget for chaos runs: far above any clean launch at this
/// scale, far below the hang inflation (`HANG_CYCLE_MULTIPLIER`).
const WATCHDOG_CYCLES: u64 = 10_000_000_000;

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Fault seed used for the random plans.
    pub seed: u64,
    /// Devices the search started with.
    pub devices: usize,
    /// Devices still alive at the end.
    pub surviving: usize,
    /// Scores identical to the fault-free run.
    pub scores_match: bool,
    /// Chunks replayed from a checkpoint log instead of recomputed
    /// (non-zero only when resuming from a previous run's directory).
    pub replayed_chunks: u64,
    /// The aggregated recovery ledger.
    pub recovery: cudasw_core::RecoveryReport,
}

impl ChaosResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("chaos run (seed {}, {} devices)", self.seed, self.devices),
            &["metric", "value"],
        );
        let r = &self.recovery;
        for (name, value) in [
            ("scores match fault-free run", self.scores_match.to_string()),
            ("surviving devices", self.surviving.to_string()),
            ("retries", r.retries.to_string()),
            ("re-chunks", r.rechunks.to_string()),
            ("shard re-dispatches", r.shard_redispatches.to_string()),
            ("CPU-fallback sequences", r.cpu_fallback_seqs.to_string()),
            ("quarantined chunks", r.quarantined_chunks.to_string()),
            ("replayed chunks", self.replayed_chunks.to_string()),
            ("degraded", r.degraded.to_string()),
            ("backoff seconds", format!("{:.4}", r.backoff_seconds)),
        ] {
            t.push_row(vec![name.to_string(), value]);
        }
        t
    }
}

/// Run a 2-device chaos search over `db_size` sequences.
///
/// Device 0 gets `FaultPlan::random(seed, …)` plus a scripted device loss
/// partway in, device 1 gets `FaultPlan::random(seed', …)` — so every run
/// exercises re-dispatch on top of whatever the random stream deals.
pub fn run(spec: &DeviceSpec, seed: u64, db_size: usize, query_len: usize) -> ChaosResult {
    run_with_options(spec, seed, db_size, query_len, None)
}

/// [`run`] with a checkpoint directory: each shard logs its completed
/// chunks there, and a rerun over the same directory resumes — replayed
/// chunks show up in [`ChaosResult::replayed_chunks`].
pub fn run_with_options(
    spec: &DeviceSpec,
    seed: u64,
    db_size: usize,
    query_len: usize,
    ckpt_dir: Option<&Path>,
) -> ChaosResult {
    let mut synth = SynthConfig::new(
        "swissprot-chaos",
        db_size,
        PaperDb::Swissprot.lognormal(),
        workloads::SEED,
    );
    synth.max_len = 800;
    let db: Database = synth.generate();
    let query = workloads::query(query_len);
    let mut cfg = CudaSwConfig::improved();
    cfg.inter_threads_per_block = 64;

    let fault_free = RecoveryPolicy::default();
    let clean = multi_gpu_search_resilient(spec, &cfg, &query, &db, 2, &[], &fault_free)
        .expect("clean search");

    // At this scale a shard's short side is a single inter-task launch, so
    // the scripted loss must hit launch 0 to fire at all.
    let plans = vec![
        FaultPlan::random(seed, FaultRates::default()).with_device_loss(FaultSite::Launch, 0),
        FaultPlan::random(seed ^ 0x9E37_79B9_7F4A_7C15, FaultRates::default()),
    ];
    let policy = RecoveryPolicy {
        watchdog_cycles: Some(WATCHDOG_CYCLES),
        checkpoint: ckpt_dir.map(Path::to_path_buf),
        ..RecoveryPolicy::default()
    };
    let before = obs::snapshot_metrics();
    let r = multi_gpu_search_resilient(spec, &cfg, &query, &db, 2, &plans, &policy)
        .expect("chaos search");
    let delta = obs::snapshot_metrics().diff(&before);

    ChaosResult {
        seed,
        devices: r.devices,
        surviving: r.surviving_devices(),
        scores_match: r.scores == clean.scores,
        replayed_chunks: delta.counter_sum("cudasw.core.checkpoint.replayed_chunks", &[]) as u64,
        recovery: r.recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_recovers_exact_scores() {
        let r = run(&DeviceSpec::tesla_c1060(), 42, 600, 64);
        assert!(r.scores_match);
        assert!(r.recovery.shard_redispatches >= 1);
        assert!(r.surviving <= 1);
    }
}
