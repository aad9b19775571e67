//! Resilience integration tests: multi-GPU identity under faults and the
//! chaos acceptance scenario. That the CPU fallback and every kernel score
//! what `sw_score` does is `tests/conformance.rs`.

use cudasw_core::intra_improved::{ImprovedParams, VariantConfig};
use cudasw_core::{
    multi_gpu_search_resilient, CudaSwConfig, CudaSwDriver, IntraKernelChoice, RecoveryPolicy,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;

fn config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra: IntraKernelChoice::Improved(VariantConfig::improved()),
        ..CudaSwConfig::improved()
    }
}

fn mixed_db() -> Database {
    database_with_lengths(
        "resil",
        &[
            20, 25, 30, 38, 45, 52, 60, 66, 72, 80, 88, 95, 110, 125, 140, 160, 200, 260, 320, 400,
        ],
        71,
    )
}

fn single_device_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
    driver.search(query, db).unwrap().scores
}

#[test]
fn multi_gpu_survives_one_dead_device() {
    let db = mixed_db();
    let query = make_query(48, 33);
    let expect = single_device_scores(&query, &db);
    for k in [2usize, 4] {
        // Device 0 dies on its very first launch; its shard must be
        // re-dispatched round-robin over the survivors.
        let plans = vec![FaultPlan::none().with_device_loss(FaultSite::Launch, 0)];
        let r = multi_gpu_search_resilient(
            &DeviceSpec::tesla_c1060(),
            &config(),
            &query,
            &db,
            k,
            &plans,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(r.scores, expect, "k={k}");
        assert_eq!(r.surviving_devices(), k - 1);
        assert!(r.recovery.shard_redispatches >= 1, "k={k}");
        assert_eq!(r.recovery.cpu_fallback_seqs, 0, "k={k}");
    }
}

/// The chaos acceptance scenario: a 2-device search with a transient
/// launch fault, an OOM episode and one dead device completes with scores
/// byte-identical to a fault-free run. And the observability contract:
/// recovery's metrics counters and trace instants are emitted in the same
/// breath as the `RecoveryReport` ledger (see the `note_*` methods in
/// `recovery.rs`), so under a fixed fault schedule the captured run must
/// match the report *exactly* — same counts, same backoff seconds
/// bit-for-bit, same event order.
#[test]
fn chaos_run_obs_matches_recovery_ledger_exactly() {
    let db = mixed_db();
    let query = make_query(48, 33);
    let plans = vec![
        // Device 0: lost on its first launch (shard re-dispatched).
        FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        // Device 1: one transient launch fault, plus OOM on alloc #2 —
        // the first group's residue staging (0 = profile, 1 = query).
        FaultPlan::none()
            .with_transient(FaultSite::Launch, 0)
            .with_oom(2),
    ];
    let (r, run) = obs::capture(|| {
        multi_gpu_search_resilient(
            &DeviceSpec::tesla_c1060(),
            &config(),
            &query,
            &db,
            2,
            &plans,
            &RecoveryPolicy::default(),
        )
        .unwrap()
    });
    assert_eq!(r.scores, single_device_scores(&query, &db));
    assert_eq!(r.surviving_devices(), 1);
    let ledger = &r.recovery;
    let m = &run.metrics;
    let counter = |name: &str| m.counter_sum(name, &[]);
    assert_eq!(
        counter("cudasw.core.recovery.retries") as u64,
        ledger.retries
    );
    assert_eq!(
        counter("cudasw.core.recovery.rechunks") as u64,
        ledger.rechunks
    );
    assert_eq!(
        counter("cudasw.core.recovery.cpu_fallback_seqs") as u64,
        ledger.cpu_fallback_seqs
    );
    assert_eq!(
        counter("cudasw.core.recovery.shard_redispatches") as u64,
        ledger.shard_redispatches
    );
    // Same additions in the same order on both sides: bitwise equal.
    assert_eq!(
        counter("cudasw.core.recovery.backoff_seconds").to_bits(),
        ledger.backoff_seconds.to_bits()
    );
    // Every ledger event has exactly one trace instant, in order.
    let instant_names: Vec<&str> = run
        .trace
        .instants
        .iter()
        .filter(|i| i.cat == "recovery")
        .map(|i| i.name.as_str())
        .collect();
    let event_names: Vec<&str> = ledger
        .events
        .iter()
        .map(|e| match e {
            cudasw_core::RecoveryEvent::Retry { .. } => "retry",
            cudasw_core::RecoveryEvent::Rechunk { .. } => "rechunk",
            cudasw_core::RecoveryEvent::CpuFallback { .. } => "cpu_fallback",
            cudasw_core::RecoveryEvent::Quarantine { .. } => "quarantine",
            cudasw_core::RecoveryEvent::BudgetDenied { .. } => "budget_denied",
            cudasw_core::RecoveryEvent::ShardRedispatch { .. } => "shard_redispatch",
        })
        .collect();
    assert_eq!(instant_names, event_names);
    // The scenario actually exercised the ledger (not vacuously equal).
    assert!(ledger.retries >= 1 && ledger.rechunks >= 1 && ledger.shard_redispatches >= 1);
}

#[test]
fn all_devices_dead_degrades_to_cpu_with_identical_scores() {
    let db = mixed_db();
    let query = make_query(48, 33);
    let expect = single_device_scores(&query, &db);
    let plans = vec![
        FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        FaultPlan::none().with_device_loss(FaultSite::HostToDevice, 0),
    ];
    let r = multi_gpu_search_resilient(
        &DeviceSpec::tesla_c1060(),
        &config(),
        &query,
        &db,
        2,
        &plans,
        &RecoveryPolicy::default(),
    )
    .unwrap();
    assert_eq!(r.scores, expect);
    assert_eq!(r.surviving_devices(), 0);
    assert!(r.recovery.degraded);
    assert_eq!(r.recovery.cpu_fallback_seqs, db.len() as u64);
}
