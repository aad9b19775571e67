//! Crash matrix — kill the checkpointed search at every point and resume.
//!
//! The contract under attack (DESIGN.md §10): wherever the process dies —
//! mid-chunk on any kernel launch, mid-checkpoint-write (a torn or
//! bit-flipped log tail), or between shards of a multi-GPU search — a
//! restart over the same checkpoint directory finishes the search and the
//! final `SearchResult` equals the uninterrupted run **exactly**, floats
//! compared bit-for-bit. Separately: silent transfer corruption never
//! reaches the result — each injected event is detected, quarantined and
//! recomputed on the host oracle.

use cudasw_core::{
    multi_gpu_search, multi_gpu_search_resilient, CudaSwConfig, CudaSwDriver, ImprovedParams,
    IntraKernelChoice, RecoveryPolicy, VariantConfig,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite, GpuError};
use sw_align::smith_waterman::sw_score;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;

/// A deliberately tiny device so the test database needs several inter
/// and intra launches — i.e. several distinct kill points.
fn small_spec() -> DeviceSpec {
    let mut spec = DeviceSpec::tesla_c1060();
    spec.sm_count = 1;
    spec.max_threads_per_sm = 64;
    spec.max_blocks_per_sm = 2;
    spec
}

fn config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra: IntraKernelChoice::Improved(VariantConfig::improved()),
        inter_threads_per_block: 32,
        ..CudaSwConfig::improved()
    }
}

/// Short sequences for several inter chunks plus a long tail that crosses
/// the threshold, so the matrix covers both phases' kill points.
fn matrix_db() -> Database {
    let mut lengths = vec![30usize; 150];
    lengths.extend([200usize; 6]);
    database_with_lengths("crash-matrix", &lengths, 79)
}

/// No CPU fallback (a dead device is a crash), logging chunks to `log`.
fn no_fallback(log: std::path::PathBuf) -> RecoveryPolicy {
    RecoveryPolicy {
        cpu_fallback: false,
        checkpoint: Some(log),
        ..RecoveryPolicy::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("csw-crash-matrix-{tag}-{}", std::process::id()))
}

fn counter_sum(run: &obs::Obs, name: &str) -> f64 {
    run.metrics.counter_sum(name, &[])
}

/// Kill points: every kernel launch of the search, inter and intra. Each
/// crash leaves a checkpoint log behind; the restart must reproduce the
/// uninterrupted result down to the last float bit.
#[test]
fn every_launch_kill_point_resumes_bit_identically() {
    let spec = small_spec();
    let cfg = config();
    let db = matrix_db();
    let query = make_query(24, 41);
    let dir = temp_dir("launch");

    let (baseline, base_run) = obs::capture(|| {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.search_resilient(&query, &db, &no_fallback(dir.join("baseline.ckpt")))
            .unwrap()
    });
    let launches = counter_sum(&base_run, "cudasw.gpu_sim.launch.calls") as u64;
    assert!(
        launches >= 4,
        "want several kill points, got {launches} launches"
    );

    for kill in 0..launches {
        let policy = no_fallback(dir.join(format!("kill-{kill}.ckpt")));
        let (crashed, _) = obs::capture(|| {
            let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
            d.dev
                .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, kill));
            d.search_resilient(&query, &db, &policy)
        });
        assert!(
            matches!(crashed, Err(GpuError::DeviceLost)),
            "kill point {kill} did not crash"
        );

        let (resumed, _) = obs::capture(|| {
            let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
            d.search_resilient(&query, &db, &policy).unwrap()
        });
        assert_eq!(
            resumed.result, baseline.result,
            "kill point {kill}: resumed result diverged"
        );
        assert_eq!(
            resumed.result.transfer_seconds.to_bits(),
            baseline.result.transfer_seconds.to_bits(),
            "kill point {kill}: transfer seconds not bit-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill point: mid-checkpoint-write. A crash during the log append leaves
/// a torn tail (truncation) or a damaged one (bit flip); the loader must
/// keep the intact prefix, flag the damage, and the restart must still
/// finish bit-identically.
#[test]
fn torn_or_corrupt_checkpoint_tail_resumes_from_the_intact_prefix() {
    let spec = small_spec();
    let cfg = config();
    let db = matrix_db();
    let query = make_query(24, 41);
    let dir = temp_dir("torn");

    let (baseline, _) = obs::capture(|| {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.search_resilient(&query, &db, &no_fallback(dir.join("baseline.ckpt")))
            .unwrap()
    });

    for (tag, damage) in [
        (
            "torn",
            (|bytes: &mut Vec<u8>| {
                let keep = bytes.len() - 7;
                bytes.truncate(keep);
            }) as fn(&mut Vec<u8>),
        ),
        ("flipped", |bytes: &mut Vec<u8>| {
            let last = bytes.len() - 3;
            bytes[last] ^= 0x10;
        }),
    ] {
        let path = dir.join(format!("{tag}.ckpt"));
        let policy = no_fallback(path.clone());
        let (crashed, _) = obs::capture(|| {
            let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
            d.dev
                .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 3));
            d.search_resilient(&query, &db, &policy)
        });
        assert!(matches!(crashed, Err(GpuError::DeviceLost)));

        // Simulate the crash landing *inside* the append instead of
        // between appends.
        let mut bytes = std::fs::read(&path).expect("log written before crash");
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let (resumed, run) = obs::capture(|| {
            let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
            d.search_resilient(&query, &db, &policy).unwrap()
        });
        assert_eq!(
            resumed.result, baseline.result,
            "{tag} tail: resumed result diverged"
        );
        assert!(
            counter_sum(&run, "cudasw.core.checkpoint.load_issues") >= 1.0,
            "{tag} tail: damage was not reported"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill point: between shards of a multi-GPU search. The first run loses a
/// whole device mid-shard (its work is re-dispatched); a second run over
/// the same checkpoint directory replays every shard's completed chunks
/// and still merges to the clean scores.
#[test]
fn multi_gpu_restart_replays_per_shard_logs() {
    let spec = small_spec();
    let cfg = config();
    let db = matrix_db();
    let query = make_query(24, 41);
    let dir = temp_dir("shards");
    std::fs::create_dir_all(&dir).unwrap();

    let clean = multi_gpu_search(&spec, &cfg, &query, &db, 2).unwrap();
    let plans = vec![
        FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        FaultPlan::none(),
    ];
    let policy = RecoveryPolicy {
        checkpoint: Some(dir.clone()),
        ..RecoveryPolicy::default()
    };

    let (first, _) = obs::capture(|| {
        multi_gpu_search_resilient(&spec, &cfg, &query, &db, 2, &plans, &policy).unwrap()
    });
    assert_eq!(first.scores, clean.scores);
    assert!(first.recovery.shard_redispatches >= 1);

    let (second, run) = obs::capture(|| {
        multi_gpu_search_resilient(&spec, &cfg, &query, &db, 2, &plans, &policy).unwrap()
    });
    assert_eq!(second.scores, clean.scores);
    assert!(
        counter_sum(&run, "cudasw.core.checkpoint.replayed_chunks") >= 1.0,
        "restart did not replay any shard chunks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Silent transfer corruption: every injected event is detected and
/// quarantined — the quarantine count equals the number of injected
/// faults — and the final scores equal the host oracle everywhere.
#[test]
fn every_corruption_event_is_quarantined_and_scores_match_the_oracle() {
    let spec = small_spec();
    let cfg = config();
    let db = matrix_db();
    let query = make_query(24, 41);

    let oracle: Vec<i32> = db
        .sequences()
        .iter()
        .map(|s| sw_score(&cfg.params, &query, &s.residues))
        .collect();

    // Two independent corruption events on score readbacks.
    let plan = FaultPlan::none()
        .with_silent_corruption(FaultSite::DeviceToHost, 0)
        .with_silent_corruption(FaultSite::DeviceToHost, 2);
    let (r, run) = obs::capture(|| {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.dev.inject_faults(plan);
        d.search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap()
    });

    assert_eq!(r.result.scores, oracle, "corruption leaked into scores");
    assert_eq!(r.recovery.quarantined_chunks, 2, "one quarantine per event");
    assert_eq!(
        counter_sum(&run, "cudasw.core.integrity.quarantined") as u64,
        2
    );
    assert!(counter_sum(&run, "cudasw.core.integrity.detected") >= 2.0);
    assert!(r.recovery.degraded);
}
