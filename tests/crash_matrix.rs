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
    multi_gpu_search_resilient, CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams,
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

fn config(device: DeviceKernelConfig) -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra: IntraKernelChoice::Improved(VariantConfig::improved()),
        inter_threads_per_block: 32,
        device,
        ..CudaSwConfig::improved()
    }
}

/// Run `case` on the published kernels and with every §VI / §VII
/// optimization at once (with `streamed_h2d` on, what a chunk's uploads cost
/// depends on the credit the chunks before it left, replayed or not), each
/// in a checkpoint directory of its own.
fn with_flags_off_and_all_on(tag: &str, case: fn(&str, CudaSwConfig, &std::path::Path)) {
    let all_on = DeviceKernelConfig::all_on();
    for (flags, device) in [("none", DeviceKernelConfig::default()), ("all", all_on)] {
        let dir = std::env::temp_dir().join(format!(
            "csw-crash-matrix-{tag}-{flags}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        case(flags, config(device), &dir);
        std::fs::remove_dir_all(&dir).ok();
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

fn counter_sum(run: &obs::Obs, name: &str) -> f64 {
    run.metrics.counter_sum(name, &[])
}

/// Kill points: every kernel launch of the search, inter and intra. Each
/// crash leaves a checkpoint log behind; the restart must reproduce the
/// uninterrupted result down to the last float bit.
#[test]
fn every_launch_kill_point_resumes_bit_identically() {
    with_flags_off_and_all_on("launch", every_launch_kill_point_resumes);
}

fn every_launch_kill_point_resumes(flags: &str, cfg: CudaSwConfig, dir: &std::path::Path) {
    let spec = small_spec();
    let db = matrix_db();
    let query = make_query(24, 41);

    let (baseline, base_run) = obs::capture(|| {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.search_resilient(&query, &db, &no_fallback(dir.join("baseline.ckpt")))
            .unwrap()
    });
    let launches = counter_sum(&base_run, "cudasw.gpu_sim.launch.calls") as u64;
    assert!(
        launches >= 4,
        "{flags}: want several kill points, got {launches} launches"
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
            "{flags}: kill point {kill} did not crash"
        );

        let (resumed, run) = obs::capture(|| {
            let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
            d.search_resilient(&query, &db, &policy).unwrap()
        });
        // A chunk is one launch: everything before the kill replays.
        let replayed = counter_sum(&run, "cudasw.core.checkpoint.replayed_chunks");
        assert_eq!(replayed as u64, kill, "{flags}: kill point {kill}");
        assert_eq!(
            resumed.result, baseline.result,
            "{flags}: kill point {kill}: resumed result diverged"
        );
        assert_eq!(
            resumed.result.transfer_seconds.to_bits(),
            baseline.result.transfer_seconds.to_bits(),
            "{flags}: kill point {kill}: transfer seconds not bit-identical"
        );
    }
}

/// Kill point: mid-checkpoint-write. A crash during the log append leaves
/// a torn tail (truncation) or a damaged one (bit flip); the loader must
/// keep the intact prefix, flag the damage, and the restart must still
/// finish bit-identically. A log in the previous format version (intact
/// header, version 1) has no prefix worth keeping: it is a bad header and
/// the search starts over.
#[test]
fn torn_or_corrupt_checkpoint_tail_resumes_from_the_intact_prefix() {
    with_flags_off_and_all_on("torn", damaged_log_resumes);
}

fn damaged_log_resumes(flags: &str, cfg: CudaSwConfig, dir: &std::path::Path) {
    let spec = small_spec();
    let db = matrix_db();
    let query = make_query(24, 41);

    let (baseline, _) = obs::capture(|| {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.search_resilient(&query, &db, &no_fallback(dir.join("baseline.ckpt")))
            .unwrap()
    });

    for (tag, issue, replays, damage) in [
        (
            "torn",
            "corrupt_tail",
            true,
            (|bytes: &mut Vec<u8>| {
                let keep = bytes.len() - 7;
                bytes.truncate(keep);
            }) as fn(&mut Vec<u8>),
        ),
        ("flipped", "corrupt_tail", true, |bytes: &mut Vec<u8>| {
            let last = bytes.len() - 3;
            bytes[last] ^= 0x10;
        }),
        ("v1", "bad_header", false, |bytes: &mut Vec<u8>| {
            // magic (8) · version (4) · fingerprint (8) · header CRC (4)
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            let crc = gpu_sim::crc32(&bytes[..20]);
            bytes[20..24].copy_from_slice(&crc.to_le_bytes());
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
            "{flags}, {tag} log: resumed result diverged"
        );
        let reported = run
            .metrics
            .counter("cudasw.core.checkpoint.load_issues", &[("issue", issue)]);
        assert_eq!(reported, 1.0, "{flags}, {tag} log: not reported {issue}");
        assert_eq!(
            counter_sum(&run, "cudasw.core.checkpoint.replayed_chunks") > 0.0,
            replays,
            "{flags}, {tag} log"
        );
    }
}

/// Kill point: between shards of a multi-GPU search. The first run loses a
/// whole device mid-shard (its work is re-dispatched); a second run over
/// the same checkpoint directory replays every shard's completed chunks
/// and still merges to the clean scores.
#[test]
fn multi_gpu_restart_replays_per_shard_logs() {
    with_flags_off_and_all_on("shards", multi_gpu_restart_replays);
}

fn multi_gpu_restart_replays(flags: &str, cfg: CudaSwConfig, dir: &std::path::Path) {
    let spec = small_spec();
    let db = matrix_db();
    let query = make_query(24, 41);

    let fault_free = RecoveryPolicy::default();
    let clean = multi_gpu_search_resilient(&spec, &cfg, &query, &db, 2, &[], &fault_free).unwrap();
    let plans = vec![
        FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        FaultPlan::none(),
    ];
    let policy = RecoveryPolicy {
        checkpoint: Some(dir.to_path_buf()),
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
    // The survivor's own shard comes back whole from its log, equal to the
    // run that wrote it down to the float bits.
    assert_eq!(second.per_device, first.per_device, "{flags}");
    assert!(
        counter_sum(&run, "cudasw.core.checkpoint.replayed_chunks") >= 1.0,
        "{flags}: restart did not replay any shard chunks"
    );
}

/// Silent transfer corruption: every injected event is detected and
/// quarantined — the quarantine count equals the number of injected
/// faults — and the final scores equal the host oracle everywhere.
#[test]
fn every_corruption_event_is_quarantined_and_scores_match_the_oracle() {
    let spec = small_spec();
    let cfg = config(DeviceKernelConfig::default());
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
