//! End-to-end service contracts:
//!
//! * every admitted request is answered exactly once;
//! * served scores are bit-identical to a standalone resilient search —
//!   with and without injected faults, including a dead shard;
//! * a wave of compatible queries stages the database once (asserted on
//!   the `cudasw.gpu_sim.h2d.calls` transfer counter);
//! * overload sheds explicitly instead of queueing without bound;
//! * a repeated query is answered once per request, with equal scores;
//! * a request with illegal gap penalties is shed at admission;
//! * the metrics registry counts what the recovery ledger reports.

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use sw_align::SwParams;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;
use sw_serve::{
    AdmissionConfig, BatchPolicy, SearchRequest, SearchService, ServeConfig, TraceConfig,
};

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_c1060()
}

fn search_config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        ..CudaSwConfig::improved()
    }
}

fn serve_config(devices: usize) -> ServeConfig {
    ServeConfig {
        devices,
        search: search_config(),
        ..ServeConfig::default()
    }
}

fn test_db() -> Database {
    // Mixed lengths across the threshold: both kernels and both staging
    // image kinds are exercised on every shard.
    database_with_lengths(
        "serve-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    )
}

/// Reference scores: a standalone resilient search on a clean device.
fn standalone_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let mut driver = CudaSwDriver::new(spec(), search_config());
    driver
        .search_resilient(query, db, &RecoveryPolicy::default())
        .expect("clean standalone search")
        .result
        .scores
}

fn assert_exactly_once(report: &sw_serve::ServeReport, expected_ids: &[u64]) {
    let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let mut expected = expected_ids.to_vec();
    expected.sort_unstable();
    assert_eq!(ids, expected, "each admitted request answered exactly once");
}

#[test]
fn clean_run_answers_every_request_bit_identically() {
    let db = test_db();
    let trace = TraceConfig::small(12, 9).generate();
    let mut service = SearchService::new(&spec(), &serve_config(2), &db, &[]);
    let report = service.run_trace(&trace).unwrap();

    assert!(report.sheds.is_empty(), "no overload in a small trace");
    assert_exactly_once(&report, &trace.iter().map(|r| r.id).collect::<Vec<_>>());
    assert!(report.gcups() > 0.0);
    assert!(report.queries_per_second() > 0.0);
    assert!(!report.recovery.degraded);

    for resp in &report.responses {
        let req = trace.iter().find(|r| r.id == resp.id).unwrap();
        assert_eq!(
            resp.scores,
            standalone_scores(&req.query, &db),
            "request {} scores must match a standalone resilient search",
            resp.id
        );
        assert!(resp.latency_seconds >= 0.0);
    }
}

#[test]
fn wave_of_compatible_queries_stages_database_once() {
    let db = test_db();
    let devices = 2;
    let n = 6;
    let mut cfg = serve_config(devices);
    // One wave: room for all requests, generous linger.
    cfg.batch = BatchPolicy {
        max_wave: n,
        max_linger_seconds: 1.0,
        ..BatchPolicy::default()
    };
    let trace = TraceConfig {
        mean_interarrival_seconds: 1.0e-6,
        ..TraceConfig::small(n, 13)
    }
    .generate();

    // Expected staging H2D calls: one per inter-task group image plus one
    // per intra-task sequence image, per shard.
    let group_size = CudaSwDriver::new(spec(), search_config()).group_size();
    let staging_calls: usize = cudasw_core::multi_gpu::shard_database(&db, devices)
        .iter()
        .map(|shard| {
            let p = shard.partition(search_config().threshold);
            p.short.len().div_ceil(group_size.max(1)) + p.long.len()
        })
        .sum();

    let ((), obs_run) = obs::capture(|| {
        let mut service = SearchService::new(&spec(), &cfg, &db, &[]);
        let report = service.run_trace(&trace).unwrap();
        assert_eq!(report.waves, 1, "everything coalesced into one wave");
        assert_exactly_once(&report, &trace.iter().map(|r| r.id).collect::<Vec<_>>());
    });

    let h2d = obs_run.metrics.counter_sum("cudasw.gpu_sim.h2d.calls", &[]);
    // Per staged search exactly two H2D transfers: the packed profile and
    // the packed query residues. The database went up once per lane.
    let expected = staging_calls + devices * n * 2;
    assert_eq!(h2d as usize, expected, "database staged once per lane");
    assert_eq!(
        obs_run.metrics.counter_sum("cudasw.serve.db_stagings", &[]) as usize,
        devices
    );
}

#[test]
fn staged_database_survives_across_waves() {
    let db = test_db();
    let devices = 2;
    let cfg = serve_config(devices);
    let trace_a = TraceConfig::small(4, 21).generate();
    let trace_b = TraceConfig::small(3, 22).generate();

    let ((), obs_run) = obs::capture(|| {
        let mut service = SearchService::new(&spec(), &cfg, &db, &[]);
        service.run_trace(&trace_a).unwrap();
        let before = obs::snapshot_metrics();
        let report = service.run_trace(&trace_b).unwrap();
        let delta = obs::snapshot_metrics().diff(&before);
        // No re-staging for the second trace: per-query transfers only.
        assert_eq!(
            delta.counter_sum("cudasw.serve.db_stagings", &[]),
            0.0,
            "the resident database is reused across traces"
        );
        assert_eq!(
            delta.counter_sum("cudasw.gpu_sim.h2d.calls", &[]) as usize,
            devices * report.responses.len() * 2
        );
    });
    assert_eq!(
        obs_run.metrics.counter_sum("cudasw.serve.db_stagings", &[]) as usize,
        devices
    );
}

#[test]
fn faults_and_a_dead_shard_leave_scores_bit_identical() {
    let db = test_db();
    let devices = 3;
    let mut cfg = serve_config(devices);
    cfg.recovery = RecoveryPolicy {
        watchdog_cycles: Some(50_000_000),
        ..RecoveryPolicy::default()
    };
    // Lane 0 dies on its third launch; lane 1 suffers seeded random
    // transient/corruption faults; lane 2 is healthy.
    let plans = vec![
        FaultPlan::none().with_device_loss(FaultSite::Launch, 2),
        FaultPlan::random(0xFA17, FaultRates::default()),
        FaultPlan::none(),
    ];
    let trace = TraceConfig::small(8, 17).generate();

    let mut service = SearchService::new(&spec(), &cfg, &db, &plans);
    let report = service.run_trace(&trace).unwrap();

    assert_exactly_once(&report, &trace.iter().map(|r| r.id).collect::<Vec<_>>());
    assert!(service.lanes_alive() < devices, "lane 0 must be dead");
    assert!(
        report.recovery.shard_redispatches > 0 || report.recovery.cpu_fallback_seqs > 0,
        "the dead shard's work was taken over"
    );
    for resp in &report.responses {
        let req = trace.iter().find(|r| r.id == resp.id).unwrap();
        assert_eq!(
            resp.scores,
            standalone_scores(&req.query, &db),
            "request {} scores must survive faults bit-identically",
            resp.id
        );
    }
}

#[test]
fn overload_sheds_explicitly_and_serves_the_rest() {
    let db = test_db();
    let mut cfg = serve_config(2);
    cfg.admission = AdmissionConfig {
        queue_capacity: 3,
        tenant_quota: 2,
    };
    // A burst far faster than the service: most of it must shed.
    let trace = TraceConfig {
        mean_interarrival_seconds: 1.0e-9,
        ..TraceConfig::small(24, 29)
    }
    .generate();

    let mut service = SearchService::new(&spec(), &cfg, &db, &[]);
    let report = service.run_trace(&trace).unwrap();

    assert!(!report.sheds.is_empty(), "burst must shed");
    assert_eq!(report.responses.len() + report.sheds.len(), trace.len());
    assert!(report.shed_rate() > 0.0 && report.shed_rate() < 1.0);
    // Shed and served sets are disjoint and every shed has a reason.
    let served: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    for shed in &report.sheds {
        assert!(!served.contains(&shed.id));
    }
    // Served requests are still bit-identical.
    let resp = &report.responses[0];
    let req = trace.iter().find(|r| r.id == resp.id).unwrap();
    assert_eq!(resp.scores, standalone_scores(&req.query, &db));
}

#[test]
fn repeated_queries_are_each_answered_once_with_equal_scores() {
    let db = test_db();
    let cfg = serve_config(2);
    let params = SwParams::cudasw_default();
    let query = make_query(40, 5);
    // Four requests, two distinct queries, each asked twice.
    let trace: Vec<SearchRequest> = (0..4)
        .map(|id| SearchRequest {
            id,
            tenant: "t".to_string(),
            query: if id % 2 == 0 {
                query.clone()
            } else {
                make_query(52, 6)
            },
            params: params.clone(),
            arrival_seconds: id as f64 * 1.0e-4,
            deadline_seconds: id as f64 * 1.0e-4 + 1.0,
        })
        .collect();

    let mut service = SearchService::new(&spec(), &cfg, &db, &[]);
    let report = service.run_trace(&trace).unwrap();
    assert_exactly_once(&report, &[0, 1, 2, 3]);
    // The same query gets the same scores every time it is asked.
    let (a, b) = (
        report.responses.iter().find(|r| r.id == 0).unwrap(),
        report.responses.iter().find(|r| r.id == 2).unwrap(),
    );
    assert_eq!(a.scores, b.scores);
}

#[test]
fn deadline_misses_are_flagged_not_dropped() {
    let db = test_db();
    let cfg = serve_config(1);
    let params = SwParams::cudasw_default();
    // An impossible deadline: still served, flagged missed.
    let trace = vec![SearchRequest {
        id: 0,
        tenant: "t".to_string(),
        query: make_query(30, 3),
        params,
        arrival_seconds: 0.0,
        deadline_seconds: 0.0,
    }];
    let mut service = SearchService::new(&spec(), &cfg, &db, &[]);
    let report = service.run_trace(&trace).unwrap();
    assert_eq!(report.responses.len(), 1);
    assert!(report.responses[0].deadline_missed);
    assert!((report.deadline_miss_rate() - 1.0).abs() < 1e-12);
    assert_eq!(
        report.responses[0].scores,
        standalone_scores(&trace[0].query, &db)
    );
}

/// Re-dispatch and host fallback are recorded through the ledger's
/// writers, so under the service `cudasw.core.recovery.*` counts exactly
/// what `report.recovery` reports.
#[test]
fn the_registry_counts_what_the_ledger_reports() {
    let db = test_db();
    // Lane 0 dies at once, so its shard is re-dispatched to lane 1; lane 1
    // dies later in the trace, so what is left runs on the host.
    let plans = vec![
        FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        FaultPlan::none().with_device_loss(FaultSite::Launch, 30),
    ];
    let trace = TraceConfig::small(8, 23).generate();
    let (report, run) = obs::capture(|| {
        let mut service = SearchService::new(&spec(), &serve_config(2), &db, &plans);
        service.run_trace(&trace).unwrap()
    });
    let ledger = &report.recovery;
    let counter = |name: &str| run.metrics.counter_sum(name, &[]) as u64;
    assert!(ledger.shard_redispatches > 0 && ledger.cpu_fallback_seqs > 0);
    assert_eq!(
        counter("cudasw.core.recovery.shard_redispatches"),
        ledger.shard_redispatches
    );
    assert_eq!(
        counter("cudasw.core.recovery.cpu_fallback_seqs"),
        ledger.cpu_fallback_seqs
    );
    assert_eq!(counter("cudasw.core.recovery.retries"), ledger.retries);
}

/// Gap penalties outside `2^30 ≥ open ≥ extend ≥ 0` are shed before a lane
/// builds an engine that would panic on them; the rest is served.
#[test]
fn illegal_gap_penalties_are_shed_at_admission() {
    let db = test_db();
    let mut trace = TraceConfig::small(6, 31).generate();
    trace[1].params.gaps.open = 1; // below extend
    trace[4].params.gaps.extend = -1;
    let (report, run) = obs::capture(|| {
        let mut service = SearchService::new(&spec(), &serve_config(2), &db, &[]);
        service.run_trace(&trace).unwrap()
    });
    let shed: Vec<_> = report.sheds.iter().map(|s| (s.id, s.reason)).collect();
    let invalid = sw_serve::ShedReason::InvalidParams;
    assert_eq!(shed, [(trace[1].id, invalid), (trace[4].id, invalid)]);
    let served: Vec<u64> = [0, 2, 3, 5].iter().map(|&i| trace[i].id).collect();
    assert_exactly_once(&report, &served);
    let label = [("reason", "invalid_params")];
    assert_eq!(run.metrics.counter_sum("cudasw.serve.shed", &label), 2.0);
}

/// A query code outside the scoring matrix is shed at admission, before a
/// lane builds the profile that would index past the matrix; every other
/// request is served once, with its standalone scores.
#[test]
fn query_codes_outside_the_matrix_are_shed_at_admission() {
    let db = test_db();
    let mut trace = TraceConfig::small(5, 31).generate();
    trace[2].query[0] = 200;
    let (report, run) = obs::capture(|| {
        let mut service = SearchService::new(&spec(), &serve_config(2), &db, &[]);
        service.run_trace(&trace).unwrap()
    });
    let shed: Vec<_> = report.sheds.iter().map(|s| (s.id, s.reason)).collect();
    assert_eq!(shed, [(trace[2].id, sw_serve::ShedReason::InvalidParams)]);
    let served: Vec<u64> = [0, 1, 3, 4].iter().map(|&i| trace[i].id).collect();
    assert_exactly_once(&report, &served);
    for resp in &report.responses {
        let req = trace.iter().find(|r| r.id == resp.id).unwrap();
        assert_eq!(
            resp.scores,
            standalone_scores(&req.query, &db),
            "{}",
            req.id
        );
    }
    let label = [("reason", "invalid_params")];
    assert_eq!(run.metrics.counter_sum("cudasw.serve.shed", &label), 1.0);
}
