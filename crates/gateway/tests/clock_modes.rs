//! Both-clock-modes contract: the wall-clock gateway and the simulated
//! service give **bit-identical answers** for the same queries.
//!
//! Scores are exact integer Smith-Waterman scores on every engine and
//! every path (device kernels, host SIMD, owed re-dispatch), so the
//! clock — simulated or monotonic — must not change a single score.
//! Timing-dependent *policy* outcomes (which wave a request lands in,
//! queueing latency) legitimately differ between modes; correctness
//! outcomes (scores, exactly-once resolution, shed-free under light
//! load) must not.

mod loadgen;

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, RecoveryPolicy};
use gpu_sim::DeviceSpec;
use loadgen::drive;
use sw_db::synth::database_with_lengths;
use sw_db::Database;
use sw_gateway::{Gateway, GatewayConfig, Outcome};
use sw_serve::{SearchService, ServeConfig, TraceConfig};

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

fn test_db() -> Database {
    database_with_lengths(
        "gateway-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    )
}

/// Ground truth: a standalone resilient search on a clean device.
fn standalone_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let mut driver = CudaSwDriver::new(spec(), search_config());
    driver
        .search_resilient(query, db, &RecoveryPolicy::default())
        .expect("clean standalone search")
        .result
        .scores
}

#[test]
fn wall_and_simulated_clocks_give_bit_identical_answers() {
    let db = test_db();
    // Light load, generous deadlines: both modes must be shed-free so
    // the answer sets line up one-to-one.
    let trace = TraceConfig {
        mean_interarrival_seconds: 2.0e-3,
        deadline_slack_seconds: (30.0, 60.0),
        tenants: vec!["tenant-a".into(), "tenant-b".into()],
        ..TraceConfig::small(24, 9)
    }
    .generate();

    // Simulated-clock mode: the discrete-event service, 2 device lanes.
    let sim_cfg = ServeConfig {
        devices: 2,
        search: search_config(),
        ..ServeConfig::default()
    };
    let mut service = SearchService::new(&spec(), &sim_cfg, &db, &[]);
    let sim = service.run_trace(&trace).expect("sim run");
    assert!(
        sim.sheds.is_empty(),
        "sim must be shed-free under light load"
    );

    // Wall-clock mode: the gateway, 2 device lanes + the host lane.
    let gw_cfg = GatewayConfig {
        devices: 2,
        host_threads: 1,
        search: search_config(),
        drain_grace_seconds: 60.0,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(&spec(), &gw_cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &trace);
    let mut wall_scores = std::collections::HashMap::new();
    let mut duplicates = 0usize;
    for t in tickets {
        let id = t.id();
        let (outcome, extra) = t.wait_counting_duplicates();
        duplicates += extra;
        match outcome {
            Outcome::Served(resp) => {
                assert_eq!(resp.id, id);
                assert!(resp.latency_seconds >= 0.0);
                assert!(!resp.deadline_missed, "generous deadlines never miss");
                let prev = wall_scores.insert(id, resp.scores);
                assert!(prev.is_none(), "request {id} answered twice");
            }
            other => panic!("request {id} not served under light load: {other:?}"),
        }
    }
    assert_eq!(duplicates, 0, "exactly-once: no duplicate resolutions");
    let report = gateway.shutdown();
    assert!(report.sheds.is_empty(), "gateway must be shed-free too");
    assert!(report.aborted.is_empty(), "graceful drain aborts nothing");
    assert!(!report.forced_cancel);
    assert_eq!(report.responses.len(), trace.len());
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
    assert!(report.gcups() > 0.0);
    // End-to-end latency landed in the shared serving histogram.
    let hist = report
        .metrics
        .histogram("cudasw.serve.latency_seconds", &[])
        .expect("latency histogram recorded");
    assert_eq!(hist.count, trace.len() as u64);
    assert_eq!(hist.bounds, obs::LATENCY_SECONDS_BOUNDS);

    // The contract: per-request scores agree across clock modes, and
    // both agree with the standalone ground truth.
    assert_eq!(sim.responses.len(), trace.len());
    for resp in &sim.responses {
        let wall = &wall_scores[&resp.id];
        assert_eq!(
            &resp.scores, wall,
            "request {}: simulated and wall-clock scores must be bit-identical",
            resp.id
        );
        let req = trace.iter().find(|r| r.id == resp.id).expect("trace id");
        assert_eq!(
            wall,
            &standalone_scores(&req.query, &db),
            "request {}: gateway scores must match standalone ground truth",
            resp.id
        );
    }
}

#[test]
fn deterministic_shed_decisions_match_under_saturated_admission() {
    // Saturate the *admission queue*, the clock-independent part of
    // shedding: with a zero-capacity tenant quota every request sheds
    // with the same reason in both modes, regardless of timing.
    let db = test_db();
    let trace = TraceConfig::small(6, 21).generate();
    let admission = sw_serve::AdmissionConfig {
        queue_capacity: 256,
        tenant_quota: 0,
    };

    let sim_cfg = ServeConfig {
        devices: 1,
        search: search_config(),
        admission: admission.clone(),
        ..ServeConfig::default()
    };
    let mut service = SearchService::new(&spec(), &sim_cfg, &db, &[]);
    let sim = service.run_trace(&trace).expect("sim run");
    assert_eq!(sim.sheds.len(), trace.len());

    let gw_cfg = GatewayConfig {
        devices: 1,
        search: search_config(),
        admission,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(&spec(), &gw_cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &trace);
    for t in tickets {
        match t.wait() {
            Outcome::Shed(reason) => assert_eq!(reason, sw_serve::ShedReason::TenantQuota),
            other => panic!("expected shed, got {other:?}"),
        }
    }
    let report = gateway.shutdown();
    assert_eq!(report.sheds.len(), trace.len());
    assert!(sim
        .sheds
        .iter()
        .zip(report.sheds.iter())
        .all(|(a, b)| a.reason == b.reason));
}
