//! Hedged dispatch, end to end: the one suite where `issue_hedge` and
//! `commit_hedge` run. Lane 0 of three sits on a device that fails 4% of
//! its operations transiently; a generous retry budget keeps it alive and
//! a breaker that cannot open keeps it in rotation, so the retries'
//! backoff makes it a straggler and its queries get a speculative host
//! twin. The first finisher's result stands, and whichever it is the
//! answer is the standalone search's.

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates};
use sw_db::synth::database_with_lengths;
use sw_serve::{HealthPolicy, SearchService, ServeConfig, TraceConfig};

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

#[test]
fn a_straggling_lane_is_hedged_and_the_host_wins_bit_identically() {
    let spec = DeviceSpec::tesla_c1060();
    let db = database_with_lengths(
        "hedge-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    );
    let cfg = ServeConfig {
        devices: 3,
        search: search_config(),
        recovery: RecoveryPolicy {
            max_retries: 8,
            ..RecoveryPolicy::default()
        },
        health: HealthPolicy {
            open_after_consecutive: u32::MAX,
            open_fault_score: 2.0,
            ..HealthPolicy::default()
        },
        ..ServeConfig::default()
    };
    let flaky = FaultRates {
        transient: 0.04,
        launch_hang: 0.0,
        corruption: 0.0,
    };
    let plans = [FaultPlan::random(7, flaky)];
    let trace = TraceConfig::small(40, 9).generate();

    let (report, run) = obs::capture(|| {
        let mut service = SearchService::new(&spec, &cfg, &db, &plans);
        service.run_trace(&trace).unwrap()
    });

    let issued = run.metrics.counter("cudasw.serve.hedge.issued", &[]);
    let host_wins = run
        .metrics
        .counter("cudasw.serve.hedge.wins", &[("winner", "host")]);
    let lane_wins = run
        .metrics
        .counter("cudasw.serve.hedge.wins", &[("winner", "lane")]);
    assert!(issued > 0.0, "the straggling lane was never hedged");
    assert!(host_wins > 0.0, "no hedge finished first");
    assert_eq!(issued, host_wins + lane_wins, "every hedge is settled once");
    assert!(
        report.recovery.degraded,
        "a host win marks the wave degraded"
    );

    assert!(report.sheds.is_empty());
    let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
    let mut clean = CudaSwDriver::new(spec.clone(), search_config());
    for resp in &report.responses {
        let req = &trace[resp.id as usize];
        let standalone = clean
            .search_resilient(&req.query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(resp.scores, standalone.result.scores, "request {}", resp.id);
    }
}
