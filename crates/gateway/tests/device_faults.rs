//! The gateway's device lanes under injected device faults — the only
//! suite that hands [`Gateway::start`] a non-empty `plans`. Lane 0 loses
//! its device at its third kernel launch; lane 1 runs on a noticeably
//! unreliable device for the whole test. Every request must still be
//! served, bit-identically to a direct search, with the lost lane's shard
//! work owed to the host lane and every ticket resolved once.

mod loadgen;

use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use loadgen::LoadConfig;
use sw_db::synth::database_with_lengths;
use sw_gateway::{Gateway, GatewayConfig, Outcome};
use sw_simd::{search_sequences, Precision, QueryEngine};

#[test]
fn device_loss_and_random_faults_are_absorbed_bit_identically() {
    let lens: Vec<usize> = (0..30).map(|i| 20 + (i * 37) % 140).collect();
    let db = database_with_lengths("device-faults-db", &lens, 71);
    let cfg = GatewayConfig {
        devices: 2,
        host_threads: 1,
        ..GatewayConfig::default()
    };
    let plans = [
        FaultPlan::none().with_device_loss(FaultSite::Launch, 2),
        FaultPlan::random(0xFA17, FaultRates::default()),
    ];
    let schedule = LoadConfig::small(12, 0x4446).schedule();

    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &plans);
    for req in &schedule {
        let (outcome, extra) = gateway.submit(req.clone()).wait_counting_duplicates();
        assert_eq!(extra, 0, "request {}: one Outcome per ticket", req.id);
        let Outcome::Served(resp) = outcome else {
            panic!("request {} was not served", req.id);
        };
        let engine = QueryEngine::new(req.params.clone(), &req.query);
        let direct = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
        assert_eq!(resp.scores, direct.scores, "request {}", req.id);
    }
    let report = gateway.shutdown();

    assert_eq!(report.responses.len(), schedule.len());
    assert!(report.sheds.is_empty() && report.aborted.is_empty());
    assert!(report.lane_deaths >= 1, "lane 0 lost its device");
    assert!(
        report.owed_to_host >= 1,
        "the dead lane's shard work goes to the host lane"
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
}
