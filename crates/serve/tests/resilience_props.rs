//! Property tests for the service's resilience layer.
//!
//! Two contracts the breaker/hedging machinery must never break:
//!
//! * **Exactly one terminal outcome.** Whatever faults hit the lanes —
//!   random transient storms, bursts, device loss with or without a
//!   revival schedule — every offered request ends up answered exactly
//!   once or shed exactly once, never both, never lost, and answered
//!   requests carry full-database, bit-identical scores.
//! * **No spontaneous breaker trips.** A lane's breaker moves
//!   `Closed → Open` only in the same observation as a failure signal
//!   (a faulted wave or a lane death). Clean waves, latency samples,
//!   admission checks, and revivals never open a closed breaker.

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use proptest::prelude::*;
use sw_db::synth::database_with_lengths;
use sw_serve::{
    BreakerState, HealthPolicy, HealthTracker, SearchService, ServeConfig, TraceConfig,
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

fn site(i: u64) -> FaultSite {
    match i % 4 {
        0 => FaultSite::Alloc,
        1 => FaultSite::Launch,
        2 => FaultSite::HostToDevice,
        _ => FaultSite::DeviceToHost,
    }
}

/// One lane's randomized fault schedule from raw generated parts.
fn plan(raw: (u8, u64, u64, u8)) -> FaultPlan {
    let (kind, seed, idx, probes) = raw;
    match kind % 5 {
        0 => FaultPlan::none(),
        1 => FaultPlan::random(seed, FaultRates::default()),
        2 => FaultPlan::none().with_device_loss(site(idx), idx % 6),
        3 => FaultPlan::none().with_device_loss_recovery(site(idx), idx % 6, u32::from(probes % 3)),
        _ => FaultPlan::random(seed, FaultRates::default()).with_fault_burst(
            idx % 32,
            idx % 32 + 40,
            FaultRates {
                transient: 0.3,
                launch_hang: 0.0,
                corruption: 0.05,
            },
            seed ^ 0x5eed,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Every offered request gets exactly one terminal outcome, and every
    // answer is bit-identical to a clean standalone search, under
    // arbitrary per-lane fault schedules (breaker trips, revival probes,
    // budget denials and all).
    #[test]
    fn every_request_gets_exactly_one_terminal_outcome(
        n_requests in 1usize..=5,
        trace_seed in 0u64..1000,
        devices in 1usize..=3,
        lane_raw in proptest::collection::vec((0u8..=4, 0u64..10_000, 0u64..32, 0u8..3), 3),
    ) {
        let db = database_with_lengths(
            "props-db",
            &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
            71,
        );
        let cfg = ServeConfig {
            devices,
            search: search_config(),
            recovery: RecoveryPolicy {
                watchdog_cycles: Some(50_000_000),
                ..RecoveryPolicy::default()
            },
            ..ServeConfig::default()
        };
        let plans: Vec<FaultPlan> = lane_raw.iter().take(devices).map(|&r| plan(r)).collect();
        let trace = TraceConfig::small(n_requests, trace_seed).generate();

        let report = obs::capture(|| {
            let mut service = SearchService::new(&spec(), &cfg, &db, &plans);
            service.run_trace(&trace).unwrap()
        }).0;

        // Terminal outcomes partition the trace: each id exactly once.
        let mut outcomes: Vec<u64> = report
            .responses
            .iter()
            .map(|r| r.id)
            .chain(report.sheds.iter().map(|s| s.id))
            .collect();
        outcomes.sort_unstable();
        let mut expected: Vec<u64> = trace.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(&outcomes, &expected, "one terminal outcome per request");

        // Answered requests carry complete, bit-identical scores.
        for resp in &report.responses {
            prop_assert_eq!(resp.scores.len(), db.len());
            let req = trace.iter().find(|r| r.id == resp.id).unwrap();
            let reference = obs::capture(|| {
                let mut driver = CudaSwDriver::new(spec(), search_config());
                driver
                    .search_resilient(&req.query, &db, &RecoveryPolicy::default())
                    .unwrap()
                    .result
                    .scores
            }).0;
            prop_assert_eq!(&resp.scores, &reference, "request {} scores", resp.id);
        }
    }

    // The breaker never moves `Closed → Open` without a failure signal in
    // the same observation, across arbitrary op interleavings.
    #[test]
    fn breaker_never_opens_from_closed_without_a_failure(
        ops in proptest::collection::vec((0u8..=4, 0.0f64..0.1), 1..120),
    ) {
        obs::capture(|| {
            let mut t = HealthTracker::new(2, HealthPolicy::default());
            let mut now = 0.0;
            for &(op, dt) in &ops {
                now += dt;
                for lane in 0..2 {
                    let before = t.lane(lane).state;
                    let failure = match op {
                        0 => {
                            t.observe_wave(lane, false, now);
                            false
                        }
                        1 => {
                            t.observe_wave(lane, true, now);
                            true
                        }
                        2 => {
                            t.observe_death(lane, now);
                            true
                        }
                        3 => {
                            t.admits(lane, now);
                            false
                        }
                        _ => {
                            t.note_revival(lane, now);
                            false
                        }
                    };
                    let after = t.lane(lane).state;
                    if before == BreakerState::Closed && after == BreakerState::Open {
                        assert!(failure, "closed breaker opened on a non-failure op {op}");
                    }
                }
            }
        });
    }
}
