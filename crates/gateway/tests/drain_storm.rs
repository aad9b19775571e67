//! Drain under a host-stall storm: shutdown must stay bounded even when
//! the host lane's fault plan stalls chunks, because the forced-drain
//! path cancels in-flight and queued host chunks through the PR 8
//! [`sw_simd::CancelToken`] (the crash-only pool polls it at every chunk
//! start, *before* the injected stall sleep). The exactly-once contract
//! holds throughout: offered = served + shed + aborted, every ticket
//! resolves once. A wave is one pool job, so a cancel landing inside a
//! multi-request wave serves none of its requests: every ticket of the
//! wave resolves `Aborted`, once.

mod loadgen;

use cudasw_core::{CudaSwConfig, ImprovedParams};
use gpu_sim::DeviceSpec;
use loadgen::{drive, LoadConfig};
use std::time::Instant;
use sw_db::synth::database_with_lengths;
use sw_gateway::{Gateway, GatewayConfig, Outcome};
use sw_serve::BatchPolicy;
use sw_simd::{HostFaultPlan, HostFaultRates};

/// Most chunks sleep 150 ms before computing.
fn stall_storm() -> HostFaultPlan {
    HostFaultPlan::random(
        0xD5A1,
        HostFaultRates {
            panic: 0.0,
            stall: 0.9,
            alloc_fail: 0.0,
        },
    )
    .with_stall_ms(150)
}

#[test]
fn forced_drain_cancels_stalled_host_chunks_and_resolves_every_ticket() {
    let db = database_with_lengths(
        "storm-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    );
    // Stall storm on the host lane. With a ~0.2 s drain grace, queued
    // waves cannot finish politely — shutdown must take the cancel path.
    let stall_plan = stall_storm();
    let cfg = GatewayConfig {
        devices: 1,
        host_threads: 1,
        search: CudaSwConfig {
            threshold: 100,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            ..CudaSwConfig::improved()
        },
        host_faults: stall_plan,
        drain_grace_seconds: 0.2,
        ..GatewayConfig::default()
    };
    // A quick burst of submissions, then immediate shutdown while the
    // stalled host lane still owes most of its shard parts.
    let schedule = LoadConfig {
        mean_interarrival_seconds: 1.0e-4,
        deadline_slack_seconds: (30.0, 60.0),
        ..LoadConfig::small(30, 77)
    }
    .schedule();

    let started = Instant::now();
    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &schedule);
    let report = gateway.shutdown();
    let elapsed = started.elapsed().as_secs_f64();

    // Bounded shutdown: the grace is 0.2 s and a cancelled chunk exits at
    // its first poll; nothing waits out 30 × 150 ms of stalls serially.
    assert!(
        elapsed < 15.0,
        "drain must be bounded under a stall storm, took {elapsed:.1}s"
    );
    assert!(
        report.forced_cancel,
        "a 0.2s grace under 150ms stalls must force-cancel"
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.drain.forced_cancels", &[]),
        1.0
    );

    // Exactly-once accounting across the storm.
    assert_eq!(
        report.offered(),
        schedule.len(),
        "served {} + shed {} + aborted {} must equal offered {}",
        report.responses.len(),
        report.sheds.len(),
        report.aborted.len(),
        schedule.len()
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
    let mut resolved = 0usize;
    for t in tickets {
        let (outcome, extra) = t.wait_counting_duplicates();
        assert_eq!(extra, 0, "no ticket resolves twice");
        match outcome {
            Outcome::Served(resp) => assert!(resp.latency_seconds >= 0.0),
            Outcome::Shed(_) | Outcome::Aborted => {}
        }
        resolved += 1;
    }
    assert_eq!(resolved, schedule.len());
    // The storm actually aborted something (otherwise the test proves
    // nothing about cancellation).
    assert!(
        !report.aborted.is_empty(),
        "expected in-flight or queued work to be cut short"
    );
}

/// Eight requests submitted at once ride one wave (it dispatches when
/// full); its single pool job stalls chunk after chunk, so the 0.2 s drain
/// grace expires inside it. The cancelled job returns no score for any
/// query, and all eight tickets resolve `Aborted`, exactly once.
#[test]
fn forced_cancel_inside_a_multi_request_wave_aborts_all_of_its_tickets_once() {
    const WAVE: usize = 8;
    let db = database_with_lengths(
        "storm-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    );
    let cfg = GatewayConfig {
        devices: 0,
        host_threads: 1,
        batch: BatchPolicy {
            max_wave: WAVE,
            max_linger_seconds: 1.0,
            ..BatchPolicy::default()
        },
        host_faults: stall_storm(),
        drain_grace_seconds: 0.2,
        ..GatewayConfig::default()
    };
    let schedule = LoadConfig {
        mean_interarrival_seconds: 1.0e-5,
        deadline_slack_seconds: (30.0, 60.0),
        ..LoadConfig::small(WAVE, 78)
    }
    .schedule();

    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &schedule);
    let report = gateway.shutdown();

    assert_eq!(report.waves, 1, "the burst must have formed one wave");
    assert!(report.forced_cancel, "the grace expired inside the wave");
    assert!(
        report.responses.is_empty(),
        "a cancelled wave serves nobody"
    );
    assert_eq!(
        report.makespan_seconds, 0.0,
        "the span ends at the last served response, and none was served"
    );
    assert_eq!(report.aborted.len(), WAVE);
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
    for t in tickets {
        let (outcome, extra) = t.wait_counting_duplicates();
        assert_eq!(extra, 0, "no ticket resolves twice");
        assert!(matches!(outcome, Outcome::Aborted));
    }
}
