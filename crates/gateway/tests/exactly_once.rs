//! Exactly-once resolution under each open-loop arrival shape: a steady,
//! a bursty and an overload schedule, replayed in real time into a gateway
//! with one gpu-sim lane plus the host lane, must account for every
//! request once — offered = served + shed + aborted, nothing aborted by a
//! graceful drain, no duplicate commit, one [`Outcome`] per ticket — and
//! the overload schedule must shed explicitly. Nothing here reads a
//! latency or a rate: wall-clock serving numbers are the repo benchmark's
//! (`serve_steady`, `serve_small`).

use gpu_sim::DeviceSpec;
use sw_db::synth::database_with_lengths;
use sw_gateway::loadgen::drive;
use sw_gateway::{Gateway, GatewayConfig, GatewayReport, LoadConfig, LoadProfile, Outcome};
use sw_serve::ShedReason;

const REQUESTS: usize = 300;

/// Replay one `profile` schedule, drain gracefully, and check the
/// exactly-once ledger against the tickets.
fn replay(profile: LoadProfile) -> GatewayReport {
    let db = database_with_lengths(
        "exactly-once-db",
        &[20, 30, 40, 50, 60, 80, 100, 110, 120, 150],
        71,
    );
    let cfg = GatewayConfig {
        devices: 1,
        host_threads: 1,
        drain_grace_seconds: 30.0,
        ..GatewayConfig::default()
    };
    let schedule = LoadConfig {
        profile,
        mean_interarrival_seconds: 1.0e-3,
        query_len: (16, 32),
        ..LoadConfig::small(REQUESTS, 0x52_54)
    }
    .schedule();

    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &schedule);
    let report = gateway.shutdown();

    let name = profile.as_str();
    assert_eq!(
        report.offered(),
        REQUESTS,
        "{name}: served {} + shed {} + aborted {}",
        report.responses.len(),
        report.sheds.len(),
        report.aborted.len(),
    );
    assert!(
        report.aborted.is_empty(),
        "{name}: a graceful drain aborts nothing"
    );
    assert!(
        !report.forced_cancel,
        "{name}: the drain grace was not needed"
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0,
        "{name}: exactly-once commit discipline"
    );
    let (mut served, mut shed) = (0usize, 0usize);
    for t in tickets {
        let (outcome, extra) = t.wait_counting_duplicates();
        assert_eq!(extra, 0, "{name}: no ticket resolves twice");
        match outcome {
            Outcome::Served(resp) => {
                assert_eq!(resp.scores.len(), db.len());
                served += 1;
            }
            Outcome::Shed(_) => shed += 1,
            Outcome::Aborted => panic!("{name}: a ticket was aborted"),
        }
    }
    assert_eq!(
        (served, shed),
        (report.responses.len(), report.sheds.len()),
        "{name}: tickets and report agree"
    );
    report
}

#[test]
fn steady_schedule_resolves_every_request_once() {
    replay(LoadProfile::Steady);
}

#[test]
fn bursty_schedule_resolves_every_request_once() {
    replay(LoadProfile::Bursty);
}

#[test]
fn overload_schedule_sheds_with_a_reason_and_resolves_every_request_once() {
    let report = replay(LoadProfile::Overload);
    assert!(
        !report.sheds.is_empty(),
        "arrivals at 8x the steady rate must be shed, not queued without bound"
    );
    // The deadline-expiry mode is off, so admission is the only shedder.
    for s in &report.sheds {
        assert!(
            matches!(s.reason, ShedReason::QueueFull | ShedReason::TenantQuota),
            "request {} shed for {}",
            s.id,
            s.reason.as_str()
        );
    }
}
