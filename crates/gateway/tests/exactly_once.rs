//! Exactly-once resolution under each open-loop arrival shape: a steady,
//! a bursty and an overload schedule, replayed in real time into a gateway
//! with one gpu-sim lane plus the host lane, must account for every
//! request once — offered = served + shed + aborted, nothing aborted by a
//! graceful drain, no duplicate commit, one [`Outcome`] per ticket — and
//! the overload schedule must shed explicitly. A closed loop on the host
//! lane alone then forms multi-request waves — each one pool job — and
//! every reply must equal a direct search, and a request with illegal gap
//! penalties is shed before a lane runs it. Nothing here reads a latency
//! or a rate: wall-clock serving numbers are the repo benchmark's
//! (`serve_steady`, `serve_small`).

mod loadgen;

use gpu_sim::DeviceSpec;
use loadgen::{drive, LoadConfig, LoadProfile};
use std::time::Duration;
use sw_align::GapPenalties;
use sw_db::synth::database_with_lengths;
use sw_gateway::{Gateway, GatewayConfig, Outcome};
use sw_serve::{BatchPolicy, ServeReport, ShedReason};
use sw_simd::{search_sequences, Precision, QueryEngine};

const REQUESTS: usize = 300;

/// Replay one `profile` schedule, drain gracefully, and check the
/// exactly-once ledger against the tickets.
fn replay(profile: LoadProfile) -> ServeReport {
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

/// Closed loop, host lane only: four clients each send their next request
/// on the reply, so replies and resubmissions move in step and the batcher
/// coalesces them. A multi-request wave is one database-major pool job;
/// whichever wave a request rode in, its reply is the direct search's.
#[test]
fn closed_loop_waves_reply_exactly_and_exactly_once() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;
    let lens: Vec<usize> = (0..40).map(|i| 20 + (i * 37) % 140).collect();
    let db = database_with_lengths("closed-loop-db", &lens, 71);
    let cfg = GatewayConfig {
        devices: 0,
        host_threads: 2,
        batch: BatchPolicy {
            max_wave: 16,
            ..BatchPolicy::default()
        },
        ..GatewayConfig::default()
    };
    let schedule = LoadConfig::small(CLIENTS * PER_CLIENT, 0x434C).schedule();

    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    std::thread::scope(|scope| {
        for mine in schedule.chunks(PER_CLIENT) {
            let handle = gateway.handle();
            let db = &db;
            scope.spawn(move || {
                for req in mine {
                    let (outcome, extra) = handle.submit(req.clone()).wait_counting_duplicates();
                    assert_eq!(extra, 0, "request {}: one Outcome per ticket", req.id);
                    let Outcome::Served(resp) = outcome else {
                        panic!("request {} was not served", req.id);
                    };
                    let engine = QueryEngine::new(req.params.clone(), &req.query);
                    let direct = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive);
                    assert_eq!(resp.scores, direct.scores, "request {}", req.id);
                }
            });
        }
    });
    let report = gateway.shutdown();

    assert_eq!(report.responses.len(), schedule.len());
    assert!(report.sheds.is_empty() && report.aborted.is_empty());
    assert!(
        report.waves < schedule.len() as u64,
        "{} waves for {} requests: no wave held more than one",
        report.waves,
        schedule.len()
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
}

/// Gap penalties with `extend > open` make the host lane's engine build
/// panic, outside the pool's chunk quarantine. The lane reports the part
/// unserved, the machine owes it once and then aborts it: the ticket
/// resolves (under a timeout, so a lost request fails instead of hanging).
#[test]
fn an_illegal_gap_model_is_shed_before_any_lane_runs() {
    let db = database_with_lengths("panic-db", &[20, 40, 60], 71);
    let cfg = GatewayConfig {
        devices: 0,
        ..GatewayConfig::default()
    };
    let mut req = LoadConfig::small(1, 0x5041).schedule().remove(0);
    req.params.gaps = GapPenalties { open: 1, extend: 2 };
    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    let ticket = gateway.submit(req);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(ticket.wait()));
    let outcome = rx.recv_timeout(Duration::from_secs(20));
    let shed = matches!(outcome, Ok(Outcome::Shed(ShedReason::InvalidParams)));
    assert!(shed, "{outcome:?}");
    let report = gateway.shutdown();
    assert_eq!((report.sheds.len(), report.waves), (1, 0), "no lane ran it");
}
