//! Exactly-once resolution under each open-loop arrival shape: a steady,
//! a bursty and an overload schedule, replayed in real time into a gateway
//! with one gpu-sim lane plus the host lane, must account for every
//! request once — offered = served + shed + aborted, nothing aborted by a
//! graceful drain, no duplicate commit, one [`Outcome`] per ticket — and
//! the overload schedule must shed explicitly. A closed loop on the host
//! lane alone then forms multi-request waves — each one pool job — and
//! every reply must equal a direct search, and a request with illegal gap
//! penalties or a query code outside its matrix is shed before a lane runs
//! it. A database with fewer sequences than lanes leaves a shard empty:
//! whether the host lane scores its own empty shard or is owed one, every
//! request resolves once with the direct search's scores. Nothing here
//! reads a latency or a rate: wall-clock serving numbers are the repo
//! benchmark's (`serve_steady`, `serve_small`).

mod loadgen;

use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
use loadgen::{drive, LoadConfig, LoadProfile};
use std::time::Duration;
use sw_align::GapPenalties;
use sw_db::synth::database_with_lengths;
use sw_db::Database;
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

/// Gap penalties with `extend > open` would make the host lane's engine
/// build panic, outside the pool's chunk quarantine: the machine sheds the
/// request at admission, so no lane runs it, and the ticket resolves
/// (under a timeout, so a lost request fails instead of hanging).
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

/// A query code past the matrix would index outside it while a lane builds
/// its profile: the gateway sheds that request at admission and serves the
/// rest.
#[test]
fn a_query_code_outside_the_matrix_is_shed_and_the_rest_served() {
    let db = database_with_lengths("foreign-db", &[20, 40, 60], 71);
    let cfg = GatewayConfig {
        devices: 1,
        ..GatewayConfig::default()
    };
    let mut schedule = LoadConfig::small(3, 0x4643).schedule();
    schedule[1].query[0] = 200;
    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, &[]);
    for (i, req) in schedule.iter().enumerate() {
        let (outcome, extra) = gateway.submit(req.clone()).wait_counting_duplicates();
        assert_eq!(extra, 0, "request {}: one Outcome per ticket", req.id);
        match outcome {
            Outcome::Shed(ShedReason::InvalidParams) if i == 1 => {}
            Outcome::Served(resp) if i != 1 => {
                assert_eq!(resp.scores, direct_scores(&db, req), "request {}", req.id)
            }
            other => panic!("request {}: {other:?}", req.id),
        }
    }
    let report = gateway.shutdown();
    assert_eq!((report.sheds.len(), report.responses.len()), (1, 2));
    let label = [("reason", "invalid_params")];
    assert_eq!(report.metrics.counter("cudasw.serve.shed", &label), 1.0);
}

/// Two sequences over `devices + 1 ≥ 3` lanes leave the host lane's own
/// shard empty; with `plans`, the device lanes fail as planned and owe
/// their shards to the host lane. Every request resolves once, with the
/// direct search's scores.
fn serve_over_an_empty_shard(devices: usize, plans: &[FaultPlan]) -> ServeReport {
    let db = database_with_lengths("empty-shard-db", &[30, 50], 71);
    let cfg = GatewayConfig {
        devices,
        host_threads: 2,
        ..GatewayConfig::default()
    };
    let schedule = LoadConfig::small(6, 0x4553).schedule();
    let gateway = Gateway::start(&DeviceSpec::tesla_c1060(), &cfg, &db, plans);
    for req in &schedule {
        let (outcome, extra) = gateway.submit(req.clone()).wait_counting_duplicates();
        assert_eq!(extra, 0, "request {}: one Outcome per ticket", req.id);
        let Outcome::Served(resp) = outcome else {
            panic!("request {} was not served: {outcome:?}", req.id);
        };
        assert_eq!(resp.scores, direct_scores(&db, req), "request {}", req.id);
    }
    let report = gateway.shutdown();
    assert_eq!(report.responses.len(), schedule.len());
    assert!(report.sheds.is_empty() && report.aborted.is_empty());
    report
}

#[test]
fn an_empty_host_shard_serves_every_request_once() {
    serve_over_an_empty_shard(2, &[]);
}

#[test]
fn an_empty_shard_owed_to_the_host_serves_every_request_once() {
    // Three device lanes over two sequences: device lane 2's shard is
    // empty too, and every device is lost at its first allocation.
    let lost = FaultPlan::none().with_device_loss(FaultSite::Alloc, 0);
    let report = serve_over_an_empty_shard(3, &[lost.clone(), lost.clone(), lost]);
    let deaths = report.metrics.counter("cudasw.gateway.lane_deaths", &[]);
    let owed = report.metrics.counter("cudasw.gateway.owed_to_host", &[]);
    assert_eq!(deaths, 3.0, "the lane of the empty shard died too");
    assert!(owed >= 3.0, "every device lane owes its shard: {owed}");
}

/// The direct host search of `req` over the whole database.
fn direct_scores(db: &Database, req: &sw_serve::SearchRequest) -> Vec<i32> {
    let engine = QueryEngine::new(req.params.clone(), &req.query);
    search_sequences(&engine, db.sequences(), 1, Precision::Adaptive).scores
}
