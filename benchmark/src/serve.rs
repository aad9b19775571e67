//! `serve_steady` and `serve_small`: the wall-clock gateway with only its
//! host lane (`devices: 0`), so no simulator time leaks into a wall-clock
//! number.
//!
//! `serve_steady` is an open loop (independent users on a seeded Poisson
//! schedule, latency counted from the instant a request was due);
//! `serve_small` is a closed loop of `nproc` clients over a smaller
//! database, where pool and gateway fixed cost outweigh the kernel.

use crate::metrics::{Measured, Op, Round};
use crate::stats::{mean, percentile, sorted};
use crate::trace::Tracer;
use crate::{nproc, RunArgs};
use gpu_sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use sw_align::SwParams;
use sw_db::catalog::PaperDb;
use sw_db::synth::make_query;
use sw_db::Database;
use sw_gateway::{Gateway, GatewayConfig, GatewayHandle, Outcome};
use sw_serve::request::SearchRequest;
use sw_simd::{search_sequences, Precision, QueryEngine};

/// How requests are generated.
pub enum Loop {
    /// One submitting thread on a seeded schedule: this many arrivals,
    /// at independent uniform instants, in every [`WINDOW_S`] window.
    Open { per_window: usize },
    /// `nproc` clients, each sending its next request on the reply.
    Closed,
}

/// One serve workload.
pub struct ServeSpec {
    pub name: &'static str,
    pub db_seqs: usize,
    pub query_len: (usize, usize),
    pub looping: Loop,
}

pub const STEADY: ServeSpec = ServeSpec {
    name: "serve_steady",
    db_seqs: 2_000,
    query_len: (64, 256),
    looping: Loop::Open { per_window: 4 },
};

pub const SMALL: ServeSpec = ServeSpec {
    name: "serve_small",
    db_seqs: 1_000,
    query_len: (64, 128),
    looping: Loop::Closed,
};

/// Latency limit; also carried as every request's deadline slack.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
pub const TENANTS: usize = 3;
/// Served requests whose scores are compared with a direct search.
pub const CHECK_SAMPLE: usize = 32;
/// Distinct requests a closed loop cycles through.
pub const CLOSED_REQUEST_POOL: usize = 512;
/// The open loop is invalid when the generator's median lateness exceeds this.
pub const MAX_LATE_MS_P50: f64 = 1.0;
/// Repetitions and query length of the small-search probe.
pub const SMALL_SEARCH_REPS: usize = 20;
pub const SMALL_SEARCH_QUERY_LEN: usize = 96;

/// Length of one arrival window of the open loop, seconds.
pub const WINDOW_S: f64 = 0.5;
/// Query lengths are drawn one from each of this many equal slices of
/// the length range, in seeded order, group after group.
pub const LENGTH_STRATA: usize = 4;

/// The request schedule: a pure function of the workload, seed and run
/// length. A closed loop uses only its queries and tenants.
///
/// Open-loop arrivals are a Poisson process conditioned on its count in
/// every window: independent users still clump inside a window, but the
/// offered load no longer swings from seed to seed by the ±10% that the
/// hundred requests of one run cannot average out (which is why
/// `sw_gateway::LoadConfig`'s unconditioned steady profile is not used).
pub fn schedule(spec: &ServeSpec, seed: u64, seconds: f64) -> Vec<SearchRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5343_4845); // "SCHE"
    let mut arrivals = Vec::new();
    match spec.looping {
        Loop::Open { per_window } => {
            for window in 0..(seconds / WINDOW_S).ceil() as usize {
                let mut at: Vec<f64> = (0..per_window)
                    .map(|_| (window as f64 + rng.gen_range(0.0..1.0)) * WINDOW_S)
                    .collect();
                at.sort_by(f64::total_cmp);
                arrivals.extend(at);
            }
        }
        Loop::Closed => arrivals.resize(CLOSED_REQUEST_POOL, 0.0),
    }
    // Stratified lengths keep the offered cells per second, like the
    // offered requests per second, the same from seed to seed.
    let (lo, hi) = spec.query_len;
    let slice = (hi - lo + 1) as f64 / LENGTH_STRATA as f64;
    let mut strata: Vec<usize> = Vec::new();
    let slack = LATENCY_LIMIT_MS / 1.0e3;
    let mut requests = Vec::with_capacity(arrivals.len());
    for (id, at) in arrivals.into_iter().enumerate() {
        if strata.is_empty() {
            strata = (0..LENGTH_STRATA).collect();
        }
        let stratum = strata.swap_remove(rng.gen_range(0..strata.len()));
        let len = lo + ((stratum as f64 + rng.gen_range(0.0..1.0)) * slice) as usize;
        requests.push(SearchRequest {
            id: id as u64,
            tenant: format!("tenant-{}", rng.gen_range(0..TENANTS)),
            query: make_query(len, seed ^ id as u64),
            params: SwParams::cudasw_default(),
            arrival_seconds: at,
            deadline_seconds: at + slack,
        });
    }
    requests
}

struct Fixture {
    db: Database,
    schedule: Vec<SearchRequest>,
    gateway: Gateway,
    synth_s: f64,
    start_ms: f64,
}

impl Fixture {
    fn build(spec: &ServeSpec, args: &RunArgs, threads: usize) -> Self {
        let t0 = Instant::now();
        let db = PaperDb::Swissprot.generate(spec.db_seqs, args.seed);
        let schedule = schedule(spec, args.seed, args.seconds);
        let synth_s = t0.elapsed().as_secs_f64();
        // Warm-up on the pool directly, so the gateway's own accounting
        // (offered, waves) holds only the measured requests.
        black_box(direct_search(&db, &schedule[0].query, threads));
        let t1 = Instant::now();
        let cfg = GatewayConfig {
            devices: 0,
            host_threads: threads,
            ..GatewayConfig::default()
        };
        let gateway = Gateway::start(&DeviceSpec::tesla_c2050(), &cfg, &db, &[]);
        Self {
            db,
            schedule,
            gateway,
            synth_s,
            start_ms: t1.elapsed().as_secs_f64() * 1.0e3,
        }
    }
}

fn direct_search(db: &Database, query: &[u8], threads: usize) -> Vec<i32> {
    let engine = QueryEngine::new(SwParams::cudasw_default(), query);
    search_sequences(&engine, db.sequences(), threads, Precision::Adaptive).scores
}

/// One request as its sender saw it.
struct Reply {
    /// Index into the schedule.
    index: usize,
    traced: bool,
    /// Wall milliseconds from due time to resolution.
    ms: f64,
    /// How late the generator submitted it.
    late_ms: f64,
    /// Seconds after the start of the drive at which it resolved.
    resolved_at_s: f64,
    scores: Option<Vec<i32>>,
}

/// Record `loadgen.due → gateway.submit → gateway.resolve` for one request.
fn record_request(
    tracer: &mut Tracer,
    id: u64,
    due: Instant,
    call: (Instant, Instant),
    end: Instant,
) {
    let root = tracer.record("loadgen.due", due, end, None, id);
    tracer.record("gateway.submit", call.0, call.1, Some(root), id);
    tracer.record("gateway.resolve", call.1, end, Some(root), id);
}

fn served_scores(outcome: Outcome) -> Option<(Vec<i32>, f64)> {
    match outcome {
        Outcome::Served(r) => Some((r.scores, r.latency_seconds)),
        Outcome::Shed(_) | Outcome::Aborted => None,
    }
}

/// Open loop: one thread submits on schedule and never waits for a
/// reply; tickets are resolved after the drive, so resolving cannot
/// disturb the arrival process.
fn drive_open(
    handle: &GatewayHandle,
    schedule: &[SearchRequest],
    trace: bool,
    tracer: &mut Tracer,
) -> Vec<Reply> {
    let start = Instant::now();
    let base = handle.now();
    let mut pending = Vec::with_capacity(schedule.len());
    for (index, req) in schedule.iter().enumerate() {
        handle.wait_until(base + req.arrival_seconds);
        let late_s = (handle.now() - base - req.arrival_seconds).max(0.0);
        let t0 = Instant::now();
        let ticket = handle.submit(req.clone());
        pending.push((index, late_s, t0, Instant::now(), ticket));
    }
    pending
        .into_iter()
        .map(|(index, late_s, t0, t1, ticket)| {
            let req = &schedule[index];
            let traced = trace && index % 2 == 0;
            let served = served_scores(ticket.wait());
            let latency_s = served.as_ref().map_or(0.0, |s| s.1);
            if traced {
                let due = t0 - Duration::from_secs_f64(late_s);
                let end = t0 + Duration::from_secs_f64(latency_s);
                record_request(tracer, req.id, due, (t0, t1), end);
            }
            Reply {
                index,
                traced,
                ms: (late_s + latency_s) * 1.0e3,
                late_ms: late_s * 1.0e3,
                resolved_at_s: (t0 - start).as_secs_f64() + latency_s,
                scores: served.map(|s| s.0),
            }
        })
        .collect()
}

/// Closed loop: each client sends its next request when the reply to its
/// last one arrives, until the time is up.
fn drive_closed(
    handle: &GatewayHandle,
    schedule: &[SearchRequest],
    clients: usize,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Vec<Reply> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Vec<Reply>, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients)
            .map(|c| {
                let (handle, next) = (handle.clone(), &next);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(start, c as u32 + 1);
                    let mut replies = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let traced = trace && index % 2 == 0;
                        let req = SearchRequest {
                            id: index as u64,
                            ..schedule[index % schedule.len()].clone()
                        };
                        let t0 = Instant::now();
                        let ticket = handle.submit(req);
                        let t1 = Instant::now();
                        let served = served_scores(ticket.wait());
                        let t2 = Instant::now();
                        if traced {
                            record_request(&mut tracer, index as u64, t0, (t0, t1), t2);
                        }
                        replies.push(Reply {
                            index,
                            traced,
                            ms: (t2 - t0).as_secs_f64() * 1.0e3,
                            late_ms: 0.0,
                            resolved_at_s: (t2 - start).as_secs_f64(),
                            scores: served.map(|s| s.0),
                        });
                    }
                    (replies, tracer)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let mut replies = Vec::new();
    for (r, t) in per_client {
        replies.extend(r);
        tracer.absorb(t);
    }
    replies.sort_by_key(|r| r.index);
    replies
}

pub fn run(spec: &ServeSpec, args: &RunArgs) -> Measured {
    let mut m = Measured {
        latency_limit_ms: Some(LATENCY_LIMIT_MS),
        ..Measured::default()
    };
    let threads = nproc();
    let fx = m.setup(
        || Fixture::build(spec, args, threads),
        |fx| drop(fx.gateway.shutdown()),
    );
    let handle = fx.gateway.handle();

    let mut tracer = Tracer::new(Instant::now(), 0);
    let (replies, generator_threads) = match spec.looping {
        Loop::Open { .. } => (
            drive_open(&handle, &fx.schedule, args.trace, &mut tracer),
            1,
        ),
        Loop::Closed => (
            drive_closed(
                &handle,
                &fx.schedule,
                threads,
                args.seconds,
                args.trace,
                &mut tracer,
            ),
            threads,
        ),
    };
    let wall_s = replies.iter().map(|r| r.resolved_at_s).fold(0.0, f64::max);
    let t0 = Instant::now();
    let report = fx.gateway.shutdown();
    let shutdown_ms = t0.elapsed().as_secs_f64() * 1.0e3;

    // Correctness, outside the timed span: a seeded sample of the served
    // requests must carry exactly the scores of a direct search of the
    // same query (length and order included).
    let query_of = |index: usize| &fx.schedule[index % fx.schedule.len()].query;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4348_4543); // "CHEC"
    let mut sample: Vec<usize> = (0..replies.len()).collect();
    for i in 0..sample.len().min(CHECK_SAMPLE) {
        sample.swap(i, rng.gen_range(i..replies.len()));
    }
    sample.truncate(CHECK_SAMPLE);
    let mut mismatched = vec![false; replies.len()];
    let mut direct_ms = Vec::with_capacity(sample.len());
    for &i in &sample {
        let t0 = Instant::now();
        let expect = direct_search(&fx.db, query_of(replies[i].index), threads);
        direct_ms.push(t0.elapsed().as_secs_f64() * 1.0e3);
        mismatched[i] = replies[i].scores.as_ref().is_some_and(|s| *s != expect);
    }
    let residues = fx.db.total_residues();
    let mut round = Round {
        ops: Vec::with_capacity(replies.len()),
        wall_s,
    };
    for (r, bad) in replies.iter().zip(&mismatched) {
        round.ops.push(Op {
            kind: 0,
            traced: r.traced,
            ms: r.ms,
            cells: residues * query_of(r.index).len() as u64,
            ok: r.scores.is_some() && !bad,
        });
    }
    m.rounds.push(round);
    let counter = |name: &str, labels: &[(&str, &str)]| report.metrics.counter(name, labels);
    let duplicates = counter("cudasw.gateway.duplicate_commits", &[]);
    m.gate(report.offered() == replies.len(), || {
        format!(
            "gateway resolved {} of {} requests sent",
            report.offered(),
            replies.len()
        )
    });
    m.gate(duplicates == 0.0, || {
        format!("{duplicates} duplicate commits")
    });
    let late = sorted(replies.iter().map(|r| r.late_ms).collect());
    let late_p50 = percentile(&late, 50.0);
    m.gate(late_p50 <= MAX_LATE_MS_P50, || {
        format!("load generator ran {late_p50:.3} ms late at the median; the open loop is invalid")
    });

    if !args.trace {
        return m;
    }
    let lat = sorted(m.ops().filter(|o| o.ok).map(|o| o.ms).collect());
    let waves = report.waves.max(1) as f64;
    m.set("db.synth_s", fx.synth_s);
    m.set("db.residues", residues as f64);
    m.set("gateway.start_ms", fx.start_ms);
    m.set("gateway.shutdown_ms", shutdown_ms);
    m.set("gateway.waves", report.waves as f64);
    m.set(
        "gateway.wave_size_mean",
        counter("cudasw.serve.wave_requests", &[]) / waves,
    );
    m.set(
        "gateway.tax_ms_p50",
        percentile(&lat, 50.0) - percentile(&sorted(direct_ms.clone()), 50.0),
    );
    m.set(
        "gateway.util_est",
        replies.len() as f64 / wall_s * mean(&direct_ms) / 1.0e3,
    );
    m.set("gateway.gcups", report.gcups());
    m.set("gateway.latency_ms_p99", percentile(&lat, 99.0));
    m.set("gateway.deadline_miss_frac", report.deadline_miss_rate());
    m.set("gateway.degraded_frac", report.degraded_rate());
    m.set("gateway.aborted", report.aborted.len() as f64);
    m.set("gateway.duplicate_commits", duplicates);
    m.set("serve.admitted", counter("cudasw.serve.admitted", &[]));
    for (name, reason) in [
        ("serve.shed_queue_full", "queue_full"),
        ("serve.shed_tenant_quota", "tenant_quota"),
    ] {
        m.set(name, counter("cudasw.serve.shed", &[("reason", reason)]));
    }
    m.set("loadgen.late_ms_p50", late_p50);
    m.set("loadgen.late_ms_max", late.last().copied().unwrap_or(0.0));
    m.set("loadgen.sent", replies.len() as f64);
    m.set("loadgen.threads", generator_threads as f64);

    // What one pooled search of a short query costs on this database,
    // without the gateway, on the caller's thread and on the full pool.
    let engine = QueryEngine::new(
        SwParams::cudasw_default(),
        &make_query(SMALL_SEARCH_QUERY_LEN, args.seed),
    );
    for (name, t) in [
        ("simd.pool.small_search_ms_1t", 1),
        ("simd.pool.small_search_ms_nt", threads),
    ] {
        let t0 = Instant::now();
        for _ in 0..SMALL_SEARCH_REPS {
            black_box(search_sequences(
                &engine,
                fx.db.sequences(),
                t,
                Precision::Adaptive,
            ));
        }
        m.set(
            name,
            t0.elapsed().as_secs_f64() * 1.0e3 / SMALL_SEARCH_REPS as f64,
        );
    }
    m.spans = tracer.spans;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(s: &[SearchRequest]) -> Vec<(u64, usize, String, u64)> {
        s.iter()
            .map(|r| {
                (
                    r.arrival_seconds.to_bits(),
                    r.query.len(),
                    r.tenant.clone(),
                    r.deadline_seconds.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(&STEADY, 2011, 10.0);
        let b = schedule(&STEADY, 2011, 10.0);
        assert_eq!(a.len(), 80);
        assert_eq!(shape(&a), shape(&b));
        assert!(a.iter().zip(&b).all(|(x, y)| x.query == y.query));
        assert_ne!(shape(&a), shape(&schedule(&STEADY, 7, 10.0)));
        // Due times ascend, four to every half second; lengths and
        // deadline slack stay in range.
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_seconds <= w[1].arrival_seconds));
        for (w, window) in a.chunks(4).enumerate() {
            let (lo, hi) = (w as f64 * WINDOW_S, (w + 1) as f64 * WINDOW_S);
            assert!(window.iter().all(|r| (lo..hi).contains(&r.arrival_seconds)));
        }
        assert!(a.iter().all(|r| (64..=256).contains(&r.query.len())));
        assert!(a
            .iter()
            .all(|r| (r.deadline_seconds - r.arrival_seconds - 0.25).abs() < 1e-9));
    }
}
