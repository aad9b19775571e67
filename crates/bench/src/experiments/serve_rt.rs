//! `repro serve-rt` — the wall-clock real-time serving benchmark.
//!
//! Everything else the serving stack reports runs on the discrete-event
//! simulated clock. This experiment runs the **sw-gateway**: real worker
//! threads per shard lane (gpu-sim devices + the crash-only host SIMD
//! pool), an in-process multi-tenant front-end, and a seeded open-loop
//! load generator replaying arrival schedules in real time. Latency here
//! is *end-to-end wall time* — front-end enqueue to response — so the
//! tail percentiles include queueing delay, wave linger and lane
//! contention, which no simulated number can certify.
//!
//! Three load profiles over the same database and gateway config:
//!
//! * **steady** — Poisson arrivals the service absorbs; shed-free,
//!   deadlines met: the baseline SLO row.
//! * **bursty** — alternating hot/cold phases; the EDF batcher and the
//!   admission queue soak the bursts.
//! * **overload** — sustained arrivals past capacity; the gateway must
//!   shed explicitly (bounded queue, quotas) while the served remainder
//!   keeps a sane tail.
//!
//! Results append to `BENCH_serve.json` (schema `cudasw.bench.serve/v1`,
//! one entry per `(git rev, config, host_threads)` — see
//! [`super::serve_trajectory`]); `verify.sh` regression-gates shed and
//! deadline-miss rates against the committed baseline, and latency
//! tails on hosts with enough parallelism to measure them.

use crate::report::Table;
use cudasw_core::{CudaSwConfig, ImprovedParams};
use gpu_sim::DeviceSpec;
use sw_db::synth::database_with_lengths;
use sw_gateway::loadgen::drive;
use sw_gateway::{Gateway, GatewayConfig, LoadConfig, LoadProfile, Outcome};

/// JSON schema tag of `BENCH_serve.json`.
pub const SCHEMA: &str = "cudasw.bench.serve/v1";

/// Requests per profile in a full run (3 profiles ⇒ 1.2×10⁵ queries
/// total, inside the 10⁵–10⁶ open-loop budget).
pub const FULL_REQUESTS: usize = 40_000;

/// Requests per profile in a smoke run (CI-sized, seconds not minutes).
pub const SMOKE_REQUESTS: usize = 1_500;

/// Load-generator seed; the whole benchmark is a pure function of this.
pub const SEED: u64 = 0x52_54; // "RT"

/// Mean steady interarrival, wall seconds.
const MEAN_INTERARRIVAL: f64 = 1.0e-3;

/// Deadline slack range, wall seconds. Tight enough that a stalled
/// pipeline shows up as misses, loose enough for a loaded CI box.
const DEADLINE_SLACK: (f64, f64) = (0.25, 0.5);

/// Options of one `repro serve-rt` invocation.
#[derive(Debug, Clone, Default)]
pub struct ServeRtOpts {
    /// CI-sized run.
    pub smoke: bool,
    /// Override requests per profile (profiling / calibration).
    pub requests: Option<usize>,
}

/// One profile's measured serving row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Profile name (`steady` / `bursty` / `overload`).
    pub profile: String,
    /// Requests offered by the schedule.
    pub requests: usize,
    /// Requests answered with scores.
    pub served: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests aborted by shutdown (0 in a healthy run).
    pub aborted: usize,
    /// End-to-end latency percentiles, milliseconds.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Fraction of offered requests shed.
    pub shed_rate: f64,
    /// Fraction of answered requests that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Completed queries per wall second.
    pub queries_per_second: f64,
    /// Aggregate throughput over the wall makespan, GCUPS.
    pub gcups: f64,
    /// Wall seconds, first submission → last completion.
    pub wall_seconds: f64,
    /// Waves dispatched.
    pub waves: u64,
}

/// The full benchmark result (all profiles, one host): one entry of the
/// serving trajectory (see [`super::serve_trajectory`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRtResult {
    /// Git revision measured; empty until `repro` keys the run to record it.
    pub rev: String,
    /// Stable workload key: database shape × schedule size.
    pub config: String,
    /// Hardware threads of the measuring host (gates are conditional on
    /// this — a 1-core box cannot certify latency tails).
    pub host_threads: usize,
    /// gpu-sim device lanes (the host SIMD lane is always present too).
    pub devices: usize,
    /// Database sequences.
    pub db_size: usize,
    /// Requests per profile.
    pub requests_per_profile: usize,
    /// One row per load profile.
    pub profiles: Vec<ProfileRow>,
}

impl ServeRtResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "serve-rt: wall-clock gateway, {} requests/profile, {} devices + host lane ({} host threads)",
                self.requests_per_profile, self.devices, self.host_threads
            ),
            &[
                "profile", "served", "shed", "aborted", "p50 ms", "p99 ms", "p999 ms",
                "miss rate", "q/s", "GCUPS", "wall s",
            ],
        );
        for p in &self.profiles {
            t.push_row(vec![
                p.profile.clone(),
                p.served.to_string(),
                p.shed.to_string(),
                p.aborted.to_string(),
                format!("{:.2}", p.p50_ms),
                format!("{:.2}", p.p99_ms),
                format!("{:.2}", p.p999_ms),
                format!("{:.3}", p.deadline_miss_rate),
                format!("{:.0}", p.queries_per_second),
                format!("{:.3}", p.gcups),
                format!("{:.1}", p.wall_seconds),
            ]);
        }
        t
    }
}

/// The gateway's search configuration: small inter-task blocks so the
/// mixed-length database exercises both kernels on every shard.
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

/// The serving database: mixed lengths across the kernel threshold.
fn serve_db() -> sw_db::Database {
    database_with_lengths(
        "serve-rt-db",
        &[20, 30, 40, 50, 60, 80, 100, 110, 120, 150],
        71,
    )
}

fn load_config(profile: LoadProfile, requests: usize) -> LoadConfig {
    LoadConfig {
        profile,
        requests,
        tenants: vec![
            "tenant-a".to_string(),
            "tenant-b".to_string(),
            "tenant-c".to_string(),
        ],
        mean_interarrival_seconds: MEAN_INTERARRIVAL,
        burst_period_seconds: 0.25,
        burst_factor: 4.0,
        overload_factor: 8.0,
        query_len: (16, 32),
        deadline_slack_seconds: DEADLINE_SLACK,
        param_classes: vec![sw_align::SwParams::cudasw_default()],
        seed: SEED,
    }
}

/// Run one profile against a fresh gateway and collect its row.
fn run_profile(spec: &DeviceSpec, profile: LoadProfile, requests: usize) -> ProfileRow {
    let cfg = GatewayConfig {
        devices: 2,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        search: search_config(),
        drain_grace_seconds: 30.0,
        ..GatewayConfig::default()
    };
    let db = serve_db();
    let schedule = load_config(profile, requests).schedule();
    let gateway = Gateway::start(spec, &cfg, &db, &[]);
    let tickets = drive(&gateway.handle(), &schedule);
    // Open-loop bookkeeping: outcomes buffered on the ticket channels;
    // resolving after the drive keeps the arrival process undisturbed.
    for t in tickets {
        match t.wait() {
            Outcome::Served(_) | Outcome::Shed(_) | Outcome::Aborted => {}
        }
    }
    let report = gateway.shutdown();
    assert_eq!(
        report.offered(),
        requests,
        "every {} request must resolve exactly once (served {} + shed {} + aborted {})",
        profile.as_str(),
        report.responses.len(),
        report.sheds.len(),
        report.aborted.len(),
    );
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0,
        "exactly-once commit discipline"
    );
    ProfileRow {
        profile: profile.as_str().to_string(),
        requests,
        served: report.responses.len(),
        shed: report.sheds.len(),
        aborted: report.aborted.len(),
        p50_ms: report.latency_percentile(50.0) * 1.0e3,
        p99_ms: report.latency_percentile(99.0) * 1.0e3,
        p999_ms: report.latency_percentile(99.9) * 1.0e3,
        shed_rate: report.shed_rate(),
        deadline_miss_rate: report.deadline_miss_rate(),
        queries_per_second: report.queries_per_second(),
        gcups: report.gcups(),
        wall_seconds: report.wall_seconds,
        waves: report.waves,
    }
}

/// The load profiles every run replays, one row each.
pub const PROFILES: [LoadProfile; 3] = [
    LoadProfile::Steady,
    LoadProfile::Bursty,
    LoadProfile::Overload,
];

/// Run the benchmark: all three profiles, one gateway each.
pub fn run(spec: &DeviceSpec, opts: &ServeRtOpts) -> ServeRtResult {
    let requests = opts.requests.unwrap_or(if opts.smoke {
        SMOKE_REQUESTS
    } else {
        FULL_REQUESTS
    });
    let db = serve_db();
    let profiles = PROFILES
        .into_iter()
        .map(|p| run_profile(spec, p, requests))
        .collect();
    ServeRtResult {
        rev: String::new(),
        config: format!("rt-mixed{}x16-32-r{requests}", db.len()),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        devices: 2,
        db_size: db.len(),
        requests_per_profile: requests,
        profiles,
    }
}
