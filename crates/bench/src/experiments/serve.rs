//! Serving run — the `sw-serve` batch-scheduling service replaying a
//! seeded open-loop trace.
//!
//! Not a paper figure: a systems demonstration on top of the resilient
//! driver. Two scenarios share one synthetic database:
//!
//! * **steady** — arrivals the service can absorb: zero sheds, every
//!   query answered, waves coalesce compatible queries onto a
//!   device-resident database;
//! * **overload** — a burst far above capacity against a tiny admission
//!   queue: explicit shedding with reasons instead of unbounded queueing.
//!
//! The interesting outputs are the serving metrics the paper's
//! single-query benchmarks cannot express: queries/s, p50/p99 latency,
//! and shed rate, next to the familiar GCUPS.

use crate::report::Table;
use crate::workloads;
use cudasw_core::{CudaSwConfig, ImprovedParams};
use gpu_sim::DeviceSpec;
use sw_db::catalog::PaperDb;
use sw_serve::{AdmissionConfig, SearchService, ServeConfig, TraceConfig};

/// Outcome of one serving scenario.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Scenario label ("steady" / "overload").
    pub scenario: String,
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests answered.
    pub served: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Waves dispatched.
    pub waves: u64,
    /// Aggregate throughput over the makespan, GCUPS.
    pub gcups: f64,
    /// Completed queries per simulated second.
    pub queries_per_second: f64,
    /// Median latency, simulated seconds.
    pub p50_seconds: f64,
    /// 99th-percentile latency, simulated seconds.
    pub p99_seconds: f64,
    /// Fraction of offered requests shed.
    pub shed_rate: f64,
    /// Database stagings across all lanes (device-resident reuse shows
    /// up as this staying at the lane count).
    pub db_stagings: u64,
}

impl ServeResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("serve: {} scenario", self.scenario),
            &["metric", "value"],
        );
        for (name, value) in [
            ("offered requests", self.offered.to_string()),
            ("served", self.served.to_string()),
            ("shed", self.shed.to_string()),
            ("waves", self.waves.to_string()),
            ("GCUPS", format!("{:.3}", self.gcups)),
            ("queries/s", format!("{:.1}", self.queries_per_second)),
            ("p50 latency (s)", format!("{:.5}", self.p50_seconds)),
            ("p99 latency (s)", format!("{:.5}", self.p99_seconds)),
            ("shed rate", format!("{:.2}", self.shed_rate)),
            ("database stagings", self.db_stagings.to_string()),
        ] {
            t.push_row(vec![name.to_string(), value]);
        }
        t
    }
}

/// Search configuration shared by both scenarios: small inter-task
/// launch shapes so the reduced functional database still spans several
/// groups per shard.
fn search_config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 400,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        ..CudaSwConfig::improved()
    }
}

/// The shared workload database.
fn serve_db(db_size: usize) -> sw_db::Database {
    workloads::functional_db(PaperDb::Swissprot, db_size)
}

/// Run one scenario and collect the serving metrics.
fn run_scenario(
    scenario: &str,
    spec: &DeviceSpec,
    cfg: &ServeConfig,
    trace_cfg: &TraceConfig,
    db: &sw_db::Database,
) -> ServeResult {
    let trace = trace_cfg.generate();
    let before = obs::snapshot_metrics();
    let mut service = SearchService::new(spec, cfg, db, &[]);
    let report = service.run_trace(&trace).expect("fault-free serving run");
    let delta = obs::snapshot_metrics().diff(&before);
    ServeResult {
        scenario: scenario.to_string(),
        offered: trace.len(),
        served: report.responses.len(),
        shed: report.sheds.len(),
        waves: report.waves,
        gcups: report.gcups(),
        queries_per_second: report.queries_per_second(),
        p50_seconds: report.latency_percentile(50.0),
        p99_seconds: report.latency_percentile(99.0),
        shed_rate: report.shed_rate(),
        db_stagings: delta.counter_sum("cudasw.serve.db_stagings", &[]) as u64,
    }
}

/// The steady scenario: `requests` queries the service absorbs without
/// shedding. Doubles as the CI smoke run — panics if anything sheds or
/// throughput is zero.
pub fn run_steady(spec: &DeviceSpec, db_size: usize, requests: usize) -> ServeResult {
    let cfg = ServeConfig {
        devices: 2,
        search: search_config(),
        ..ServeConfig::default()
    };
    let trace_cfg = TraceConfig {
        mean_interarrival_seconds: 2.0e-3,
        ..TraceConfig::small(requests, workloads::SEED)
    };
    let r = run_scenario("steady", spec, &cfg, &trace_cfg, &serve_db(db_size));
    assert_eq!(r.shed, 0, "steady scenario must not shed");
    assert_eq!(r.served, r.offered, "every offered request answered");
    assert!(r.queries_per_second > 0.0, "throughput must be non-zero");
    r
}

/// The overload scenario: a burst far above capacity against a tiny
/// admission queue — shedding is the expected, explicit outcome.
pub fn run_overload(spec: &DeviceSpec, db_size: usize, requests: usize) -> ServeResult {
    let cfg = ServeConfig {
        devices: 2,
        search: search_config(),
        admission: AdmissionConfig {
            queue_capacity: 4,
            tenant_quota: 2,
        },
        ..ServeConfig::default()
    };
    let trace_cfg = TraceConfig {
        mean_interarrival_seconds: 1.0e-9,
        tenants: vec!["alpha".to_string(), "beta".to_string()],
        ..TraceConfig::small(requests, workloads::SEED ^ 0xB04D)
    };
    let r = run_scenario("overload", spec, &cfg, &trace_cfg, &serve_db(db_size));
    assert!(r.shed > 0, "overload scenario must shed");
    assert!(r.served > 0, "overload still serves what it admitted");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_scenario_serves_everything() {
        let r = run_steady(&DeviceSpec::tesla_c1060(), 80, 8);
        assert_eq!(r.served, 8);
        assert_eq!(r.shed, 0);
        assert!(r.gcups > 0.0);
        assert!(r.p99_seconds >= r.p50_seconds);
    }

    #[test]
    fn overload_scenario_sheds_and_serves() {
        let r = run_overload(&DeviceSpec::tesla_c1060(), 80, 16);
        assert!(r.shed > 0);
        assert_eq!(r.served + r.shed, r.offered);
        assert!(r.shed_rate > 0.0 && r.shed_rate < 1.0);
    }
}
