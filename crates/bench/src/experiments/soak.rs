//! `repro soak` — the chaos soak gate: a seeded multi-tenant trace served
//! while rolling faults sweep every lane, including one full device loss
//! with a scheduled revival.
//!
//! The service must hold its SLOs *through* the storm, not merely survive
//! it:
//!
//! * **availability** — ≥ 99% of offered requests answered on time (shed
//!   and deadline-missed answers both count against it);
//! * **correctness** — zero duplicate answers, and every score vector
//!   bit-identical to a fault-free replay of the same trace;
//! * **tail** — p999 latency stays bounded (well under the minimum
//!   deadline slack), so degradation is graceful rather than cliff-edged;
//! * **liveness of the resilience machinery itself** — the run must
//!   actually exercise a lane death, a breaker trip and a successful
//!   revival probe, otherwise the gate is vacuous.
//!
//! The fault schedule (per lane): lane 0 carries light random faults plus
//! a full device loss whose revival succeeds on the second probe; lane 1
//! rides rolling transient/corruption bursts; lane 2 takes one later
//! burst. On top of the GPU storm the **CPU fallback** (running on the
//! crash-only SIMD pool) carries its own seeded chaos plan — chunk
//! panics, stalls and admission failures — which the pool must absorb
//! without changing any served score. All seeded — the run is
//! deterministic and the JSON it emits (`BENCH_soak.json`, schema
//! `cudasw.bench.soak/v2`) is a snapshot, reproducible byte-for-byte,
//! which CI checks with `cmp`.

use crate::report::Table;
use crate::workloads;
use cudasw_core::{CudaSwConfig, ImprovedParams, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use sw_db::catalog::PaperDb;
use sw_serve::{BatchPolicy, HealthPolicy, SearchService, ServeConfig, ServeReport, TraceConfig};

/// JSON schema tag of `BENCH_soak.json`.
pub const SCHEMA: &str = "cudasw.bench.soak/v2";

/// Everything the soak run measured and asserted.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests answered (on time or late).
    pub served: usize,
    /// Requests shed.
    pub shed: usize,
    /// Requests answered within their deadline.
    pub on_time: usize,
    /// `on_time / offered` — the availability SLO.
    pub availability: f64,
    /// Answered requests whose wave was partly served off-device.
    pub degraded_responses: usize,
    /// Request ids answered more than once (must be zero).
    pub duplicate_answers: usize,
    /// Latency percentiles over answered requests, simulated seconds.
    pub p50_seconds: f64,
    pub p99_seconds: f64,
    pub p999_seconds: f64,
    /// Simulated makespan.
    pub makespan_seconds: f64,
    /// Waves dispatched.
    pub waves: u64,
    /// Lane deaths observed by the executor.
    pub lane_deaths: u64,
    /// Successful device revivals (quarantine → probe → re-admission).
    pub lane_revivals: u64,
    /// Breaker `* → Open` transitions.
    pub breaker_opens: u64,
    /// Waves routed around a quarantined lane.
    pub breaker_skips: u64,
    /// Retries and staging retries denied by the deadline budget.
    pub budget_denied_retries: u64,
    pub budget_denied_stagings: u64,
    /// Owed-shard redispatches and host-fallback sequences.
    pub redispatches: u64,
    pub cpu_fallback_seqs: u64,
    /// Faults the simulator injected across all lanes.
    pub injected_faults: u64,
    /// Faults the crash-only host pool injected into the CPU fallback.
    pub host_injected_faults: u64,
    /// Host chunks quarantined to the scalar oracle after a panic.
    pub host_quarantines: u64,
    /// True when every answer matched the fault-free replay bit-for-bit.
    pub scores_match_reference: bool,
}

impl SoakResult {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "soak: rolling faults across all lanes".to_string(),
            &["metric", "value"],
        );
        for (name, value) in [
            ("offered requests", self.offered.to_string()),
            ("served", self.served.to_string()),
            ("shed", self.shed.to_string()),
            ("on time", self.on_time.to_string()),
            ("availability", format!("{:.4}", self.availability)),
            ("degraded responses", self.degraded_responses.to_string()),
            ("p50 latency (s)", format!("{:.5}", self.p50_seconds)),
            ("p99 latency (s)", format!("{:.5}", self.p99_seconds)),
            ("p999 latency (s)", format!("{:.5}", self.p999_seconds)),
            ("waves", self.waves.to_string()),
            ("injected faults", self.injected_faults.to_string()),
            (
                "host faults injected/quarantined",
                format!("{}/{}", self.host_injected_faults, self.host_quarantines),
            ),
            ("lane deaths", self.lane_deaths.to_string()),
            ("lane revivals", self.lane_revivals.to_string()),
            ("breaker opens", self.breaker_opens.to_string()),
            ("breaker skips", self.breaker_skips.to_string()),
            (
                "budget-denied retries",
                format!(
                    "{}+{} stagings",
                    self.budget_denied_retries, self.budget_denied_stagings
                ),
            ),
            ("redispatches", self.redispatches.to_string()),
            ("cpu fallback seqs", self.cpu_fallback_seqs.to_string()),
            (
                "scores match fault-free replay",
                self.scores_match_reference.to_string(),
            ),
        ] {
            t.push_row(vec![name.to_string(), value]);
        }
        t
    }

    /// Serialize as the `cudasw.bench.soak/v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        for (key, value) in [
            ("offered", self.offered.to_string()),
            ("served", self.served.to_string()),
            ("shed", self.shed.to_string()),
            ("on_time", self.on_time.to_string()),
            ("availability", format!("{:.6}", self.availability)),
            ("degraded_responses", self.degraded_responses.to_string()),
            ("duplicate_answers", self.duplicate_answers.to_string()),
            ("p50_seconds", format!("{:.6}", self.p50_seconds)),
            ("p99_seconds", format!("{:.6}", self.p99_seconds)),
            ("p999_seconds", format!("{:.6}", self.p999_seconds)),
            ("makespan_seconds", format!("{:.6}", self.makespan_seconds)),
            ("waves", self.waves.to_string()),
            ("lane_deaths", self.lane_deaths.to_string()),
            ("lane_revivals", self.lane_revivals.to_string()),
            ("breaker_opens", self.breaker_opens.to_string()),
            ("breaker_skips", self.breaker_skips.to_string()),
            (
                "budget_denied_retries",
                self.budget_denied_retries.to_string(),
            ),
            (
                "budget_denied_stagings",
                self.budget_denied_stagings.to_string(),
            ),
            ("redispatches", self.redispatches.to_string()),
            ("cpu_fallback_seqs", self.cpu_fallback_seqs.to_string()),
            ("injected_faults", self.injected_faults.to_string()),
            (
                "host_injected_faults",
                self.host_injected_faults.to_string(),
            ),
            ("host_quarantines", self.host_quarantines.to_string()),
            (
                "scores_match_reference",
                self.scores_match_reference.to_string(),
            ),
        ] {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        // Trailing comma cleanup: replace the final ",\n" with "\n}".
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }
}

/// Search configuration: small inter-task shapes so the reduced database
/// still spans several groups per shard (same as the serve experiment).
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

/// A transient/corruption storm for the burst windows.
fn storm() -> FaultRates {
    FaultRates {
        transient: 0.25,
        launch_hang: 0.0,
        corruption: 0.05,
    }
}

/// The per-lane fault schedules of the soak scenario.
fn fault_plans(seed: u64) -> Vec<FaultPlan> {
    let light = FaultRates {
        transient: 0.01,
        launch_hang: 0.0,
        corruption: 0.002,
    };
    vec![
        // Lane 0: light random noise, then a full device loss at its 20th
        // launch; the first revival probe fails, the second succeeds.
        FaultPlan::random(seed, light).with_device_loss_recovery(FaultSite::Launch, 20, 1),
        // Lane 1: rolling bursts marching along its op stream.
        FaultPlan::none()
            .with_fault_burst(50, 90, storm(), seed ^ 0xB1)
            .with_fault_burst(200, 240, storm(), seed ^ 0xB2)
            .with_fault_burst(500, 540, storm(), seed ^ 0xB3),
        // Lane 2: one later burst, so at least one lane is healthy during
        // every storm.
        FaultPlan::none().with_fault_burst(120, 160, storm(), seed ^ 0xB4),
    ]
}

/// The host-lane chaos plan: chunk panics, stalls and admission failures
/// at storm rates inside every CPU fallback. Stalls are kept
/// short — the serve host pool is single-threaded (discrete-event
/// determinism), so a stalled chunk is simply absorbed, not re-dispatched,
/// and the sleep is real wall-clock time.
fn host_storm(seed: u64) -> sw_simd::HostFaultPlan {
    sw_simd::HostFaultPlan::random(seed ^ 0x4057_FA17, sw_simd::HostFaultRates::chaos())
        .with_stall_ms(2)
}

fn soak_config() -> ServeConfig {
    ServeConfig {
        devices: 3,
        search: search_config(),
        recovery: RecoveryPolicy {
            watchdog_cycles: Some(50_000_000),
            ..RecoveryPolicy::default()
        },
        health: HealthPolicy {
            // Short cooldown so quarantine, probing and re-admission all
            // fit inside the simulated horizon.
            cooldown_seconds: 5.0e-3,
        },
        batch: BatchPolicy {
            urgent_slack_seconds: 5.0e-2,
            ..BatchPolicy::default()
        },
        shed_expired: true,
        ..ServeConfig::default()
    }
}

fn trace_config(requests: usize) -> TraceConfig {
    TraceConfig {
        requests,
        tenants: vec![
            "tenant-a".to_string(),
            "tenant-b".to_string(),
            "tenant-c".to_string(),
        ],
        mean_interarrival_seconds: 2.0e-3,
        deadline_slack_seconds: (1.0, 2.0),
        ..TraceConfig::small(requests, workloads::SEED)
    }
}

/// Ids answered more than once.
fn duplicates(report: &ServeReport) -> usize {
    let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.windows(2).filter(|w| w[0] == w[1]).count()
}

/// Run the soak. `smoke` shrinks the trace to CI scale while still
/// exercising the device loss, every burst window on lane 1's op stream
/// is only reached in the full run.
pub fn run(spec: &DeviceSpec, smoke: bool) -> SoakResult {
    let requests = if smoke { 30 } else { 120 };
    let db = workloads::functional_db(PaperDb::Swissprot, 120);
    let mut cfg = soak_config();
    cfg.host_faults = host_storm(workloads::SEED);
    let trace = trace_config(requests).generate();
    let plans = fault_plans(workloads::SEED);

    let before = obs::snapshot_metrics();
    let mut service = SearchService::new(spec, &cfg, &db, &plans);
    let report = service
        .run_trace(&trace)
        .expect("the soak must terminate with an answer for every request");
    let delta = obs::snapshot_metrics().diff(&before);

    // Fault-free replay of the identical trace (GPU *and* host lanes
    // clean): the correctness oracle.
    let mut ref_cfg = cfg.clone();
    ref_cfg.host_faults = sw_simd::HostFaultPlan::none();
    let mut reference_service = SearchService::new(spec, &ref_cfg, &db, &[]);
    let reference = reference_service
        .run_trace(&trace)
        .expect("fault-free replay");
    let scores_match_reference = report.responses.iter().all(|resp| {
        reference
            .responses
            .iter()
            .find(|r| r.id == resp.id)
            .is_some_and(|r| r.scores == resp.scores)
    }) && report.responses.len() == reference.responses.len();

    let on_time = report
        .responses
        .iter()
        .filter(|r| !r.deadline_missed)
        .count();
    let offered = trace.len();
    let counter = |name: &str| delta.counter_sum(name, &[]) as u64;
    let r = SoakResult {
        offered,
        served: report.responses.len(),
        shed: report.sheds.len(),
        on_time,
        availability: on_time as f64 / offered as f64,
        degraded_responses: report.responses.iter().filter(|resp| resp.degraded).count(),
        duplicate_answers: duplicates(&report),
        p50_seconds: report.latency_percentile(50.0),
        p99_seconds: report.latency_percentile(99.0),
        p999_seconds: report.latency_percentile(99.9),
        makespan_seconds: report.makespan_seconds,
        waves: report.waves,
        lane_deaths: counter("cudasw.serve.lane_deaths"),
        lane_revivals: counter("cudasw.serve.lane_revivals"),
        breaker_opens: delta
            .counter_sum("cudasw.serve.health.breaker_transitions", &[("to", "open")])
            as u64,
        breaker_skips: counter("cudasw.serve.breaker_skips"),
        budget_denied_retries: report.recovery.budget_denied_retries,
        budget_denied_stagings: counter("cudasw.serve.budget_denied_stagings"),
        redispatches: report.recovery.shard_redispatches,
        cpu_fallback_seqs: report.recovery.cpu_fallback_seqs,
        injected_faults: counter("cudasw.gpu_sim.fault.injected"),
        host_injected_faults: counter("cudasw.simd.pool.faults_injected"),
        host_quarantines: counter("cudasw.simd.pool.quarantines"),
        scores_match_reference,
    };

    // The gate. Each assertion names the SLO it protects.
    assert!(
        r.availability >= 0.99,
        "availability SLO violated: {:.4} < 0.99",
        r.availability
    );
    assert_eq!(r.duplicate_answers, 0, "duplicate answers");
    assert!(r.scores_match_reference, "scores diverged from replay");
    assert!(
        r.p999_seconds < 1.0,
        "p999 {:.4}s reached the minimum deadline slack",
        r.p999_seconds
    );
    assert!(r.injected_faults > 0, "the storm never landed");
    assert!(
        r.host_injected_faults > 0,
        "the host-lane storm never landed"
    );
    assert!(r.lane_deaths >= 1, "the device loss never happened");
    assert!(r.lane_revivals >= 1, "the lost device never revived");
    assert!(r.breaker_opens >= 1, "no breaker ever opened");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soaks_through_the_storm_and_emits_valid_schema() {
        let (r, _run) = obs::capture(|| run(&DeviceSpec::tesla_c1060(), true));
        assert!(r.availability >= 0.99);
        assert!(r.scores_match_reference);
        assert_eq!(r.duplicate_answers, 0);
        assert!(r.lane_deaths >= 1 && r.lane_revivals >= 1 && r.breaker_opens >= 1);
        // The host-lane storm landed and was absorbed by the crash-only
        // pool without changing a single served score.
        assert!(r.host_injected_faults > 0);

        let json = r.to_json();
        let doc = obs::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        for key in [
            "offered",
            "served",
            "shed",
            "on_time",
            "availability",
            "duplicate_answers",
            "p50_seconds",
            "p99_seconds",
            "p999_seconds",
            "waves",
            "lane_deaths",
            "lane_revivals",
            "breaker_opens",
            "breaker_skips",
            "budget_denied_retries",
            "budget_denied_stagings",
            "redispatches",
            "cpu_fallback_seqs",
            "injected_faults",
            "host_injected_faults",
            "host_quarantines",
            "scores_match_reference",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert!(doc.get("availability").unwrap().as_f64().unwrap() >= 0.99);
    }
}
