//! Wave execution over resilient multi-GPU shard lanes.
//!
//! One [`Lane`] per simulated device, each owning one round-robin shard
//! of the database ([`cudasw_core::multi_gpu::shard_database`] layout:
//! shard `s` position `j` is database sequence `s + j·k`). The fast path
//! keeps the shard device-resident ([`StagedDatabase`]) so a wave of `N`
//! compatible queries stages the database **once** and pays only two
//! per-query H2D transfers each; every fault path inherits the resilient
//! driver's recovery ladder:
//!
//! * a fault inside a staged search drops the handle and reruns the
//!   query through [`CudaSwDriver::search_resilient`] (retry, backoff,
//!   OOM re-chunking, quarantine);
//! * a lane whose device dies has its shard re-dispatched to a survivor;
//! * with no survivors left the shard is computed on the host SIMD
//!   oracle (when the policy allows CPU fallback).
//!
//! On top of the per-query ladder sits cross-query service resilience
//! (see [`crate::health`]):
//!
//! * every lane carries a circuit breaker fed by its wave-level fault
//!   deltas — an open breaker routes the lane's shard work through the
//!   owed machinery instead of paying the retry ladder every wave;
//! * a *dead* lane's breaker paces revival probes
//!   ([`gpu_sim::GpuDevice::try_revive`]); a revived lane restages and
//!   re-earns trust through half-open;
//! * a straggling lane (latency EWMA past the hedge threshold) has its
//!   queries speculatively re-issued on the host SIMD engine —
//!   first-result-wins, committed exactly once;
//! * with deadline propagation on, every device dispatch carries the
//!   query's remaining EDF budget ([`RecoveryPolicy::deadline_seconds`])
//!   so retries and redispatches degrade instead of overrunning it.
//!
//! Scores are exact integer Smith-Waterman scores on every path, so a
//! served result is bit-identical to a standalone resilient search no
//! matter which ladder rung produced it.

use crate::batch::Wave;
use crate::cache::ProfileCache;
use crate::health::{HealthPolicy, HealthTracker};
use crate::request::SearchRequest;
use cudasw_core::multi_gpu::shard_database;
use cudasw_core::{
    CudaSwConfig, CudaSwDriver, RecoveryEvent, RecoveryPolicy, RecoveryReport, StagedDatabase,
};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::Database;
use sw_simd::{search_protected, HostFaultPlan, PoolConfig, Precision, QueryEngine};

/// One device lane: a driver bound to one database shard.
struct Lane {
    device: usize,
    driver: CudaSwDriver,
    shard: Database,
    staged: Option<StagedDatabase>,
    alive: bool,
}

/// Host SIMD throughput the hedge cost model assumes, cells/second. The
/// hedge only needs a *relative* cost to decide the first finisher, and
/// a fixed constant keeps replays deterministic.
const HEDGE_HOST_CUPS: f64 = 1.0e9;

/// A speculative host-side result for one query's shard work.
struct HedgeResult {
    /// Shard-order scores from the host SIMD engine.
    scores: Vec<i32>,
    /// Modelled host completion time, service seconds.
    seconds: f64,
}

/// What one wave took to serve.
#[derive(Debug, Clone)]
pub struct WaveOutcome {
    /// Per-request full-database scores, indexed like `wave.requests`
    /// (logical order); scores within follow `db.sequences()` order.
    pub scores: Vec<Vec<i32>>,
    /// Aggregated recovery story (all lanes, redispatch and CPU fallback
    /// included).
    pub recovery: RecoveryReport,
    /// Simulated wall-clock the wave occupied the farm: the slowest
    /// lane's staging + kernel + transfer + backoff seconds (lanes run
    /// concurrently).
    pub service_seconds: f64,
    /// DP cells computed on devices during the wave.
    pub total_cells: u64,
}

/// The scheduler's execution backend: a farm of resilient shard lanes.
pub struct WaveExecutor {
    lanes: Vec<Lane>,
    policy: RecoveryPolicy,
    db_len: usize,
    health: HealthTracker,
    propagate_deadlines: bool,
    /// Seeded fault schedule for host-lane work (hedges, fallbacks):
    /// inert in production, a storm in the chaos soak. Host lanes run in
    /// the crash-only SIMD pool, so injected panics/stalls/alloc failures
    /// are absorbed without changing a score.
    host_faults: HostFaultPlan,
}

impl WaveExecutor {
    /// Bring up `devices` lanes of `spec` over round-robin shards of
    /// `db`, installing `plans[i]` on lane `i` (missing entries get
    /// [`FaultPlan::none`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &DeviceSpec,
        config: &CudaSwConfig,
        db: &Database,
        devices: usize,
        plans: &[FaultPlan],
        policy: &RecoveryPolicy,
        health: &HealthPolicy,
        propagate_deadlines: bool,
        host_faults: &HostFaultPlan,
    ) -> Self {
        let devices = devices.max(1);
        let shards = shard_database(db, devices);
        let lanes: Vec<Lane> = shards
            .into_iter()
            .enumerate()
            .map(|(device, shard)| {
                let mut driver = CudaSwDriver::new(spec.clone(), config.clone());
                driver
                    .dev
                    .inject_faults(plans.get(device).cloned().unwrap_or_else(FaultPlan::none));
                driver.dev.set_integrity_checks(policy.integrity_checks);
                driver.dev.set_watchdog_cycles(policy.watchdog_cycles);
                Lane {
                    device,
                    driver,
                    shard,
                    staged: None,
                    alive: true,
                }
            })
            .collect();
        let health = HealthTracker::new(lanes.len(), health.clone());
        Self {
            lanes,
            policy: policy.clone(),
            db_len: db.len(),
            health,
            propagate_deadlines,
            host_faults: host_faults.clone(),
        }
    }

    /// Pool config for host-lane work: single worker (the service loop is
    /// a deterministic discrete-event simulation), full fault domain, and
    /// no cancel token — so a `search_protected` under it never returns
    /// `Err` and a host lane always has an answer. Hedges and owed shards
    /// stay single-query jobs, not waves: one thread on a simulated clock
    /// has no per-job cost to share, and `BENCH_soak.json`'s host fault
    /// counts are drawn per (query, chunk).
    fn host_pool_config(&self) -> PoolConfig {
        PoolConfig::new(1, Precision::Adaptive).with_fault_plan(self.host_faults.clone())
    }

    /// Number of lanes still alive.
    pub fn lanes_alive(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive).count()
    }

    /// Number of lanes the executor started with.
    pub fn lanes_total(&self) -> usize {
        self.lanes.len()
    }

    /// The cross-query health tracker (breaker states, fault scores).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The absolute simulated-clock deadline for a device dispatch that
    /// starts `service_elapsed` seconds into the wave: the query's
    /// remaining EDF budget mapped onto the device clock. `None` when
    /// deadline propagation is off or the request carries no meaningful
    /// budget.
    fn query_deadline(&self, req: &SearchRequest, service_elapsed: f64) -> Option<f64> {
        if !self.propagate_deadlines {
            return None;
        }
        Some(obs::now() + (req.deadline_seconds - service_elapsed).max(0.0))
    }

    /// Serve every request of `wave` (single parameter class, enforced by
    /// the batcher) and return full-database scores per request. `now` is
    /// the service clock at dispatch — it drives breaker cooldowns,
    /// revival probes and deadline budgets.
    ///
    /// `Err` is reserved for unrecoverable conditions: a non-recoverable
    /// device error (a program bug), or every lane dead with CPU fallback
    /// disabled by the policy.
    pub fn execute_wave(
        &mut self,
        wave: &Wave,
        cache: &mut ProfileCache,
        now: f64,
    ) -> Result<WaveOutcome, GpuError> {
        let n = wave.requests.len();
        if n == 0 {
            return Ok(WaveOutcome {
                scores: Vec::new(),
                recovery: RecoveryReport::default(),
                service_seconds: 0.0,
                total_cells: 0,
            });
        }
        let sp = obs::span("wave", "serve");
        let k = self.lanes.len();
        let params = wave.requests[0].params.clone();
        // One profile per request, cache-shared across all lanes.
        let profiles: Vec<_> = wave
            .requests
            .iter()
            .map(|r| cache.get_or_build(&params.matrix, &r.query))
            .collect();

        let mut scores = vec![vec![0i32; self.db_len]; n];
        let mut recovery = RecoveryReport::default();
        let mut lane_seconds = vec![0.0f64; k];
        let mut total_cells = 0u64;
        // (lane, request-index) pairs whose shard scores are still owed
        // because the lane died mid-wave, was already dead, or is
        // quarantined by its breaker.
        let mut owed: Vec<(usize, usize)> = Vec::new();

        for (s, seconds) in lane_seconds.iter_mut().enumerate() {
            if !self.lanes[s].alive {
                // The breaker paces revival probes against the dead
                // device; until one succeeds the shard work is owed.
                if self.health.admits(s, now) && !self.try_revive_lane(s, now) {
                    self.health.observe_death(s, now);
                }
                if !self.lanes[s].alive {
                    owed.extend(wave.exec_order.iter().map(|&q| (s, q)));
                    continue;
                }
            } else if !self.health.admits(s, now) {
                // Quarantined: route around the lane, no device traffic.
                obs::counter_add("cudasw.serve.breaker_skips", &[], 1.0);
                owed.extend(wave.exec_order.iter().map(|&q| (s, q)));
                continue;
            }
            let faults_before = self.lanes[s].driver.dev.fault_stats().total();
            let prev_lane = obs::set_lane(self.lanes[s].device as u32 + 1);
            let outcome = self.run_lane_wave(
                s,
                wave,
                now,
                &params,
                &profiles,
                &mut scores,
                &mut recovery,
                seconds,
                &mut total_cells,
                &mut owed,
            );
            obs::set_lane(prev_lane);
            outcome?;
            if self.lanes[s].alive {
                let faulted = self.lanes[s].driver.dev.fault_stats().total() > faults_before;
                self.health.observe_wave(s, faulted, now);
            } else {
                self.health.observe_death(s, now);
            }
        }

        self.settle_owed(
            wave,
            now,
            &params,
            owed,
            &mut scores,
            &mut recovery,
            &mut lane_seconds,
            &mut total_cells,
        )?;

        let service_seconds = lane_seconds.iter().cloned().fold(0.0, f64::max);
        sp.end_with(&[
            ("requests", &n.to_string()),
            ("lanes", &self.lanes_alive().to_string()),
        ]);
        Ok(WaveOutcome {
            scores,
            recovery,
            service_seconds,
            total_cells,
        })
    }

    /// One revival probe against dead lane `s`: on success the lane comes
    /// back alive with no staged handle (the reset wiped device memory)
    /// and re-enters the breaker through half-open.
    fn try_revive_lane(&mut self, s: usize, now: f64) -> bool {
        if self.lanes[s].driver.dev.try_revive() {
            self.lanes[s].alive = true;
            self.lanes[s].staged = None;
            self.health.note_revival(s, now);
            obs::counter_add("cudasw.serve.lane_revivals", &[], 1.0);
            true
        } else {
            false
        }
    }

    /// Run every wave query on lane `s`, staged fast path first. Pushes
    /// un-served (lane died) work onto `owed`. Queries on a straggling
    /// lane are hedged on the host SIMD engine, first-result-wins.
    #[allow(clippy::too_many_arguments)]
    fn run_lane_wave(
        &mut self,
        s: usize,
        wave: &Wave,
        now: f64,
        params: &sw_align::SwParams,
        profiles: &[std::rc::Rc<sw_align::PackedProfile>],
        scores: &mut [Vec<i32>],
        recovery: &mut RecoveryReport,
        lane_seconds: &mut f64,
        total_cells: &mut u64,
        owed: &mut Vec<(usize, usize)>,
    ) -> Result<(), GpuError> {
        let k = self.lanes.len();
        self.lanes[s].driver.config.params = params.clone();
        if self.lanes[s].staged.is_none() {
            self.stage_lane(s, wave, now, recovery, lane_seconds)?;
        }
        for (pos, &q) in wave.exec_order.iter().enumerate() {
            let req = &wave.requests[q];
            // Hedged dispatch: a straggling lane gets a speculative host
            // twin for this query before the device attempt, budgeted
            // against the query's remaining deadline.
            let hedge = self.issue_hedge(s, req, params, now + *lane_seconds, recovery);
            let gpu_start = *lane_seconds;
            let mut served_secs: Option<f64> = None;
            // Fast path: the resident shard plus the cached profile.
            if let Some(staged) = self.lanes[s].staged.clone() {
                match self.lanes[s].driver.search_staged_with_profile(
                    &req.query,
                    &profiles[q],
                    &staged,
                ) {
                    Ok(r) => {
                        for (j, &v) in r.scores.iter().enumerate() {
                            scores[q][s + j * k] = v;
                        }
                        served_secs = Some(r.kernel_seconds() + r.transfer_seconds);
                        *total_cells += r.total_cells();
                    }
                    Err(e) if e.is_recoverable() => {
                        // The handle may have been invalidated by recovery
                        // machinery; drop it and take the resilient path.
                        self.lanes[s].staged = None;
                        obs::counter_add("cudasw.serve.staged_faults", &[], 1.0);
                    }
                    Err(e) => return Err(e),
                }
            }
            if served_secs.is_none() {
                // Resilient path: full recovery ladder on this lane's
                // shard, bounded by the query's remaining deadline budget.
                let shard = self.lanes[s].shard.clone();
                let policy = RecoveryPolicy {
                    deadline_seconds: self.query_deadline(req, now + *lane_seconds),
                    ..self.lane_policy()
                };
                match self.lanes[s]
                    .driver
                    .search_resilient(&req.query, &shard, &policy)
                {
                    Ok(rr) => {
                        for (j, &v) in rr.result.scores.iter().enumerate() {
                            scores[q][s + j * k] = v;
                        }
                        served_secs = Some(
                            rr.result.kernel_seconds()
                                + rr.result.transfer_seconds
                                + rr.recovery.backoff_seconds,
                        );
                        *total_cells += rr.result.total_cells();
                        recovery.merge(&rr.recovery);
                    }
                    Err(e) if e.is_recoverable() => {
                        // Lane is gone. If a hedge is in flight it covers
                        // this query; the rest of the wave is owed to the
                        // survivors either way.
                        self.lanes[s].alive = false;
                        obs::counter_add("cudasw.serve.lane_deaths", &[], 1.0);
                        let rest = if let Some(h) = hedge {
                            self.commit_hedge(s, q, &h, scores, recovery);
                            *lane_seconds = gpu_start + h.seconds;
                            pos + 1
                        } else {
                            pos
                        };
                        owed.extend(wave.exec_order[rest..].iter().map(|&qq| (s, qq)));
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
            }
            // Exactly-once commitment: the first finisher's result stands.
            // Scores are bit-identical on both paths, so "which won" only
            // decides the lane's clock (and the degraded flag).
            // Unreachable fallback: every path above either set
            // `served_secs` or returned.
            let Some(gpu_secs) = served_secs else {
                continue;
            };
            match hedge {
                Some(h) if h.seconds < gpu_secs => {
                    self.commit_hedge(s, q, &h, scores, recovery);
                    *lane_seconds = gpu_start + h.seconds;
                }
                Some(_) => {
                    obs::counter_add("cudasw.serve.hedge.wins", &[("winner", "lane")], 1.0);
                    *lane_seconds = gpu_start + gpu_secs;
                }
                None => *lane_seconds = gpu_start + gpu_secs,
            }
            self.health.observe_latency(s, *lane_seconds - gpu_start);
        }
        Ok(())
    }

    /// Speculatively compute `req`'s shard scores on the host SIMD engine
    /// when lane `s` is straggling. Returns `None` when the hedge trigger
    /// is quiet — or when the modelled host cost would overrun the
    /// query's remaining deadline budget (a hedge that cannot finish in
    /// budget only burns CPU; the denial is the host-lane twin of the
    /// device ladder's `BudgetDenied`).
    fn issue_hedge(
        &mut self,
        s: usize,
        req: &SearchRequest,
        params: &sw_align::SwParams,
        service_elapsed: f64,
        recovery: &mut RecoveryReport,
    ) -> Option<HedgeResult> {
        if !self.health.should_hedge(s) || self.lanes[s].shard.is_empty() {
            return None;
        }
        let shard = &self.lanes[s].shard;
        let seconds = shard.total_cells(req.query.len()) as f64 / HEDGE_HOST_CUPS;
        if self.propagate_deadlines {
            let left = req.deadline_seconds - service_elapsed;
            if seconds > left {
                recovery.note_host_budget_denied(seconds, left);
                return None;
            }
        }
        obs::counter_add("cudasw.serve.hedge.issued", &[], 1.0);
        // The hedge runs inside the crash-only pool: panic quarantine,
        // admission, and any injected host faults, bit-identical scores.
        let engine = QueryEngine::new(params.clone(), &req.query);
        let r = search_protected(&engine, shard.sequences(), &self.host_pool_config()).ok()?;
        sw_simd::record_stats(engine.kind(), &r.stats);
        Some(HedgeResult {
            scores: r.scores,
            seconds,
        })
    }

    /// Commit a winning hedge for query `q` on lane `s`'s shard slots.
    fn commit_hedge(
        &mut self,
        s: usize,
        q: usize,
        hedge: &HedgeResult,
        scores: &mut [Vec<i32>],
        recovery: &mut RecoveryReport,
    ) {
        let k = self.lanes.len();
        for (j, &v) in hedge.scores.iter().enumerate() {
            scores[q][s + j * k] = v;
        }
        recovery.degraded = true;
        obs::counter_add("cudasw.serve.hedge.wins", &[("winner", "host")], 1.0);
    }

    /// Stage lane `s`'s shard, retrying transient faults with backoff.
    /// On persistent failure the lane either dies (device loss / retries
    /// exhausted) or falls back to un-staged per-query searches (OOM and
    /// everything else) — both leave `staged` as `None`. Staging retries
    /// are budgeted against the wave's most urgent deadline: a denied
    /// retry serves the wave un-staged instead of backing off.
    fn stage_lane(
        &mut self,
        s: usize,
        wave: &Wave,
        now: f64,
        recovery: &mut RecoveryReport,
        lane_seconds: &mut f64,
    ) -> Result<(), GpuError> {
        let mut attempt = 0u32;
        // The wave is EDF-sorted, so requests[0] carries the tightest
        // deadline — the budget staging must respect.
        let deadline = self.query_deadline(&wave.requests[0], now);
        loop {
            let shard = self.lanes[s].shard.clone();
            match self.lanes[s].driver.stage_database(&shard) {
                Ok(staged) => {
                    *lane_seconds += staged.staging_seconds();
                    self.lanes[s].staged = Some(staged);
                    obs::counter_add("cudasw.serve.db_stagings", &[], 1.0);
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    let backoff =
                        self.policy.backoff_base_seconds * f64::from(1u32 << attempt.min(20));
                    if deadline.is_some_and(|d| obs::now() + backoff > d) {
                        // Budget exhausted: no more staging retries — the
                        // wave runs un-staged (per-query searches still
                        // respect their own budgets).
                        recovery.budget_denied_retries += 1;
                        recovery.events.push(RecoveryEvent::BudgetDenied {
                            error: e.to_string(),
                        });
                        obs::counter_add("cudasw.serve.budget_denied_stagings", &[], 1.0);
                        obs::counter_add("cudasw.serve.staging_fallbacks", &[], 1.0);
                        return Ok(());
                    }
                    attempt += 1;
                    recovery.retries += 1;
                    recovery.backoff_seconds += backoff;
                    recovery.events.push(RecoveryEvent::Retry {
                        error: e.to_string(),
                        attempt,
                    });
                    *lane_seconds += backoff;
                    obs::counter_add("cudasw.serve.staging_retries", &[], 1.0);
                    obs::advance(backoff);
                }
                Err(GpuError::DeviceLost) => {
                    self.lanes[s].alive = false;
                    obs::counter_add("cudasw.serve.lane_deaths", &[], 1.0);
                    return Ok(());
                }
                Err(e) if e.is_recoverable() => {
                    // OOM or retries exhausted: serve this wave un-staged
                    // (search_resilient re-chunks around OOM itself).
                    obs::counter_add("cudasw.serve.staging_fallbacks", &[], 1.0);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serve shard work owed by dead or quarantined lanes: re-dispatch to
    /// the healthiest admitted survivor, falling back to the host SIMD
    /// oracle when no lane is left (or the deadline budget is spent).
    #[allow(clippy::too_many_arguments)]
    fn settle_owed(
        &mut self,
        wave: &Wave,
        now: f64,
        params: &sw_align::SwParams,
        owed: Vec<(usize, usize)>,
        scores: &mut [Vec<i32>],
        recovery: &mut RecoveryReport,
        lane_seconds: &mut [f64],
        total_cells: &mut u64,
    ) -> Result<(), GpuError> {
        let k = self.lanes.len();
        for (dead, q) in owed {
            let req = &wave.requests[q];
            let shard = self.lanes[dead].shard.clone();
            if shard.is_empty() {
                continue;
            }
            let mut served = false;
            // Absolute budget for this query; once spent, stop burning
            // device time on redispatch and degrade straight to the host.
            let budget = if self.policy.cpu_fallback {
                self.query_deadline(req, now)
            } else {
                None
            };
            while !budget.is_some_and(|d| obs::now() >= d) {
                // The health tracker ranks survivors by fault score;
                // lanes with open breakers only take owed work when
                // nothing healthier remains (better a suspect device
                // than a guaranteed host-speed answer).
                let alive: Vec<bool> = self.lanes.iter().map(|l| l.alive).collect();
                let Some(t) = self
                    .health
                    .preferred(&alive, dead)
                    .or_else(|| (0..k).find(|&t| t != dead && self.lanes[t].alive))
                else {
                    break;
                };
                let prev_lane = obs::set_lane(self.lanes[t].device as u32 + 1);
                let policy = RecoveryPolicy {
                    deadline_seconds: self.query_deadline(req, now + lane_seconds[t]),
                    ..self.lane_policy()
                };
                self.lanes[t].driver.config.params = params.clone();
                let attempt = self.lanes[t]
                    .driver
                    .search_resilient(&req.query, &shard, &policy);
                obs::set_lane(prev_lane);
                match attempt {
                    Ok(rr) => {
                        // search_resilient reset the survivor's allocator.
                        self.lanes[t].staged = None;
                        for (j, &v) in rr.result.scores.iter().enumerate() {
                            scores[q][dead + j * k] = v;
                        }
                        lane_seconds[t] += rr.result.kernel_seconds()
                            + rr.result.transfer_seconds
                            + rr.recovery.backoff_seconds;
                        *total_cells += rr.result.total_cells();
                        recovery.merge(&rr.recovery);
                        recovery.shard_redispatches += 1;
                        recovery.events.push(RecoveryEvent::ShardRedispatch {
                            from_device: self.lanes[dead].device,
                            to_device: self.lanes[t].device,
                            sequences: shard.len(),
                        });
                        obs::counter_add("cudasw.serve.redispatches", &[], 1.0);
                        served = true;
                        break;
                    }
                    Err(e) if e.is_recoverable() => {
                        self.lanes[t].alive = false;
                        obs::counter_add("cudasw.serve.lane_deaths", &[], 1.0);
                        self.health.observe_death(t, now);
                    }
                    Err(e) => return Err(e),
                }
            }
            if served {
                continue;
            }
            // No survivors (or no budget left for device work): host SIMD
            // oracle, if the policy allows it.
            if !self.policy.cpu_fallback {
                return Err(GpuError::DeviceLost);
            }
            // One dispatched engine per owed shard: profiles are built
            // once and reused across the shard's sequences. The fallback
            // runs in the crash-only pool — the service's last line of
            // defence must itself survive panics and pressure.
            let engine = QueryEngine::new(params.clone(), &req.query);
            let r = search_protected(&engine, shard.sequences(), &self.host_pool_config())
                .map_err(|_| GpuError::DeviceLost)?;
            for (j, &v) in r.scores.iter().enumerate() {
                scores[q][dead + j * k] = v;
            }
            sw_simd::record_stats(engine.kind(), &r.stats);
            recovery.cpu_fallback_seqs += shard.len() as u64;
            recovery.degraded = true;
            recovery.events.push(RecoveryEvent::CpuFallback {
                sequences: shard.len(),
            });
            obs::counter_add("cudasw.serve.cpu_fallback_seqs", &[], shard.len() as f64);
        }
        Ok(())
    }

    /// The per-lane recovery policy: like the service policy, but a dead
    /// device surfaces as `Err` so the executor can re-dispatch the shard
    /// instead of silently computing it on the CPU.
    fn lane_policy(&self) -> RecoveryPolicy {
        RecoveryPolicy {
            cpu_fallback: false,
            ..self.policy.clone()
        }
    }
}
