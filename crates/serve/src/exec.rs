//! Wave scheduling over [`DeviceLane`]s on the simulated clock.
//!
//! One lane per simulated device, each owning one round-robin shard of
//! the database ([`shard_database`]; [`unshard_scores`] is its inverse).
//! The per-query recovery ladder lives in [`crate::lane`]; this module
//! decides what happens around it:
//!
//! * a lane whose device dies has its shard re-dispatched to a survivor;
//! * with no survivors left the shard is computed on the host SIMD
//!   oracle (when the policy allows CPU fallback).
//!
//! On top of that sits cross-query service resilience (see
//! [`crate::health`]):
//!
//! * every lane carries a circuit breaker fed by its wave-level fault
//!   deltas — an open breaker routes the lane's shard work through the
//!   owed machinery instead of paying the retry ladder every wave;
//! * a *dead* lane's breaker paces revival probes
//!   ([`DeviceLane::try_revive`]); a revived lane restages and
//!   re-earns trust through half-open;
//! * a straggling lane (latency EWMA past the hedge threshold) has its
//!   queries speculatively re-issued on the host SIMD engine —
//!   first-result-wins, committed exactly once;
//! * with deadline propagation on, every device dispatch carries the
//!   query's remaining EDF budget so retries and redispatches degrade
//!   instead of overrunning it.
//!
//! Scores are exact integer Smith-Waterman scores on every path, so a
//! served result is bit-identical to a standalone resilient search no
//! matter which ladder rung produced it.

use crate::batch::Wave;
use crate::cache::ProfileCache;
use crate::health::{HealthPolicy, HealthTracker};
use crate::lane::DeviceLane;
use crate::request::SearchRequest;
use cudasw_core::multi_gpu::{shard_database, unshard_scores};
use cudasw_core::{CudaSwConfig, RecoveryEvent, RecoveryPolicy, RecoveryReport};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::Database;
use sw_simd::{search_protected, HostFaultPlan, PoolConfig, Precision, QueryEngine};

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
    lanes: Vec<DeviceLane>,
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
        let lanes: Vec<DeviceLane> = shards
            .into_iter()
            .enumerate()
            .map(|(device, shard)| {
                let plan = plans.get(device).cloned().unwrap_or_else(FaultPlan::none);
                DeviceLane::new(spec, config, shard, plan, policy)
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
        self.lanes.iter().filter(|l| l.alive()).count()
    }

    /// The cross-query health tracker (breaker states, fault scores).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The query's remaining EDF budget at service time `elapsed`, the
    /// seconds a device dispatch starting then may spend. `None` when
    /// deadline propagation is off.
    fn budget(&self, req: &SearchRequest, elapsed: f64) -> Option<f64> {
        self.propagate_deadlines
            .then(|| (req.deadline_seconds - elapsed).max(0.0))
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
            if !self.lanes[s].alive() {
                // The breaker paces revival probes against the dead
                // device; until one succeeds the shard work is owed. A
                // revived lane re-enters the breaker through half-open.
                if self.health.admits(s, now) {
                    if self.lanes[s].try_revive() {
                        self.health.note_revival(s, now);
                    } else {
                        self.health.observe_death(s, now);
                    }
                }
                if !self.lanes[s].alive() {
                    owed.extend(wave.exec_order.iter().map(|&q| (s, q)));
                    continue;
                }
            } else if !self.health.admits(s, now) {
                // Quarantined: route around the lane, no device traffic.
                obs::counter_add("cudasw.serve.breaker_skips", &[], 1.0);
                owed.extend(wave.exec_order.iter().map(|&q| (s, q)));
                continue;
            }
            let faults_before = self.lanes[s].faults_seen();
            let prev_lane = obs::set_lane(s as u32 + 1);
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
            if self.lanes[s].alive() {
                let faulted = self.lanes[s].faults_seen() > faults_before;
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
        self.lanes[s].set_params(params);
        // The wave is EDF-sorted, so requests[0] carries the tightest
        // deadline — the budget staging must respect.
        let staging_budget = self.budget(&wave.requests[0], now);
        self.lanes[s].stage(staging_budget, recovery, lane_seconds)?;
        // A lane that died staging still takes the first query: a hedge
        // may cover it, the device attempt fails at once (counting
        // `lane_deaths` again), and the rest is owed.
        for (pos, &q) in wave.exec_order.iter().enumerate() {
            let req = &wave.requests[q];
            let elapsed = now + *lane_seconds;
            // Hedged dispatch: a straggling lane gets a speculative host
            // twin for this query before the device attempt, budgeted
            // against the query's remaining deadline.
            let hedge = self.issue_hedge(s, req, params, elapsed, recovery);
            let gpu_start = *lane_seconds;
            let budget = self.budget(req, elapsed);
            let Some(served) = self.lanes[s].serve(&req.query, Some(&profiles[q]), budget)? else {
                // Lane is gone. If a hedge is in flight it covers this
                // query; the rest of the wave is owed to the survivors
                // either way.
                let rest = if let Some(h) = hedge {
                    self.commit_hedge(s, q, &h, scores, recovery);
                    *lane_seconds = gpu_start + h.seconds;
                    pos + 1
                } else {
                    pos
                };
                owed.extend(wave.exec_order[rest..].iter().map(|&qq| (s, qq)));
                return Ok(());
            };
            unshard_scores(&mut scores[q], s, k, &served.scores);
            *total_cells += served.cells;
            recovery.merge(&served.recovery);
            let gpu_secs = served.seconds;
            // Exactly-once commitment: the first finisher's result stands.
            // Scores are bit-identical on both paths, so "which won" only
            // decides the lane's clock (and the degraded flag).
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
        let shard = self.lanes[s].shard();
        if !self.health.should_hedge(s) || shard.is_empty() {
            return None;
        }
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
        unshard_scores(&mut scores[q], s, self.lanes.len(), &hedge.scores);
        recovery.degraded = true;
        obs::counter_add("cudasw.serve.hedge.wins", &[("winner", "host")], 1.0);
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
            let shard = self.lanes[dead].shard().clone();
            if shard.is_empty() {
                continue;
            }
            let mut served = false;
            // Absolute deadline for this query; once passed, stop burning
            // device time on redispatch and degrade straight to the host.
            let deadline = if self.policy.cpu_fallback {
                self.budget(req, now).map(|b| obs::now() + b)
            } else {
                None
            };
            while !deadline.is_some_and(|d| obs::now() >= d) {
                // The health tracker ranks survivors by fault score;
                // lanes with open breakers only take owed work when
                // nothing healthier remains (better a suspect device
                // than a guaranteed host-speed answer).
                let alive: Vec<bool> = self.lanes.iter().map(DeviceLane::alive).collect();
                let Some(t) = self
                    .health
                    .preferred(&alive, dead)
                    .or_else(|| (0..k).find(|&t| t != dead && alive[t]))
                else {
                    break;
                };
                let prev_lane = obs::set_lane(t as u32 + 1);
                let budget = self.budget(req, now + lane_seconds[t]);
                self.lanes[t].set_params(params);
                let attempt = self.lanes[t].serve_foreign(&req.query, &shard, budget);
                obs::set_lane(prev_lane);
                let Some(r) = attempt? else {
                    self.health.observe_death(t, now);
                    continue;
                };
                unshard_scores(&mut scores[q], dead, k, &r.scores);
                lane_seconds[t] += r.seconds;
                *total_cells += r.cells;
                recovery.merge(&r.recovery);
                recovery.shard_redispatches += 1;
                recovery.events.push(RecoveryEvent::ShardRedispatch {
                    from_device: dead,
                    to_device: t,
                    sequences: shard.len(),
                });
                obs::counter_add("cudasw.serve.redispatches", &[], 1.0);
                served = true;
                break;
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
            unshard_scores(&mut scores[q], dead, k, &r.scores);
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
}
