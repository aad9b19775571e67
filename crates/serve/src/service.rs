//! The search service: admission → batching → wave execution, on the
//! simulated clock.
//!
//! [`SearchService::run_trace`] is a deterministic discrete-event loop
//! over an open-loop arrival trace: arrivals are admitted (or shed) the
//! instant the clock passes them, the batcher forms waves, and each
//! dispatched wave advances the clock by its service time. Every
//! admitted request is answered exactly once; a request's latency is
//! `completion − arrival` on the simulated clock.

use crate::admission::{AdmissionConfig, AdmissionQueue, ShedReason};
use crate::batch::{BatchPolicy, Batcher};
use crate::cache::ProfileCache;
use crate::exec::WaveExecutor;
use crate::health::{HealthPolicy, HealthTracker};
use crate::request::SearchRequest;
use cudasw_core::{CudaSwConfig, RecoveryPolicy, RecoveryReport};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::Database;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated devices to shard the database over.
    pub devices: usize,
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Wave-forming policy.
    pub batch: BatchPolicy,
    /// Query-profile cache capacity (entries).
    pub cache_capacity: usize,
    /// Recovery policy inherited by every lane.
    pub recovery: RecoveryPolicy,
    /// Driver configuration (threshold, kernel choice, launch shapes).
    pub search: CudaSwConfig,
    /// Lane-health policy: circuit breakers, revival pacing, hedging.
    pub health: HealthPolicy,
    /// Derive per-query deadline budgets and pass them down the recovery
    /// ladder (retries/stagings/redispatch degrade instead of overrun).
    pub propagate_deadlines: bool,
    /// Shed queued requests whose deadline has already passed instead of
    /// serving them late. Off by default: the pinned contract is that
    /// deadline misses are flagged, not dropped.
    pub shed_expired: bool,
    /// Seeded fault schedule for host-lane work (hedges, CPU fallbacks):
    /// inert by default, a storm in the chaos soak. Host lanes run inside
    /// the crash-only SIMD pool, so injected faults are absorbed without
    /// changing any served score.
    pub host_faults: sw_simd::HostFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            cache_capacity: 32,
            recovery: RecoveryPolicy::default(),
            search: CudaSwConfig::improved(),
            health: HealthPolicy::default(),
            propagate_deadlines: true,
            shed_expired: false,
            host_faults: sw_simd::HostFaultPlan::none(),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// Full-database scores, `db.sequences()` order.
    pub scores: Vec<i32>,
    /// `completion − arrival`, simulated seconds.
    pub latency_seconds: f64,
    /// True when the response missed its deadline (served anyway).
    pub deadline_missed: bool,
    /// True when part of this response's wave was served off-device
    /// (CPU fallback, quarantine recompute, or a winning host hedge).
    pub degraded: bool,
}

/// One shed request.
#[derive(Debug, Clone)]
pub struct Shed {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// Why admission refused it.
    pub reason: crate::admission::ShedReason,
}

/// Everything a trace replay produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Answered requests, completion order.
    pub responses: Vec<Response>,
    /// Refused requests, arrival order.
    pub sheds: Vec<Shed>,
    /// Waves dispatched.
    pub waves: u64,
    /// DP cells computed across all waves.
    pub total_cells: u64,
    /// Simulated time from first arrival processing to last completion.
    pub makespan_seconds: f64,
    /// Aggregated recovery story across all waves.
    pub recovery: RecoveryReport,
}

impl ServeReport {
    /// Aggregate device throughput over the makespan, GCUPS.
    pub fn gcups(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.makespan_seconds / 1.0e9
        }
    }

    /// Completed queries per simulated second of makespan.
    pub fn queries_per_second(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            self.responses.len() as f64 / self.makespan_seconds
        }
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.responses.len() + self.sheds.len();
        if offered == 0 {
            0.0
        } else {
            self.sheds.len() as f64 / offered as f64
        }
    }

    /// Latency at percentile `p` ∈ [0, 100] (nearest-rank on exact
    /// simulated latencies; 0 when nothing completed).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.responses.iter().map(|r| r.latency_seconds).collect();
        lat.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }

    /// Fraction of answered requests that missed their deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let missed = self.responses.iter().filter(|r| r.deadline_missed).count();
        missed as f64 / self.responses.len() as f64
    }

    /// Answered requests whose wave was partly served off-device.
    pub fn degraded_responses(&self) -> usize {
        self.responses.iter().filter(|r| r.degraded).count()
    }

    /// Fraction of answered requests that were degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.responses.is_empty() {
            0.0
        } else {
            self.degraded_responses() as f64 / self.responses.len() as f64
        }
    }
}

/// The serving subsystem: admission queue, batcher, profile cache, and
/// the lane executor, advanced by a discrete-event scheduler.
pub struct SearchService {
    queue: AdmissionQueue,
    batcher: Batcher,
    cache: ProfileCache,
    executor: WaveExecutor,
    shed_expired: bool,
}

impl SearchService {
    /// Bring up the service over `db` on `cfg.devices` simulated devices
    /// of `spec`, installing `plans[i]` on device `i`.
    pub fn new(spec: &DeviceSpec, cfg: &ServeConfig, db: &Database, plans: &[FaultPlan]) -> Self {
        Self {
            queue: AdmissionQueue::new(cfg.admission.clone()),
            batcher: Batcher::new(cfg.batch.clone()),
            cache: ProfileCache::new(cfg.cache_capacity),
            executor: WaveExecutor::new(
                spec,
                &cfg.search,
                db,
                cfg.devices,
                plans,
                &cfg.recovery,
                &cfg.health,
                cfg.propagate_deadlines,
                &cfg.host_faults,
            ),
            shed_expired: cfg.shed_expired,
        }
    }

    /// Profile-cache hit fraction so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Lanes still alive.
    pub fn lanes_alive(&self) -> usize {
        self.executor.lanes_alive()
    }

    /// Cross-query lane health (breaker states, EWMA scores).
    pub fn health(&self) -> &HealthTracker {
        self.executor.health()
    }

    /// Replay `trace` (sorted by arrival; [`crate::request::TraceConfig`]
    /// generates it that way) to completion and report. `now` is the
    /// discrete-event clock: a wave advances it by its service time, an
    /// idle scheduler jumps it to the next event, and no wall time is
    /// ever read, so a replay is bit-reproducible.
    pub fn run_trace(&mut self, trace: &[SearchRequest]) -> Result<ServeReport, GpuError> {
        debug_assert!(
            trace
                .windows(2)
                .all(|w| w[0].arrival_seconds <= w[1].arrival_seconds),
            "trace must be arrival-sorted"
        );
        let sp = obs::span("run_trace", "serve");
        let mut pending = trace
            .iter()
            .cloned()
            .collect::<std::collections::VecDeque<_>>();
        let start = trace.first().map_or(0.0, |r| r.arrival_seconds);
        let mut now = start;
        let mut responses = Vec::new();
        let mut sheds = Vec::new();
        let mut waves = 0u64;
        let mut total_cells = 0u64;
        let mut recovery = RecoveryReport::default();

        loop {
            // Admit everything that has arrived by `now`.
            while pending.front().is_some_and(|r| r.arrival_seconds <= now) {
                let Some(req) = pending.pop_front() else {
                    break;
                };
                if let Err(reason) = self.queue.offer(req.clone()) {
                    sheds.push(Shed {
                        id: req.id,
                        tenant: req.tenant,
                        reason,
                    });
                }
            }
            // Optionally shed queued work whose deadline already passed
            // (load-shedding mode; off by default — see `shed_expired`).
            if self.shed_expired {
                for req in self.queue.take_expired(now) {
                    sheds.push(Shed {
                        id: req.id,
                        tenant: req.tenant,
                        reason: ShedReason::DeadlineExpired,
                    });
                }
            }
            let flush = pending.is_empty();
            if let Some(wave) = self.batcher.next_wave(&mut self.queue, now, flush) {
                let outcome = self.executor.execute_wave(&wave, &mut self.cache, now)?;
                now += outcome.service_seconds;
                waves += 1;
                total_cells += outcome.total_cells;
                if outcome.recovery.degraded {
                    // Label by the dominant cause so dashboards can tell
                    // budget-driven degradation from fault-driven.
                    let cause = if outcome.recovery.cpu_fallback_seqs > 0 {
                        "cpu_fallback"
                    } else if outcome.recovery.quarantined_chunks > 0 {
                        "quarantine"
                    } else {
                        "hedge"
                    };
                    obs::counter_add("cudasw.serve.recovery.degraded", &[("cause", cause)], 1.0);
                }
                recovery.merge(&outcome.recovery);
                for (req, scores) in wave.requests.iter().zip(outcome.scores) {
                    let latency = now - req.arrival_seconds;
                    obs::observe_latency("cudasw.serve.latency_seconds", &[], latency);
                    obs::counter_add("cudasw.serve.completed", &[], 1.0);
                    responses.push(Response {
                        id: req.id,
                        tenant: req.tenant.clone(),
                        scores,
                        latency_seconds: latency,
                        deadline_missed: now > req.deadline_seconds,
                        degraded: outcome.recovery.degraded,
                    });
                }
            } else if let Some(next) = pending.front() {
                // Nothing dispatchable yet: jump to the next event — the
                // next arrival or the head's linger expiry, whichever is
                // sooner.
                let arrival = next.arrival_seconds;
                let next_event = match self.batcher.next_dispatch_at(&self.queue, now) {
                    Some(linger) => linger.min(arrival),
                    None => arrival,
                };
                now = next_event.max(now);
            } else if self.queue.is_empty() {
                break;
            }
        }

        let makespan = (now - start).max(0.0);
        sp.end_with(&[
            ("responses", &responses.len().to_string()),
            ("sheds", &sheds.len().to_string()),
        ]);
        Ok(ServeReport {
            responses,
            sheds,
            waves,
            total_cells,
            makespan_seconds: makespan,
            recovery,
        })
    }
}
