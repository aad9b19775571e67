//! The search service: the [`WaveMachine`] driven by a discrete-event
//! loop on the simulated clock.
//!
//! [`SearchService::run_trace`] replays an open-loop arrival trace:
//! arrivals are submitted the instant the clock passes them, the machine
//! seals one wave at a time, and the loop carries out its actions
//! synchronously over one [`DeviceLane`] per simulated device, each owning
//! one round-robin shard of the database ([`shard_database`]). A wave
//! advances the clock by its service time, the slowest lane's staging +
//! kernel + transfer + backoff seconds (lanes run concurrently), and an
//! idle loop jumps to the next event. No wall time is ever read, so a
//! replay is bit-reproducible.
//!
//! Around the per-query ladder in [`crate::lane`] the loop decides where
//! work runs, with the cross-query health of [`crate::health`]:
//!
//! * a lane whose breaker is open reports its shard dead, so the machine
//!   owes it instead of the lane paying the retry ladder every wave;
//! * a dead lane's breaker paces revival probes
//!   ([`DeviceLane::try_revive`]); a revived lane restages and re-earns
//!   trust through half-open;
//! * owed work goes to the healthiest admitted survivor, and to the host
//!   SIMD oracle when no lane is left or the query's deadline budget is
//!   spent (when the policy allows CPU fallback);
//! * every device dispatch carries the query's remaining EDF budget so
//!   retries and redispatches degrade instead of overrunning it.
//!
//! Scores are exact integer Smith-Waterman scores on every path, so a
//! served result is bit-identical to a standalone resilient search no
//! matter which rung or lane produced it.

use crate::admission::AdmissionConfig;
use crate::batch::{BatchPolicy, Wave};
use crate::health::{HealthPolicy, HealthTracker};
use crate::lane::DeviceLane;
use crate::machine::{Action, Event, Outcome, Part, ServeReport, WaveMachine};
use crate::request::SearchRequest;
use cudasw_core::multi_gpu::shard_database;
use cudasw_core::{CudaSwConfig, RecoveryPolicy, RecoveryReport};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::Database;
use sw_simd::{search_wave_protected, PoolConfig, Precision, QueryEngine};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated devices to shard the database over.
    pub devices: usize,
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Wave-forming policy.
    pub batch: BatchPolicy,
    /// Recovery policy inherited by every lane.
    pub recovery: RecoveryPolicy,
    /// Driver configuration (threshold, kernel choice, launch shapes).
    pub search: CudaSwConfig,
    /// Lane-health policy: circuit breakers and revival pacing.
    pub health: HealthPolicy,
    /// Seeded fault schedule for the CPU fallback: inert by default, a
    /// storm in the chaos soak. The fallback runs inside the crash-only
    /// SIMD pool, so injected faults are absorbed without changing any
    /// served score.
    pub host_faults: sw_simd::HostFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            recovery: RecoveryPolicy::default(),
            search: CudaSwConfig::improved(),
            health: HealthPolicy::default(),
            host_faults: sw_simd::HostFaultPlan::none(),
        }
    }
}

/// The simulated side of the wave in flight.
struct WaveRun {
    /// Service clock at dispatch: breaker cooldowns, revival probes and
    /// deadline budgets read it.
    start: f64,
    /// Requests in the wave.
    requests: usize,
    /// Service seconds each lane has been busy this wave.
    lane_seconds: Vec<f64>,
    /// Aggregated recovery story (all lanes, redispatch and CPU fallback
    /// included).
    recovery: RecoveryReport,
    span: obs::SpanGuard,
}

impl WaveRun {
    /// The service clock once the busiest lane is done.
    fn now(&self) -> f64 {
        self.start + self.lane_seconds.iter().cloned().fold(0.0, f64::max)
    }
}

/// The serving subsystem: lanes and health tracker around a
/// [`WaveMachine`] advanced by a discrete-event loop.
pub struct SearchService {
    cfg: ServeConfig,
    lanes: Vec<DeviceLane>,
    health: HealthTracker,
    db_len: usize,
}

impl SearchService {
    /// Bring up the service over `db` on `cfg.devices` simulated devices
    /// of `spec` (at least one), installing `plans[i]` on device `i`
    /// (missing entries get [`FaultPlan::none`]).
    pub fn new(spec: &DeviceSpec, cfg: &ServeConfig, db: &Database, plans: &[FaultPlan]) -> Self {
        let lanes: Vec<DeviceLane> = shard_database(db, cfg.devices.max(1))
            .into_iter()
            .enumerate()
            .map(|(device, shard)| {
                let plan = plans.get(device).cloned().unwrap_or_else(FaultPlan::none);
                DeviceLane::new(spec, &cfg.search, shard, plan, &cfg.recovery)
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            health: HealthTracker::new(lanes.len(), cfg.health.clone()),
            lanes,
            db_len: db.len(),
        }
    }

    /// Lanes still alive.
    pub fn lanes_alive(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive()).count()
    }

    /// Replay `trace` (sorted by arrival; [`crate::request::TraceConfig`]
    /// generates it that way) to completion and report, responses with
    /// their scores. `now` is the discrete-event clock: a wave advances it
    /// by its service time and an idle loop jumps it to the next event.
    ///
    /// `Err` is reserved for unrecoverable conditions: a non-recoverable
    /// device error (a program bug), or every lane dead with CPU fallback
    /// disabled by the policy.
    pub fn run_trace(&mut self, trace: &[SearchRequest]) -> Result<ServeReport, GpuError> {
        debug_assert!(
            trace
                .windows(2)
                .all(|w| w[0].arrival_seconds <= w[1].arrival_seconds),
            "trace must be arrival-sorted"
        );
        let sp = obs::span("run_trace", "serve");
        // One wave in flight: the loop runs each wave to completion.
        let mut machine = WaveMachine::new(
            self.lanes.len(),
            self.db_len,
            1,
            self.cfg.admission.clone(),
            self.cfg.batch.clone(),
        );
        let mut pending = trace.iter().peekable();
        let mut now = trace.first().map_or(0.0, |r| r.arrival_seconds);
        let mut responses = Vec::new();
        let mut recovery = RecoveryReport::default();

        loop {
            while let Some(req) = pending.next_if(|r| r.arrival_seconds <= now) {
                machine.handle(now, Event::Submit(req.clone()));
            }
            if pending.peek().is_none() {
                machine.handle(now, Event::Drain);
            }
            machine.handle(now, Event::Tick);
            let mut run = None;
            while let Some(action) = machine.next_action() {
                match action {
                    Action::Run(part) => {
                        let run = run.get_or_insert_with(|| self.start_wave(&part.wave, now));
                        let event = self.run_shard(run, &part)?;
                        machine.handle(run.now(), event);
                    }
                    Action::Owe(part, requests) => {
                        let run = run.get_or_insert_with(|| self.start_wave(&part.wave, now));
                        let event = self.settle_owed(run, &part, &requests)?;
                        machine.handle(run.now(), event);
                    }
                    Action::Respond {
                        outcome: Outcome::Served(response),
                        ..
                    } => responses.push(response),
                    Action::Respond { .. } => {}
                }
            }
            if let Some(run) = run {
                now = run.now();
                run.span.end_with(&[
                    ("requests", &run.requests.to_string()),
                    ("lanes", &self.lanes_alive().to_string()),
                ]);
                if run.recovery.degraded {
                    // Label by the dominant cause: the CPU fallback or an
                    // integrity quarantine, the only ways a wave degrades.
                    let cause = if run.recovery.cpu_fallback_seqs > 0 {
                        "cpu_fallback"
                    } else {
                        "quarantine"
                    };
                    obs::counter_add("cudasw.serve.recovery.degraded", &[("cause", cause)], 1.0);
                }
                recovery.merge(&run.recovery);
            } else if let Some(next) = pending.peek() {
                // Nothing dispatchable yet: jump to the next event — the
                // next arrival or the head's linger expiry, whichever is
                // sooner.
                let arrival = next.arrival_seconds;
                let next_event = match machine.next_dispatch_at(now) {
                    Some(linger) => linger.min(arrival),
                    None => arrival,
                };
                now = next_event.max(now);
            } else if machine.is_idle() {
                break;
            }
        }

        let mut report = machine.into_report();
        report.responses = responses;
        report.recovery = recovery;
        sp.end_with(&[
            ("responses", &report.responses.len().to_string()),
            ("sheds", &report.sheds.len().to_string()),
        ]);
        Ok(report)
    }

    /// Open the wave: start every lane's clock at zero.
    fn start_wave(&self, wave: &Wave, now: f64) -> WaveRun {
        let span = obs::span("wave", "serve");
        WaveRun {
            start: now,
            requests: wave.requests.len(),
            lane_seconds: vec![0.0; self.lanes.len()],
            recovery: RecoveryReport::default(),
            span,
        }
    }

    /// Pool config for the CPU fallback: single worker (the service loop
    /// is a deterministic discrete-event simulation), full fault domain,
    /// and no cancel token — so a `search_wave_protected` under it never
    /// returns `Err` and the fallback always has an answer. Owed shards stay
    /// single-query jobs, not waves: one thread on a simulated clock has no
    /// per-job cost to share, and `BENCH_soak.json`'s host fault counts are
    /// drawn per (query, chunk).
    fn host_pool_config(&self) -> PoolConfig {
        PoolConfig::new(1, Precision::Adaptive).with_fault_plan(self.cfg.host_faults.clone())
    }

    /// The query's remaining EDF budget at service time `elapsed`, the
    /// seconds a device dispatch starting then may spend: deadlines are
    /// passed down the recovery ladder, so retries, stagings and
    /// re-dispatches degrade instead of overrunning.
    fn budget(req: &SearchRequest, elapsed: f64) -> f64 {
        (req.deadline_seconds - elapsed).max(0.0)
    }

    /// Carry out [`Action::Run`] on the part's own lane: revive or skip the
    /// lane as its breaker says, else run the wave on it. Returns the
    /// event to report.
    fn run_shard(&mut self, run: &mut WaveRun, part: &Part) -> Result<Event, GpuError> {
        let (wave_id, s) = (part.wave_id, part.shard);
        let now = run.start;
        if !self.lanes[s].alive() {
            // The breaker paces revival probes against the dead device;
            // until one succeeds the shard work is owed. A revived lane
            // re-enters the breaker through half-open.
            if self.health.admits(s, now) {
                if self.lanes[s].try_revive() {
                    self.health.note_revival(s, now);
                } else {
                    self.health.observe_death(s, now);
                }
            }
        } else if !self.health.admits(s, now) {
            // Quarantined: route around the lane, no device traffic.
            obs::counter_add("cudasw.serve.breaker_skips", &[], 1.0);
            return Ok(Event::ShardDead { wave_id, shard: s });
        }
        if !self.lanes[s].alive() {
            return Ok(Event::ShardDead { wave_id, shard: s });
        }
        let faults_before = self.lanes[s].faults_seen();
        let prev_lane = obs::set_lane(s as u32 + 1);
        let served = self.run_lane_wave(s, &part.wave, run);
        obs::set_lane(prev_lane);
        let (scores, cells) = served?;
        if self.lanes[s].alive() {
            let faulted = self.lanes[s].faults_seen() > faults_before;
            self.health.observe_wave(s, faulted, now);
        } else {
            self.health.observe_death(s, now);
        }
        Ok(Event::ShardDone {
            wave_id,
            shard: s,
            scores,
            cells,
            degraded: run.recovery.degraded,
        })
    }

    /// Run every wave query on lane `s`, staged fast path first, until the
    /// wave ends or the lane dies. Returns shard scores per request
    /// (`None` where the lane died first) and device cells.
    #[allow(clippy::type_complexity)]
    fn run_lane_wave(
        &mut self,
        s: usize,
        wave: &Wave,
        run: &mut WaveRun,
    ) -> Result<(Vec<Option<Vec<i32>>>, u64), GpuError> {
        self.lanes[s].set_params(&wave.requests[0].params);
        // The wave is EDF-sorted, so requests[0] carries the tightest
        // deadline — the budget staging must respect.
        let staging_budget = Self::budget(&wave.requests[0], run.start);
        self.lanes[s].stage(
            Some(staging_budget),
            &mut run.recovery,
            &mut run.lane_seconds[s],
        )?;
        let mut scores = vec![None; wave.requests.len()];
        let mut cells = 0;
        // A lane that died staging still takes the first query: the device
        // attempt fails at once (counting `lane_deaths` again), and the rest
        // is owed.
        for &q in &wave.exec_order {
            let req = &wave.requests[q];
            let budget = Self::budget(req, run.start + run.lane_seconds[s]);
            let Some(served) = self.lanes[s].serve(&req.query, Some(budget))? else {
                return Ok((scores, cells));
            };
            cells += served.cells;
            run.recovery.merge(&served.recovery);
            run.lane_seconds[s] += served.seconds;
            scores[q] = Some(served.scores);
        }
        Ok((scores, cells))
    }

    /// Carry out [`Action::Owe`] for the part of a dead or quarantined
    /// lane: re-dispatch each owed query to the healthiest admitted
    /// survivor, falling back to the host SIMD oracle when no lane is left
    /// (or the deadline budget is spent).
    fn settle_owed(
        &mut self,
        run: &mut WaveRun,
        part: &Part,
        requests: &[usize],
    ) -> Result<Event, GpuError> {
        let (wave, dead) = (&part.wave, part.shard);
        let k = self.lanes.len();
        let params = &wave.requests[0].params;
        let shard = self.lanes[dead].shard().clone();
        let mut scores = vec![None; wave.requests.len()];
        let mut cells = 0;
        for &q in requests {
            if shard.is_empty() {
                scores[q] = Some(Vec::new());
                continue;
            }
            let req = &wave.requests[q];
            // Absolute deadline for this query; once passed, stop burning
            // device time on redispatch and degrade straight to the host.
            let deadline = self
                .cfg
                .recovery
                .cpu_fallback
                .then(|| obs::now() + Self::budget(req, run.start));
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
                let budget = Self::budget(req, run.start + run.lane_seconds[t]);
                self.lanes[t].set_params(params);
                let attempt = self.lanes[t].serve_foreign(&req.query, &shard, Some(budget));
                obs::set_lane(prev_lane);
                let Some(r) = attempt? else {
                    self.health.observe_death(t, run.start);
                    continue;
                };
                run.lane_seconds[t] += r.seconds;
                cells += r.cells;
                run.recovery.merge(&r.recovery);
                run.recovery.note_redispatch(dead, t, shard.len());
                scores[q] = Some(r.scores);
                break;
            }
            if scores[q].is_some() {
                continue;
            }
            // No survivors (or no budget left for device work): host SIMD
            // oracle, if the policy allows it.
            if !self.cfg.recovery.cpu_fallback {
                return Err(GpuError::DeviceLost);
            }
            // One dispatched engine per owed query: the profile is built
            // once and reused across the shard's sequences. The fallback
            // runs in the crash-only pool — the service's last line of
            // defence must itself survive panics and pressure.
            let engines = [QueryEngine::new(params.clone(), &req.query)];
            let r = search_wave_protected(&engines, shard.sequences(), &self.host_pool_config())
                .map_err(|_| GpuError::DeviceLost)?;
            run.recovery.note_cpu_fallback(shard.len());
            scores[q] = Some(r.scores);
        }
        Ok(Event::ShardDone {
            wave_id: part.wave_id,
            shard: dead,
            scores,
            cells,
            degraded: run.recovery.degraded,
        })
    }
}
