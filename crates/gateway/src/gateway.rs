//! The in-process front-end and wall-clock wave dispatcher.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!  tenants ──► GatewayHandle::submit ──► mpsc ──► Dispatcher ──► device lane 0
//!                 (stamps arrival,                  │  ▲    ──► device lane 1
//!                  returns a Ticket)                │  │    ──► host SIMD lane
//!                                                   ▼  │
//!                                      admission / EDF batcher / health
//!                                      (same sw-serve types, wall clock)
//! ```
//!
//! The dispatcher owns the [`AdmissionQueue`], [`Batcher`] and
//! [`HealthTracker`] — the exact types the simulated service uses — and
//! replaces the discrete-event `run_trace` loop with a channel loop on
//! monotonic wall time: `recv_timeout` until the batcher's next
//! dispatch instant, fan each wave's shard parts out to lane workers,
//! and assemble full-database scores as parts come back. Waves pipeline:
//! up to [`GatewayConfig::max_inflight_waves`] waves may be in flight
//! across the lanes at once.
//!
//! **Overload semantics.** Arrivals are open-loop; the only backpressure
//! is the bounded admission queue and per-tenant quotas. A shed request
//! resolves its [`Ticket`] with [`Outcome::Shed`] immediately; an
//! admitted request resolves exactly once, ever — served, or aborted by
//! shutdown. End-to-end latency is `respond − enqueue` on the wall
//! clock, so queueing delay under overload lands in the p999, not on
//! the floor.
//!
//! **Drain.** `shutdown` closes intake, flushes the queue through the
//! batcher, and waits up to [`GatewayConfig::drain_grace_seconds`]; past
//! the grace it cancels in-flight and queued host chunks via the shared
//! [`CancelToken`] (the crash-only pool polls it every few stripe
//! columns) and aborts whatever remains. No path joins indefinitely.

use crate::lane::{spawn_device_lane, spawn_host_lane, LaneCmd, LaneDone, LaneHandle};
use cudasw_core::multi_gpu::{shard_database, unshard_scores};
use cudasw_core::{CudaSwConfig, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sw_db::Database;
use sw_serve::{
    AdmissionConfig, AdmissionQueue, BatchPolicy, Batcher, HealthPolicy, HealthTracker,
    SearchRequest, Shed, ShedReason, Wave,
};
use sw_simd::{CancelToken, HostFaultPlan};

/// Hard backstop after a forced cancel before the dispatcher abandons
/// unresponsive workers, seconds. Generous: a cancelled host chunk exits
/// at its first poll and device waves are bounded compute.
const ABANDON_AFTER_CANCEL_SECONDS: f64 = 10.0;

/// Monotonic wall seconds since the gateway started: the timebase the
/// sw-serve queue, batcher and breakers run on here.
#[derive(Clone, Copy)]
struct WallClock(Instant);

impl WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&self, instant: f64) {
        if let Ok(d) = Duration::try_from_secs_f64(instant - self.now()) {
            std::thread::sleep(d);
        }
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// gpu-sim device lanes. The database is sharded over `devices + 1`
    /// lanes: the extra lane is the host SIMD lane.
    pub devices: usize,
    /// Worker threads for the host lane's work-stealing SIMD pool.
    pub host_threads: usize,
    /// Admission-control bounds (the only open-loop backpressure).
    pub admission: AdmissionConfig,
    /// Wave-forming policy; linger is real wall time here.
    pub batch: BatchPolicy,
    /// Driver configuration shared by every device lane.
    pub search: CudaSwConfig,
    /// Per-lane recovery policy (deadline budgets are stripped: wall
    /// mode bounds tails with admission + cancellation, not the modeled
    /// device clock).
    pub recovery: RecoveryPolicy,
    /// Cross-wave lane-health policy (breakers quarantine flaky lanes;
    /// their shard work routes to the host lane).
    pub health: HealthPolicy,
    /// Shed queued requests whose deadline already passed instead of
    /// serving them late.
    pub shed_expired: bool,
    /// Seeded fault schedule for host-lane work.
    pub host_faults: HostFaultPlan,
    /// Graceful-drain budget before shutdown cancels in-flight host
    /// chunks through the [`CancelToken`] path.
    pub drain_grace_seconds: f64,
    /// Maximum waves dispatched-but-unfinished at once (pipelining depth
    /// across the lane channels; also bounds how much queued work a
    /// forced drain must wait out).
    pub max_inflight_waves: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            host_threads: 1,
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            search: CudaSwConfig::improved(),
            recovery: RecoveryPolicy::default(),
            health: HealthPolicy::default(),
            shed_expired: false,
            host_faults: HostFaultPlan::none(),
            drain_grace_seconds: 5.0,
            max_inflight_waves: 4,
        }
    }
}

/// One served request, as the ticket holder sees it.
#[derive(Debug, Clone)]
pub struct GatewayResponse {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// Full-database scores, `db.sequences()` order.
    pub scores: Vec<i32>,
    /// End-to-end `respond − enqueue`, wall seconds.
    pub latency_seconds: f64,
    /// True when the response missed its deadline (served anyway).
    pub deadline_missed: bool,
    /// True when part of the response was served off its device lane.
    pub degraded: bool,
}

/// The terminal state of a submitted request. Every ticket resolves to
/// exactly one of these.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered with full-database scores.
    Served(GatewayResponse),
    /// Refused by admission control.
    Shed(ShedReason),
    /// The gateway shut down before the request completed.
    Aborted,
}

/// A claim ticket for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Outcome>,
}

impl Ticket {
    /// The request id this ticket tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request resolves. A vanished dispatcher counts as
    /// an abort.
    pub fn wait(self) -> Outcome {
        self.rx.recv().unwrap_or(Outcome::Aborted)
    }

    /// [`Ticket::wait`], also counting any duplicate resolutions that
    /// arrive before the gateway drops its side of the channel. The
    /// exactly-once contract says the second value is always `0`.
    pub fn wait_counting_duplicates(self) -> (Outcome, usize) {
        let first = self.rx.recv().unwrap_or(Outcome::Aborted);
        let mut extra = 0;
        while self.rx.recv().is_ok() {
            extra += 1;
        }
        (first, extra)
    }
}

/// One response, summarized for the report (scores travel on the ticket,
/// not the report — a million-query run must not retain a million score
/// vectors).
#[derive(Debug, Clone)]
pub struct ResponseSummary {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// End-to-end latency, wall seconds.
    pub latency_seconds: f64,
    /// True when the response missed its deadline.
    pub deadline_missed: bool,
    /// True when part of the response was served off its device lane.
    pub degraded: bool,
}

/// Everything a gateway run produced, returned by
/// [`Gateway::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct GatewayReport {
    /// Answered requests, completion order.
    pub responses: Vec<ResponseSummary>,
    /// Refused requests, arrival order.
    pub sheds: Vec<Shed>,
    /// Requests aborted by shutdown.
    pub aborted: Vec<u64>,
    /// Waves dispatched.
    pub waves: u64,
    /// DP cells computed across all lanes.
    pub total_cells: u64,
    /// Wall seconds from the first submission to the last completion.
    pub wall_seconds: f64,
    /// Device lanes lost over the run.
    pub lane_deaths: u64,
    /// Shard parts re-dispatched to the host lane (dead or quarantined
    /// device lanes).
    pub owed_to_host: u64,
    /// True when the drain grace expired and shutdown force-cancelled
    /// in-flight host work.
    pub forced_cancel: bool,
    /// The dispatcher thread's metrics snapshot (front-end counters and
    /// the end-to-end latency histogram).
    pub metrics: obs::MetricsRegistry,
}

impl GatewayReport {
    /// Requests offered: served + shed + aborted.
    pub fn offered(&self) -> usize {
        self.responses.len() + self.sheds.len() + self.aborted.len()
    }

    /// Aggregate throughput over the wall makespan, GCUPS.
    pub fn gcups(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.wall_seconds / 1.0e9
        }
    }

    /// Completed queries per wall second.
    pub fn queries_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.responses.len() as f64 / self.wall_seconds
        }
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.sheds.len() as f64 / offered as f64
        }
    }

    /// Fraction of answered requests that missed their deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let missed = self.responses.iter().filter(|r| r.deadline_missed).count();
        missed as f64 / self.responses.len() as f64
    }

    /// Fraction of answered requests that were degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let n = self.responses.iter().filter(|r| r.degraded).count();
        n as f64 / self.responses.len() as f64
    }

    /// End-to-end latency at percentile `p` ∈ [0, 100] (nearest-rank on
    /// exact wall latencies; 0 when nothing completed).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.responses.iter().map(|r| r.latency_seconds).collect();
        lat.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }
}

/// A message into the dispatcher.
pub(crate) enum FrontMsg {
    /// A tenant submission (arrival already stamped by the front-end).
    Submit {
        req: SearchRequest,
        reply: Sender<Outcome>,
    },
    /// A lane worker finished a shard part.
    Done(LaneDone),
    /// Close intake and drain.
    Drain,
}

/// The cloneable multi-tenant front-end: each tenant thread holds one
/// and submits independently.
#[derive(Clone)]
pub struct GatewayHandle {
    tx: Sender<FrontMsg>,
    clock: WallClock,
}

impl GatewayHandle {
    /// Submit a request. The schedule's `arrival → deadline` slack is
    /// preserved, but both are re-stamped onto the wall clock at enqueue
    /// — this instant is what end-to-end latency is measured from.
    pub fn submit(&self, req: SearchRequest) -> Ticket {
        let now = self.clock.now();
        let slack = (req.deadline_seconds - req.arrival_seconds).max(0.0);
        let id = req.id;
        let req = SearchRequest {
            arrival_seconds: now,
            deadline_seconds: now + slack,
            ..req
        };
        obs::counter_add("cudasw.gateway.submitted", &[], 1.0);
        let (reply, rx) = std::sync::mpsc::channel();
        let _ = self.tx.send(FrontMsg::Submit { req, reply });
        Ticket { id, rx }
    }

    /// Wall seconds since the gateway started.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Sleep until gateway-relative instant `t` (open-loop pacing).
    pub fn wait_until(&self, t: f64) {
        self.clock.wait_until(t);
    }
}

/// The wall-clock serving gateway. Construction spawns the dispatcher
/// and lane worker threads; [`Gateway::shutdown`] drains and reports.
pub struct Gateway {
    handle: GatewayHandle,
    dispatcher: Option<std::thread::JoinHandle<GatewayReport>>,
    cancel: CancelToken,
}

impl Gateway {
    /// Bring up the gateway over `db`: `cfg.devices` gpu-sim lanes (with
    /// `plans[i]` installed on lane `i`) plus the host SIMD lane, all
    /// sharing one round-robin sharding of the database.
    pub fn start(
        spec: &DeviceSpec,
        cfg: &GatewayConfig,
        db: &Database,
        plans: &[FaultPlan],
    ) -> Self {
        let devices = cfg.devices;
        let k = devices + 1;
        let shards = shard_database(db, k);
        let clock = WallClock(Instant::now());
        let cancel = CancelToken::new();
        let (tx, rx) = std::sync::mpsc::channel();

        let mut device_lanes = Vec::with_capacity(devices);
        for (s, shard) in shards.iter().take(devices).cloned().enumerate() {
            device_lanes.push(spawn_device_lane(
                s,
                spec,
                &cfg.search,
                shard,
                plans.get(s).cloned().unwrap_or_else(FaultPlan::none),
                &cfg.recovery,
                tx.clone(),
            ));
        }
        let host = spawn_host_lane(
            devices,
            shards,
            cfg.host_threads.max(1),
            cfg.host_faults.clone(),
            cancel.clone(),
            tx.clone(),
        );

        let dispatcher = Dispatcher {
            cfg: cfg.clone(),
            clock,
            cancel: cancel.clone(),
            rx,
            queue: AdmissionQueue::new(cfg.admission.clone()),
            batcher: Batcher::new(cfg.batch.clone()),
            health: HealthTracker::new(devices, cfg.health.clone()),
            device_lanes,
            lane_alive: vec![true; devices],
            host: Some(host),
            k,
            db_len: db.len(),
            replies: HashMap::new(),
            inflight: HashMap::new(),
            next_wave_id: 0,
            responses: Vec::new(),
            sheds: Vec::new(),
            aborted: Vec::new(),
            waves: 0,
            total_cells: 0,
            lane_deaths: 0,
            owed_to_host: 0,
            forced_cancel: false,
            first_submit: None,
            last_completion: 0.0,
        };
        let join = std::thread::spawn(move || dispatcher.run());
        Self {
            handle: GatewayHandle { tx, clock },
            dispatcher: Some(join),
            cancel,
        }
    }

    /// A cloneable front-end handle for tenant threads.
    pub fn handle(&self) -> GatewayHandle {
        self.handle.clone()
    }

    /// Submit a request from the owning thread (see
    /// [`GatewayHandle::submit`]).
    pub fn submit(&self, req: SearchRequest) -> Ticket {
        self.handle.submit(req)
    }

    /// Graceful drain: close intake, flush and serve the queue, then
    /// return the report. Past the drain grace, in-flight host chunks
    /// are cancelled and stragglers resolve as [`Outcome::Aborted`].
    pub fn shutdown(mut self) -> GatewayReport {
        let _ = self.handle.tx.send(FrontMsg::Drain);
        match self.dispatcher.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => GatewayReport::default(),
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            // Abandonment (no shutdown call): cancel immediately rather
            // than waiting out the drain grace, then reap the threads.
            let _ = self.handle.tx.send(FrontMsg::Drain);
            self.cancel.cancel();
            let _ = h.join();
        }
    }
}

/// One in-flight wave's assembly state.
struct Inflight {
    wave: Arc<Wave>,
    /// Shard parts dispatched but not yet reported.
    parts_pending: usize,
    /// `[shard][logical request] → shard-order scores`.
    shard_scores: Vec<Vec<Option<Vec<i32>>>>,
    /// Shards already re-dispatched to the host lane (owed once, ever).
    owed_issued: Vec<bool>,
    /// A part of this wave was cut short by shutdown cancellation.
    cancelled: bool,
    /// Recovery machinery degraded part of the wave.
    degraded: bool,
    /// A device shard was served off-device.
    off_device: bool,
}

struct Dispatcher {
    cfg: GatewayConfig,
    clock: WallClock,
    cancel: CancelToken,
    rx: Receiver<FrontMsg>,
    queue: AdmissionQueue,
    batcher: Batcher,
    health: HealthTracker,
    device_lanes: Vec<LaneHandle>,
    lane_alive: Vec<bool>,
    host: Option<LaneHandle>,
    k: usize,
    db_len: usize,
    replies: HashMap<u64, Sender<Outcome>>,
    inflight: HashMap<u64, Inflight>,
    next_wave_id: u64,
    responses: Vec<ResponseSummary>,
    sheds: Vec<Shed>,
    aborted: Vec<u64>,
    waves: u64,
    total_cells: u64,
    lane_deaths: u64,
    owed_to_host: u64,
    forced_cancel: bool,
    first_submit: Option<f64>,
    last_completion: f64,
}

impl Dispatcher {
    fn run(mut self) -> GatewayReport {
        let loop_start = self.clock.now();
        let mut draining = false;
        let mut drain_deadline = f64::INFINITY;
        let mut abandon_at = f64::INFINITY;
        loop {
            let now = self.clock.now();
            if self.cfg.shed_expired && !draining {
                for req in self.queue.take_expired(now) {
                    self.respond_shed(req.id, req.tenant, ShedReason::DeadlineExpired);
                }
            }
            // Dispatch as many waves as the pipelining depth allows. In
            // drain mode the batcher flushes (no-starvation), matching
            // the simulated scheduler's end-of-trace semantics.
            if !self.cancel.is_cancelled() {
                while self.inflight.len() < self.cfg.max_inflight_waves.max(1) {
                    let now = self.clock.now();
                    let Some(wave) = self.batcher.next_wave(&mut self.queue, now, draining) else {
                        break;
                    };
                    self.dispatch(wave, now);
                }
            }
            if draining {
                if self.queue.is_empty() && self.inflight.is_empty() {
                    break;
                }
                let now = self.clock.now();
                if !self.cancel.is_cancelled() && now >= drain_deadline {
                    // Drain grace expired: cancel in-flight and queued
                    // host chunks (the PR 8 CancelToken path) instead of
                    // joining indefinitely, and abort undispatched work.
                    self.cancel.cancel();
                    self.forced_cancel = true;
                    obs::counter_add("cudasw.gateway.drain.forced_cancels", &[], 1.0);
                    abandon_at = now + ABANDON_AFTER_CANCEL_SECONDS;
                    self.abort_queue();
                }
                if self.cancel.is_cancelled() && now >= abandon_at {
                    // Backstop: a worker stopped responding entirely.
                    self.abort_queue();
                    let ids: Vec<u64> = self.replies.keys().copied().collect();
                    for id in ids {
                        self.respond_aborted(id);
                    }
                    self.inflight.clear();
                    break;
                }
            }
            let now = self.clock.now();
            let timeout = if draining {
                Duration::from_millis(10)
            } else {
                match self.batcher.next_dispatch_at(&self.queue, now) {
                    Some(t) => Duration::from_secs_f64((t - now).clamp(2.0e-4, 0.25)),
                    None => Duration::from_millis(250),
                }
            };
            match self.rx.recv_timeout(timeout) {
                Ok(FrontMsg::Submit { req, reply }) => {
                    if draining {
                        // Intake is closed; resolve instead of queueing
                        // work that will never dispatch.
                        self.aborted.push(req.id);
                        obs::counter_add("cudasw.gateway.aborted", &[], 1.0);
                        let _ = reply.send(Outcome::Aborted);
                        continue;
                    }
                    if self.first_submit.is_none() {
                        self.first_submit = Some(req.arrival_seconds);
                    }
                    let id = req.id;
                    let tenant = req.tenant.clone();
                    match self.queue.offer(req) {
                        Ok(()) => {
                            obs::counter_add("cudasw.gateway.admitted", &[], 1.0);
                            self.replies.insert(id, reply);
                        }
                        Err(reason) => {
                            obs::counter_add(
                                "cudasw.gateway.shed",
                                &[("reason", reason.as_str())],
                                1.0,
                            );
                            self.sheds.push(Shed { id, tenant, reason });
                            let _ = reply.send(Outcome::Shed(reason));
                        }
                    }
                }
                Ok(FrontMsg::Done(done)) => self.integrate(done),
                Ok(FrontMsg::Drain) | Err(RecvTimeoutError::Disconnected) => {
                    if !draining {
                        draining = true;
                        drain_deadline = self.clock.now() + self.cfg.drain_grace_seconds.max(0.0);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // Exactly-once: anything still unresolved is aborted before the
        // report goes out.
        let ids: Vec<u64> = self.replies.keys().copied().collect();
        for id in ids {
            self.respond_aborted(id);
        }
        // Stop and reap the workers (they drain their queued commands
        // first; cancelled host chunks exit at their first poll).
        let lanes = std::mem::take(&mut self.device_lanes);
        for lane in &lanes {
            let _ = lane.tx.send(LaneCmd::Stop);
        }
        if let Some(host) = &self.host {
            let _ = host.tx.send(LaneCmd::Stop);
        }
        for lane in lanes {
            let _ = lane.join.join();
        }
        if let Some(host) = self.host.take() {
            let _ = host.join.join();
        }
        let end = self.clock.now();
        let wall_seconds = match self.first_submit {
            Some(t0) => (self.last_completion.max(t0) - t0).max(0.0),
            None => (end - loop_start).max(0.0),
        };
        GatewayReport {
            responses: self.responses,
            sheds: self.sheds,
            aborted: self.aborted,
            waves: self.waves,
            total_cells: self.total_cells,
            wall_seconds,
            lane_deaths: self.lane_deaths,
            owed_to_host: self.owed_to_host,
            forced_cancel: self.forced_cancel,
            metrics: obs::snapshot_metrics(),
        }
    }

    /// Fan one wave's shard parts out to the lanes. Dead or quarantined
    /// device lanes have their shards owed to the host lane immediately.
    fn dispatch(&mut self, wave: Wave, now: f64) {
        let wave = Arc::new(wave);
        let wave_id = self.next_wave_id;
        self.next_wave_id += 1;
        let n = wave.requests.len();
        let devices = self.k - 1;
        let mut inf = Inflight {
            wave: wave.clone(),
            parts_pending: 0,
            shard_scores: vec![vec![None; n]; self.k],
            owed_issued: vec![false; self.k],
            cancelled: false,
            degraded: false,
            off_device: false,
        };
        for s in 0..devices {
            if self.lane_alive[s] && self.health.admits(s, now) {
                if self.device_lanes[s]
                    .tx
                    .send(LaneCmd::Exec {
                        wave_id,
                        wave: wave.clone(),
                    })
                    .is_ok()
                {
                    inf.parts_pending += 1;
                    continue;
                }
                // Worker thread is gone: treat as a lane death.
                self.lane_alive[s] = false;
                self.lane_deaths += 1;
                obs::counter_add("cudasw.gateway.lane_deaths", &[], 1.0);
            } else if self.lane_alive[s] {
                obs::counter_add("cudasw.gateway.breaker_skips", &[], 1.0);
            }
            if self.send_owed(&mut inf, wave_id, s) {
                inf.parts_pending += 1;
            }
        }
        if let Some(host) = &self.host {
            if host
                .tx
                .send(LaneCmd::Exec {
                    wave_id,
                    wave: wave.clone(),
                })
                .is_ok()
            {
                inf.parts_pending += 1;
            }
        }
        obs::counter_add("cudasw.gateway.waves", &[], 1.0);
        self.waves += 1;
        if inf.parts_pending == 0 {
            // No lane could take any part (all workers gone): abort.
            for req in wave.requests.iter() {
                self.respond_aborted(req.id);
            }
        } else {
            self.inflight.insert(wave_id, inf);
        }
    }

    /// Re-dispatch shard `s` of an in-flight wave to the host lane.
    /// Returns true when the command was accepted.
    fn send_owed(&mut self, inf: &mut Inflight, wave_id: u64, s: usize) -> bool {
        if inf.owed_issued[s] {
            return false;
        }
        inf.owed_issued[s] = true;
        if s != self.k - 1 {
            inf.off_device = true;
        }
        self.owed_to_host += 1;
        obs::counter_add("cudasw.gateway.owed_to_host", &[], 1.0);
        match &self.host {
            Some(host) => host
                .tx
                .send(LaneCmd::Owed {
                    wave_id,
                    wave: inf.wave.clone(),
                    shard_of: s,
                })
                .is_ok(),
            None => false,
        }
    }

    /// Fold one lane's shard part into its wave; finish the wave when
    /// every part reported.
    fn integrate(&mut self, done: LaneDone) {
        let now = self.clock.now();
        let devices = self.k - 1;
        if done.shard_of == done.lane && done.lane < devices {
            if done.died {
                if self.lane_alive[done.lane] {
                    self.lane_alive[done.lane] = false;
                    self.lane_deaths += 1;
                    obs::counter_add("cudasw.gateway.lane_deaths", &[], 1.0);
                }
                self.health.observe_death(done.lane, now);
            } else {
                self.health.observe_wave(done.lane, done.faulted, now);
                self.health.observe_latency(done.lane, done.seconds);
            }
        }
        self.total_cells += done.cells;
        let Some(inf) = self.inflight.get_mut(&done.wave_id) else {
            return;
        };
        if done.degraded {
            inf.degraded = true;
        }
        if done.cancelled {
            inf.cancelled = true;
        }
        for (q, part) in done.scores.into_iter().enumerate() {
            if let Some(v) = part {
                inf.shard_scores[done.shard_of][q] = Some(v);
            }
        }
        inf.parts_pending -= 1;
        if inf.parts_pending == 0 {
            self.finish_wave(done.wave_id);
        }
    }

    /// All parts of `wave_id` reported: re-owe missing shards once (dead
    /// lanes), then assemble and respond.
    fn finish_wave(&mut self, wave_id: u64) {
        let Some(mut inf) = self.inflight.remove(&wave_id) else {
            return;
        };
        let n = inf.wave.requests.len();
        if !inf.cancelled && !self.cancel.is_cancelled() {
            let missing: Vec<usize> = (0..self.k)
                .filter(|&s| inf.shard_scores[s].iter().any(|x| x.is_none()))
                .collect();
            let mut reissued = false;
            for s in missing {
                if self.send_owed(&mut inf, wave_id, s) {
                    inf.parts_pending += 1;
                    reissued = true;
                }
            }
            if reissued {
                self.inflight.insert(wave_id, inf);
                return;
            }
        }
        let now = self.clock.now();
        let degraded = inf.degraded || inf.off_device;
        for q in 0..n {
            let req = &inf.wave.requests[q];
            let complete = (0..self.k).all(|s| inf.shard_scores[s][q].is_some());
            if !complete {
                // Only reachable through shutdown cancellation (or a
                // worker lost with no host lane left to absorb it).
                self.respond_aborted(req.id);
                continue;
            }
            let mut scores = vec![0i32; self.db_len];
            for (s, per_shard) in inf.shard_scores.iter().enumerate() {
                if let Some(part) = &per_shard[q] {
                    unshard_scores(&mut scores, s, self.k, part);
                }
            }
            let latency = now - req.arrival_seconds;
            let deadline_missed = now > req.deadline_seconds;
            self.respond_served(
                req.id,
                req.tenant.clone(),
                scores,
                latency,
                deadline_missed,
                degraded,
            );
        }
        self.last_completion = now;
    }

    /// Resolve a ticket exactly once. A second resolution attempt for
    /// the same id is a bug, surfaced on the `duplicate_commits` counter
    /// (pinned to 0 by the tests) rather than a double send.
    fn take_reply(&mut self, id: u64) -> Option<Sender<Outcome>> {
        let found = self.replies.remove(&id);
        if found.is_none() {
            obs::counter_add("cudasw.gateway.duplicate_commits", &[], 1.0);
        }
        found
    }

    fn respond_served(
        &mut self,
        id: u64,
        tenant: String,
        scores: Vec<i32>,
        latency_seconds: f64,
        deadline_missed: bool,
        degraded: bool,
    ) {
        let Some(reply) = self.take_reply(id) else {
            return;
        };
        // End-to-end latency at the front-end: enqueue → response.
        obs::observe_latency("cudasw.serve.latency_seconds", &[], latency_seconds);
        obs::counter_add("cudasw.gateway.completed", &[], 1.0);
        self.responses.push(ResponseSummary {
            id,
            tenant: tenant.clone(),
            latency_seconds,
            deadline_missed,
            degraded,
        });
        let _ = reply.send(Outcome::Served(GatewayResponse {
            id,
            tenant,
            scores,
            latency_seconds,
            deadline_missed,
            degraded,
        }));
    }

    fn respond_shed(&mut self, id: u64, tenant: String, reason: ShedReason) {
        let Some(reply) = self.take_reply(id) else {
            return;
        };
        obs::counter_add("cudasw.gateway.shed", &[("reason", reason.as_str())], 1.0);
        self.sheds.push(Shed { id, tenant, reason });
        let _ = reply.send(Outcome::Shed(reason));
    }

    fn respond_aborted(&mut self, id: u64) {
        let Some(reply) = self.take_reply(id) else {
            return;
        };
        obs::counter_add("cudasw.gateway.aborted", &[], 1.0);
        self.aborted.push(id);
        let _ = reply.send(Outcome::Aborted);
    }

    /// Abort everything still queued (forced drain: it will never
    /// dispatch).
    fn abort_queue(&mut self) {
        let idx: Vec<usize> = (0..self.queue.depth()).collect();
        if idx.is_empty() {
            return;
        }
        for req in self.queue.take(&idx) {
            self.respond_aborted(req.id);
        }
    }
}
