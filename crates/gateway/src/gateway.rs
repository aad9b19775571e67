//! The in-process front-end and the wall-clock pump around the wave
//! state machine.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!  tenants ──► GatewayHandle::submit ──► mpsc ──► Dispatcher ──► device lane 0
//!                 (stamps arrival,                  │  ▲    ──► device lane 1
//!                  returns a Ticket)                │  │    ──► host SIMD lane
//!                                                   ▼  │
//!                                        sw_serve::WaveMachine + health
//!                                          (the simulated service's
//!                                           protocol, on the wall clock)
//! ```
//!
//! The dispatcher is a pump between a [`WaveMachine`] and the lane
//! channels: it stamps every event with monotonic wall time, sends each
//! run or owed shard part to a lane worker, feeds the parts that come back
//! into the machine, and resolves tickets as the machine responds. It
//! `recv_timeout`s until the batcher's next dispatch instant. Waves
//! pipeline: up to `MAX_INFLIGHT_WAVES` waves may be in
//! flight across the lanes at once. What only the wall clock needs stays
//! here: the lanes' circuit breakers, routing owed shards to the host
//! lane, the drain grace, and cancellation.
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
//! columns) and abandons whatever remains as aborted. No path waits on a
//! wave past the grace.

use crate::lane::{spawn_device_lane, spawn_host_lane, LaneDone, LaneHandle};
use cudasw_core::multi_gpu::shard_database;
use cudasw_core::{CudaSwConfig, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use sw_db::Database;
use sw_serve::{
    Action, AdmissionConfig, BatchPolicy, Event, HealthPolicy, HealthTracker, Outcome, Part,
    SearchRequest, ServeReport, WaveMachine,
};
use sw_simd::{CancelToken, HostFaultPlan};

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
    /// Seeded fault schedule for host-lane work.
    pub host_faults: HostFaultPlan,
    /// Graceful-drain budget before shutdown cancels in-flight host
    /// chunks through the [`CancelToken`] path.
    pub drain_grace_seconds: f64,
}

/// Maximum waves dispatched-but-unfinished at once (pipelining depth
/// across the lane channels; also bounds how much queued work a forced
/// drain must wait out).
const MAX_INFLIGHT_WAVES: usize = 4;

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
            host_faults: HostFaultPlan::none(),
            drain_grace_seconds: 5.0,
        }
    }
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
    dispatcher: Option<std::thread::JoinHandle<ServeReport>>,
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

        let mut lanes = Vec::with_capacity(k);
        for (s, shard) in shards.iter().take(devices).cloned().enumerate() {
            lanes.push(spawn_device_lane(
                s,
                spec,
                &cfg.search,
                shard,
                plans.get(s).cloned().unwrap_or_else(FaultPlan::none),
                &cfg.recovery,
                tx.clone(),
            ));
        }
        lanes.push(spawn_host_lane(
            devices,
            shards,
            cfg.host_threads.max(1),
            cfg.host_faults.clone(),
            cancel.clone(),
            tx.clone(),
        ));

        let dispatcher = Dispatcher {
            grace_seconds: cfg.drain_grace_seconds.max(0.0),
            clock,
            cancel: cancel.clone(),
            rx,
            machine: WaveMachine::new(
                k,
                db.len(),
                MAX_INFLIGHT_WAVES,
                cfg.admission.clone(),
                cfg.batch.clone(),
                // Wall-clock serving answers a late request late; only
                // the simulated stack sheds expired ones.
                false,
            ),
            health: HealthTracker::new(devices, cfg.health.clone()),
            lanes,
            lane_alive: vec![true; devices],
            replies: HashMap::new(),
            lane_deaths: 0,
            owed_to_host: 0,
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
    pub fn shutdown(mut self) -> ServeReport {
        let _ = self.handle.tx.send(FrontMsg::Drain);
        match self.dispatcher.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => ServeReport::default(),
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

struct Dispatcher {
    grace_seconds: f64,
    clock: WallClock,
    cancel: CancelToken,
    rx: Receiver<FrontMsg>,
    machine: WaveMachine,
    health: HealthTracker,
    /// Lane `s` runs shard `s`: the device lanes, then the host lane.
    lanes: Vec<LaneHandle>,
    lane_alive: Vec<bool>,
    replies: HashMap<u64, Sender<Outcome>>,
    lane_deaths: u64,
    owed_to_host: u64,
}

impl Dispatcher {
    fn run(mut self) -> ServeReport {
        let mut drain_deadline = None;
        let mut forced_cancel = false;
        loop {
            let now = self.clock.now();
            if let Some(deadline) = drain_deadline {
                if !forced_cancel && (now >= deadline || self.cancel.is_cancelled()) {
                    // Drain grace expired (or the gateway was dropped):
                    // cancel in-flight and queued host chunks instead of
                    // waiting on them, and abandon everything unresolved.
                    self.cancel.cancel();
                    forced_cancel = true;
                    obs::counter_add("cudasw.gateway.drain.forced_cancels", &[], 1.0);
                    self.step(now, Event::Abort);
                }
                if self.machine.is_idle() {
                    break;
                }
            }
            self.step(now, Event::Tick);
            let timeout = match (drain_deadline, self.machine.next_dispatch_at(now)) {
                (Some(_), _) => Duration::from_millis(10),
                (None, Some(t)) => Duration::from_secs_f64((t - now).clamp(2.0e-4, 0.25)),
                (None, None) => Duration::from_millis(250),
            };
            match self.rx.recv_timeout(timeout) {
                Ok(FrontMsg::Submit { req, reply }) => {
                    self.replies.insert(req.id, reply);
                    self.step(self.clock.now(), Event::Submit(req));
                }
                Ok(FrontMsg::Done(done)) => self.integrate(done),
                Ok(FrontMsg::Drain) | Err(RecvTimeoutError::Disconnected) => {
                    if drain_deadline.is_none() {
                        let now = self.clock.now();
                        drain_deadline = Some(now + self.grace_seconds);
                        self.step(now, Event::Drain);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // Hang up on the workers and reap them (they finish their queued
        // commands first; cancelled host chunks exit at their first poll).
        for lane in self.lanes {
            drop(lane.tx);
            let _ = lane.join.join();
        }
        ServeReport {
            lane_deaths: self.lane_deaths,
            owed_to_host: self.owed_to_host,
            forced_cancel,
            metrics: obs::snapshot_metrics(),
            ..self.machine.into_report()
        }
    }

    /// Hand `event` to the machine and carry out every action it queues.
    fn step(&mut self, now: f64, event: Event) {
        self.machine.handle(now, event);
        let host = self.lane_alive.len();
        while let Some(action) = self.machine.next_action() {
            let (part, lane) = match action {
                // A dead or quarantined device lane's shard goes straight
                // back to the machine, which owes it to the host lane.
                Action::Run(part) => {
                    let s = part.shard;
                    let routed = s == host || (self.lane_alive[s] && self.admits(s, now));
                    (part, routed.then_some(s))
                }
                Action::Owe(part, _) => {
                    self.owed_to_host += 1;
                    obs::counter_add("cudasw.gateway.owed_to_host", &[], 1.0);
                    (part, Some(host))
                }
                Action::Respond { id, outcome } => {
                    match self.replies.remove(&id) {
                        Some(reply) => {
                            let _ = reply.send(outcome);
                        }
                        // A second resolution of one id would be a protocol
                        // bug; the counter (pinned to 0 by the tests) shows
                        // it instead of a double send.
                        None => obs::counter_add("cudasw.gateway.duplicate_commits", &[], 1.0),
                    }
                    continue;
                }
            };
            let (wave_id, shard) = (part.wave_id, part.shard);
            if !lane.is_some_and(|s| self.send(s, part)) {
                self.machine
                    .handle(now, Event::ShardDead { wave_id, shard });
            }
        }
    }

    /// Whether device lane `s`'s breaker lets it take wave work now.
    fn admits(&mut self, s: usize, now: f64) -> bool {
        let admits = self.health.admits(s, now);
        if !admits {
            obs::counter_add("cudasw.gateway.breaker_skips", &[], 1.0);
        }
        admits
    }

    /// Send `part` to lane `s`; a worker thread that is gone counts as a
    /// lane death.
    fn send(&mut self, s: usize, part: Part) -> bool {
        if self.lanes[s].tx.send(part).is_ok() {
            return true;
        }
        self.note_death(s);
        false
    }

    fn note_death(&mut self, s: usize) {
        if self.lane_alive.get(s) == Some(&true) {
            self.lane_alive[s] = false;
            self.lane_deaths += 1;
            obs::counter_add("cudasw.gateway.lane_deaths", &[], 1.0);
        }
    }

    /// Feed one lane's shard part to the machine. A device lane's own
    /// part also feeds its breaker.
    fn integrate(&mut self, done: LaneDone) {
        let now = self.clock.now();
        if done.shard_of == done.lane && done.lane < self.lane_alive.len() {
            if done.died {
                self.note_death(done.lane);
                self.health.observe_death(done.lane, now);
            } else {
                self.health.observe_wave(done.lane, done.faulted, now);
            }
        }
        self.step(
            now,
            Event::ShardDone {
                wave_id: done.wave_id,
                shard: done.shard_of,
                scores: done.scores,
                cells: done.cells,
                // A shard served by another lane is served off-device.
                degraded: done.degraded || done.shard_of != done.lane,
            },
        );
    }
}
