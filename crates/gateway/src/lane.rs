//! Lane workers: real threads executing wave shard-work concurrently.
//!
//! The gateway shards the database round-robin over `devices + 1` lanes
//! ([`cudasw_core::multi_gpu::shard_database`] layout: shard `s`
//! position `j` is database sequence `s + j·k`). Lanes `0..devices` are
//! gpu-sim device lanes; lane `devices` is the **host lane**, computing
//! its shard on the crash-only work-stealing SIMD pool. Each worker owns
//! its driver and shard outright and talks to the dispatcher only
//! through channels, so a wave's shard parts genuinely execute in
//! parallel on the wall clock.
//!
//! Failure semantics mirror the simulated executor, scoped to what a
//! worker thread can do on its own:
//!
//! * a device lane serves each query from the device-resident staging
//!   fast path, dropping to [`CudaSwDriver::search_resilient`] when the
//!   staged handle faults; an unrecoverable lane death reports the
//!   remaining queries as unserved (`None`) and the dispatcher re-owes
//!   them to the host lane;
//! * the host lane posts each wave as one
//!   [`sw_simd::search_wave_protected`] job — the shard walked once,
//!   every chunk scored against all of the wave's queries — with the
//!   gateway's shared [`CancelToken`] installed: injected host faults
//!   (panics, stalls, alloc failures; drawn once per chunk per wave) are
//!   absorbed bit-identically, and shutdown cancellation makes queued
//!   chunks exit at their first poll instead of stalling the drain. A
//!   cancelled wave serves none of its requests.
//!
//! Scores are exact on every path, so which lane (or fallback) served a
//! shard never changes a response byte.

use crate::gateway::FrontMsg;
use cudasw_core::{CudaSwConfig, CudaSwDriver, RecoveryPolicy, StagedDatabase};
use gpu_sim::{DeviceSpec, FaultPlan};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;
use sw_db::Database;
use sw_serve::Wave;
use sw_simd::{
    search_wave_protected, CancelToken, HostFaultPlan, PoolConfig, Precision, QueryEngine,
};

/// A command from the dispatcher to a lane worker.
pub(crate) enum LaneCmd {
    /// Execute the worker's own shard of `wave`.
    Exec {
        wave_id: u64,
        wave: std::sync::Arc<Wave>,
    },
    /// Host lane only: compute shard `shard_of` of `wave` on behalf of a
    /// dead or quarantined device lane.
    Owed {
        wave_id: u64,
        wave: std::sync::Arc<Wave>,
        shard_of: usize,
    },
    /// Drain and exit the worker thread.
    Stop,
}

/// One lane's result for one wave's shard part.
pub(crate) struct LaneDone {
    /// Reporting lane index.
    pub lane: usize,
    /// The wave this part belongs to.
    pub wave_id: u64,
    /// Which shard these scores cover (== `lane` except for owed work).
    pub shard_of: usize,
    /// Per logical request index: shard-order scores, or `None` when the
    /// lane died or was cancelled before serving it.
    pub scores: Vec<Option<Vec<i32>>>,
    /// DP cells computed for this part.
    pub cells: u64,
    /// True when recovery machinery degraded part of the work.
    pub degraded: bool,
    /// True when the device faulted during the wave (breaker signal).
    pub faulted: bool,
    /// True when the lane is (now) dead.
    pub died: bool,
    /// True when shutdown cancellation interrupted the part.
    pub cancelled: bool,
    /// Wall seconds this part occupied the worker.
    pub seconds: f64,
}

/// A spawned worker: its command channel and join handle.
pub(crate) struct LaneHandle {
    pub tx: Sender<LaneCmd>,
    pub join: std::thread::JoinHandle<()>,
}

/// Spawn a gpu-sim device lane worker over `shard`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_device_lane(
    lane: usize,
    spec: &DeviceSpec,
    config: &CudaSwConfig,
    shard: Database,
    plan: FaultPlan,
    policy: &RecoveryPolicy,
    out: Sender<FrontMsg>,
) -> LaneHandle {
    let (tx, rx) = std::sync::mpsc::channel();
    let spec = spec.clone();
    let config = config.clone();
    let policy = policy.clone();
    let join = std::thread::spawn(move || {
        let mut driver = CudaSwDriver::new(spec, config);
        driver.dev.inject_faults(plan);
        driver.dev.set_integrity_checks(policy.integrity_checks);
        driver.dev.set_watchdog_cycles(policy.watchdog_cycles);
        let mut worker = DeviceLaneWorker {
            lane,
            driver,
            shard,
            staged: None,
            alive: true,
            policy,
        };
        while let Ok(cmd) = rx.recv() {
            match cmd {
                LaneCmd::Exec { wave_id, wave } => {
                    let done = worker.exec(wave_id, &wave);
                    if out.send(FrontMsg::Done(done)).is_err() {
                        break;
                    }
                }
                // Device lanes never receive owed work (the dispatcher
                // routes it to the host lane); acknowledge defensively so
                // a routing bug cannot wedge a wave.
                LaneCmd::Owed {
                    wave_id,
                    wave,
                    shard_of,
                } => {
                    let n = wave.requests.len();
                    let done = LaneDone {
                        lane,
                        wave_id,
                        shard_of,
                        scores: vec![None; n],
                        cells: 0,
                        degraded: false,
                        faulted: false,
                        died: false,
                        cancelled: false,
                        seconds: 0.0,
                    };
                    if out.send(FrontMsg::Done(done)).is_err() {
                        break;
                    }
                }
                LaneCmd::Stop => break,
            }
        }
    });
    LaneHandle { tx, join }
}

struct DeviceLaneWorker {
    lane: usize,
    driver: CudaSwDriver,
    shard: Database,
    staged: Option<StagedDatabase>,
    alive: bool,
    policy: RecoveryPolicy,
}

impl DeviceLaneWorker {
    /// The per-lane recovery policy: no CPU fallback (the dispatcher
    /// owns re-dispatch) and no modeled deadline budget — in wall-clock
    /// mode tail control comes from admission, cancellation and the
    /// breakers, not from the simulated device clock.
    fn lane_policy(&self) -> RecoveryPolicy {
        RecoveryPolicy {
            cpu_fallback: false,
            deadline_seconds: None,
            ..self.policy.clone()
        }
    }

    /// Stage the shard, retrying transient faults. Backoff is modeled on
    /// the worker's thread-local simulated device clock (no wall sleep —
    /// a simulated device's retry pause must not stall a real wave).
    fn stage(&mut self) {
        let mut attempt = 0u32;
        loop {
            let shard = self.shard.clone();
            match self.driver.stage_database(&shard) {
                Ok(staged) => {
                    self.staged = Some(staged);
                    obs::counter_add("cudasw.gateway.db_stagings", &[], 1.0);
                    return;
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    let backoff =
                        self.policy.backoff_base_seconds * f64::from(1u32 << attempt.min(20));
                    obs::advance(backoff);
                    obs::counter_add("cudasw.gateway.staging_retries", &[], 1.0);
                }
                Err(gpu_sim::GpuError::DeviceLost) => {
                    self.alive = false;
                    return;
                }
                Err(_) => {
                    // OOM or retries exhausted: serve un-staged (the
                    // resilient path re-chunks around OOM itself).
                    obs::counter_add("cudasw.gateway.staging_fallbacks", &[], 1.0);
                    return;
                }
            }
        }
    }

    fn exec(&mut self, wave_id: u64, wave: &Wave) -> LaneDone {
        let t0 = Instant::now();
        let n = wave.requests.len();
        let mut scores: Vec<Option<Vec<i32>>> = vec![None; n];
        let mut cells = 0u64;
        let mut degraded = false;
        let alive_at_start = self.alive;
        let faults_before = self.driver.dev.fault_stats().total();
        if alive_at_start {
            self.driver.config.params = wave.requests[0].params.clone();
            if self.staged.is_none() {
                self.stage();
            }
            for &q in &wave.exec_order {
                if !self.alive {
                    break;
                }
                let req = &wave.requests[q];
                let mut served = false;
                // Fast path: the device-resident shard.
                if let Some(staged) = self.staged.clone() {
                    match self.driver.search_staged(&req.query, &staged) {
                        Ok(r) => {
                            cells += r.total_cells();
                            scores[q] = Some(r.scores);
                            served = true;
                        }
                        Err(e) if e.is_recoverable() => {
                            // Handle invalidated by recovery machinery:
                            // drop it, take the resilient path.
                            self.staged = None;
                            obs::counter_add("cudasw.gateway.staged_faults", &[], 1.0);
                        }
                        Err(_) => {
                            // Non-recoverable device error: the worker
                            // cannot propagate it, so the lane dies and
                            // the dispatcher re-owes the work.
                            self.alive = false;
                        }
                    }
                }
                if !served && self.alive {
                    let shard = self.shard.clone();
                    match self
                        .driver
                        .search_resilient(&req.query, &shard, &self.lane_policy())
                    {
                        Ok(rr) => {
                            cells += rr.result.total_cells();
                            scores[q] = Some(rr.result.scores);
                            if rr.recovery.degraded {
                                degraded = true;
                            }
                            // search_resilient reset the allocator; any
                            // staged handle is stale now.
                            self.staged = None;
                        }
                        Err(_) => {
                            self.alive = false;
                        }
                    }
                }
            }
        }
        let faulted = self.driver.dev.fault_stats().total() > faults_before;
        LaneDone {
            lane: self.lane,
            wave_id,
            shard_of: self.lane,
            scores,
            cells,
            degraded,
            faulted,
            died: !self.alive,
            cancelled: false,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Spawn the host SIMD lane worker. It owns shard `lane` (the last
/// round-robin shard) and keeps every shard so it can absorb owed work
/// from dead device lanes.
pub(crate) fn spawn_host_lane(
    lane: usize,
    shards: Vec<Database>,
    threads: usize,
    faults: HostFaultPlan,
    cancel: CancelToken,
    out: Sender<FrontMsg>,
) -> LaneHandle {
    let (tx, rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        let worker = HostLaneWorker {
            lane,
            shards,
            threads,
            faults,
            cancel,
        };
        host_lane_loop(&worker, &rx, &out);
    });
    LaneHandle { tx, join }
}

struct HostLaneWorker {
    lane: usize,
    shards: Vec<Database>,
    threads: usize,
    faults: HostFaultPlan,
    cancel: CancelToken,
}

fn host_lane_loop(worker: &HostLaneWorker, rx: &Receiver<LaneCmd>, out: &Sender<FrontMsg>) {
    while let Ok(cmd) = rx.recv() {
        let done = match cmd {
            LaneCmd::Exec { wave_id, wave } => worker.exec(wave_id, &wave, worker.lane),
            LaneCmd::Owed {
                wave_id,
                wave,
                shard_of,
            } => worker.exec(wave_id, &wave, shard_of),
            LaneCmd::Stop => break,
        };
        if out.send(FrontMsg::Done(done)).is_err() {
            break;
        }
    }
}

impl HostLaneWorker {
    /// Compute shard `shard_of` for every request of `wave` as one job on
    /// the protected pool: the wave's engines in `exec_order`, the shard
    /// walked once. A cancelled wave (gateway shutdown) serves none of its
    /// requests.
    fn exec(&self, wave_id: u64, wave: &Wave, shard_of: usize) -> LaneDone {
        let t0 = Instant::now();
        let mut scores: Vec<Option<Vec<i32>>> = vec![None; wave.requests.len()];
        let mut cells = 0u64;
        let params = &wave.requests[0].params;
        let shard = &self.shards[shard_of.min(self.shards.len().saturating_sub(1))];
        let mut cancelled = self.cancel.is_cancelled();
        if !cancelled {
            let engines: Vec<QueryEngine> = wave
                .exec_order
                .iter()
                .map(|&q| QueryEngine::new(params.clone(), &wave.requests[q].query))
                .collect();
            let cfg = PoolConfig::new(self.threads, Precision::Adaptive)
                .with_fault_plan(self.faults.clone())
                .with_cancel(self.cancel.clone());
            match search_wave_protected(&engines, shard.sequences(), &cfg) {
                Ok(r) => {
                    sw_simd::record_stats(engines[0].kind(), &r.stats);
                    for (&q, part) in wave.exec_order.iter().zip(r.scores) {
                        cells += shard.total_cells(wave.requests[q].query.len());
                        scores[q] = Some(part);
                    }
                }
                Err(_cancelled) => cancelled = true,
            }
        }
        LaneDone {
            lane: self.lane,
            wave_id,
            shard_of,
            scores,
            cells,
            degraded: false,
            faulted: false,
            died: false,
            cancelled,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}
