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
//! Failure semantics, scoped to what a worker thread can do on its own:
//!
//! * a device lane is a loop over [`sw_serve::DeviceLane`] — the same
//!   staging, resident fast path and resilient rerun the simulated
//!   service climbs, with no deadline budget (wall-clock tails are
//!   bounded by admission, cancellation and the breakers, not by the
//!   simulated device clock); a lane death reports the remaining queries
//!   as unserved (`None`), and the wave machine owes them to the host
//!   lane;
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
use cudasw_core::{CudaSwConfig, RecoveryPolicy, RecoveryReport};
use gpu_sim::{DeviceSpec, FaultPlan};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::Sender;
use sw_db::Database;
use sw_serve::{DeviceLane, Part};
use sw_simd::{
    search_wave_protected, CancelToken, HostFaultPlan, PoolConfig, Precision, QueryEngine,
};

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
}

impl LaneDone {
    /// A part that served nothing.
    fn unserved(lane: usize, part: &Part) -> Self {
        Self {
            lane,
            wave_id: part.wave_id,
            shard_of: part.shard,
            scores: vec![None; part.wave.requests.len()],
            cells: 0,
            degraded: false,
            faulted: false,
            died: false,
        }
    }
}

/// A spawned worker: its channel of parts and join handle. A device lane
/// only ever gets its own shard; the host lane gets its own and the
/// shards owed by dead or quarantined device lanes. The worker exits once
/// the dispatcher drops its sender and the queued parts are done.
pub(crate) struct LaneHandle {
    pub tx: Sender<Part>,
    pub join: std::thread::JoinHandle<()>,
}

/// Spawn worker `lane`, which runs `exec` on every part it gets. A part
/// whose `exec` panics outside the pool's chunk quarantine (a request the
/// machine's admission checks let through but an engine refuses) reports
/// unserved, so the machine owes it once and then aborts it: every
/// request resolves.
fn spawn_lane(
    lane: usize,
    mut exec: impl FnMut(&Part) -> LaneDone + Send + 'static,
    out: Sender<FrontMsg>,
) -> LaneHandle {
    let (tx, rx) = std::sync::mpsc::channel::<Part>();
    let join = std::thread::spawn(move || {
        for part in rx {
            let done = std::panic::catch_unwind(AssertUnwindSafe(|| exec(&part)))
                .unwrap_or_else(|_| LaneDone::unserved(lane, &part));
            if out.send(FrontMsg::Done(done)).is_err() {
                break;
            }
        }
    });
    LaneHandle { tx, join }
}

/// Spawn a gpu-sim device lane worker over `shard`.
pub(crate) fn spawn_device_lane(
    lane: usize,
    spec: &DeviceSpec,
    config: &CudaSwConfig,
    shard: Database,
    plan: FaultPlan,
    policy: &RecoveryPolicy,
    out: Sender<FrontMsg>,
) -> LaneHandle {
    let mut device = DeviceLane::new(spec, config, shard, plan, policy);
    spawn_lane(lane, move |part| exec_device(lane, &mut device, part), out)
}

/// Serve `device`'s shard of the wave, query by query, until the wave
/// ends or the lane dies. A non-recoverable device error kills the lane
/// too: the worker cannot propagate it, and the machine owes the work.
fn exec_device(lane: usize, device: &mut DeviceLane, part: &Part) -> LaneDone {
    let wave = &part.wave;
    let mut done = LaneDone::unserved(lane, part);
    let faults_before = device.faults_seen();
    if device.alive() {
        device.set_params(&wave.requests[0].params);
        // Staging backoff is modelled on the worker's thread-local device
        // clock: a simulated retry pause must not stall a real wave.
        if device
            .stage(None, &mut RecoveryReport::default(), &mut 0.0)
            .is_err()
        {
            device.kill();
        }
    }
    for &q in &wave.exec_order {
        if !device.alive() {
            break;
        }
        match device.serve(&wave.requests[q].query, None) {
            Ok(Some(r)) => {
                done.cells += r.cells;
                done.degraded |= r.recovery.degraded;
                done.scores[q] = Some(r.scores);
            }
            Ok(None) => {}
            Err(_) => device.kill(),
        }
    }
    done.faulted = device.faults_seen() > faults_before;
    done.died = !device.alive();
    done
}

/// Spawn the host SIMD lane worker. It owns shard `lane` (the last
/// round-robin shard) and keeps every shard so it can absorb owed work
/// from dead device lanes. Each part is one job on the protected pool:
/// the wave's engines in `exec_order`, the shard walked once. A cancelled
/// job (gateway shutdown) serves none of its requests.
pub(crate) fn spawn_host_lane(
    lane: usize,
    shards: Vec<Database>,
    threads: usize,
    faults: HostFaultPlan,
    cancel: CancelToken,
    out: Sender<FrontMsg>,
) -> LaneHandle {
    let cfg = PoolConfig::new(threads, Precision::Adaptive)
        .with_fault_plan(faults)
        .with_cancel(cancel.clone());
    let exec = move |part: &Part| {
        let wave = &part.wave;
        let mut done = LaneDone::unserved(lane, part);
        let shard = &shards[part.shard.min(shards.len().saturating_sub(1))];
        if !cancel.is_cancelled() {
            let params = &wave.requests[0].params;
            let engines: Vec<QueryEngine> = (wave.exec_order.iter())
                .map(|&q| QueryEngine::new(params.clone(), &wave.requests[q].query))
                .collect();
            if let Ok(r) = search_wave_protected(&engines, shard.sequences(), &cfg) {
                sw_simd::record_stats(engines[0].kind(), &r.stats);
                for (&q, part) in wave.exec_order.iter().zip(r.scores) {
                    done.cells += shard.total_cells(wave.requests[q].query.len());
                    done.scores[q] = Some(part);
                }
            }
        }
        done
    };
    spawn_lane(lane, exec, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use sw_serve::{TraceConfig, Wave};

    /// A part whose `exec` panics reports unserved; the worker goes on.
    #[test]
    fn a_panicking_part_reports_unserved_and_the_worker_lives_on() {
        let requests = TraceConfig::small(1, 5).generate();
        let (key, exec_order) = (requests[0].params_key(), vec![0]);
        let wave = Arc::new(Wave {
            key,
            requests,
            exec_order,
        });
        let exec = |part: &Part| match part.wave_id {
            0 => panic!("an engine refused the part"),
            _ => LaneDone::unserved(3, part),
        };
        let (out, rx) = std::sync::mpsc::channel();
        let lane = spawn_lane(3, exec, out);
        for wave_id in [0, 1] {
            let part = Part {
                wave_id,
                wave: wave.clone(),
                shard: 2,
            };
            lane.tx.send(part).unwrap();
        }
        drop(lane.tx);
        let reports: Vec<_> = rx.iter().collect();
        lane.join.join().unwrap();
        let [FrontMsg::Done(first), FrontMsg::Done(next)] = &reports[..] else {
            panic!("the worker reports each part once");
        };
        assert_eq!(
            (first.wave_id, first.shard_of, &first.scores),
            (0, 2, &vec![None])
        );
        assert_eq!(next.wave_id, 1);
    }
}
