//! Multi-GPU scaling (§IV-B / §V).
//!
//! "While we did not run the algorithm on multiple GPU cards, we note that
//! the kernel tasks are independent, and thus the running time will scale
//! almost linearly with the number of GPUs available, as seen in previous
//! studies. [...] Our improved kernel is pleasantly parallel at the scope
//! of kernel calls, allowing CUDASW++ with our improved implementation to
//! linearly scale with multiple GPUs as does the original CUDASW++."
//!
//! This module implements the standard CUDASW++ multi-GPU strategy: the
//! length-sorted database is dealt round-robin across `k` identical
//! devices (so every device sees the same length distribution), each
//! device runs a full search over its shard concurrently, and the wall
//! time is the slowest device's time. There is one multi-GPU function,
//! [`multi_gpu_search_resilient`]; the fault-free search is that function
//! given no fault plans.

use crate::driver::{CudaSwConfig, CudaSwDriver, SearchResult};
use crate::recovery::{host_scores, RecoveryPolicy, RecoveryReport};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::{Database, Sequence};

/// Run `body` as device `device`'s share of the search, scoped for
/// observability: the trace lane is the device index (so each device gets
/// its own row in the Chrome trace viewer), a span named `span` wraps the
/// work, and a per-device counter records that the device searched. Shards
/// run sequentially on the host; lanes reconstruct the concurrency the
/// timing model assumes.
fn on_device_lane<R>(device: usize, span: &str, body: impl FnOnce() -> R) -> R {
    let prev_lane = obs::set_lane(device as u32 + 1);
    let sp = obs::span(span, "phase");
    let result = body();
    let dev_label = device.to_string();
    obs::counter_add("cudasw.core.shard.searches", &[("device", &dev_label)], 1.0);
    sp.end_with(&[("device", &dev_label)]);
    obs::set_lane(prev_lane);
    result
}

/// Deal the sorted database round-robin into `k` shards (each shard keeps
/// a representative length distribution, which is what makes the scaling
/// near-linear).
pub fn shard_database(db: &Database, k: usize) -> Vec<Database> {
    let mut shards: Vec<Vec<Sequence>> = vec![Vec::new(); k.max(1)];
    for (i, seq) in db.sequences().iter().enumerate() {
        shards[i % k.max(1)].push(seq.clone());
    }
    shards
        .into_iter()
        .enumerate()
        .map(|(i, seqs)| Database::new(format!("{}[shard {i}]", db.name), db.alphabet, seqs))
        .collect()
}

/// The inverse of [`shard_database`]'s deal: write shard `s` of `k`'s
/// scores into database order. A sorted list dealt round-robin leaves
/// every shard sorted, so a shard's own `Database` keeps the dealt order
/// and position `j` of shard `s` is database index `s + j·k`. Dealing
/// shard `s` again over `m` makes sub-shard `t` shard `s + t·k` of `m·k`.
pub fn unshard_scores(scores: &mut [i32], s: usize, k: usize, shard_scores: &[i32]) {
    for (j, &score) in shard_scores.iter().enumerate() {
        scores[s + j * k] = score;
    }
}

/// Result of a search fanned out over `k` devices.
#[derive(Debug, Clone)]
pub struct ResilientMultiGpuResult {
    /// Scores aligned with `db.sequences()` order (merged from all shards,
    /// re-dispatched work and CPU fallback included).
    pub scores: Vec<i32>,
    /// Per-device results, in device order; `None` for a device that
    /// failed (its shard was re-dispatched or CPU-computed).
    pub per_device: Vec<Option<SearchResult>>,
    /// Devices the search started with.
    pub devices: usize,
    /// Aggregated recovery story across all devices.
    pub recovery: RecoveryReport,
}

impl ResilientMultiGpuResult {
    /// Devices that survived the whole search.
    pub fn surviving_devices(&self) -> usize {
        self.per_device.iter().filter(|r| r.is_some()).count()
    }

    /// Per-device kernel seconds of the devices that survived.
    fn device_seconds(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_device.iter().flatten().map(|r| r.kernel_seconds())
    }

    /// Total cells the surviving devices updated on their own shards.
    pub fn total_cells(&self) -> u64 {
        let results = self.per_device.iter().flatten();
        results.map(SearchResult::total_cells).sum()
    }

    /// Wall-clock seconds: devices run concurrently, so the slowest
    /// surviving device's own shard defines the search time.
    pub fn wall_seconds(&self) -> f64 {
        self.device_seconds().fold(0.0, f64::max)
    }

    /// Aggregate GCUPs over the wall time.
    pub fn gcups(&self) -> f64 {
        let s = self.wall_seconds();
        if s <= 0.0 {
            0.0
        } else {
            self.total_cells() as f64 / s / 1.0e9
        }
    }

    /// Load balance: slowest device time / mean device time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let mean = self.device_seconds().sum::<f64>() / self.surviving_devices().max(1) as f64;
        if mean <= 0.0 {
            1.0
        } else {
            self.wall_seconds() / mean
        }
    }
}

/// Run `query` against `db` on `k` simulated devices of the same spec,
/// with fault injection and recovery.
///
/// `plans[i]` (when present) is installed on device `i` before the search;
/// no plans is the fault-free search.
/// Each shard first runs resiliently on its own device (retries and OOM
/// re-chunking happen there, but *without* CPU fallback); a device that
/// dies anyway forfeits its shard, which is re-dealt round-robin across
/// the surviving devices. Only when every device is gone does the CPU
/// fallback of `policy` take over (if enabled).
///
/// With [`RecoveryPolicy::checkpoint`] a directory, device `s` checkpoints
/// its shard to `<dir>/shard-<s>.ckpt`, and a sub-shard re-dispatched from
/// dead device `s` to survivor slot `t` checkpoints to
/// `<dir>/redispatch-<s>-<t>.ckpt` — a crashed multi-GPU search restarted
/// with the same directory resumes every shard from its own log.
pub fn multi_gpu_search_resilient(
    spec: &DeviceSpec,
    config: &CudaSwConfig,
    query: &[u8],
    db: &Database,
    k: usize,
    plans: &[FaultPlan],
    policy: &RecoveryPolicy,
) -> Result<ResilientMultiGpuResult, GpuError> {
    let k = k.max(1);
    let shards = shard_database(db, k);
    let mut drivers: Vec<CudaSwDriver> = (0..k)
        .map(|i| {
            let mut d = CudaSwDriver::new(spec.clone(), config.clone());
            if let Some(plan) = plans.get(i) {
                d.dev.inject_faults(plan.clone());
            }
            d
        })
        .collect();
    // Shards never CPU-fall-back individually: a dead device's work is
    // first offered to the surviving devices. Each logs under its own name.
    let shard_policy = |log_name: String| RecoveryPolicy {
        cpu_fallback: false,
        checkpoint: policy.checkpoint.as_ref().map(|dir| dir.join(log_name)),
        ..policy.clone()
    };

    let mut report = RecoveryReport::default();
    let mut per_device: Vec<Option<SearchResult>> = (0..k).map(|_| None).collect();
    let mut scores = vec![0i32; db.len()];
    let mut failed = Vec::new();

    for (s, shard) in shards.iter().enumerate() {
        let outcome = on_device_lane(s, "shard", || {
            drivers[s].search_resilient(query, shard, &shard_policy(format!("shard-{s}.ckpt")))
        });
        match outcome {
            Ok(rr) => {
                unshard_scores(&mut scores, s, k, &rr.result.scores);
                report.merge(&rr.recovery);
                per_device[s] = Some(rr.result);
            }
            Err(e) if e.is_recoverable() => failed.push(s),
            Err(e) => return Err(e),
        }
    }

    if !failed.is_empty() {
        let survivors: Vec<usize> = (0..k).filter(|i| per_device[*i].is_some()).collect();
        if survivors.is_empty() {
            // Every device is gone; the host finishes the search alone.
            if !policy.cpu_fallback {
                return Err(GpuError::DeviceLost);
            }
            scores = host_scores(&config.params, query, db.sequences());
            report.note_cpu_fallback(db.len());
        } else {
            let m = survivors.len();
            for &s in &failed {
                // Re-deal the dead device's shard round-robin across the
                // survivors: sub-shard `t` is shard `s + t·k` of `m·k`.
                let sub = shard_database(&shards[s], m);
                for (t, subshard) in sub.iter().enumerate() {
                    let dev_idx = survivors[t];
                    let mut merge = |sub_scores: &[i32]| {
                        unshard_scores(&mut scores, s + t * k, m * k, sub_scores)
                    };
                    if subshard.is_empty() {
                        continue;
                    }
                    // Budget-exhausted degrade: once the deadline has
                    // passed, a device re-dispatch (staging + kernels +
                    // possible retries) only digs the hole deeper.
                    let out_of_time = policy.cpu_fallback
                        && policy.deadline_seconds.is_some_and(|d| obs::now() >= d);
                    let outcome = (!out_of_time).then(|| {
                        on_device_lane(dev_idx, "shard_redispatch", || {
                            drivers[dev_idx].search_resilient(
                                query,
                                subshard,
                                &shard_policy(format!("redispatch-{s}-{t}.ckpt")),
                            )
                        })
                    });
                    match outcome {
                        Some(Ok(rr)) => {
                            merge(&rr.result.scores);
                            report.merge(&rr.recovery);
                            report.note_redispatch(s, dev_idx, subshard.len());
                        }
                        Some(Err(e)) if !(e.is_recoverable() && policy.cpu_fallback) => {
                            return Err(e)
                        }
                        // No time left, or the survivor died too: the host
                        // absorbs this sub-shard.
                        _ => {
                            merge(&host_scores(&config.params, query, subshard.sequences()));
                            report.note_cpu_fallback(subshard.len());
                        }
                    }
                }
            }
        }
    }

    Ok(ResilientMultiGpuResult {
        scores,
        per_device,
        devices: k,
        recovery: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CudaSwConfig;
    use gpu_sim::DeviceSpec;
    use sw_db::synth::make_query;
    use sw_db::SynthConfig;

    fn db(n: usize) -> Database {
        SynthConfig::new(
            "mgpu",
            n,
            sw_db::stats::LogNormalParams::from_mean_std(150.0, 100.0),
            17,
        )
        .generate()
    }

    /// The fault-free search: no plans, and a ledger with nothing in it.
    fn search(cfg: &CudaSwConfig, q: &[u8], db: &Database, k: usize) -> ResilientMultiGpuResult {
        let (spec, policy) = (DeviceSpec::tesla_c1060(), RecoveryPolicy::default());
        let r = multi_gpu_search_resilient(&spec, cfg, q, db, k, &[], &policy).unwrap();
        assert_eq!(r.recovery, RecoveryReport::default());
        r
    }

    #[test]
    fn sharding_preserves_all_sequences() {
        let d = db(37);
        let shards = shard_database(&d, 4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 37);
        // Round-robin over a sorted list keeps shards sorted.
        for s in &shards {
            assert!(s.sequences().windows(2).all(|w| w[0].len() <= w[1].len()));
        }
    }

    #[test]
    fn two_gpus_are_nearly_twice_as_fast() {
        // §IV-B: "CUDASW++ will likewise see a twofold increase if two GPUs
        // are used." (Near-linear because the shards are balanced.)
        // Enough work that the fixed launch overhead is negligible.
        let d = db(1200);
        let query = make_query(144, 5);
        let cfg = CudaSwConfig::improved();
        let one = search(&cfg, &query, &d, 1);
        let two = search(&cfg, &query, &d, 2);
        assert_eq!(one.scores, two.scores);
        for (k, r) in [(1, &one), (2, &two)] {
            assert_eq!((r.devices, r.surviving_devices()), (k, k));
            assert_eq!(r.total_cells(), d.total_cells(144), "k={k}");
        }
        let speedup = one.wall_seconds() / two.wall_seconds();
        assert!(
            (1.6..=2.2).contains(&speedup),
            "2-GPU speedup = {speedup:.2}"
        );
        assert!(two.imbalance() < 1.2, "imbalance {:.2}", two.imbalance());
    }

    #[test]
    fn exhausted_budget_skips_redispatch_and_degrades_to_host() {
        let d = db(24);
        let query = make_query(48, 9);
        let cfg = CudaSwConfig::improved();
        let spec = DeviceSpec::tesla_c1060();
        // Device 0 dies instantly; with the deadline already in the past,
        // its shard must be absorbed by the host instead of re-dispatched
        // to device 1 — and the scores still come out complete and right.
        let plans = vec![FaultPlan::none().with_device_loss(gpu_sim::FaultSite::Launch, 0)];
        let policy = RecoveryPolicy {
            deadline_seconds: Some(obs::now()),
            ..RecoveryPolicy::default()
        };
        let r = multi_gpu_search_resilient(&spec, &cfg, &query, &d, 2, &plans, &policy).unwrap();
        assert_eq!(
            r.recovery.shard_redispatches, 0,
            "no redispatch past deadline"
        );
        assert!(r.recovery.cpu_fallback_seqs > 0);
        assert!(r.recovery.degraded);
        assert_eq!(r.scores, search(&cfg, &query, &d, 1).scores);
    }
}
