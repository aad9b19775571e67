//! The recovery ledger: what a resilient search may do, and the record of
//! what it did.
//!
//! A [`RecoveryPolicy`] says which rungs a search may climb; a
//! [`RecoveryReport`] records every rung it climbed. The `note_*` writers
//! are the only code that records a recovery action, and each writes the
//! ledger, the metrics registry (`cudasw.core.recovery.*`,
//! `cudasw.core.integrity.*`) and the trace timeline in one breath, so the
//! three can never disagree (pinned by `tests/resilience.rs` and by
//! sw-serve's `service_integration.rs`). [`RecoveryReport::retry`] is the
//! one retry rule: the driver's chunk loop (`chunk_loop.rs`), the
//! multi-GPU layer and sw-serve's staging rung all retry through it.

use std::path::PathBuf;

use crate::driver::SearchResult;
use gpu_sim::GpuError;

/// Retries per operation for transient errors before the device is
/// declared failed.
pub(crate) const MAX_RETRIES: u32 = 3;

/// First backoff interval on the simulated clock; doubles per retry.
pub(crate) const BACKOFF_BASE_SECONDS: f64 = 1.0e-3;

/// Seconds slept before retry number `attempt` (1-based): the base,
/// doubled per retry already made.
fn backoff_seconds(attempt: u32) -> f64 {
    BACKOFF_BASE_SECONDS * f64::from(1u32 << attempt.saturating_sub(1).min(20))
}

/// Knobs of the recovery machinery. Every policy retries a transient error
/// up to three times, 1 ms of backoff first and doubling, and halves an
/// out-of-memory window down to one sequence; [`CudaSwDriver::search`]
/// runs the same loop under no policy at all, failing on the first error.
///
/// [`CudaSwDriver::search`]: crate::CudaSwDriver::search
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Fall back to the CPU SIMD path when the device is gone. When
    /// false, a dead device surfaces as `Err` (the multi-GPU layer uses
    /// this to claim the shard for re-dispatch instead).
    pub cpu_fallback: bool,
    /// Watchdog budget armed on the device for the duration of the
    /// search; `None` leaves hangs un-killed.
    pub watchdog_cycles: Option<u64>,
    /// Verify end-to-end transfer checksums on the device, so silent
    /// (past-ECC) corruption surfaces as
    /// [`GpuError::ChecksumMismatch`] and the affected chunk is
    /// quarantined and recomputed on the host oracle.
    pub integrity_checks: bool,
    /// Absolute deadline on the simulated clock ([`obs::now`]): a retry
    /// whose backoff would land past this instant is *denied* (recorded as
    /// [`RecoveryEvent::BudgetDenied`]) and the ladder degrades directly —
    /// re-chunking and CPU fallback still run, because they make forward
    /// progress instead of burning budget on the same failing operation.
    /// `None` (the default) never denies.
    pub deadline_seconds: Option<f64>,
    /// Where the chunk-completion log lives ([`crate::checkpoint`]); `None`
    /// (the default) checkpoints nothing and costs nothing.
    /// [`CudaSwDriver::search_resilient`] takes it as the log's file path;
    /// [`crate::multi_gpu_search_resilient`] as a directory holding one log
    /// per shard.
    ///
    /// [`CudaSwDriver::search_resilient`]: crate::CudaSwDriver::search_resilient
    pub checkpoint: Option<PathBuf>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            cpu_fallback: true,
            watchdog_cycles: None,
            integrity_checks: true,
            deadline_seconds: None,
            checkpoint: None,
        }
    }
}

/// One recovery action, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A transient error was retried.
    Retry {
        /// Display form of the error.
        error: String,
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// An OOM shrank the staging window.
    Rechunk {
        /// Window before.
        from: usize,
        /// Window after.
        to: usize,
    },
    /// Sequences were computed on the CPU instead of the device.
    CpuFallback {
        /// How many sequences.
        sequences: usize,
    },
    /// A transfer checksum mismatch quarantined a chunk; its scores were
    /// recomputed on the host oracle.
    Quarantine {
        /// Sequences recomputed.
        sequences: usize,
    },
    /// A retry was denied because its backoff would overrun the query's
    /// deadline budget ([`RecoveryPolicy::deadline_seconds`]); the ladder
    /// degraded (fallback/redispatch) instead of retrying.
    BudgetDenied {
        /// Display form of the error that would have been retried.
        error: String,
    },
    /// A dead device's shard (or part of it) was re-run on a survivor.
    ShardRedispatch {
        /// Index of the failed device.
        from_device: usize,
        /// Index of the surviving device that took the work.
        to_device: usize,
        /// Sequences moved.
        sequences: usize,
    },
}

/// What recovery did during a search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Transient-error retries performed.
    pub retries: u64,
    /// Retries *denied* because their backoff would overrun the deadline
    /// budget (the ladder degraded instead of waiting).
    pub budget_denied_retries: u64,
    /// OOM-driven window halvings.
    pub rechunks: u64,
    /// Sequences scored by the CPU fallback.
    pub cpu_fallback_seqs: u64,
    /// Shard re-dispatches (multi-GPU only).
    pub shard_redispatches: u64,
    /// Chunks quarantined after a transfer checksum mismatch.
    pub quarantined_chunks: u64,
    /// Sequences recomputed on the host oracle because of quarantine.
    pub quarantined_seqs: u64,
    /// True when any part of the result did not come from the device
    /// (CPU fallback or quarantine recompute ran).
    pub degraded: bool,
    /// Simulated seconds spent backing off between retries.
    pub backoff_seconds: f64,
    /// Ordered log of every action.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// Fold another report into this one (multi-GPU aggregation).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.retries += other.retries;
        self.budget_denied_retries += other.budget_denied_retries;
        self.rechunks += other.rechunks;
        self.cpu_fallback_seqs += other.cpu_fallback_seqs;
        self.shard_redispatches += other.shard_redispatches;
        self.quarantined_chunks += other.quarantined_chunks;
        self.quarantined_seqs += other.quarantined_seqs;
        self.degraded |= other.degraded;
        self.backoff_seconds += other.backoff_seconds;
        self.events.extend(other.events.iter().cloned());
    }

    /// The one retry rule, for an operation that failed with `err` after
    /// `attempt` retries. A transient error is retried up to three times:
    /// the retry is recorded, its backoff (1 ms, doubling) slept on the
    /// simulated clock, `attempt` counted up and the seconds slept
    /// returned. A retry whose backoff would land past `deadline` can never
    /// help, so it is denied and recorded as such. `Err(err)` hands a
    /// denied, exhausted or non-transient error back to the caller's next
    /// rung.
    pub fn retry(
        &mut self,
        err: GpuError,
        attempt: &mut u32,
        deadline: Option<f64>,
    ) -> Result<f64, GpuError> {
        if !err.is_transient() || *attempt >= MAX_RETRIES {
            return Err(err);
        }
        let next = *attempt + 1;
        if let Some(deadline) = deadline.filter(|&d| obs::now() + backoff_seconds(next) > d) {
            self.note_budget_denied(&err, deadline);
            return Err(err);
        }
        *attempt = next;
        Ok(self.note_retry(&err, next))
    }

    /// Record retry number `attempt` (1-based) of the operation that
    /// failed with `err`, sleep its backoff on the simulated clock, and
    /// return the seconds slept.
    fn note_retry(&mut self, err: &GpuError, attempt: u32) -> f64 {
        self.retries += 1;
        let backoff = backoff_seconds(attempt);
        self.backoff_seconds += backoff;
        obs::counter_add("cudasw.core.recovery.retries", &[], 1.0);
        obs::counter_add("cudasw.core.recovery.backoff_seconds", &[], backoff);
        obs::advance(backoff);
        obs::instant(
            "retry",
            "recovery",
            &[
                ("error", &err.to_string()),
                ("attempt", &attempt.to_string()),
            ],
        );
        self.events.push(RecoveryEvent::Retry {
            error: err.to_string(),
            attempt,
        });
        backoff
    }

    /// Record a retry of `err` denied because its backoff would land past
    /// `deadline` on the simulated clock.
    fn note_budget_denied(&mut self, err: &GpuError, deadline: f64) {
        self.budget_denied_retries += 1;
        obs::counter_add("cudasw.core.recovery.budget_denied", &[], 1.0);
        obs::instant(
            "budget_denied",
            "recovery",
            &[
                ("error", &err.to_string()),
                ("deadline_seconds", &format!("{deadline:.6}")),
            ],
        );
        self.events.push(RecoveryEvent::BudgetDenied {
            error: err.to_string(),
        });
    }

    pub(crate) fn note_rechunk(&mut self, from: usize, to: usize) {
        self.rechunks += 1;
        obs::counter_add("cudasw.core.recovery.rechunks", &[], 1.0);
        obs::instant(
            "rechunk",
            "recovery",
            &[("from", &from.to_string()), ("to", &to.to_string())],
        );
        self.events.push(RecoveryEvent::Rechunk { from, to });
    }

    /// Record `sequences` scored on the host instead of the device (none
    /// records nothing); the result is degraded.
    pub fn note_cpu_fallback(&mut self, sequences: usize) {
        if sequences == 0 {
            return;
        }
        self.cpu_fallback_seqs += sequences as u64;
        self.degraded = true;
        obs::counter_add(
            "cudasw.core.recovery.cpu_fallback_seqs",
            &[],
            sequences as f64,
        );
        obs::instant(
            "cpu_fallback",
            "recovery",
            &[("sequences", &sequences.to_string())],
        );
        self.events.push(RecoveryEvent::CpuFallback { sequences });
    }

    pub(crate) fn note_quarantine(&mut self, err: &GpuError, phase: &str, sequences: usize) {
        self.quarantined_chunks += 1;
        self.quarantined_seqs += sequences as u64;
        self.degraded = true;
        obs::counter_add("cudasw.core.integrity.detected", &[("phase", phase)], 1.0);
        obs::counter_add(
            "cudasw.core.integrity.quarantined",
            &[("phase", phase)],
            1.0,
        );
        obs::counter_add(
            "cudasw.core.integrity.quarantined_seqs",
            &[("phase", phase)],
            sequences as f64,
        );
        obs::instant(
            "quarantine",
            "recovery",
            &[
                ("phase", phase),
                ("error", &err.to_string()),
                ("sequences", &sequences.to_string()),
            ],
        );
        self.events.push(RecoveryEvent::Quarantine { sequences });
    }

    /// Record `sequences` of dead device `from_device`'s shard re-run on
    /// survivor `to_device`.
    pub fn note_redispatch(&mut self, from_device: usize, to_device: usize, sequences: usize) {
        self.shard_redispatches += 1;
        obs::counter_add("cudasw.core.recovery.shard_redispatches", &[], 1.0);
        obs::instant(
            "shard_redispatch",
            "recovery",
            &[
                ("from_device", &from_device.to_string()),
                ("to_device", &to_device.to_string()),
                ("sequences", &sequences.to_string()),
            ],
        );
        self.events.push(RecoveryEvent::ShardRedispatch {
            from_device,
            to_device,
            sequences,
        });
    }
}

/// A [`SearchResult`] plus the recovery story behind it.
#[derive(Debug, Clone)]
pub struct ResilientSearchResult {
    /// The search result (scores always complete and correct, possibly
    /// partially CPU-computed — see `recovery.degraded`).
    pub result: SearchResult,
    /// What it took to get there.
    pub recovery: RecoveryReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_accumulates() {
        let mut a = RecoveryReport {
            retries: 1,
            rechunks: 2,
            backoff_seconds: 0.5,
            ..RecoveryReport::default()
        };
        let b = RecoveryReport {
            retries: 3,
            degraded: true,
            cpu_fallback_seqs: 7,
            shard_redispatches: 1,
            backoff_seconds: 0.25,
            events: vec![RecoveryEvent::CpuFallback { sequences: 7 }],
            ..RecoveryReport::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.rechunks, 2);
        assert_eq!(a.cpu_fallback_seqs, 7);
        assert_eq!(a.shard_redispatches, 1);
        assert!(a.degraded);
        assert!((a.backoff_seconds - 0.75).abs() < 1e-12);
        assert_eq!(a.events.len(), 1);
    }
}
