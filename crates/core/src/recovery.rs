//! The driver's one search loop, and the fault recovery it carries.
//!
//! Every search that uploads its database walks it here:
//! [`CudaSwDriver::search`] is this loop under a policy that fails on the
//! first error, [`CudaSwDriver::search_resilient`] the same loop under the
//! caller's [`RecoveryPolicy`], and the multi-GPU search runs it once per
//! shard. Under a policy that allows it, the loop survives the failure
//! modes the simulator can inject ([`gpu_sim::fault`]):
//!
//! * **transient faults / watchdog timeouts / detected corruption** —
//!   bounded retry with exponential backoff ([`RecoveryPolicy::max_retries`],
//!   [`RecoveryPolicy::backoff_base_seconds`]);
//! * **out-of-memory** — the inter-task staging group (or intra-task
//!   chunk) is halved and the window retried, down to
//!   [`RecoveryPolicy::min_group_size`];
//! * **hangs** — [`RecoveryPolicy::watchdog_cycles`] arms the device
//!   watchdog so a hung launch comes back as a retryable
//!   [`GpuError::LaunchTimeout`] instead of burning simulated hours;
//! * **device loss / persistent failure** — graceful degradation: every
//!   not-yet-scored sequence is computed on the host CPU by the SIMD pool
//!   on the caller's thread (`sw_simd::search_sequences`, whose chunk
//!   quarantine to `sw_score` is the unwind boundary), and the result is
//!   flagged [`RecoveryReport::degraded`];
//! * **silent transfer corruption** — with
//!   [`RecoveryPolicy::integrity_checks`] (the default) the device
//!   verifies an end-to-end checksum on every transfer; a mismatch
//!   quarantines the affected chunk, whose scores are recomputed on the
//!   host SIMD engine instead of trusting a retry on a path that just
//!   corrupted data;
//! * **process crashes** — with [`RecoveryPolicy::checkpoint`] set, every
//!   completed chunk is appended to an on-disk log
//!   ([`crate::checkpoint`]); a restarted search replays the log, skips
//!   completed chunks, and produces a bit-identical
//!   [`SearchResult`](crate::SearchResult).
//!
//! Both device phases (inter-task groups, intra-task chunks) run through
//! one chunk loop, `run_phase`; one chunk attempt uploads the chunk's
//! database images and hands them to the launch path (`launch.rs`) the
//! staged search shares. A `streamed_h2d` session lasts the whole search,
//! so chunk *k+1*'s upload hides behind chunk *k*'s kernel; the credit a
//! chunk leaves behind is part of its checkpoint record.
//!
//! Everything that happened is recorded in a [`RecoveryReport`] so callers
//! (and the multi-GPU layer, which re-dispatches a dead device's shard to
//! the survivors) can reason about what the numbers mean.

use std::path::PathBuf;

use crate::checkpoint::{CheckpointFile, ChunkPhase, ChunkRecord, Intervals, LoadIssue};
use crate::driver::{note_phase_launch, CudaSwDriver, SearchResult, SearchScope};
use crate::intra_orig::IntraPair;
use crate::launch::StagedQuery;
use crate::seqstore::GroupImage;
use gpu_sim::{GpuError, LaunchStats};
use sw_align::PackedProfile;
use sw_db::{Database, Sequence};
use sw_simd::{Precision, QueryEngine};

/// Knobs of the recovery machinery.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Retries per operation for transient errors before the device is
    /// declared failed.
    pub max_retries: u32,
    /// First backoff interval; doubles per retry. Accounted in
    /// [`RecoveryReport::backoff_seconds`] (simulated, like all time here).
    pub backoff_base_seconds: f64,
    /// Smallest inter-task group (and intra-task chunk) the OOM
    /// re-chunker will go down to.
    pub min_group_size: usize,
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
    pub checkpoint: Option<PathBuf>,
}

impl RecoveryPolicy {
    /// Seconds slept before retry number `attempt` (1-based): the base,
    /// doubled per retry already made.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        self.backoff_base_seconds * f64::from(1u32 << attempt.saturating_sub(1).min(20))
    }

    /// [`CudaSwDriver::search`]'s policy: the first device error is the
    /// search's error. No retry, no window to halve, no host fallback or
    /// quarantine recompute, no log.
    pub(crate) fn fail_fast() -> Self {
        Self {
            max_retries: 0,
            backoff_base_seconds: 0.0,
            min_group_size: usize::MAX,
            cpu_fallback: false,
            watchdog_cycles: None,
            integrity_checks: false,
            deadline_seconds: None,
            checkpoint: None,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_seconds: 1.0e-3,
            min_group_size: 1,
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

    // The note_* methods are the single place recovery actions are
    // recorded, and they emit to the ambient observability recorder in the
    // same breath — the metrics registry and trace timeline can never
    // disagree with the ledger (pinned by `tests/resilience.rs`). The two
    // retry notes are public because the serve layer's staging rung
    // retries too.

    /// Record retry number `attempt` (1-based) of the operation that
    /// failed with `err`, sleep its backoff on the simulated clock, and
    /// return the seconds slept.
    pub fn note_retry(&mut self, err: &GpuError, attempt: u32, policy: &RecoveryPolicy) -> f64 {
        self.retries += 1;
        let backoff = policy.backoff_seconds(attempt);
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
    pub fn note_budget_denied(&mut self, err: &GpuError, deadline: f64) {
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

    fn note_rechunk(&mut self, from: usize, to: usize) {
        self.rechunks += 1;
        obs::counter_add("cudasw.core.recovery.rechunks", &[], 1.0);
        obs::instant(
            "rechunk",
            "recovery",
            &[("from", &from.to_string()), ("to", &to.to_string())],
        );
        self.events.push(RecoveryEvent::Rechunk { from, to });
    }

    pub(crate) fn note_cpu_fallback(&mut self, sequences: usize) {
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

    fn note_quarantine(&mut self, err: &GpuError, phase: &str, sequences: usize) {
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

    pub(crate) fn note_redispatch(
        &mut self,
        from_device: usize,
        to_device: usize,
        sequences: usize,
    ) {
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

/// Scoped fork of the ambient metrics registry.
///
/// Checkpoint records must carry the *exact* metrics delta a chunk
/// produced, and replaying that delta must reproduce the ambient registry
/// bit-for-bit. Diffing two snapshots cannot do that (floating-point
/// subtraction is inexact), so instead the ambient registry is parked for
/// the duration of the chunk and the chunk runs against a fresh one: the
/// fresh registry *is* the delta, and merging it back performs the same
/// additions — in the same order — that a replay performs. If the region
/// unwinds or breaks out early, `Drop` still merges the partial delta
/// back so ambient metrics never lose observations.
struct MetricsFork {
    saved: Option<obs::MetricsRegistry>,
}

impl MetricsFork {
    fn begin() -> Self {
        Self {
            saved: Some(obs::with(|o| std::mem::take(&mut o.metrics))),
        }
    }

    /// End the fork, merge the delta into the restored registry, and
    /// return the delta for the checkpoint record.
    fn finish(mut self) -> obs::MetricsRegistry {
        // `finish` consumes self, so the fork is always live here; an
        // (impossible) empty slot degrades to a default registry rather
        // than panicking under the unwrap/expect lint wall.
        let saved = self.saved.take().unwrap_or_default();
        obs::with(|o| {
            let delta = std::mem::replace(&mut o.metrics, saved);
            o.metrics.merge(&delta);
            delta
        })
    }
}

impl Drop for MetricsFork {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            obs::with(|o| {
                let delta = std::mem::replace(&mut o.metrics, saved);
                o.metrics.merge(&delta);
            });
        }
    }
}

/// How a failed attempt should be handled.
enum Handling {
    Retry,
    Rechunk(GpuError),
    DeviceFailed(GpuError),
}

fn classify(
    err: GpuError,
    attempt: &mut u32,
    window: usize,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
) -> Handling {
    if err.is_transient() && *attempt < policy.max_retries {
        // Deadline budget: a retry sleeps its backoff before running, so
        // if the backoff alone lands past the query's deadline the retry
        // can never help — degrade immediately instead of waiting.
        // Re-chunking is still allowed below (it makes forward progress).
        let next = *attempt + 1;
        if let Some(deadline) = policy.deadline_seconds {
            if obs::now() + policy.backoff_seconds(next) > deadline {
                report.note_budget_denied(&err, deadline);
                return Handling::DeviceFailed(err);
            }
        }
        *attempt = next;
        report.note_retry(&err, *attempt, policy);
        Handling::Retry
    } else if matches!(err, GpuError::OutOfMemory { .. }) && window > policy.min_group_size {
        Handling::Rechunk(err)
    } else {
        Handling::DeviceFailed(err)
    }
}

/// What one resilient search accumulates across staging, replay, both
/// device phases and the CPU fallback.
struct Run<'a> {
    query: &'a [u8],
    policy: &'a RecoveryPolicy,
    log: Option<CheckpointFile>,
    report: RecoveryReport,
    /// Scores aligned with `db.sequences()` order.
    scores: Vec<i32>,
    transfer_seconds: f64,
}

impl Run<'_> {
    /// Append the completed chunk `start..end` of `phase` to the log
    /// (best-effort: an I/O failure records a counter and disables further
    /// checkpointing, never fails the search). Consumes the chunk's metrics
    /// fork either way so the delta is merged back into the ambient
    /// registry exactly once.
    fn log_chunk(
        &mut self,
        fork: Option<MetricsFork>,
        phase: &Phase<'_>,
        (start, end): (usize, usize),
        transfer_seconds: f64,
        stream_credit: f64,
    ) {
        let delta = fork.map(MetricsFork::finish);
        let Some(file) = &mut self.log else { return };
        let rec = ChunkRecord {
            phase: phase.kind,
            start,
            end,
            scores: self.scores[phase.out_base + start..phase.out_base + end].to_vec(),
            transfer_seconds,
            metrics: delta.unwrap_or_default(),
            stream_credit,
        };
        if file.append(rec).is_ok() {
            obs::counter_add("cudasw.core.checkpoint.chunks_written", &[], 1.0);
        } else {
            obs::counter_add("cudasw.core.checkpoint.io_errors", &[], 1.0);
            self.log = None;
        }
    }
}

/// One of the two chunked device phases of a resilient search.
struct Phase<'a> {
    kind: ChunkPhase,
    /// The phase's sequences, in database order.
    seqs: &'a [Sequence],
    /// Index of `seqs[0]` in the result's score vector.
    out_base: usize,
    /// Fault-free chunk size; OOM re-chunking halves it.
    window: usize,
    /// Intervals of `seqs` a checkpoint replay covered.
    replayed: Intervals,
    /// `(end, stream_credit)` of every replayed record, in log order.
    replayed_credit: Vec<(usize, f64)>,
    /// Prefix of `seqs` the live chunk loop has completed or skipped.
    done: usize,
}

impl CudaSwDriver {
    /// [`CudaSwDriver::search`] with fault recovery per `policy`.
    ///
    /// Scores are always complete and identical to a fault-free search —
    /// recovery never changes *what* is computed, only *where* (retried
    /// on the device, or on the CPU once the device is gone). `Err` is
    /// only returned for unrecoverable host-side errors, or for device
    /// failure when `policy.cpu_fallback` is off.
    ///
    /// With [`RecoveryPolicy::checkpoint`] a path, every completed chunk
    /// is appended to the log there; a restarted search with the same
    /// configuration, query and database replays the log, skips completed
    /// chunks, and finishes with a [`SearchResult`] *bit-identical* to an
    /// uninterrupted checkpointed run started from the same observability
    /// state. Checkpoint I/O is best-effort: a filesystem error downgrades
    /// to an un-checkpointed search, it never fails the search itself.
    pub fn search_resilient(
        &mut self,
        query: &[u8],
        db: &Database,
        policy: &RecoveryPolicy,
    ) -> Result<ResilientSearchResult, GpuError> {
        self.dev.set_integrity_checks(policy.integrity_checks);
        self.dev.set_watchdog_cycles(policy.watchdog_cycles);
        self.search_with(query, db, policy)
    }

    /// The search every entry point that uploads its database runs:
    /// partition, stage the query, walk both phases through `run_phase`,
    /// degrade to the host if `policy` allows. Reads every field of `policy`
    /// except the two device settings, which are the caller's to arm.
    pub(crate) fn search_with(
        &mut self,
        query: &[u8],
        db: &Database,
        policy: &RecoveryPolicy,
    ) -> Result<ResilientSearchResult, GpuError> {
        let scope = SearchScope::begin();
        self.dev.free_all();
        if self.config.device.streamed_h2d {
            // §VII streamed copy: one stream session per search; every
            // kernel launch deposits overlap credit that hides the body
            // of subsequent H2D copies. Bytes moved are unchanged.
            self.dev.begin_h2d_stream();
        }
        let partition = db.partition(self.config.threshold);
        let fraction_long = partition.fraction_long();

        // --- Open the chunk-completion log, if asked for.
        let log = policy.checkpoint.as_deref().and_then(|path| {
            let setup = format!("{:?}|{:?}", self.config, self.dev.spec);
            let fp = crate::checkpoint::run_fingerprint(&setup, query, db);
            match CheckpointFile::open(path, fp) {
                Ok((file, issue)) => {
                    if let Some(issue) = issue {
                        let label = match issue {
                            LoadIssue::BadHeader => "bad_header",
                            LoadIssue::FingerprintMismatch => "fingerprint_mismatch",
                            LoadIssue::CorruptTail => "corrupt_tail",
                        };
                        obs::counter_add(
                            "cudasw.core.checkpoint.load_issues",
                            &[("issue", label)],
                            1.0,
                        );
                        obs::instant("checkpoint_load_issue", "checkpoint", &[("issue", label)]);
                    }
                    Some(file)
                }
                Err(_) => {
                    obs::counter_add("cudasw.core.checkpoint.io_errors", &[], 1.0);
                    None
                }
            }
        });
        let mut run = Run {
            query,
            policy,
            log,
            report: RecoveryReport::default(),
            scores: vec![0i32; db.len()],
            transfer_seconds: 0.0,
        };
        let mut device_failed: Option<GpuError> = None;

        // --- Stage the query artefacts (with transient retry; staging is
        // tiny, so an OOM here means the device is unusably full and goes
        // down the failure path — there is no window to halve).
        let sp_stage = obs::span("stage_query", "phase");
        let packed = PackedProfile::build(&self.config.params.matrix, query);
        let mut attempt = 0u32;
        let staged = loop {
            match self.stage_query(query, &packed) {
                Ok((staged, secs)) => {
                    run.transfer_seconds += secs;
                    break Some(staged);
                }
                Err(e) => match classify(e, &mut attempt, 0, policy, &mut run.report) {
                    // Not `free_all`: that would close the stream session.
                    Handling::Retry => self.dev.free_to(0),
                    Handling::Rechunk(e) | Handling::DeviceFailed(e) => {
                        device_failed = Some(e);
                        break None;
                    }
                },
            }
        };
        sp_stage.end_with(&[]);

        let mut inter = Phase {
            kind: ChunkPhase::Inter,
            seqs: partition.short,
            out_base: 0,
            window: self.group_size(),
            replayed: Intervals::default(),
            replayed_credit: Vec::new(),
            done: 0,
        };
        // The fault-free intra chunk is every long sequence in one launch.
        let mut intra = Phase {
            kind: ChunkPhase::Intra,
            seqs: partition.long,
            out_base: partition.short.len(),
            window: partition.long.len(),
            replayed: Intervals::default(),
            replayed_credit: Vec::new(),
            done: 0,
        };

        // --- Replay the log: completed chunks contribute their scores,
        // transfer seconds and metrics deltas exactly as if they had just
        // run (the stream credit they left is restored where the chunk loop
        // skips them). Replayed *after* staging so the accumulation order
        // matches an uninterrupted run (bit-exactness needs identical order).
        if let Some(log) = &run.log {
            let mut chunks = 0u64;
            let mut seqs = 0u64;
            for rec in log.records() {
                let phase = match rec.phase {
                    ChunkPhase::Inter => &mut inter,
                    ChunkPhase::Intra => &mut intra,
                };
                if rec.end > phase.seqs.len() {
                    continue; // fingerprint precludes this; stay safe
                }
                run.scores[phase.out_base + rec.start..phase.out_base + rec.end]
                    .copy_from_slice(&rec.scores);
                run.transfer_seconds += rec.transfer_seconds;
                obs::with(|o| o.metrics.merge(&rec.metrics));
                phase.replayed.add(rec.start, rec.end);
                phase.replayed_credit.push((rec.end, rec.stream_credit));
                chunks += 1;
                seqs += (rec.end - rec.start) as u64;
            }
            if chunks > 0 {
                obs::counter_add("cudasw.core.checkpoint.replayed_chunks", &[], chunks as f64);
                obs::counter_add("cudasw.core.checkpoint.replayed_seqs", &[], seqs as f64);
                obs::instant(
                    "checkpoint_resume",
                    "checkpoint",
                    &[
                        ("chunks", &chunks.to_string()),
                        ("sequences", &seqs.to_string()),
                    ],
                );
            }
        }

        // --- Device phases: inter-task groups, then intra-task chunks,
        // through the one chunk loop.
        if let Some(staged) = &staged {
            device_failed = self.run_phase(&mut run, staged, &mut inter);
            if device_failed.is_none() && !intra.seqs.is_empty() {
                device_failed = self.run_phase(&mut run, staged, &mut intra);
            }
        }
        self.dev.end_h2d_stream();

        // --- Graceful degradation: everything the device did not score
        // (and the replay did not cover) runs on the CPU SIMD path.
        if let Some(err) = device_failed {
            if !policy.cpu_fallback {
                return Err(err);
            }
            let sp_cpu = obs::span("cpu_fallback", "phase");
            let mut slots = Vec::new();
            let mut rest = Vec::new();
            for phase in [&inter, &intra] {
                for i in (phase.done..phase.seqs.len()).filter(|&i| !phase.replayed.contains(i)) {
                    slots.push(phase.out_base + i);
                    rest.push(phase.seqs[i].clone());
                }
            }
            let n = rest.len();
            let scores = host_scores(&self.config.params, query, &rest);
            for (slot, score) in slots.into_iter().zip(scores) {
                run.scores[slot] = score;
            }
            run.report.note_cpu_fallback(n);
            sp_cpu.end_with(&[("sequences", &n.to_string())]);
        }

        Ok(ResilientSearchResult {
            result: scope.finish(
                run.scores,
                run.transfer_seconds,
                fraction_long,
                self.config.threshold,
                query.len(),
            ),
            recovery: run.report,
        })
    }

    /// The one chunk loop: walk `phase.seqs` in windows, skipping intervals
    /// a checkpoint replay already covered, with retry, OOM re-chunking,
    /// checksum quarantine and chunk-completion logging. Leaves the live
    /// prefix in `phase.done`; returns the error that took the device down,
    /// if one did.
    fn run_phase(
        &mut self,
        run: &mut Run<'_>,
        staged: &StagedQuery,
        phase: &mut Phase<'_>,
    ) -> Option<GpuError> {
        let (label, span_name) = match phase.kind {
            ChunkPhase::Inter => ("inter", "inter_task"),
            ChunkPhase::Intra => ("intra", "intra_task"),
        };
        let sp = obs::span(span_name, "phase");
        let mut window = phase.window;
        let mark = self.dev.mark();
        let mut attempt = 0u32;
        let mut fork: Option<MetricsFork> = None;
        let mut device_failed = None;
        while phase.done < phase.seqs.len() {
            let start = phase.done;
            if let Some(covered) = phase.replayed.covered_end(start) {
                // The last thing the skipped chunks did: leave their
                // overlap credit for the uploads of whatever follows.
                let left = &phase.replayed_credit;
                if let Some(&(_, credit)) = left.iter().rfind(|&&(end, _)| end == covered) {
                    self.dev.set_h2d_overlap_credit(credit);
                }
                phase.done = covered;
                attempt = 0;
                continue;
            }
            let cap = phase
                .replayed
                .next_start_after(start)
                .unwrap_or(phase.seqs.len());
            let end = (start + window).min(cap);
            let chunk = &phase.seqs[start..end];
            let out = &mut run.scores[phase.out_base + start..phase.out_base + end];
            if run.log.is_some() && fork.is_none() {
                fork = Some(MetricsFork::begin());
            }
            let attempted = self.run_chunk(phase.kind, chunk, staged);
            self.dev.free_to(mark);
            let secs = match attempted {
                Ok((stats, chunk_scores, secs)) => {
                    note_phase_launch(label, &stats);
                    run.transfer_seconds += secs;
                    out.copy_from_slice(&chunk_scores);
                    secs
                }
                Err(err @ GpuError::ChecksumMismatch { .. }) if run.policy.integrity_checks => {
                    // The device data cannot be trusted: recompute the
                    // chunk on the host SIMD engine.
                    let sp = obs::span("quarantine_recompute", "integrity");
                    out.copy_from_slice(&host_scores(&self.config.params, run.query, chunk));
                    run.report.note_quarantine(&err, label, chunk.len());
                    sp.end_with(&[("phase", label), ("sequences", &chunk.len().to_string())]);
                    0.0
                }
                Err(e) => {
                    match classify(e, &mut attempt, window, run.policy, &mut run.report) {
                        Handling::Retry => {}
                        Handling::Rechunk(_) => {
                            let new = (window / 2).max(run.policy.min_group_size);
                            run.report.note_rechunk(window, new);
                            window = new;
                            attempt = 0;
                        }
                        Handling::DeviceFailed(e) => {
                            device_failed = Some(e);
                            break;
                        }
                    }
                    continue;
                }
            };
            let credit = self.dev.h2d_overlap_credit();
            run.log_chunk(fork.take(), phase, (start, end), secs, credit);
            phase.done = end;
            attempt = 0;
        }
        drop(fork);
        sp.end_with(&[]);
        device_failed
    }

    /// One chunk, one attempt: stage its sequences, launch, read the scores
    /// back (the caller owns the allocator mark and rollback). Returns the
    /// launch statistics, the chunk's scores and its transfer seconds.
    pub(crate) fn run_chunk(
        &mut self,
        phase: ChunkPhase,
        chunk: &[Sequence],
        staged: &StagedQuery,
    ) -> Result<(LaunchStats, Vec<i32>, f64), GpuError> {
        // SaLoBa bins are formed per chunk, so OOM re-chunking stays
        // orthogonal to them.
        let mut secs = 0.0;
        let launched = match phase {
            ChunkPhase::Inter => {
                GroupImage::upload(&mut self.dev, chunk).and_then(|(gimg, h2d)| {
                    secs += h2d;
                    self.launch_inter_group(&gimg, &staged.profile, &mut secs)
                })
            }
            ChunkPhase::Intra => IntraPair::stage(&mut self.dev, chunk, &mut secs)
                .and_then(|pairs| self.launch_intra(&pairs, staged, &mut secs)),
        };
        launched.map(|(stats, scores)| (stats, scores, secs))
    }
}

/// Score `seqs` on the host, wherever a device result is missing or
/// untrusted: the CPU fallback, the quarantine recompute and the multi-GPU
/// layer when every device, or a re-dispatch's survivor, is gone.
///
/// This is the SIMD pool on the caller's thread (one engine, its striped
/// profiles built once for the batch). The pool is the unwind boundary: a
/// panicking chunk is quarantined to `sw_align::sw_score` and counted
/// under `cudasw.simd.pool.*`, so a host stand-in can never abort a search
/// the device already failed. The adaptive-precision counters are
/// published when the batch is non-empty.
pub(crate) fn host_scores(
    params: &sw_align::SwParams,
    query: &[u8],
    seqs: &[Sequence],
) -> Vec<i32> {
    if seqs.is_empty() {
        return Vec::new();
    }
    let engine = QueryEngine::new(params.clone(), query);
    let r = sw_simd::search_sequences(&engine, seqs, 1, Precision::Adaptive);
    sw_simd::record_stats(engine.kind(), &r.stats);
    r.scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CudaSwConfig, IntraKernelChoice};
    use crate::intra_improved::{ImprovedParams, VariantConfig};
    use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
    use sw_db::synth::{database_with_lengths, make_query};

    fn config() -> CudaSwConfig {
        CudaSwConfig {
            threshold: 100,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            intra: IntraKernelChoice::Improved(VariantConfig::improved()),
            ..CudaSwConfig::improved()
        }
    }

    fn db() -> Database {
        database_with_lengths("rec", &[20, 45, 60, 80, 95, 120, 150, 300], 71)
    }

    fn fault_free_scores(query: &[u8], db: &Database) -> Vec<i32> {
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver.search(query, db).unwrap().scores
    }

    #[test]
    fn transient_launch_fault_is_retried() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_transient(FaultSite::Launch, 0));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.retries, 1);
        assert!(rr.recovery.backoff_seconds > 0.0);
        assert!(!rr.recovery.degraded);
    }

    #[test]
    fn exhausted_deadline_budget_denies_retries_and_degrades() {
        let db = db();
        let query = make_query(57, 33);
        let ((), run) = obs::capture(|| {
            let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
            // Every launch faults transiently; with the deadline already in
            // the past, no retry may be issued — the ladder must degrade
            // straight to the CPU fallback and still produce full scores.
            driver.dev.inject_faults(FaultPlan::random(
                11,
                gpu_sim::FaultRates {
                    transient: 1.0,
                    launch_hang: 0.0,
                    corruption: 0.0,
                },
            ));
            let policy = RecoveryPolicy {
                deadline_seconds: Some(obs::now()),
                ..RecoveryPolicy::default()
            };
            let rr = driver.search_resilient(&query, &db, &policy).unwrap();
            assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
            assert_eq!(rr.recovery.retries, 0, "no retry after budget exhaustion");
            assert!(rr.recovery.budget_denied_retries >= 1);
            assert_eq!(rr.recovery.backoff_seconds, 0.0);
            assert!(rr.recovery.degraded, "scores came from the CPU fallback");
            assert!(rr
                .recovery
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::BudgetDenied { .. })));
        });
        assert!(
            run.metrics
                .counter_sum("cudasw.core.recovery.budget_denied", &[])
                >= 1.0
        );
        assert_eq!(
            run.metrics.counter_sum("cudasw.core.recovery.retries", &[]),
            0.0
        );
    }

    #[test]
    fn generous_deadline_budget_changes_nothing() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_transient(FaultSite::Launch, 0));
        let policy = RecoveryPolicy {
            deadline_seconds: Some(obs::now() + 1.0e6),
            ..RecoveryPolicy::default()
        };
        let rr = driver.search_resilient(&query, &db, &policy).unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.retries, 1);
        assert_eq!(rr.recovery.budget_denied_retries, 0);
    }

    #[test]
    fn oom_halves_the_group_and_retries() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        // Alloc stream: 0 = profile, 1 = packed query, 2 = first group's
        // residues — the scheduled OOM hits group staging.
        driver.dev.inject_faults(FaultPlan::none().with_oom(2));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.rechunks, 1);
        assert!(matches!(
            rr.recovery.events[0],
            RecoveryEvent::Rechunk { .. }
        ));
        assert!(!rr.recovery.degraded);
    }

    #[test]
    fn oom_while_staging_the_query_degrades_to_the_cpu() {
        let db = db();
        let query = make_query(57, 33);
        for alloc in [0, 1] {
            // Allocs 0 and 1 are the query profile and the packed query:
            // no window exists to halve yet, so the OOM must take the
            // device-failed path to the CPU fallback, never abort.
            let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
            driver.dev.inject_faults(FaultPlan::none().with_oom(alloc));
            let rr = driver
                .search_resilient(&query, &db, &RecoveryPolicy::default())
                .unwrap();
            assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
            assert_eq!(rr.recovery.rechunks, 0);
            assert!(rr.recovery.degraded);
            assert_eq!(rr.recovery.cpu_fallback_seqs, db.len() as u64);
            assert_eq!(rr.result.inter.launches + rr.result.intra.launches, 0);
        }
    }

    #[test]
    fn memory_pressure_forces_smaller_groups() {
        // Clamp the device so one occupancy-sized group cannot be staged;
        // the re-chunker must walk the window down until it fits.
        let db = database_with_lengths("press", &[30; 64], 77);
        let query = make_query(24, 41);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_memory_pressure(1500));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert!(rr.recovery.rechunks >= 1, "{:?}", rr.recovery);
        assert!(!rr.recovery.degraded);
        assert!(rr.result.inter.launches > 1);
    }

    #[test]
    fn hang_is_killed_by_watchdog_and_retried() {
        let db = db();
        let query = make_query(57, 33);
        // Derive a generous budget from the fault-free run: ~100x the
        // whole inter-task time per launch, far below the hang inflation.
        let mut clean = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        let clean_r = clean.search(&query, &db).unwrap();
        let spec = DeviceSpec::tesla_c1060();
        let budget = (clean_r.kernel_seconds() / spec.cycles_to_seconds(1.0) * 100.0) as u64;
        let mut driver = CudaSwDriver::new(spec, config());
        driver.dev.inject_faults(FaultPlan::none().with_hang(0));
        let policy = RecoveryPolicy {
            watchdog_cycles: Some(budget),
            ..RecoveryPolicy::default()
        };
        let rr = driver.search_resilient(&query, &db, &policy).unwrap();
        assert_eq!(rr.result.scores, clean_r.scores);
        assert_eq!(rr.recovery.retries, 1);
        assert!(matches!(rr.recovery.events[0], RecoveryEvent::Retry { .. }));
    }

    #[test]
    fn device_loss_falls_back_to_cpu() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 0));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert!(rr.recovery.degraded);
        assert_eq!(rr.recovery.cpu_fallback_seqs, db.len() as u64);
    }

    #[test]
    fn mid_search_device_loss_keeps_gpu_results_and_fills_the_rest() {
        // Shrink the device so the short side takes several launches, and
        // kill the device after the first one.
        let mut spec = DeviceSpec::tesla_c1060();
        spec.sm_count = 1;
        spec.max_threads_per_sm = 64;
        spec.max_blocks_per_sm = 2;
        let mut cfg = config();
        cfg.inter_threads_per_block = 32;
        let db = database_with_lengths("many", &[30; 200], 79);
        let query = make_query(24, 41);
        let mut driver = CudaSwDriver::new(spec, cfg.clone());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 1));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        let mut clean = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let expect = clean.search(&query, &db).unwrap().scores;
        assert_eq!(rr.result.scores, expect);
        assert!(rr.recovery.degraded);
        // One 64-sequence group succeeded on the device.
        assert_eq!(rr.result.inter.launches, 1);
        assert_eq!(rr.recovery.cpu_fallback_seqs, 200 - 64);
    }

    #[test]
    fn persistent_transients_exhaust_retries_then_degrade() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        // More consecutive transients than max_retries allows.
        let mut plan = FaultPlan::none();
        for i in 0..8 {
            plan = plan.with_transient(FaultSite::Launch, i);
        }
        driver.dev.inject_faults(plan);
        let policy = RecoveryPolicy::default();
        let rr = driver.search_resilient(&query, &db, &policy).unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.retries, u64::from(policy.max_retries));
        assert!(rr.recovery.degraded);
    }

    #[test]
    fn device_failure_without_fallback_is_an_error() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 0));
        let policy = RecoveryPolicy {
            cpu_fallback: false,
            ..RecoveryPolicy::default()
        };
        let err = driver.search_resilient(&query, &db, &policy).unwrap_err();
        assert!(matches!(err, GpuError::DeviceLost));
    }

    #[test]
    fn corrupted_transfer_is_retried() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_corruption(FaultSite::DeviceToHost, 0));
        let rr = driver
            .search_resilient(&query, &db, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.retries, 1);
        assert!(!rr.recovery.degraded);
    }

    #[test]
    fn silent_corruption_is_quarantined_and_recomputed_on_the_oracle() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        // D2H transfer 0 is the first inter-task group's score readback:
        // without integrity checks the corrupt word would land straight in
        // the result.
        driver
            .dev
            .inject_faults(FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0));
        let ((rr, expect), run) = obs::capture(|| {
            let rr = driver
                .search_resilient(&query, &db, &RecoveryPolicy::default())
                .unwrap();
            (rr, fault_free_scores(&query, &db))
        });
        assert_eq!(rr.result.scores, expect);
        assert_eq!(rr.recovery.quarantined_chunks, 1);
        assert!(rr.recovery.quarantined_seqs >= 1);
        assert!(rr.recovery.degraded);
        assert!(matches!(
            rr.recovery.events[0],
            RecoveryEvent::Quarantine { .. }
        ));
        let quarantined: f64 = run
            .metrics
            .counters()
            .filter(|(k, _)| k.name == "cudasw.core.integrity.quarantined")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(quarantined as u64, 1);
    }

    #[test]
    fn disabling_integrity_checks_lets_silent_corruption_through() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0));
        let policy = RecoveryPolicy {
            integrity_checks: false,
            ..RecoveryPolicy::default()
        };
        let rr = driver.search_resilient(&query, &db, &policy).unwrap();
        // Nothing detected: the ledger is clean and the result is wrong.
        assert_eq!(rr.recovery, RecoveryReport::default());
        assert_ne!(rr.result.scores, fault_free_scores(&query, &db));
    }

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
