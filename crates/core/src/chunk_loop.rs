//! The driver's one search loop, and the fault recovery it carries.
//!
//! Every search that uploads its database walks it here:
//! [`CudaSwDriver::search`] is this loop under no policy (the first error
//! is the search's error), [`CudaSwDriver::search_resilient`] the same
//! loop under the caller's [`RecoveryPolicy`], and the multi-GPU search
//! runs it once per shard. Under a policy the loop survives the failure
//! modes the simulator can inject ([`gpu_sim::fault`]), recording each
//! rung in the ledger ([`crate::recovery`]):
//!
//! * **transient faults / watchdog timeouts / detected corruption** —
//!   bounded retry with exponential backoff ([`RecoveryReport::retry`]);
//! * **out-of-memory** — the inter-task staging group (or intra-task
//!   chunk) is halved and the window retried, down to one sequence;
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

use crate::checkpoint::{CheckpointFile, ChunkPhase, ChunkRecord, Intervals, LoadIssue};
use crate::driver::{note_phase_launch, CudaSwDriver, SearchScope};
use crate::intra_orig::IntraPair;
use crate::launch::StagedQuery;
use crate::recovery::{RecoveryPolicy, RecoveryReport, ResilientSearchResult};
use crate::seqstore::GroupImage;
use gpu_sim::{GpuError, LaunchStats};
use sw_align::PackedProfile;
use sw_db::{Database, Sequence};
use sw_simd::{Precision, QueryEngine};

/// Smallest inter-task group (and intra-task chunk) the OOM re-chunker
/// goes down to.
const MIN_GROUP_SIZE: usize = 1;

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

/// What one resilient search accumulates across staging, replay, both
/// device phases and the CPU fallback.
struct Run<'a> {
    query: &'a [u8],
    /// `None`: fail fast (no retry, re-chunk, quarantine, fallback or log).
    policy: Option<&'a RecoveryPolicy>,
    log: Option<CheckpointFile>,
    report: RecoveryReport,
    /// Scores aligned with `db.sequences()` order.
    scores: Vec<i32>,
    transfer_seconds: f64,
}

impl Run<'_> {
    /// The ledger's retry rule under the run's policy; a fail-fast run
    /// retries nothing.
    fn retry(&mut self, err: GpuError, attempt: &mut u32) -> Result<f64, GpuError> {
        match self.policy {
            Some(policy) => self.report.retry(err, attempt, policy.deadline_seconds),
            None => Err(err),
        }
    }

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
    /// chunks, and finishes with a [`SearchResult`](crate::SearchResult) *bit-identical* to an
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
        self.search_with(query, db, Some(policy))
    }

    /// The search every entry point that uploads its database runs:
    /// partition, stage the query, walk both phases through `run_phase`,
    /// degrade to the host if `policy` allows; `None` fails on the first
    /// device error. Reads every field of `policy` except the two device
    /// settings, which are the caller's to arm.
    pub(crate) fn search_with(
        &mut self,
        query: &[u8],
        db: &Database,
        policy: Option<&RecoveryPolicy>,
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
        let log = policy
            .and_then(|p| p.checkpoint.as_deref())
            .and_then(|path| {
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
                            obs::instant(
                                "checkpoint_load_issue",
                                "checkpoint",
                                &[("issue", label)],
                            );
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
                Err(e) => match run.retry(e, &mut attempt) {
                    // Not `free_all`: that would close the stream session.
                    Ok(_) => self.dev.free_to(0),
                    Err(e) => {
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
            if !policy.is_some_and(|p| p.cpu_fallback) {
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
                Err(err @ GpuError::ChecksumMismatch { .. })
                    if run.policy.is_some_and(|p| p.integrity_checks) =>
                {
                    // The device data cannot be trusted: recompute the
                    // chunk on the host SIMD engine.
                    let sp = obs::span("quarantine_recompute", "integrity");
                    out.copy_from_slice(&host_scores(&self.config.params, run.query, chunk));
                    run.report.note_quarantine(&err, label, chunk.len());
                    sp.end_with(&[("phase", label), ("sequences", &chunk.len().to_string())]);
                    0.0
                }
                Err(e) => {
                    match run.retry(e, &mut attempt) {
                        Ok(_) => {}
                        Err(GpuError::OutOfMemory { .. })
                            if run.policy.is_some() && window > MIN_GROUP_SIZE =>
                        {
                            let new = (window / 2).max(MIN_GROUP_SIZE);
                            run.report.note_rechunk(window, new);
                            window = new;
                            attempt = 0;
                        }
                        Err(e) => {
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
/// the device already failed. The pool publishes the adaptive-precision
/// counters of a non-empty batch itself.
pub(crate) fn host_scores(
    params: &sw_align::SwParams,
    query: &[u8],
    seqs: &[Sequence],
) -> Vec<i32> {
    if seqs.is_empty() {
        return Vec::new();
    }
    let engine = QueryEngine::new(params.clone(), query);
    sw_simd::search_sequences(&engine, seqs, 1, Precision::Adaptive).scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CudaSwConfig, IntraKernelChoice};
    use crate::intra_improved::{ImprovedParams, VariantConfig};
    use crate::recovery::{RecoveryEvent, MAX_RETRIES};
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
            RecoveryEvent::Rechunk { from, to } if to == from / 2
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

    /// The host stand-in scores the whole database, and the pool counts
    /// each host-scored sequence once in the precision counters.
    #[test]
    fn device_loss_falls_back_to_cpu() {
        let db = db();
        let query = make_query(57, 33);
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver
            .dev
            .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 0));
        let (rr, run) = obs::capture(|| {
            driver
                .search_resilient(&query, &db, &RecoveryPolicy::default())
                .unwrap()
        });
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert!(rr.recovery.degraded);
        assert_eq!(rr.recovery.cpu_fallback_seqs, db.len() as u64);
        let counted = ["byte_mode.alignments", "word_mode.reruns"]
            .map(|name| run.metrics.counter_sum(&format!("cudasw.simd.{name}"), &[]));
        assert_eq!(counted.iter().sum::<f64>(), db.len() as f64);
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
        // More consecutive transients than the retry rule allows.
        let mut plan = FaultPlan::none();
        for i in 0..8 {
            plan = plan.with_transient(FaultSite::Launch, i);
        }
        driver.dev.inject_faults(plan);
        let policy = RecoveryPolicy::default();
        let rr = driver.search_resilient(&query, &db, &policy).unwrap();
        assert_eq!(rr.result.scores, fault_free_scores(&query, &db));
        assert_eq!(rr.recovery.retries, u64::from(MAX_RETRIES));
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
}
