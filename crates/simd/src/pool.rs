//! Work-stealing database sharding across cores — crash-only edition.
//!
//! The database is cut into contiguous chunks (several per worker, so the
//! tail stays balanced) and dealt round-robin onto per-worker deques. Each
//! worker drains its own deque from the front; when empty it *steals* from
//! the back of a sibling's deque — the classic work-stealing discipline
//! that keeps cores busy when sequence lengths are skewed, playing the
//! role of SWPS3's dynamic work queue with less contention (workers touch
//! the shared state only once per chunk, not once per sequence).
//!
//! **Granularity is residue-aware, not count-aware.** Real databases are
//! searched length-sorted (better cache reuse, GPU-batch parity), which
//! makes equal-*count* chunks maximally imbalanced: on a Swissprot-shaped
//! log-normal length distribution the last chunk of a sorted database
//! holds the few giant sequences and carries an order of magnitude more
//! cells than the first, so 4 threads degenerate into 1 thread plus a
//! convoy. [`length_aware_chunks`] instead cuts contiguous chunks of
//! roughly equal *total residues* — cell count is `query_len × residues`,
//! so equal residues is equal work — and the deal order stays round-robin
//! so each worker's deque spans the length spectrum.
//!
//! **The pool is a fault domain.** Every chunk executes under the same
//! guarantees the simulated GPU lanes have had since PR 1:
//!
//! * *panic isolation* — the chunk computation runs under `catch_unwind`;
//!   a panicking chunk is quarantined and its unfinished sequences are
//!   recomputed on scalar `sw_align::sw_score`, so one poisoned
//!   alignment can no longer abort the whole search
//!   (`cudasw.simd.pool.panics` / `quarantines`);
//! * *cooperative cancellation* — an optional [`CancelToken`] is polled at
//!   every chunk boundary and, inside the kernels, every
//!   [`crate::cancel::CANCEL_CHECK_COLS`] stripe columns; a cancelled
//!   search returns [`Cancelled`] and leaks no partial scores;
//! * *watchdog re-dispatch* — workers bump a heartbeat per sequence; a
//!   watchdog thread re-dispatches the claimed chunk of a silent worker to
//!   the survivors, and per-sequence compare-and-swap commits make
//!   reassembly exactly-once even when the stalled worker eventually
//!   finishes the same chunk. It does not bound latency: the workers run
//!   in a `thread::scope`, which joins the stalled worker too, and that
//!   worker still scores its whole chunk once awake, so a search returns
//!   no sooner than the stall plus that chunk's compute, and a true hang
//!   hangs the search. Re-dispatch saves at most the chunk's compute
//!   time, never the stall;
//! * *deterministic chaos* — a seeded [`HostFaultPlan`] injects panics,
//!   stalls and alloc failures at chunk granularity as a pure function of
//!   chunk identity, so the chaos tests can assert bit-identical scores
//!   with zero lost or duplicated sequences. An injected alloc failure
//!   splits a chunk of more than one sequence in half and requeues both
//!   halves (mirroring the GPU OOM path); a one-sequence chunk simply
//!   runs.
//!
//! **One job shape: a wave.** [`search_wave_protected`] scores `seqs`
//! against `k` engines in one job, database-major: a chunk is claimed,
//! fault-injected, heart-beaten, re-dispatched and cancel-polled once,
//! and scored against all `k` profiles while its subjects are in
//! cache, so the job's fixed cost (the scope, the watchdog and its poll
//! tick) is paid once per wave. The commit table, the score slots and the
//! quarantine recompute key on the (query, sequence) cell, and the result
//! keeps the slots' query-major order. [`search_sequences`] is the wave of
//! one.
//!
//! A chunk is scored in length-sorted groups, one subject a lane of the
//! grouped byte and word passes ([`QueryEngine::score_group`]) where the
//! backend has them.
//!
//! All workers share the read-only [`QueryEngine`]s — the profiles are
//! built once per query and reused by every thread (that sharing is what
//! amortizes the per-query profile build across the whole database).
//! Worker-local [`AdaptiveStats`] are merged and returned to the caller.
//! The metrics recorder is thread-local, so counts bumped on worker threads
//! would be lost: the pool publishes the merged `cudasw.simd.*` precision
//! counters, its steals and its fault counters on the calling thread after
//! the parallel section ends, and no caller publishes them again.

use crate::cancel::{CancelToken, Cancelled};
use crate::engine::{record_stats, AdaptiveStats, Precision, QueryEngine};
use crate::fault::{HostFaultInjector, HostFaultKind, HostFaultPlan};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sw_align::smith_waterman::sw_score;
use sw_db::Sequence;

/// Chunks dealt per worker: more gives better tail balance, fewer gives
/// less queue traffic. 8 keeps the largest chunk under ~2% of the work at
/// 4 threads.
const CHUNKS_PER_WORKER: usize = 8;

/// Minimum alignments per worker before the pool pays for itself. Thread
/// spawn plus result merging costs tens of microseconds while a typical
/// alignment scores in about one, so a worker with less than this much
/// work makes the pooled pass *slower* than the inline loop. The worker
/// count is clamped so every worker clears this bar — small databases
/// degrade gracefully to fewer workers and finally to the inline path.
pub const MIN_SEQS_PER_WORKER: usize = 16;

/// Subjects a chunk hands the grouped passes at a time: eight of the
/// widest byte groups, so the word pass sorts the hand-offs of 256 into
/// fuller groups. On `scan_homolog`'s database, one thread, AVX2, the
/// word pass ran 1.3× and the whole search 1.06–1.10× faster than at 32
/// (EXPERIMENTS.md, "Engine constants").
const GROUP_SUBJECTS: usize = 256;

/// Workers actually worth spawning for `alignments` (sequences × queries
/// of the wave; the sequence count for one query) on this machine: never
/// more than the hardware can run concurrently (oversubscribing CPU-bound
/// scoring only adds scheduler churn), never so many that a worker's
/// share drops under [`MIN_SEQS_PER_WORKER`].
pub fn effective_workers(threads: usize, alignments: usize) -> usize {
    // Read once per process: each call re-reads the cgroup CPU quota.
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    threads
        .min(hardware)
        .min(alignments / MIN_SEQS_PER_WORKER)
        .max(1)
}

/// Cut `seqs` into at most `target_chunks` contiguous ranges of roughly
/// equal **total residues**.
///
/// Scoring cost per sequence is `query_len × residues`, so residue balance
/// is work balance — equal-count chunks over a length-sorted database put
/// all the giant sequences in the final chunks and serialize the tail.
/// Every range is non-empty, ranges are contiguous and cover `0..n` in
/// order, and a single over-long sequence simply becomes its own chunk
/// (granularity can never split one sequence).
pub fn length_aware_chunks(seqs: &[Sequence], target_chunks: usize) -> Vec<Range<usize>> {
    let n = seqs.len();
    if n == 0 {
        return Vec::new();
    }
    let target_chunks = target_chunks.clamp(1, n);
    let total: u64 = seqs.iter().map(|s| s.residues.len() as u64).sum();
    let per_chunk = (total / target_chunks as u64).max(1);
    let mut chunks = Vec::with_capacity(target_chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, s) in seqs.iter().enumerate() {
        acc += s.residues.len() as u64;
        if acc >= per_chunk && chunks.len() + 1 < target_chunks {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        chunks.push(start..n);
    }
    chunks
}

/// What the fault domain absorbed during one pooled search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolFaultReport {
    /// Injected chunk panics (from the fault plan).
    pub injected_panics: u64,
    /// Injected worker stalls.
    pub injected_stalls: u64,
    /// Injected alloc failures.
    pub injected_alloc_fails: u64,
    /// Chunk computations that panicked (injected or real) and were
    /// caught.
    pub panics: u64,
    /// Chunks quarantined to the scalar oracle after a panic.
    pub quarantined_chunks: u64,
    /// (Query, sequence) cells whose committed score came from the oracle
    /// recompute.
    pub oracle_scored: u64,
    /// Chunks the watchdog re-dispatched away from a silent worker.
    pub redispatches: u64,
    /// Cell commits that lost the exactly-once race (duplicate work
    /// absorbed, never duplicate answers).
    pub duplicates_suppressed: u64,
    /// Chunks split in half after an injected alloc failure.
    pub rechunks: u64,
}

impl PoolFaultReport {
    /// Total faults injected by the plan.
    pub fn injected(&self) -> u64 {
        self.injected_panics + self.injected_stalls + self.injected_alloc_fails
    }

    /// True when the search saw no faults or duplicate work.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Result of a pooled search: a wave of `k` queries over `n` sequences.
#[derive(Debug, Clone, Default)]
pub struct HostSearchResult {
    /// Query-major scores: query `q`'s score for `seqs[i]` at `q·n + i`,
    /// so a wave of one is indexed like `seqs`.
    pub scores: Vec<i32>,
    /// Precision/Lazy-F counts merged across workers and queries. Cells
    /// scored by the quarantine oracle are counted in
    /// `faults.oracle_scored`, not here.
    pub stats: AdaptiveStats,
    /// Wall-clock seconds of the parallel section.
    pub seconds: f64,
    /// Chunks a worker took from a sibling's deque.
    pub steals: u64,
    /// Faults absorbed (all zero for a clean run).
    pub faults: PoolFaultReport,
}

/// Execution policy for a protected pool search.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Requested worker threads (clamped like [`search_sequences`]).
    pub threads: usize,
    /// Precision ladder per alignment.
    pub precision: Precision,
    /// Cooperative cancellation; `None` means the search cannot be
    /// cancelled and is infallible.
    pub cancel: Option<CancelToken>,
    /// Seeded fault schedule (inert by default).
    pub fault_plan: HostFaultPlan,
    /// Watchdog: a worker whose heartbeat is flat for this long has its
    /// claimed chunk re-dispatched to a survivor. `0` disables the
    /// watchdog.
    pub stall_after_ms: u64,
    /// Watchdog poll period.
    pub watchdog_poll_ms: u64,
}

impl PoolConfig {
    /// Defaults: no cancellation, no faults, watchdog armed at one second
    /// (generous enough that per-alignment heartbeats never false-trip on
    /// realistic chunks, cheap enough to always run).
    pub fn new(threads: usize, precision: Precision) -> Self {
        Self {
            threads,
            precision,
            cancel: None,
            fault_plan: HostFaultPlan::none(),
            stall_after_ms: 1000,
            watchdog_poll_ms: 50,
        }
    }

    /// Builder: install a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Builder: install a fault plan.
    pub fn with_fault_plan(mut self, plan: HostFaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builder: watchdog stall threshold and poll period.
    pub fn with_watchdog(mut self, stall_after_ms: u64, poll_ms: u64) -> Self {
        self.stall_after_ms = stall_after_ms;
        self.watchdog_poll_ms = poll_ms.max(1);
        self
    }
}

/// Score every sequence on `threads` workers sharing `engine`: the wave
/// of one.
pub fn search_sequences(
    engine: &QueryEngine,
    seqs: &[Sequence],
    threads: usize,
    precision: Precision,
) -> HostSearchResult {
    let cfg = PoolConfig::new(threads, precision);
    // Only a configured CancelToken produces Err.
    search_wave_protected(std::slice::from_ref(engine), seqs, &cfg).unwrap_or_default()
}

/// Score `seqs` against every engine of a wave in one protected job over
/// [`length_aware_chunks`]; the scores are query-major
/// ([`HostSearchResult::scores`]). Workers are clamped by alignments
/// (`seqs.len() × engines.len()`), so a shard too small to pool under one
/// query still gets its second worker under sixteen. A cancelled wave
/// returns [`Cancelled`] and no score for any of its queries.
pub fn search_wave_protected(
    engines: &[QueryEngine],
    seqs: &[Sequence],
    cfg: &PoolConfig,
) -> Result<HostSearchResult, Cancelled> {
    let threads = effective_workers(cfg.threads.max(1), seqs.len() * engines.len());
    let chunks = length_aware_chunks(seqs, threads * CHUNKS_PER_WORKER);
    // Forward the *clamped* worker count: oversubscribing a small host
    // with real OS threads thrashes the wall clock instead of scaling.
    let cfg = PoolConfig {
        threads,
        ..cfg.clone()
    };
    search_wave_protected_with_chunks(engines, seqs, &cfg, &chunks)
}

/// Fully configured protected wave with an explicit chunking, so tests
/// can pin reassembly for *arbitrary* chunk boundaries and fault drills can
/// aim at a known chunk. `chunks` must be non-empty, contiguous, in order,
/// and cover `0..seqs.len()` exactly (debug-asserted).
///
/// Unlike [`search_wave_protected`], `cfg.threads` is honored literally
/// (clamped only to the chunk count, never to the hardware): fault
/// drills deliberately oversubscribe small hosts to force multi-worker
/// interleavings, stalls and re-dispatches.
pub fn search_wave_protected_with_chunks(
    engines: &[QueryEngine],
    seqs: &[Sequence],
    cfg: &PoolConfig,
    chunks: &[Range<usize>],
) -> Result<HostSearchResult, Cancelled> {
    let n = seqs.len();
    if n == 0 || engines.is_empty() {
        return Ok(HostSearchResult::default());
    }
    debug_assert_eq!(chunks.first().map(|c| c.start), Some(0));
    debug_assert_eq!(chunks.last().map(|c| c.end), Some(n));
    debug_assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
    let threads = cfg.threads.clamp(1, chunks.len());
    let job = Job::new(engines, seqs, cfg, chunks, threads);
    let start = Instant::now();
    if threads == 1 {
        // Caller's thread only: no spawn, no watchdog, deterministic.
        job.work(0);
    } else {
        std::thread::scope(|scope| {
            let job = &job;
            for w in 0..threads {
                scope.spawn(move || job.work(w));
            }
            if cfg.stall_after_ms > 0 {
                scope.spawn(move || job.watch());
            }
        });
    }
    job.shared.finish(start, job.steals.into_inner())
}

/// A worker's in-flight chunk, visible to the watchdog.
#[derive(Debug, Clone)]
struct Claim {
    range: Range<usize>,
    redispatched: bool,
}

/// One posted wave: the chunk deques, what the watchdog reads, and the
/// commit state. [`Job::work`] is a worker's whole life and
/// [`Job::watch`] the watchdog's; who runs them (today a `thread::scope`
/// per job, or the caller alone at one thread) is not their concern.
struct Job<'a> {
    shared: RunShared<'a>,
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    hearts: Vec<AtomicU64>,
    claims: Vec<Mutex<Option<Claim>>>,
    steals: AtomicU64,
    stall_after: Duration,
    poll: Duration,
}

impl<'a> Job<'a> {
    /// Deal `chunks` round-robin onto `threads` deques.
    fn new(
        engines: &'a [QueryEngine],
        seqs: &'a [Sequence],
        cfg: &'a PoolConfig,
        chunks: &[Range<usize>],
        threads: usize,
    ) -> Self {
        let mut deques = vec![VecDeque::new(); threads];
        for (i, range) in chunks.iter().enumerate() {
            deques[i % threads].push_back(range.clone());
        }
        Self {
            shared: RunShared::new(engines, seqs, cfg),
            queues: deques.into_iter().map(Mutex::new).collect(),
            hearts: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            claims: (0..threads).map(|_| Mutex::new(None)).collect(),
            steals: AtomicU64::new(0),
            stall_after: Duration::from_millis(cfg.stall_after_ms),
            poll: Duration::from_millis(cfg.watchdog_poll_ms.max(1)),
        }
    }

    /// Nothing left to do: every cell committed, or the wave cancelled.
    fn done(&self) -> bool {
        self.shared.cancel_observed() || self.shared.remaining.load(Ordering::Acquire) == 0
    }

    /// Worker `w`: drain the own deque, steal, run each chunk through the
    /// fault domain, until the job is done.
    fn work(&self, w: usize) {
        let threads = self.queues.len();
        while !self.done() {
            // Own deque first (front), then sweep siblings (back). The
            // own-deque guard must drop before the sweep: two idle
            // workers each holding their own lock while reaching for
            // the other's would deadlock.
            let own = self.queues[w].lock().pop_front();
            let next = own.or_else(|| {
                (1..threads).find_map(|d| {
                    let victim = (w + d) % threads;
                    let stolen = self.queues[victim].lock().pop_back();
                    if stolen.is_some() {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    stolen
                })
            });
            let Some(range) = next else {
                // Uncommitted work exists but is claimed elsewhere
                // (or about to be re-dispatched): wait for it.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            *self.claims[w].lock() = Some(Claim {
                range: range.clone(),
                redispatched: false,
            });
            let proceed = self.shared.run_chunk(
                range,
                &mut |r| self.queues[w].lock().push_front(r),
                &self.hearts[w],
            );
            *self.claims[w].lock() = None;
            if !proceed {
                break;
            }
        }
    }

    /// The watchdog: every poll, hand the claimed chunk of a worker whose
    /// heart has been flat for `stall_after` to a survivor.
    fn watch(&self) {
        let threads = self.queues.len();
        let mut last: Vec<(u64, Instant)> = self
            .hearts
            .iter()
            .map(|h| (h.load(Ordering::Relaxed), Instant::now()))
            .collect();
        while !self.done() {
            std::thread::sleep(self.poll);
            for (w, seen) in last.iter_mut().enumerate() {
                let beat = self.hearts[w].load(Ordering::Relaxed);
                if beat != seen.0 {
                    *seen = (beat, Instant::now());
                    continue;
                }
                if seen.1.elapsed() < self.stall_after {
                    continue;
                }
                // Silent worker holding a claim: hand its chunk to
                // a survivor (any queue works — stealing finds it).
                let mut claim = self.claims[w].lock();
                if let Some(c) = claim.as_mut() {
                    if !c.redispatched {
                        c.redispatched = true;
                        self.queues[(w + 1) % threads]
                            .lock()
                            .push_back(c.range.clone());
                        self.shared.redispatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// How one chunk computation ended inside the unwind boundary.
enum ChunkRun {
    Done,
    Cancelled,
}

/// State shared by workers, watchdog and the finishing caller. A *cell*
/// is one (query, sequence) alignment, at index `q × n + i`.
struct RunShared<'a> {
    engines: &'a [QueryEngine],
    seqs: &'a [Sequence],
    precision: Precision,
    cancel: Option<&'a CancelToken>,
    stall_ms: u64,
    injector: HostFaultInjector,
    cancelled: AtomicBool,
    committed: Vec<AtomicBool>,
    slots: Vec<AtomicI32>,
    remaining: AtomicUsize,
    stats: Mutex<AdaptiveStats>,
    panics: AtomicU64,
    quarantined_chunks: AtomicU64,
    oracle_scored: AtomicU64,
    redispatches: AtomicU64,
    duplicates_suppressed: AtomicU64,
    rechunks: AtomicU64,
}

impl<'a> RunShared<'a> {
    fn new(engines: &'a [QueryEngine], seqs: &'a [Sequence], cfg: &'a PoolConfig) -> Self {
        let cells = seqs.len() * engines.len();
        Self {
            engines,
            seqs,
            precision: cfg.precision,
            cancel: cfg.cancel.as_ref(),
            stall_ms: cfg.fault_plan.stall_ms,
            injector: HostFaultInjector::new(cfg.fault_plan.clone()),
            cancelled: AtomicBool::new(false),
            committed: (0..cells).map(|_| AtomicBool::new(false)).collect(),
            slots: (0..cells).map(|_| AtomicI32::new(0)).collect(),
            remaining: AtomicUsize::new(cells),
            stats: Mutex::new(AdaptiveStats::default()),
            panics: AtomicU64::new(0),
            quarantined_chunks: AtomicU64::new(0),
            oracle_scored: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            duplicates_suppressed: AtomicU64::new(0),
            rechunks: AtomicU64::new(0),
        }
    }

    fn cancel_observed(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Chunk-boundary cancellation poll.
    fn poll_cancel(&self) -> bool {
        if let Some(token) = self.cancel {
            if token.poll() {
                self.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Exactly-once commit of cell (`q`, `i`). Returns whether this caller
    /// won the race; losers are counted, their work discarded.
    fn commit(&self, q: usize, i: usize, score: i32) -> bool {
        let cell = q * self.seqs.len() + i;
        if self.committed[cell]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.slots[cell].store(score, Ordering::Release);
            self.remaining.fetch_sub(1, Ordering::AcqRel);
            true
        } else {
            self.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Execute one chunk through the full fault domain — claimed and
    /// fault-injected once, then scored against every engine of the wave.
    /// Returns `false` when the worker should stop (cancellation
    /// observed).
    fn run_chunk(
        &self,
        range: Range<usize>,
        requeue: &mut dyn FnMut(Range<usize>),
        heart: &AtomicU64,
    ) -> bool {
        if self.poll_cancel() {
            return false;
        }
        let id = (range.start, range.len());
        let fault = self.injector.fault_for(id);

        // An injected alloc failure splits the chunk and requeues both
        // halves, which draw their own faults; one sequence cannot split,
        // so it runs.
        if matches!(fault, Some(HostFaultKind::AllocFail)) && range.len() > 1 {
            let mid = range.start + range.len() / 2;
            requeue(mid..range.end);
            requeue(range.start..mid);
            self.rechunks.fetch_add(1, Ordering::Relaxed);
            return true;
        }

        if matches!(fault, Some(HostFaultKind::Stall)) {
            // Go silent without beating the heart: the watchdog's cue.
            std::thread::sleep(Duration::from_millis(self.stall_ms));
        }

        let inject_panic = matches!(fault, Some(HostFaultKind::Panic));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected host fault: panic in chunk [{}, {})",
                    range.start, range.end
                );
            }
            let mut chunk_stats = AdaptiveStats::default();
            // Length-sorted groups of adjacent subjects: the grouped byte
            // pass puts one in each lane, so no lane waits long on another.
            let mut order: Vec<usize> = range.clone().collect();
            order.sort_by_key(|&i| self.seqs[i].residues.len());
            let n = self.seqs.len();
            for group in order.chunks(GROUP_SUBJECTS) {
                let subjects: Vec<&[u8]> =
                    group.iter().map(|&i| &self.seqs[i].residues[..]).collect();
                for (q, engine) in self.engines.iter().enumerate() {
                    if self.cancel_observed() {
                        return ChunkRun::Cancelled;
                    }
                    // Once the job has re-dispatched a chunk, a late
                    // finisher skips what another worker committed.
                    if self.redispatches.load(Ordering::Relaxed) > 0
                        && (group.iter())
                            .all(|&i| self.committed[q * n + i].load(Ordering::Acquire))
                    {
                        continue;
                    }
                    let striped = |d: &&[u8]| {
                        let mut delta = AdaptiveStats::default();
                        let score = match self.cancel {
                            Some(token) => {
                                engine.score_with_cancel(d, self.precision, &mut delta, token)?
                            }
                            None => engine.score_with(d, self.precision, &mut delta),
                        };
                        Ok((score, delta))
                    };
                    let scored = if self.precision == Precision::Adaptive && engine.groups() {
                        engine.score_group(&subjects, self.cancel)
                    } else {
                        subjects.iter().map(striped).collect()
                    };
                    let Ok(scored) = scored else {
                        return ChunkRun::Cancelled;
                    };
                    for (&i, (score, delta)) in group.iter().zip(scored) {
                        if self.commit(q, i, score) {
                            chunk_stats.merge(&delta);
                        }
                        heart.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.stats.lock().merge(&chunk_stats);
            ChunkRun::Done
        }));

        match outcome {
            Ok(ChunkRun::Done) => true,
            Ok(ChunkRun::Cancelled) => {
                self.cancelled.store(true, Ordering::Release);
                false
            }
            Err(_) => {
                // Quarantine: the chunk's uncommitted cells are
                // recomputed on the scalar oracle — code the striped
                // kernels share nothing with, so whatever made them panic
                // cannot do it again out here, past the unwind boundary.
                self.panics.fetch_add(1, Ordering::Relaxed);
                self.quarantined_chunks.fetch_add(1, Ordering::Relaxed);
                let n = self.seqs.len();
                for i in range {
                    for (q, engine) in self.engines.iter().enumerate() {
                        if self.committed[q * n + i].load(Ordering::Acquire) {
                            continue;
                        }
                        let score =
                            sw_score(engine.params(), engine.query(), &self.seqs[i].residues);
                        if self.commit(q, i, score) {
                            self.oracle_scored.fetch_add(1, Ordering::Relaxed);
                        }
                        heart.fetch_add(1, Ordering::Relaxed);
                    }
                }
                true
            }
        }
    }

    /// Assemble the result (or the cancellation) and publish the pool's
    /// and the kernels' counters on the calling thread.
    fn finish(self, start: Instant, steals: u64) -> Result<HostSearchResult, Cancelled> {
        let seconds = start.elapsed().as_secs_f64();
        let faults = PoolFaultReport {
            injected_panics: self.injector.panics(),
            injected_stalls: self.injector.stalls(),
            injected_alloc_fails: self.injector.alloc_fails(),
            panics: self.panics.into_inner(),
            quarantined_chunks: self.quarantined_chunks.into_inner(),
            oracle_scored: self.oracle_scored.into_inner(),
            redispatches: self.redispatches.into_inner(),
            duplicates_suppressed: self.duplicates_suppressed.into_inner(),
            rechunks: self.rechunks.into_inner(),
        };
        record_pool_faults(&faults);
        if steals > 0 {
            obs::counter_add(
                "cudasw.simd.pool.steals",
                &[("backend", self.engines[0].kind().name())],
                steals as f64,
            );
        }
        if self.cancelled.into_inner() && self.remaining.load(Ordering::Acquire) > 0 {
            obs::counter_add("cudasw.simd.pool.cancelled", &[], 1.0);
            return Err(Cancelled);
        }
        debug_assert_eq!(self.remaining.into_inner(), 0, "lost cells");
        let stats = self.stats.into_inner();
        record_stats(self.engines[0].kind(), &stats);
        Ok(HostSearchResult {
            scores: self.slots.into_iter().map(AtomicI32::into_inner).collect(),
            stats,
            seconds,
            steals,
            faults,
        })
    }
}

/// Publish the pool fault-domain counters under `cudasw.simd.pool.*`
/// (calling thread only — the recorder is thread-local).
fn record_pool_faults(faults: &PoolFaultReport) {
    let pairs: [(&str, u64); 7] = [
        ("cudasw.simd.pool.panics", faults.panics),
        ("cudasw.simd.pool.quarantines", faults.quarantined_chunks),
        ("cudasw.simd.pool.oracle_recomputes", faults.oracle_scored),
        ("cudasw.simd.pool.redispatches", faults.redispatches),
        (
            "cudasw.simd.pool.duplicates_suppressed",
            faults.duplicates_suppressed,
        ),
        ("cudasw.simd.pool.rechunks", faults.rechunks),
        ("cudasw.simd.pool.faults_injected", faults.injected()),
    ];
    for (name, value) in pairs {
        if value > 0 {
            obs::counter_add(name, &[], value as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::HostFaultRates;
    use sw_align::smith_waterman::SwParams;
    use sw_db::synth::{database_with_lengths, make_query};

    /// One engine for `query` on each available backend.
    fn engines(query: &[u8]) -> Vec<QueryEngine> {
        crate::BackendKind::available()
            .into_iter()
            .map(|kind| QueryEngine::with_backend(SwParams::cudasw_default(), query, kind))
            .collect()
    }

    /// A protected wave of one over an explicit chunking, with no cancel
    /// token.
    fn search_chunked(
        engine: &QueryEngine,
        seqs: &[Sequence],
        cfg: &PoolConfig,
        chunks: &[Range<usize>],
    ) -> HostSearchResult {
        search_wave_protected_with_chunks(std::slice::from_ref(engine), seqs, cfg, chunks)
            .unwrap_or_else(|e| panic!("not cancellable: {e}"))
    }

    #[test]
    fn worker_count_is_clamped_to_useful_work() {
        // Tiny database: pooling can only lose; collapse to inline.
        assert_eq!(effective_workers(4, 10), 1);
        // Just under two workers' worth stays on one.
        assert_eq!(effective_workers(4, MIN_SEQS_PER_WORKER * 2 - 1), 1);
        // Large database: bounded by requested threads and hardware.
        let hardware = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(effective_workers(4, 10_000), 4.min(hardware));
        assert!(effective_workers(usize::MAX, 10_000) <= hardware.max(1));
        // A wave counts alignments: a 20-sequence shard is inline under one
        // query and worth a second worker under sixteen.
        assert_eq!(effective_workers(2, 20), 1);
        assert_eq!(effective_workers(2, 20 * 16), 2.min(hardware));
    }

    /// The commit CAS: the first commit of a cell wins, a second is
    /// suppressed and counted, and the slot keeps the first score.
    #[test]
    fn a_cell_commits_exactly_once() {
        let db = database_with_lengths("t", &[20, 30], 1);
        let engines = engines(&make_query(16, 1));
        let cfg = PoolConfig::new(1, Precision::Adaptive);
        let shared = RunShared::new(&engines[..1], db.sequences(), &cfg);
        assert!(shared.commit(0, 1, 7) && !shared.commit(0, 1, 8));
        assert_eq!(shared.slots[1].load(Ordering::Acquire), 7);
        assert_eq!(shared.duplicates_suppressed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.remaining.load(Ordering::Acquire), 1);
    }

    #[test]
    fn quarantine_recomputes_only_uncommitted_cells() {
        let db = database_with_lengths("t", &[40, 50, 60, 70, 80, 90], 5);
        for kind in crate::BackendKind::available() {
            let engines: Vec<QueryEngine> = (0..3u64)
                .map(|j| {
                    let query = make_query(40 + 9 * j as usize, j);
                    QueryEngine::with_backend(SwParams::cudasw_default(), &query, kind)
                })
                .collect();
            let clean: Vec<Vec<i32>> = engines
                .iter()
                .map(|e| search_sequences(e, db.sequences(), 1, Precision::Adaptive).scores)
                .collect();
            let plan = HostFaultPlan::none().with_fault_at((2, 3), HostFaultKind::Panic);
            let cfg = PoolConfig::new(1, Precision::Adaptive).with_fault_plan(plan);
            let shared = RunShared::new(&engines, db.sequences(), &cfg);
            // Two cells of the doomed chunk were committed before the panic
            // (a re-dispatched copy got that far): the oracle must skip them.
            assert!(shared.commit(1, 3, clean[1][3]));
            assert!(shared.commit(2, 4, clean[2][4]));
            let heart = AtomicU64::new(0);
            for range in [0..2, 2..5, 5..6] {
                assert!(shared.run_chunk(range, &mut |_| unreachable!("no alloc failure"), &heart));
            }
            let r = shared
                .finish(Instant::now(), 0)
                .unwrap_or_else(|e| panic!("not cancellable: {e}"));
            assert_eq!(r.scores, clean.concat(), "query-major, like the slots");
            assert_eq!(r.faults.quarantined_chunks, 1);
            assert_eq!(r.faults.oracle_scored, 3 * 3 - 2);
            assert_eq!(r.faults.duplicates_suppressed, 0);
            // Winners only: kernel stats cover the two healthy chunks.
            assert_eq!(r.stats.byte_mode + r.stats.word_fallbacks, 3 * 3);
        }
    }

    #[test]
    fn length_aware_chunks_balance_residues_not_counts() {
        // Length-sorted Swissprot-ish skew: many short, few giant.
        let mut lens = vec![25usize; 60];
        lens.extend([400, 450, 500, 2000, 3000]);
        let db = database_with_lengths("t", &lens, 5);
        let chunks = length_aware_chunks(db.sequences(), 8);
        assert!(!chunks.is_empty());
        assert!(chunks.len() <= 8);
        // Coverage: contiguous, in order, exactly 0..n.
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, db.len());
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Balance: no chunk carries more than ~2 fair shares of residues.
        let residues = |r: &Range<usize>| -> u64 {
            db.sequences()[r.clone()]
                .iter()
                .map(|s| s.residues.len() as u64)
                .sum()
        };
        let total: u64 = residues(&(0..db.len()));
        let fair = total / chunks.len() as u64;
        for c in &chunks {
            assert!(
                residues(c) <= fair * 2 + 3000,
                "chunk {c:?} carries {} residues (fair share {fair})",
                residues(c)
            );
        }
        // The giant-sequence tail must not be one chunk of everything.
        let count_based_tail = db.len() / 8;
        let last = chunks.last().unwrap();
        assert!(
            last.len() <= count_based_tail.max(2),
            "tail chunk {last:?} should be short on a skewed database"
        );
    }

    #[test]
    fn single_sequence_and_degenerate_targets() {
        let db = database_with_lengths("t", &[500], 2);
        assert_eq!(length_aware_chunks(db.sequences(), 8), vec![0..1]);
        assert_eq!(length_aware_chunks(db.sequences(), 0), vec![0..1]);
        assert!(length_aware_chunks(&[], 4).is_empty());
    }

    #[test]
    fn empty_database() {
        for eng in engines(&make_query(10, 1)) {
            let r = search_sequences(&eng, &[], 4, Precision::Adaptive);
            assert!(r.scores.is_empty());
            assert_eq!(r.stats, AdaptiveStats::default());
            assert_eq!(r.steals, 0);
            assert!(r.faults.is_clean());
        }
    }

    #[test]
    fn injected_panic_is_quarantined_to_the_oracle() {
        let db = database_with_lengths("t", &[40, 50, 60, 70, 80, 90], 5);
        let query = make_query(52, 3);
        for eng in engines(&query) {
            let clean = search_sequences(&eng, db.sequences(), 1, Precision::Adaptive);
            let chunks: Vec<Range<usize>> = (0..db.len()).map(|i| i..i + 1).collect();
            let plan = HostFaultPlan::none().with_fault_at((2, 1), HostFaultKind::Panic);
            let cfg = PoolConfig::new(1, Precision::Adaptive).with_fault_plan(plan);
            let r = search_chunked(&eng, db.sequences(), &cfg, &chunks);
            assert_eq!(r.scores, clean.scores, "bit-identical through the panic");
            assert_eq!(r.faults.panics, 1);
            assert_eq!(r.faults.quarantined_chunks, 1);
            assert_eq!(r.faults.oracle_scored, 1);
            assert_eq!(r.faults.injected_panics, 1);
        }
    }

    #[test]
    fn steals_are_published_by_the_pool_itself() {
        let db = database_with_lengths("t", &[40; 16], 7);
        let query = make_query(32, 1);
        for eng in engines(&query) {
            let chunks: Vec<Range<usize>> = (0..db.len()).map(|i| i..i + 1).collect();
            // Worker 0 sleeps on its first chunk with the watchdog off, so
            // worker 1 runs dry and takes the rest of worker 0's deque.
            let plan = HostFaultPlan::none()
                .with_fault_at((0, 1), HostFaultKind::Stall)
                .with_stall_ms(100);
            let cfg = PoolConfig::new(2, Precision::Adaptive)
                .with_fault_plan(plan)
                .with_watchdog(0, 1);
            let (r, run) = obs::capture(|| search_chunked(&eng, db.sequences(), &cfg, &chunks));
            assert!(r.steals > 0, "the idle worker must have stolen");
            let published = run
                .metrics
                .counter("cudasw.simd.pool.steals", &[("backend", eng.kind().name())]);
            assert_eq!(published, r.steals as f64);
        }
    }

    /// The pool publishes the merged precision counters on the calling
    /// thread, once per search: for one query and for a wave of three.
    #[test]
    fn adaptive_counters_are_published_by_the_pool_itself() {
        let query = make_query(300, 2);
        let mut db = database_with_lengths("t", &[30, 45, 60, 75, 90], 17)
            .sequences()
            .to_vec();
        // A self-alignment overflows byte mode: the word counter moves too.
        db.push(Sequence::new("self", query.clone()));
        let cfg = PoolConfig::new(2, Precision::Adaptive);
        for kind in crate::BackendKind::available() {
            let wave: Vec<QueryEngine> = [300, 260, 220]
                .map(|m| QueryEngine::with_backend(SwParams::cudasw_default(), &query[..m], kind))
                .into();
            let (rs, run) = obs::capture(|| {
                [
                    search_sequences(&wave[0], &db, 2, Precision::Adaptive),
                    search_wave_protected(&wave, &db, &cfg)
                        .unwrap_or_else(|e| panic!("not cancellable: {e}")),
                ]
            });
            let published = |name: &str| run.metrics.counter(name, &[("backend", kind.name())]);
            let sum = |f: fn(&AdaptiveStats) -> u64| rs.iter().map(|r| f(&r.stats)).sum::<u64>();
            let reruns = rs.each_ref().map(|r| r.stats.word_fallbacks);
            assert_eq!(reruns, [1, 3], "{kind}");
            let byte_mode = published("cudasw.simd.byte_mode.alignments");
            assert_eq!(byte_mode, sum(|s| s.byte_mode) as f64, "{kind}");
            let word_mode = published("cudasw.simd.word_mode.reruns");
            assert_eq!(word_mode, sum(|s| s.word_fallbacks) as f64, "{kind}");
        }
    }

    #[test]
    fn alloc_fail_splits_down_to_one_sequence_which_runs() {
        let db = database_with_lengths("t", &[30, 45, 60, 75, 90, 105, 120, 135], 9);
        let query = make_query(40, 2);
        for eng in engines(&query) {
            let clean = search_sequences(&eng, db.sequences(), 1, Precision::Adaptive);
            // The whole database, then each left half, fails its allocation:
            // 8 → 4 → 2 → 1 is three splits, and the one-sequence chunk (0, 1)
            // runs through its own fault.
            let chain = [(0, 8), (0, 4), (0, 2), (0, 1)];
            let plan = chain.iter().fold(HostFaultPlan::none(), |plan, &id| {
                plan.with_fault_at(id, HostFaultKind::AllocFail)
            });
            let cfg = PoolConfig::new(1, Precision::Adaptive).with_fault_plan(plan);
            // One chunk spanning the whole database (not a 0..n index list —
            // clippy::single_range_in_vec_init guards against that misread).
            let chunks = [Range {
                start: 0,
                end: db.len(),
            }];
            let r = search_chunked(&eng, db.sequences(), &cfg, &chunks);
            assert_eq!(r.scores, clean.scores, "bit-identical through the splits");
            assert_eq!(r.faults.injected_alloc_fails, chain.len() as u64);
            assert_eq!(r.faults.rechunks, chain.len() as u64 - 1);
            // Every sequence, the faulted single one included, was scored by
            // the kernels: none fell to the oracle.
            assert_eq!(r.faults.oracle_scored, 0);
            assert_eq!(r.stats.byte_mode + r.stats.word_fallbacks, db.len() as u64);
        }
    }

    #[test]
    fn chaos_seeds_reproduce_the_fault_free_scores() {
        let mut lens: Vec<usize> = (0..48).map(|i| 24 + (i * 7) % 90).collect();
        lens.push(400);
        let db = database_with_lengths("t", &lens, 13);
        let query = make_query(64, 11);
        for eng in engines(&query) {
            let clean = search_sequences(&eng, db.sequences(), 1, Precision::Adaptive);
            for seed in [1u64, 2, 3] {
                let plan = HostFaultPlan::random(seed, HostFaultRates::chaos()).with_stall_ms(5);
                for threads in [1, 3] {
                    let cfg = PoolConfig::new(threads, Precision::Adaptive)
                        .with_fault_plan(plan.clone())
                        .with_watchdog(20, 2);
                    let chunks: Vec<Range<usize>> = (0..db.len())
                        .step_by(4)
                        .map(|s| s..(s + 4).min(db.len()))
                        .collect();
                    let r = search_chunked(&eng, db.sequences(), &cfg, &chunks);
                    assert_eq!(
                        r.scores, clean.scores,
                        "seed {seed}, threads {threads}: scores must be bit-identical"
                    );
                    assert_eq!(r.scores.len(), db.len(), "zero lost sequences");
                }
            }
        }
    }

    #[test]
    fn cancellation_returns_no_partial_scores() {
        let db = database_with_lengths("t", &[300; 8], 3);
        let query = make_query(80, 5);
        for eng in engines(&query) {
            let cfg =
                PoolConfig::new(1, Precision::Adaptive).with_cancel(CancelToken::after_polls(3));
            let r = search_wave_protected(std::slice::from_ref(&eng), db.sequences(), &cfg);
            assert_eq!(r.err(), Some(Cancelled));
        }
    }

    #[test]
    fn uncancelled_token_completes_bit_identically() {
        let db = database_with_lengths("t", &[40, 60, 80], 3);
        let query = make_query(48, 5);
        for eng in engines(&query) {
            let clean = search_sequences(&eng, db.sequences(), 1, Precision::Adaptive);
            let token = CancelToken::new();
            let cfg = PoolConfig::new(1, Precision::Adaptive).with_cancel(token.clone());
            let r = search_wave_protected(std::slice::from_ref(&eng), db.sequences(), &cfg)
                .unwrap_or_else(|e| panic!("never cancelled: {e}"));
            assert_eq!(r.scores, clean.scores);
            assert!(token.polls() > 0, "chunk boundaries and kernels polled");
        }
    }
}
