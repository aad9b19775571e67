//! Per-query scoring engine: one profile build, many alignments, one
//! backend.
//!
//! [`QueryEngine`] binds a query + parameters to a dispatched backend
//! ([`BackendKind`]): it builds the byte- and word-mode striped profiles
//! once (profile construction is the per-query setup cost Farrar
//! amortizes) and then scores any number of database sequences through the
//! backend's kernels. The engine is immutable after construction, so one
//! instance can be shared by reference across the worker threads of
//! [`crate::pool`] — that *is* the "per-thread profile reuse": threads
//! share the read-only profiles instead of rebuilding them.
//!
//! Observability: backend selection emits
//! `cudasw.simd.backend.selected{backend}`. Scoring only accumulates plain
//! [`AdaptiveStats`]; the pool publishes them as the adaptive-precision
//! counters (`cudasw.simd.byte_mode.alignments`,
//! `cudasw.simd.word_mode.reruns`, `cudasw.simd.lazy_f.iterations{mode}`)
//! on the thread that called it, once per search — the metrics recorder is
//! thread-local, so counts bumped inside worker threads would otherwise be
//! lost.

use crate::backend::{
    sw_bytes_checked, sw_bytes_grouped, sw_words_checked, sw_words_grouped, Backend, ByteProfileOf,
    ByteSimd, ColumnCheck, Handoff, NeverCancel, WordProfileOf, WordSimd,
};
use crate::cancel::{CancelToken, Cancelled};
use crate::dispatch::{BackendKind, KernelMode};
use crate::portable::PortableBackend;
use sw_align::smith_waterman::{sw_score, SwParams, NEG_INF};
use sw_align::GapPenalties;

#[cfg(target_arch = "x86_64")]
use crate::x86::{group_avx2, score_avx2, Avx2Backend, Sse2Backend};

/// Which precision ladder to run per alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Saturating byte mode first; on overflow word mode takes over at the
    /// overflow column (SSW/SWPS3 production strategy, minus the restart).
    Adaptive,
    /// Word mode only — the pre-backend behaviour, kept for callers that
    /// want deterministic per-pair cost: the integrity experiment's host
    /// reference and the differential and conformance suites.
    Word,
}

/// Statistics of an adaptive (byte-first) alignment batch.
///
/// Lazy-F repair operations are counted **per precision mode**: striped
/// byte-mode passes (including those of alignments that later overflowed)
/// land in `lazy_f_byte`, resumed striped word-mode passes in
/// `lazy_f_word`. Both count vector operations executed — scan rounds, the
/// untested prefix of `min(PEEL, seg_len)` steps every column runs
/// ([`crate::backend`]) and the tested steps after it, at most `seg_len +
/// log2(LANES) + open/extend + 1` per column. They measure work, not time:
/// the prefix executes more operations than the tests it replaced, and is
/// faster. The grouped passes ([`QueryEngine::score_group`]) run no Lazy-F,
/// so both read 0 there, while `byte_mode` and `word_fallbacks` are the
/// striped path's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Alignments resolved in byte mode.
    pub byte_mode: u64,
    /// Alignments that overflowed and continued in word mode.
    pub word_fallbacks: u64,
    /// Lazy-F repair operations executed by byte-mode passes.
    pub lazy_f_byte: u64,
    /// Lazy-F repair operations executed by resumed word-mode passes.
    pub lazy_f_word: u64,
}

impl AdaptiveStats {
    /// Fold another batch's counts into this one.
    pub fn merge(&mut self, other: &AdaptiveStats) {
        self.byte_mode += other.byte_mode;
        self.word_fallbacks += other.word_fallbacks;
        self.lazy_f_byte += other.lazy_f_byte;
        self.lazy_f_word += other.lazy_f_word;
    }
}

/// Byte + word profiles for one backend's vector types.
pub(crate) struct Profiles<K: Backend> {
    byte: ByteProfileOf<K::Byte>,
    word: WordProfileOf<K::Word>,
}

impl<K: Backend> Profiles<K> {
    fn build(params: &SwParams, query: &[u8]) -> Self {
        Self {
            byte: ByteProfileOf::build(params, query),
            word: WordProfileOf::build(params, query),
        }
    }
}

/// The profiles of whichever backend the engine dispatched to.
enum ProfileSet {
    Portable(Profiles<PortableBackend>),
    #[cfg(target_arch = "x86_64")]
    Sse2(Profiles<Sse2Backend>),
    #[cfg(target_arch = "x86_64")]
    Avx2(Profiles<Avx2Backend>),
}

/// `$ladder(gaps, profiles, args…)` on the engine's backend's profiles;
/// on AVX2 through `$avx2`, the same ladder compiled for it.
macro_rules! on_profiles {
    ($set:expr, $ladder:ident / $avx2:ident, $gaps:expr, $($arg:expr),*) => {
        match $set {
            ProfileSet::Portable(p) => $ladder($gaps, p, $($arg),*),
            #[cfg(target_arch = "x86_64")]
            ProfileSet::Sse2(p) => $ladder($gaps, p, $($arg),*),
            // SAFETY: `with_backend_and_mode` asserted AVX2 availability
            // before this profile set was built.
            #[cfg(target_arch = "x86_64")]
            ProfileSet::Avx2(p) => unsafe { $avx2($gaps, p, $($arg),*) },
        }
    };
}

/// A query bound to a backend: build profiles once, score many sequences.
pub struct QueryEngine {
    kind: BackendKind,
    mode: KernelMode,
    params: SwParams,
    query: Vec<u8>,
    set: ProfileSet,
}

impl QueryEngine {
    /// Engine on the detected (widest available) backend and the detected
    /// kernel mode (`SW_KERNEL_MODE`, correction loop by default).
    pub fn new(params: SwParams, query: &[u8]) -> Self {
        Self::with_backend(params, query, BackendKind::detect())
    }

    /// Engine on a specific backend, kernel mode from [`KernelMode::detect`].
    ///
    /// # Panics
    ///
    /// See [`QueryEngine::with_backend_and_mode`].
    pub fn with_backend(params: SwParams, query: &[u8], kind: BackendKind) -> Self {
        Self::with_backend_and_mode(params, query, kind, KernelMode::detect())
    }

    /// Engine on a specific backend and Lazy-F kernel mode.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not available on this host/build — the
    /// availability check is the safety gate for the `unsafe` intrinsic
    /// calls inside the native backends — and when the gap penalties break
    /// `2^30 >= open >= extend >= 0` (the fields are public, so
    /// [`GapPenalties::new`] can be bypassed): the Lazy-F early exit and
    /// scan rest on the order, and the scalar finish on the bound.
    pub fn with_backend_and_mode(
        params: SwParams,
        query: &[u8],
        kind: BackendKind,
        mode: KernelMode,
    ) -> Self {
        assert!(
            kind.is_available(),
            "backend {kind} is not available on this host"
        );
        let GapPenalties { open, extend } = params.gaps;
        assert!(
            -NEG_INF >= open && open >= extend && extend >= 0,
            "gap penalties must satisfy 2^30 >= open >= extend >= 0, got open {open}, extend {extend}"
        );
        obs::counter_add(
            "cudasw.simd.backend.selected",
            &[("backend", kind.name())],
            1.0,
        );
        let set = match kind {
            #[cfg(target_arch = "x86_64")]
            BackendKind::Sse2 => ProfileSet::Sse2(Profiles::build(&params, query)),
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx2 => ProfileSet::Avx2(Profiles::build(&params, query)),
            _ => ProfileSet::Portable(Profiles::build(&params, query)),
        };
        Self {
            kind,
            mode,
            params,
            query: query.to_vec(),
            set,
        }
    }

    /// The backend this engine dispatches to.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The Lazy-F kernel mode this engine runs.
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// The alignment parameters.
    pub fn params(&self) -> &SwParams {
        &self.params
    }

    /// The bound query.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// Score one database sequence, accumulating precision/Lazy-F counts
    /// into `stats`.
    pub fn score_with(&self, db: &[u8], precision: Precision, stats: &mut AdaptiveStats) -> i32 {
        // NeverCancel never cancels, so the fallback is unreachable.
        self.score_checked(db, precision, stats, &NeverCancel)
            .unwrap_or(0)
    }

    /// Score one database sequence adaptively, discarding the stats.
    pub fn score(&self, db: &[u8]) -> i32 {
        let mut stats = AdaptiveStats::default();
        self.score_with(db, Precision::Adaptive, &mut stats)
    }

    /// [`QueryEngine::score_with`] with cooperative cancellation: the
    /// kernels poll `cancel` every [`crate::cancel::CANCEL_CHECK_COLS`]
    /// database columns. On cancellation nothing leaks — no score is
    /// returned and `stats` is left untouched.
    pub fn score_with_cancel(
        &self,
        db: &[u8],
        precision: Precision,
        stats: &mut AdaptiveStats,
        cancel: &CancelToken,
    ) -> Result<i32, Cancelled> {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        self.score_checked(db, precision, stats, cancel)
            .ok_or(Cancelled)
    }

    /// The one scoring path: dispatch the ladder to the engine's backend.
    /// Counts are accumulated locally and merged only on success, so an
    /// abandoned alignment (`None`) leaves `stats` untouched.
    fn score_checked<C: ColumnCheck>(
        &self,
        db: &[u8],
        precision: Precision,
        stats: &mut AdaptiveStats,
        check: &C,
    ) -> Option<i32> {
        if self.query.is_empty() || db.is_empty() {
            return Some(0);
        }
        let gaps = &self.params.gaps;
        let force_scan = self.mode == KernelMode::PrefixScan;
        let mut local = AdaptiveStats::default();
        let score = on_profiles! {
            &self.set, score_ladder / score_avx2, gaps, db, precision, force_scan, &mut local, check
        }?;
        stats.merge(&local);
        Some(self.finish(db, score))
    }

    /// Word mode saturates at `i16::MAX`: a pair that reaches it is
    /// finished on the scalar reference (uncancellable), so every score is
    /// exact — SSW and SWAPHI also finish such a pair wider.
    fn finish(&self, db: &[u8], score: i32) -> i32 {
        if score >= i32::from(i16::MAX) {
            return sw_score(&self.params, &self.query, db);
        }
        score
    }

    /// Score `subjects` adaptively, one a lane of the grouped byte pass
    /// ([`crate::backend::sw_bytes_grouped`]) and each hand-off one a lane of
    /// the grouped word pass ([`crate::backend::sw_words_grouped`]),
    /// cancellable as `score_with_cancel` is: each score, `byte_mode` and
    /// `word_fallbacks` is `score_with`'s, and neither Lazy-F count runs.
    pub fn score_group(
        &self,
        subjects: &[&[u8]],
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(i32, AdaptiveStats)>, Cancelled> {
        let scored = match cancel {
            Some(token) if token.is_cancelled() => None,
            Some(token) => self.group_checked(subjects, token),
            None => self.group_checked(subjects, &NeverCancel),
        };
        scored.ok_or(Cancelled)
    }

    /// Whether the pool's adaptive searches group ([`Backend::GROUPS`]).
    pub(crate) fn groups(&self) -> bool {
        match &self.set {
            ProfileSet::Portable(_) => PortableBackend::GROUPS,
            #[cfg(target_arch = "x86_64")]
            ProfileSet::Sse2(_) => Sse2Backend::GROUPS,
            #[cfg(target_arch = "x86_64")]
            ProfileSet::Avx2(_) => Avx2Backend::GROUPS,
        }
    }

    fn group_checked<C: ColumnCheck>(
        &self,
        subjects: &[&[u8]],
        check: &C,
    ) -> Option<Vec<(i32, AdaptiveStats)>> {
        if self.query.is_empty() {
            return Some(vec![(0, AdaptiveStats::default()); subjects.len()]);
        }
        let gaps = &self.params.gaps;
        let mut out = on_profiles! { &self.set, group_ladder / group_avx2, gaps, subjects, check }?;
        for ((score, _), d) in out.iter_mut().zip(subjects) {
            *score = self.finish(d, *score);
        }
        Some(out)
    }
}

/// The precision ladder over one backend's generic kernels: the byte pass,
/// then — on overflow, or from the zero state under [`Precision::Word`] —
/// the word pass from wherever the byte pass stopped. `None` means the
/// alignment was cancelled; `stats` may then hold partial counts.
///
/// `#[inline(always)]` so the AVX2 `#[target_feature]` wrapper inlines the
/// kernels into a feature-enabled context.
#[inline(always)]
pub(crate) fn score_ladder<K: Backend, C: ColumnCheck>(
    gaps: &GapPenalties,
    profiles: &Profiles<K>,
    db: &[u8],
    precision: Precision,
    force_scan: bool,
    stats: &mut AdaptiveStats,
    check: &C,
) -> Option<i32> {
    let start = match precision {
        Precision::Word => Handoff::default(),
        Precision::Adaptive => {
            let byte = sw_bytes_checked(gaps, &profiles.byte, db, force_scan, check)?;
            stats.lazy_f_byte += byte.lazy_f;
            match byte.score {
                Ok(score) => {
                    stats.byte_mode += 1;
                    return Some(score);
                }
                Err(handoff) => {
                    stats.word_fallbacks += 1;
                    handoff
                }
            }
        }
    };
    let word = sw_words_checked(gaps, &profiles.word, db, force_scan, &start, check)?;
    stats.lazy_f_word += word.lazy_f;
    Some(word.score)
}

/// Hand-offs, in word groups, a grouped call collects before its word pass
/// runs them sorted by remaining columns: more fill fuller groups of like
/// lengths, and each holds `4m` bytes meanwhile. On `scan_homolog`, one
/// thread, AVX2: two groups ran 1% slower, and holding all of a 256-subject
/// call's hand-offs 1–3% faster for up to four times the bytes.
const PENDING_GROUPS: usize = 4;

/// The grouped byte pass over `subjects`, then the grouped word pass over
/// the lanes that handed off, sorted by remaining columns (a part-full word
/// group the shortest); `None` if cancelled. `#[inline(always)]` as
/// [`score_ladder`] is.
#[inline(always)]
pub(crate) fn group_ladder<K: Backend, C: ColumnCheck>(
    gaps: &GapPenalties,
    profiles: &Profiles<K>,
    subjects: &[&[u8]],
    check: &C,
) -> Option<Vec<(i32, AdaptiveStats)>> {
    let mut out = Vec::with_capacity(subjects.len());
    let mut pending: Vec<(usize, Handoff)> = Vec::new();
    let groups = subjects.chunks(K::Byte::LANES);
    let last = groups.len();
    for (n, group) in groups.enumerate() {
        let lanes = sw_bytes_grouped(gaps, &profiles.byte, group, check)?;
        for (d, lane) in group.iter().zip(lanes) {
            let mut stats = AdaptiveStats::default();
            let score = match lane {
                _ if d.is_empty() => 0,
                Ok(score) => {
                    stats.byte_mode = 1;
                    score
                }
                Err(start) => {
                    stats.word_fallbacks = 1;
                    pending.push((out.len(), start));
                    0
                }
            };
            out.push((score, stats));
        }
        if n + 1 < last && pending.len() < PENDING_GROUPS * K::Word::LANES {
            continue;
        }
        pending.sort_by_key(|(i, start)| subjects[*i].len() - start.cols);
        for group in pending.rchunks(K::Word::LANES) {
            let lanes: Vec<&[u8]> = group.iter().map(|(i, _)| subjects[*i]).collect();
            let starts: Vec<&Handoff> = group.iter().map(|(_, start)| start).collect();
            let scores = sw_words_grouped(gaps, &profiles.word, &lanes, &starts, check)?;
            for ((i, _), score) in group.iter().zip(scores) {
                out[*i].0 = score;
            }
        }
        pending.clear();
    }
    Some(out)
}

/// Publish a batch's adaptive-precision counters under `cudasw.simd.*`.
///
/// Called by the pool on the thread that owns the metrics recorder (the
/// thread-local one that started the search), after merging worker-local
/// stats. The Lazy-F counts are the striped passes' alone
/// ([`AdaptiveStats`]).
pub(crate) fn record_stats(kind: BackendKind, stats: &AdaptiveStats) {
    let backend = kind.name();
    if stats.byte_mode > 0 {
        obs::counter_add(
            "cudasw.simd.byte_mode.alignments",
            &[("backend", backend)],
            stats.byte_mode as f64,
        );
    }
    if stats.word_fallbacks > 0 {
        obs::counter_add(
            "cudasw.simd.word_mode.reruns",
            &[("backend", backend)],
            stats.word_fallbacks as f64,
        );
    }
    if stats.lazy_f_byte > 0 {
        obs::counter_add(
            "cudasw.simd.lazy_f.iterations",
            &[("backend", backend), ("mode", "byte")],
            stats.lazy_f_byte as f64,
        );
    }
    if stats.lazy_f_word > 0 {
        obs::counter_add(
            "cudasw.simd.lazy_f.iterations",
            &[("backend", backend), ("mode", "word")],
            stats.lazy_f_word as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_db::synth::make_query;

    #[test]
    fn self_alignment_falls_back_to_word_mode_on_all_backends() {
        let params = SwParams::cudasw_default();
        let query = make_query(300, 9);
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(params.clone(), &query, kind);
            let mut stats = AdaptiveStats::default();
            let score = engine.score_with(&query, Precision::Adaptive, &mut stats);
            assert_eq!(score, sw_score(&params, &query, &query), "{kind}");
            assert_eq!(stats.word_fallbacks, 1, "{kind}");
            assert!(stats.lazy_f_byte > 0, "{kind}: byte pass ran first");
            assert!(stats.lazy_f_word > 0, "{kind}: word pass resumed");
        }
    }

    #[test]
    fn engines_report_their_backend_and_kernel_mode() {
        for kind in BackendKind::available() {
            for mode in KernelMode::ALL {
                let engine = QueryEngine::with_backend_and_mode(
                    SwParams::cudasw_default(),
                    &[1],
                    kind,
                    mode,
                );
                assert_eq!((engine.kind(), engine.mode()), (kind, mode));
            }
        }
    }

    #[test]
    fn stats_merge_adds_all_fields() {
        let mut a = AdaptiveStats {
            byte_mode: 1,
            word_fallbacks: 2,
            lazy_f_byte: 3,
            lazy_f_word: 4,
        };
        a.merge(&AdaptiveStats {
            byte_mode: 10,
            word_fallbacks: 20,
            lazy_f_byte: 30,
            lazy_f_word: 40,
        });
        assert_eq!(
            a,
            AdaptiveStats {
                byte_mode: 11,
                word_fallbacks: 22,
                lazy_f_byte: 33,
                lazy_f_word: 44,
            }
        );
    }

    #[test]
    #[should_panic(expected = "open >= extend >= 0")]
    fn gap_penalties_that_bypass_the_constructor_are_refused() {
        let mut params = SwParams::cudasw_default();
        params.gaps.extend = params.gaps.open + 1;
        QueryEngine::with_backend(params, &[1, 2, 3], BackendKind::Portable);
    }

    #[test]
    #[should_panic(expected = "got open 1073741825")]
    fn gap_penalties_past_the_sentinel_are_refused() {
        let mut params = SwParams::cudasw_default();
        params.gaps = GapPenalties {
            open: (1 << 30) + 1,
            extend: 2,
        };
        QueryEngine::with_backend(params, &[1, 2, 3], BackendKind::Portable);
    }

    #[test]
    fn empty_inputs_score_zero_without_stats() {
        let params = SwParams::cudasw_default();
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(params.clone(), &[], kind);
            let mut stats = AdaptiveStats::default();
            assert_eq!(
                engine.score_with(&[1, 2], Precision::Adaptive, &mut stats),
                0
            );
            let engine = QueryEngine::with_backend(params.clone(), &[1, 2], kind);
            assert_eq!(engine.score_with(&[], Precision::Adaptive, &mut stats), 0);
            assert_eq!(stats, AdaptiveStats::default(), "{kind}");
        }
    }

    #[test]
    fn selection_and_stats_counters_are_emitted() {
        let params = SwParams::cudasw_default();
        for kind in BackendKind::available() {
            let (kind, run) = obs::capture(|| {
                let query = make_query(300, 2);
                let engine = QueryEngine::with_backend(params.clone(), &query, kind);
                let mut stats = AdaptiveStats::default();
                engine.score_with(&make_query(30, 7), Precision::Adaptive, &mut stats);
                engine.score_with(&query, Precision::Adaptive, &mut stats);
                record_stats(engine.kind(), &stats);
                engine.kind()
            });
            let backend = [("backend", kind.name())];
            assert_eq!(
                run.metrics
                    .counter("cudasw.simd.backend.selected", &backend),
                1.0
            );
            assert_eq!(
                run.metrics
                    .counter("cudasw.simd.byte_mode.alignments", &backend),
                1.0,
                "short pair stays in byte mode"
            );
            assert_eq!(
                run.metrics
                    .counter("cudasw.simd.word_mode.reruns", &backend),
                1.0,
                "self-alignment overflows"
            );
            assert!(
                run.metrics
                    .counter_sum("cudasw.simd.lazy_f.iterations", &[("mode", "word")])
                    > 0.0
            );
        }
    }
}
