//! Vectorized CPU Smith-Waterman — the real host compute backend.
//!
//! Figure 7 of the paper compares CUDASW++ against SWPS3, "a vectorized
//! SSE implementation of Smith-Waterman using four cores of an Intel Xeon".
//! This crate now plays that role for real: Farrar's *striped* kernel runs
//! on the machine's native vector unit, selected at run time, with SSW-style
//! adaptive precision (saturating 8-bit byte mode first; pairs that
//! overflow continue in exact 16-bit word mode from the overflow column)
//! and a work-stealing thread pool (one subject a lane) across cores. The
//! defining striped-SW cost — the **Lazy-F** correction, "the need of SWPS3
//! to correct errors which are a result of a vertical traversal through the
//! SW tables" — is bounded per column and counted *per precision mode*
//! (byte-mode repair operations separately from word-mode), per backend.
//!
//! Layout:
//!
//! * [`backend`] — the [`ByteSimd`](backend::ByteSimd) /
//!   [`WordSimd`](backend::WordSimd) traits and the generic kernels every
//!   backend shares, one body per shape for both precisions (bit-identical
//!   scores by construction: lane count changes the striping layout, never
//!   the per-cell arithmetic);
//! * `x86` — the `core::arch` backends, compiled on x86-64 only: AVX2
//!   (32×u8 / 16×i16, `is_x86_feature_detected!`) and SSE2 (16×u8 /
//!   8×i16, x86-64 baseline);
//! * [`portable`] — the emulated [`U8x16`](portable::U8x16) /
//!   [`I16x8`](portable::I16x8) vectors: the always-available fallback
//!   backend and the differential-test baseline;
//! * [`dispatch`] — [`BackendKind`]: runtime detection, `SW_SIMD_BACKEND`
//!   override;
//! * [`engine`] — [`QueryEngine`]: profiles built once per query, scored
//!   through the dispatched backend, with `cudasw.simd.*` metrics — the
//!   only way this crate scores a pair (a pair whose word pass saturates
//!   is finished on scalar `sw_align::sw_score`, so every score is exact);
//! * [`pool`] — work-stealing database sharding across threads, a fault
//!   domain of its own ([`fault`], [`cancel`]). Engine plus pool is the
//!   multi-threaded whole-database search in the role SWPS3 plays in
//!   Figure 7.
//!
//! Every backend is validated against `sw_align::sw_score`: the root
//! conformance harness (`tests/conformance.rs`) holds every backend ×
//! precision × kernel mode to it on one corpus with every other scoring
//! path of the workspace, `tests/handoff_differential.rs` the byte→word hand-off,
//! `tests/peel_differential.rs` the untested Lazy-F prefix,
//! `tests/bounded_exhaustive.rs` every pair of short sequences on every
//! path, and `tests/vector_contract.rs` each byte vector's lane encoding
//! (biased unsigned, or offset-binary on AVX2) to one arithmetic.

// Crash-only discipline: library code may not panic through `unwrap` /
// `expect` — every fallible path must recover or return a typed error.
// (Unit tests, compiled with `cfg(test)`, are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod cancel;
pub mod dispatch;
pub mod engine;
pub mod fault;
pub mod pool;
pub mod portable;
pub mod x86;

pub use backend::{ColumnCheck, NeverCancel};
pub use cancel::{CancelToken, Cancelled, CANCEL_CHECK_COLS};
pub use dispatch::{BackendKind, KernelMode};
pub use engine::{AdaptiveStats, Precision, QueryEngine};
pub use fault::{HostFaultKind, HostFaultPlan, HostFaultRates};
pub use pool::{
    effective_workers, length_aware_chunks, search_sequences, search_wave_protected,
    search_wave_protected_with_chunks, HostSearchResult, PoolConfig, PoolFaultReport,
    MIN_SEQS_PER_WORKER,
};
