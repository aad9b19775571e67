//! Vectorized CPU Smith-Waterman — the real host compute backend.
//!
//! Figure 7 of the paper compares CUDASW++ against SWPS3, "a vectorized
//! SSE implementation of Smith-Waterman using four cores of an Intel Xeon".
//! This crate now plays that role for real: Farrar's *striped* kernel runs
//! on the machine's native vector unit, selected at run time, with SSW-style
//! adaptive precision (saturating 8-bit byte mode first; pairs that
//! overflow continue in exact 16-bit word mode from the overflow column)
//! and a work-stealing thread pool sharding the database across cores. The
//! defining striped-SW cost — the **Lazy-F** correction, "the need of SWPS3
//! to correct errors which are a result of a vertical traversal through the
//! SW tables" — is bounded per column and counted *per precision mode*
//! (byte-mode repair operations separately from word-mode), per backend.
//!
//! Layout:
//!
//! * [`backend`] — the [`ByteSimd`](backend::ByteSimd) /
//!   [`WordSimd`](backend::WordSimd) traits and the generic striped
//!   kernels every backend shares (bit-identical scores by construction:
//!   lane count changes the striping layout, never the per-cell
//!   arithmetic);
//! * [`x86`] / [`neon`] — `core::arch` backends: AVX2 (32×u8 / 16×i16,
//!   `is_x86_feature_detected!`), SSE2 (16×u8 / 8×i16, x86-64 baseline),
//!   NEON (16×u8 / 8×i16, AArch64 baseline);
//! * [`vector`] / [`byte_mode`] — the portable emulated vectors (the
//!   always-available fallback and the differential-test baseline) and the
//!   legacy byte-mode entry points;
//! * [`dispatch`] — [`BackendKind`]: runtime detection, `SW_SIMD_BACKEND`
//!   override, `force-portable` pin;
//! * [`engine`] — [`QueryEngine`]: profiles built once per query, scored
//!   through the dispatched backend, with `cudasw.simd.*` metrics;
//! * [`pool`] — work-stealing database sharding across threads;
//! * [`farrar`] — word-mode entry points ([`sw_striped_score`] is the
//!   scalar-validated reference oracle used across the workspace);
//! * [`wozniak`] — Wozniak's anti-diagonal vectorization (no Lazy-F, but
//!   sequential similarity lookups — the weakness the query profile fixes);
//! * [`rognes`] — Rognes–Seeberg sequential vertical vectorization with a
//!   query profile and the SWAT-like F-skip optimization;
//! * [`swps3`] — the multi-threaded whole-database search driver in the
//!   role SWPS3 plays in Figure 7.
//!
//! Every implementation is validated against `sw_align::sw_score`; the
//! differential proptests in `tests/backend_differential.rs` additionally
//! pin byte mode, word mode, and every available backend to identical
//! scores, `tests/handoff_differential.rs` the byte→word hand-off, and
//! `tests/peel_differential.rs` the untested Lazy-F prefix.

// Crash-only discipline: library code may not panic through `unwrap` /
// `expect` — every fallible path must recover or return a typed error.
// (Unit tests, compiled with `cfg(test)`, are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod budget;
pub mod byte_mode;
pub mod cancel;
pub mod dispatch;
pub mod engine;
pub mod farrar;
pub mod fault;
pub mod neon;
pub mod pool;
pub mod portable;
pub mod rognes;
pub mod swps3;
pub mod vector;
pub mod wozniak;
pub mod x86;

pub use backend::{ColumnCheck, NeverCancel};
pub use budget::{BudgetDenied, BudgetReservation, HostMemoryBudget};
pub use byte_mode::{sw_striped_adaptive, AdaptiveStats, ByteProfile};
pub use cancel::{CancelToken, Cancelled, CANCEL_CHECK_COLS};
pub use dispatch::{BackendKind, KernelMode};
pub use engine::{record_stats, Precision, QueryEngine};
pub use farrar::{striped_profile, sw_striped, sw_striped_score, StripedProfile};
pub use fault::{ChunkId, HostFaultInjector, HostFaultKind, HostFaultPlan, HostFaultRates};
pub use pool::{
    effective_workers, length_aware_chunks, search_protected, search_protected_with_chunks,
    search_sequences, search_uncancelled, search_with_cancel, search_with_chunks, HostSearchResult,
    PoolConfig, PoolFaultReport, CHUNKS_PER_WORKER, MIN_SEQS_PER_WORKER, SEQ_ADMISSION_BYTES,
};
pub use swps3::{Swps3Driver, Swps3Result};
pub use vector::I16x8;
