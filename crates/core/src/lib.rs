//! The paper's contribution: CUDASW++ on the simulated device.
//!
//! CUDASW++ compares one query against a whole database with two kernels
//! selected per sequence by a length threshold (default 3072):
//!
//! * [`inter_task`] — one *thread* per pair, 8×4 register tiles, packed
//!   query profile in texture memory (used for ~99.9% of Swissprot);
//! * [`intra_orig`] — the original intra-task kernel: one *block* per
//!   pair, block-wide anti-diagonal wavefront, H/E/F wavefronts in global
//!   memory. The paper identifies this kernel as the bottleneck;
//! * [`intra_improved`] — the paper's kernel: 4×1 tiles, strips of
//!   `n_th × t_height` query rows per pass, registers for horizontal
//!   dependencies, shared memory for vertical/diagonal dependencies,
//!   global memory only for strip-boundary rows, and the packed query
//!   profile ("a single read for every four cells").
//!
//! [`driver`] stitches them into the full application (threshold split,
//!   occupancy-sized groups, per-kernel time accounting) and holds the
//! one optimization surface, [`DeviceKernelConfig`] (the §VI future-work
//! items and the §VII device optimizations). [`variants`] names the
//! development stages of §III and the §VI ideas for ablation benches;
//! [`threshold`] implements automatic threshold selection; [`model`]
//! provides closed-form counter predictions validated against functional
//! runs.
//!
//! Every kernel is *functional*: it computes real Smith-Waterman scores
//! through the simulated memory system, and is tested against
//! `sw_align::sw_score`.

// Crash-only discipline: the driver sits under the recovery/checkpoint
// machinery — non-test host code must never panic through a careless
// unwrap. Tests are exempt (a failed unwrap *is* the assert).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod balance;
pub mod checkpoint;
mod column;
pub mod driver;
pub mod inter_task;
pub mod intra_improved;
pub mod intra_orig;
mod launch;
pub mod model;
pub mod multi_gpu;
pub mod recovery;
pub mod seqstore;
pub mod staged;
pub mod threshold;
pub mod variants;

pub use balance::{bin_imbalance, residue_balanced_bins};
pub use checkpoint::{
    run_fingerprint, CheckpointFile, ChunkPhase, ChunkRecord, LoadIssue, LoadedLog,
};
pub use driver::{CudaSwConfig, CudaSwDriver, DeviceKernelConfig, IntraKernelChoice, SearchResult};
pub use inter_task::InterTaskKernel;
pub use intra_improved::{BoundaryStore, ImprovedIntraKernel, ImprovedParams, VariantConfig};
pub use intra_orig::{IntraPair, OriginalIntraKernel};
pub use multi_gpu::{multi_gpu_search_resilient, ResilientMultiGpuResult};
pub use recovery::{RecoveryEvent, RecoveryPolicy, RecoveryReport, ResilientSearchResult};
pub use staged::StagedDatabase;

/// The CUDASW++ default threshold between the kernels.
pub const DEFAULT_THRESHOLD: usize = 3072;

/// Arithmetic warp-instructions charged per DP cell update.
///
/// One cell evaluates equation (1): two saturated subs + four max ops for
/// E/F, one add + three max for H, plus address/unpack overhead — about a
/// dozen scalar instructions in a tuned CUDA kernel. This single constant
/// is shared by all kernels (they run the same inner math; they differ in
/// *memory behaviour*, which is measured, not assumed).
pub const CELL_INSTRUCTIONS: u64 = 12;
