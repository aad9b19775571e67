//! The driver's one device launch path.
//!
//! Both searches — the chunk loop of `recovery.rs`, which
//! [`CudaSwDriver::search`], the resilient search, the multi-GPU shards
//! and the ablation helper [`crate::variants::run_intra_variant`] all run,
//! and the staged search — reach the device through the three functions
//! here. They are the only non-test code that builds an
//! [`InterTaskKernel`], [`OriginalIntraKernel`] or [`ImprovedIntraKernel`],
//! and the only code that reads a [`crate::DeviceKernelConfig`] kernel
//! flag, so a launch decision (panel width, boundary store, fusion, SaLoBa
//! bins) is made once for all paths and the kernel is handed what was
//! decided.
//!
//! Callers keep what truly differs between them: who uploads the database
//! images, which allocator mark is rolled back after a launch, and how long
//! a `streamed_h2d` session lives — one search in the chunk loop, the
//! staged database's lifetime in `staged.rs`. Each function performs its
//! device allocations, launch and score read-back in one fixed order, and
//! adds copy seconds to the caller's running total one copy at a time, so
//! every path's simulated counts and seconds are reproducible to the bit.

use crate::balance::residue_balanced_bins;
use crate::driver::{CudaSwDriver, IntraKernelChoice};
use crate::inter_task::{InterTaskKernel, TILE_COLS};
use crate::intra_improved::ImprovedIntraKernel;
use crate::intra_orig::{IntraPair, OriginalIntraKernel};
use crate::seqstore::{pack_residues, GroupImage, ProfileImage};
use gpu_sim::{GpuError, LaunchStats, TexRef};
use sw_align::PackedProfile;

/// Block width of the original intra-task kernel (the CUDASW++ default).
const ORIGINAL_INTRA_THREADS_PER_BLOCK: u32 = 256;

/// Shared-memory dependency round trip the improved kernel pays per
/// pipeline step, in cycles. (The original kernel's step goes through
/// global memory and pays the device's `global_latency_cycles` instead.)
const IMPROVED_STEP_LATENCY_CYCLES: u64 = 30;

/// The per-query device artefacts: the packed profile both kernels read,
/// and the packed residues only the original intra-task kernel reads.
pub(crate) struct StagedQuery {
    pub profile: ProfileImage,
    pub q_tex: TexRef,
}

impl CudaSwDriver {
    /// Upload the query profile and packed residues (one attempt). `packed`
    /// must be built from `query` and the current scoring matrix. Returns
    /// the images and the H2D seconds of the two copies.
    pub(crate) fn stage_query(
        &mut self,
        query: &[u8],
        packed: &PackedProfile,
    ) -> Result<(StagedQuery, f64), GpuError> {
        let (profile, mut secs) = ProfileImage::upload(&mut self.dev, packed)?;
        let q_words = pack_residues(query);
        let q_ptr = self.dev.alloc(q_words.len().max(1))?;
        secs += self.dev.copy_to_device(q_ptr, &q_words)?;
        let q_tex = self.dev.bind_texture(q_ptr, q_words.len().max(1));
        Ok((StagedQuery { profile, q_tex }, secs))
    }

    /// Launch the inter-task kernel over one resident group and read its
    /// scores back (one attempt; the caller owns the allocator mark and
    /// rolls the boundary/edge scratch back).
    pub(crate) fn launch_inter_group(
        &mut self,
        group: &GroupImage,
        profile: &ProfileImage,
        transfer_seconds: &mut f64,
    ) -> Result<(LaunchStats, Vec<i32>), GpuError> {
        let dc = self.config.device;
        let max_cols = group.lengths.iter().copied().max().unwrap_or(0);
        let threads_per_block = self.config.inter_threads_per_block;
        // §VII staged order runs when boundary staging is on, or when the
        // shared-memory-only kernel applies (whole group in one panel);
        // 0 selects the baseline global-boundary order.
        let panel = InterTaskKernel::panel_cols(threads_per_block, self.dev.spec.shared_mem_per_sm);
        let staged = dc.boundary_staging || (dc.shared_only && max_cols <= panel);
        let panel_cols = if staged && panel >= TILE_COLS {
            panel
        } else {
            0
        };
        let boundary = self.dev.alloc(if panel_cols > 0 {
            1 // staged order never touches the global boundary planes
        } else {
            InterTaskKernel::boundary_words(group.width, max_cols).max(1)
        })?;
        let edge_words =
            InterTaskKernel::edge_words(group.width, profile.query_len, panel_cols, max_cols);
        let edge = if edge_words > 0 {
            Some(self.dev.alloc(edge_words)?)
        } else {
            None
        };
        let kernel = InterTaskKernel {
            group,
            profile,
            gaps: self.config.params.gaps,
            boundary,
            max_cols,
            threads_per_block,
            panel_cols,
            edge,
        };
        let stats = self
            .dev
            .launch(&kernel, kernel.grid_blocks(), "inter_task")?;
        if dc.streamed_h2d {
            self.dev.add_h2d_overlap_credit(stats.seconds);
        }
        let (raw, secs) = self.dev.copy_from_device(group.scores, group.width)?;
        *transfer_seconds += secs;
        Ok((stats, raw.into_iter().map(|w| w as i32).collect()))
    }

    /// Launch the configured intra-task kernel over `pairs` and read one
    /// score per pair back (one attempt; the caller owns the allocator
    /// mark).
    pub(crate) fn launch_intra(
        &mut self,
        pairs: &[IntraPair],
        query: &StagedQuery,
        transfer_seconds: &mut f64,
    ) -> Result<(LaunchStats, Vec<i32>), GpuError> {
        let dc = self.config.device;
        let max_len = pairs.iter().map(|p| p.len).max().unwrap_or(1);
        let gaps = self.config.params.gaps;
        let stats = match self.config.intra {
            IntraKernelChoice::Original => {
                let wavefront = self.dev.alloc(OriginalIntraKernel::wavefront_words(
                    pairs.len(),
                    query.profile.query_len,
                ))?;
                let kernel = OriginalIntraKernel {
                    pairs,
                    query: query.q_tex,
                    query_len: query.profile.query_len,
                    matrix: &self.config.params.matrix,
                    gaps,
                    wavefront,
                    threads_per_block: ORIGINAL_INTRA_THREADS_PER_BLOCK,
                    step_latency_cycles: self.dev.spec.global_latency_cycles as u64,
                };
                self.dev.launch(&kernel, pairs.len() as u32, "intra_orig")?
            }
            IntraKernelChoice::Improved(variant) => {
                let params = self.config.improved;
                // The shared-memory boundary only fits small sequences;
                // fall back transparently when it does not.
                let boundary_store = ImprovedIntraKernel::boundary_store(
                    dc.coalesced_boundary,
                    dc.shared_boundary,
                    &params,
                    max_len,
                    self.dev.spec.shared_mem_per_sm,
                );
                let boundary = self
                    .dev
                    .alloc(ImprovedIntraKernel::boundary_words(pairs.len(), max_len))?;
                let local_spill = self
                    .dev
                    .alloc(ImprovedIntraKernel::spill_words(pairs.len(), &params))?;
                // SaLoBa residue balance: bins of pairs per block instead
                // of one block per pair.
                let schedule = dc.balanced_intra.then(|| {
                    let lengths: Vec<usize> = pairs.iter().map(|p| p.len).collect();
                    let bins = (self.dev.spec.sm_count as usize).min(pairs.len());
                    residue_balanced_bins(&lengths, bins)
                });
                let kernel = ImprovedIntraKernel {
                    pairs,
                    profile: &query.profile,
                    gaps,
                    boundary,
                    boundary_stride: max_len,
                    local_spill,
                    params,
                    variant,
                    boundary_store,
                    // One fill/flush per alignment.
                    fuse_strips: dc.pipeline_fusion,
                    step_latency_cycles: IMPROVED_STEP_LATENCY_CYCLES,
                    schedule: schedule.as_deref(),
                };
                let blocks = schedule.as_ref().map_or(pairs.len(), Vec::len) as u32;
                self.dev.launch(&kernel, blocks, "intra_improved")?
            }
        };
        if dc.streamed_h2d {
            self.dev.add_h2d_overlap_credit(stats.seconds);
        }
        let mut scores = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let (word, secs) = self.dev.copy_from_device(pair.score, 1)?;
            *transfer_seconds += secs;
            scores.push(word[0] as i32);
        }
        Ok((stats, scores))
    }
}
