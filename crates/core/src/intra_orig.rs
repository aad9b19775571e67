//! The original intra-task kernel: one block per pair, global-memory
//! wavefronts.
//!
//! "The intra-task kernel uses an entire thread block to find the optimal
//! alignment score between a query sequence and database sequence. No
//! tiling is used and the table is computed in the usual wavefront
//! parallel order. [...] Global memory is used to store each wavefront as
//! it is computed and three wavefronts need to be saved at each time step
//! to satisfy the dependencies for the next time step."
//!
//! Every cell update loads five wavefront words from and stores three
//! words to global memory — the traffic the paper quantifies in Table I.
//! Each anti-diagonal step ends in a barrier, and the next step's loads
//! depend on this step's stores, so a store→load round-trip latency is
//! charged per step (`step_latency_cycles`).

use crate::column::{with_avx2, NEG};
use crate::seqstore::{unpack_residue, SeqImage};
use crate::CELL_INSTRUCTIONS;
use gpu_sim::{
    lane_bits, BlockCtx, BlockKernel, DevicePtr, GpuDevice, GpuError, LaunchConfig, TexRef,
    WarpAccess, WARP_SIZE,
};
use sw_align::{GapPenalties, ScoringMatrix};
use sw_db::Sequence;

/// One query/database pair staged for an intra-task launch (block ↔ pair).
#[derive(Debug, Clone)]
pub struct IntraPair {
    /// Packed database residues, bound to texture (CUDASW++ reads the
    /// database through the texture path).
    pub tex: TexRef,
    /// Database sequence length.
    pub len: usize,
    /// Output score word.
    pub score: DevicePtr,
}

impl IntraPair {
    /// Upload one image per sequence, in order, adding each copy's H2D
    /// seconds to `transfer_seconds`.
    pub(crate) fn stage(
        dev: &mut GpuDevice,
        seqs: &[Sequence],
        transfer_seconds: &mut f64,
    ) -> Result<Vec<IntraPair>, GpuError> {
        let mut pairs = Vec::with_capacity(seqs.len());
        for seq in seqs {
            let (img, secs) = SeqImage::upload(dev, seq)?;
            *transfer_seconds += secs;
            pairs.push(IntraPair {
                tex: img.tex,
                len: img.len,
                score: img.score,
            });
        }
        Ok(pairs)
    }
}

/// The original wavefront kernel over a batch of long sequences.
pub struct OriginalIntraKernel<'a> {
    /// One pair per block.
    pub pairs: &'a [IntraPair],
    /// Packed query residues, bound to texture.
    pub query: TexRef,
    /// Query length.
    pub query_len: usize,
    /// Substitution matrix (constant memory: lookups cost arithmetic only).
    pub matrix: &'a ScoringMatrix,
    /// Gap penalties.
    pub gaps: GapPenalties,
    /// Wavefront buffers: 7 arrays of `query_len` words per block
    /// (3×H for the rotating diagonals, 2×E, 2×F).
    pub wavefront: DevicePtr,
    /// Threads per block (CUDASW++ default 256).
    pub threads_per_block: u32,
    /// Store→load round-trip charged per anti-diagonal step.
    pub step_latency_cycles: u64,
}

/// Rotating base addresses of the seven wavefront arrays of one block.
#[derive(Clone, Copy)]
struct WaveBufs {
    h0: usize,
    h1: usize,
    h2: usize,
    e0: usize,
    e1: usize,
    f0: usize,
    f1: usize,
}

impl OriginalIntraKernel<'_> {
    /// Wavefront words the driver must allocate for `blocks` blocks.
    pub fn wavefront_words(blocks: usize, query_len: usize) -> usize {
        blocks * 7 * query_len.max(1)
    }

    /// One warp-wide slice of an anti-diagonal: rows `i0 .. i0+lanes`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn run_chunk(
        &self,
        ctx: &mut BlockCtx<'_>,
        pair: &IntraPair,
        bufs: &WaveBufs,
        d: usize,
        i0: usize,
        lanes: usize,
        best: &mut i32,
    ) -> Result<(), GpuError> {
        let (open, extend) = (self.gaps.open, self.gaps.extend);

        // Residues: packed query words over consecutive rows, packed
        // database words over consecutive columns — both coalesce. Lanes
        // past the chunk form (wrapped) addresses too, outside the mask.
        let chunk = lane_bits(0, lanes - 1);
        let (q_base, d_base) = (self.query.base().addr(), pair.tex.base().addr());
        let mut q_acc = [0usize; WARP_SIZE];
        let mut d_acc = [0usize; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            q_acc[lane] = q_base + (i0 + lane) / 4;
            d_acc[lane] = d_base.wrapping_add((d - i0).wrapping_sub(lane) / 4);
        }
        let q_words = ctx.tex_load(self.query, &WarpAccess::gather(chunk, q_acc))?;
        let d_words = ctx.tex_load(pair.tex, &WarpAccess::gather(chunk, d_acc))?;

        // Five wavefront loads: H(d-1)[i], E(d-1)[i], H(d-1)[i-1],
        // F(d-1)[i-1], H(d-2)[i-1]. Row 0 has no row above it.
        let left = |base: usize| WarpAccess::run(0, lanes, base + i0);
        let up = |base: usize| {
            let skip = usize::from(i0 == 0);
            WarpAccess::run(skip, lanes - skip, base + i0 + skip - 1)
        };
        let mut v_h_left = ctx.global_load(&left(bufs.h1))?;
        let mut v_e_left = ctx.global_load(&left(bufs.e1))?;
        let mut v_h_up = ctx.global_load(&up(bufs.h1))?;
        let mut v_f_up = ctx.global_load(&up(bufs.f1))?;
        let mut v_h_diag = ctx.global_load(&up(bufs.h2))?;

        // Boundary semantics: missing neighbours mean H = 0 and
        // E/F = -inf. Never-written device words read as 0; a 0 in E/F
        // decays under the gap penalties and can never beat H's
        // 0-clamp, so it is equivalent (same argument as for the SIMD
        // vector initialisation).
        if i0 == 0 {
            (v_h_up[0], v_f_up[0], v_h_diag[0]) = (0, NEG as u32, 0);
        }
        if let Some(lane) = d.checked_sub(i0).filter(|&lane| lane < lanes) {
            // Column 0 is on this chunk: row `d`.
            (v_h_left[lane], v_e_left[lane], v_h_diag[lane]) = (0, NEG as u32, 0);
        }
        let mut w = [0i32; WARP_SIZE];
        for lane in 0..lanes {
            let (i, j) = (i0 + lane, d - i0 - lane);
            let q_res = unpack_residue(q_words[lane], i % 4);
            let d_res = unpack_residue(d_words[lane], j % 4);
            w[lane] = self.matrix.score(q_res, d_res);
        }

        // All 32 lanes, branch-free: a lane past the chunk computes H = 0
        // from the zeros it loaded and is not stored.
        let mut h_out = [0u32; WARP_SIZE];
        let mut e_out = [0u32; WARP_SIZE];
        let mut f_out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let e = (v_e_left[lane] as i32 - extend).max(v_h_left[lane] as i32 - open);
            let f = (v_f_up[lane] as i32 - extend).max(v_h_up[lane] as i32 - open);
            let h = (v_h_diag[lane] as i32 + w[lane]).max(e).max(f).max(0);
            h_out[lane] = h as u32;
            e_out[lane] = e.max(NEG) as u32;
            f_out[lane] = f.max(NEG) as u32;
            *best = (*best).max(h);
        }

        // Three wavefront stores (H, E, F), coalesced over rows.
        ctx.global_store(&left(bufs.h0), &h_out)?;
        ctx.global_store(&left(bufs.e0), &e_out)?;
        ctx.global_store(&left(bufs.f0), &f_out)?;

        ctx.count_cells(lanes as u64);
        ctx.charge(CELL_INSTRUCTIONS);
        Ok(())
    }
}

impl BlockKernel for OriginalIntraKernel<'_> {
    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            threads_per_block: self.threads_per_block,
            regs_per_thread: 16,
            shared_words: 64, // block-wide max-reduction scratch
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
        let pair = &self.pairs[ctx.block_idx as usize];
        let m = self.query_len;
        let n = pair.len;
        if m == 0 || n == 0 {
            ctx.write_word(pair.score, 0)?;
            return Ok(());
        }
        let base = self.wavefront.addr() + ctx.block_idx as usize * 7 * m;
        let mut slots = [
            base,
            base + m,
            base + 2 * m,
            base + 3 * m,
            base + 4 * m,
            base + 5 * m,
            base + 6 * m,
        ];
        let mut best = 0i32;

        for d in 0..(m + n - 1) {
            let bufs = WaveBufs {
                h0: slots[0],
                h1: slots[1],
                h2: slots[2],
                e0: slots[3],
                e1: slots[4],
                f0: slots[5],
                f1: slots[6],
            };
            let i_lo = d.saturating_sub(n - 1);
            let i_hi = d.min(m - 1);
            let mut chunk = i_lo;
            while chunk <= i_hi {
                let lanes = WARP_SIZE.min(i_hi - chunk + 1);
                with_avx2(|| self.run_chunk(ctx, pair, &bufs, d, chunk, lanes, &mut best))?;
                chunk += WARP_SIZE;
            }
            ctx.syncthreads();
            ctx.add_latency(self.step_latency_cycles);
            // Rotate H(d) -> H(d-1) -> H(d-2); double-buffer E and F.
            slots.swap(2, 1); // h1 -> h2
            slots.swap(1, 0); // h0 -> h1, old h2 becomes the write slot
            slots.swap(4, 3);
            slots.swap(6, 5);
        }

        // Block-wide max reduction in shared memory, then one store.
        ctx.charge(64);
        ctx.syncthreads();
        ctx.write_word(pair.score, best as u32)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqstore::{pack_residues, SeqImage};
    use gpu_sim::{DeviceSpec, GpuDevice};
    use sw_align::smith_waterman::SwParams;
    use sw_db::synth::{database_with_lengths, make_query};

    fn run_kernel(
        dev: &mut GpuDevice,
        query: &[u8],
        seqs: &[sw_db::Sequence],
    ) -> (Vec<i32>, gpu_sim::LaunchStats) {
        let params = SwParams::cudasw_default();
        let q_words = pack_residues(query);
        let q_ptr = dev.alloc(q_words.len().max(1)).unwrap();
        dev.copy_to_device(q_ptr, &q_words).unwrap();
        let q_tex = dev.bind_texture(q_ptr, q_words.len().max(1));
        let mut pairs = Vec::new();
        for s in seqs {
            let (img, _) = SeqImage::upload(dev, s).unwrap();
            pairs.push(IntraPair {
                tex: img.tex,
                len: img.len,
                score: img.score,
            });
        }
        let wavefront = dev
            .alloc(OriginalIntraKernel::wavefront_words(
                pairs.len(),
                query.len(),
            ))
            .unwrap();
        let kernel = OriginalIntraKernel {
            pairs: &pairs,
            query: q_tex,
            query_len: query.len(),
            matrix: &params.matrix,
            gaps: params.gaps,
            wavefront,
            threads_per_block: 256,
            step_latency_cycles: 550,
        };
        let stats = dev
            .launch(&kernel, pairs.len() as u32, "intra_orig")
            .unwrap();
        let mut scores = Vec::new();
        for p in &pairs {
            let (v, _) = dev.copy_from_device(p.score, 1).unwrap();
            scores.push(v[0] as i32);
        }
        (scores, stats)
    }

    #[test]
    fn heavy_global_traffic_per_cell() {
        // The defining property: ~10 word accesses per cell keep the
        // transactions-per-cell ratio high even after coalescing.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let db = database_with_lengths("long", &[256], 13);
        let query = make_query(128, 1);
        let (_, stats) = run_kernel(&mut dev, &query, db.sequences());
        let cells = stats.cells() as f64;
        let trans = stats.global_transactions() as f64;
        assert!(
            trans / cells > 0.2,
            "expected heavy traffic, got {} trans/cell",
            trans / cells
        );
    }

    #[test]
    fn one_sync_per_diagonal() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let db = database_with_lengths("long", &[40], 3);
        let query = make_query(24, 2);
        let (_, stats) = run_kernel(&mut dev, &query, db.sequences());
        // m + n - 1 diagonals plus the final reduction sync.
        assert_eq!(stats.totals.syncs, (24 + 40 - 1) + 1);
    }

    #[test]
    fn fermi_caches_absorb_wavefront_traffic() {
        // The wavefront arrays fit in L2, so on the C2050 most DRAM reads
        // disappear — the effect Figure 6 turns off.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let db = database_with_lengths("long", &[400], 7);
        let query = make_query(200, 9);
        let (_, stats) = run_kernel(&mut dev, &query, db.sequences());
        let served_by_cache = stats.memory.l1.hits + stats.memory.l2.hits;
        let total = stats.memory.load_transactions;
        assert!(
            served_by_cache as f64 / total as f64 > 0.5,
            "cache hit fraction = {}",
            served_by_cache as f64 / total as f64
        );
    }
}
