//! The inter-task kernel: one thread per query/database pair.
//!
//! "The inter-task kernel uses a single thread to compare a query and a
//! target sequence. It tiles the tables into 8×4 tiles which are computed
//! sequentially by the same thread in row major order. Within a tile, the
//! thread will compute cells in a tile in a column major order, storing
//! all values needed for dependencies within a tile in registers. Once a
//! tile is computed, the bottom row is stored in global memory and the
//! rightmost column is retained in registers."
//!
//! The kernel uses the packed query profile in texture memory (§II-A).
//! Database residues come from the interleaved [`GroupImage`] layout, so a
//! warp's 32 threads read 32 adjacent words — fully coalesced. A launch
//! only retires when every lane has finished its own sequence, which is
//! exactly the load-imbalance sensitivity of Figure 2.
//!
//! ## §VII shared-memory staging (`panel_cols > 0`)
//!
//! The baseline kernel streams every strip across the whole subject, so
//! each H/F strip-boundary column makes a round trip through global
//! memory — `4·n` transactions per strip crossing. The §VII staged mode
//! restructures the loop nest *column-panel-major*: subjects are cut into
//! panels of [`InterTaskKernel::panel_cols`] columns, and within a panel
//! all strips run top to bottom with the boundary rows held in a shared
//! memory slab (per-thread slots, conflict-free) instead of global
//! memory. The only global traffic left is the per-strip *left-edge*
//! register state ([`EDGE_WORDS_PER_STRIP`] words per lane) saved and
//! restored at panel seams through a coalesced interleaved scratch — a
//! fixed 2×17 transactions per (panel, strip) against the baseline's
//! `4·panel_cols`, i.e. a ≥4× counted reduction from `panel_cols ≥ 40`
//! and ~7.5× at the 64-column cap. When the whole subject fits one panel
//! (the §VII "shared-memory-only kernel") the edge scratch is never
//! touched and boundary traffic is *zero*. Scores are bit-identical to
//! the baseline order: the DP per cell and the state handed across every
//! seam are exactly the registers the baseline carries.

#![allow(clippy::needless_range_loop)] // lane loops mirror SIMT semantics
use crate::column::{with_avx2, WarpRegs, NEG};
use crate::seqstore::{unpack_residue, GroupImage, ProfileImage};
use crate::CELL_INSTRUCTIONS;
use gpu_sim::{BlockCtx, BlockKernel, DevicePtr, GpuError, LaunchConfig, WarpAccess, WARP_SIZE};
use sw_align::GapPenalties;

/// Rows per register tile.
pub const TILE_ROWS: usize = 8;
/// Columns per register tile.
pub const TILE_COLS: usize = 4;

/// Per-lane register state carried across a panel seam for one strip:
/// `h_left[8]`, `e_left[8]` and the diagonal — 17 words.
pub const EDGE_WORDS_PER_STRIP: usize = 2 * TILE_ROWS + 1;

/// Widest staging panels get: beyond this the fixed 2×17-word edge cost
/// is already amortized to noise and wider slabs only crowd shared memory.
pub const MAX_PANEL_COLS: usize = 64;

/// The inter-task kernel over one staged group.
pub struct InterTaskKernel<'a> {
    /// The group's interleaved residues, lengths and score slots.
    pub group: &'a GroupImage,
    /// Packed query profile bound to texture.
    pub profile: &'a ProfileImage,
    /// Gap penalties (kernel parameters).
    pub gaps: GapPenalties,
    /// Strip-boundary buffer: a plane of `H` then a plane of `F`, each
    /// `max_cols × width` words, interleaved by thread. Unused (may be a
    /// 1-word placeholder) when `panel_cols > 0`.
    pub boundary: DevicePtr,
    /// Columns covered by each boundary plane (max sequence length).
    pub max_cols: usize,
    /// Threads per block (CUDASW++ default 256).
    pub threads_per_block: u32,
    /// §VII shared-memory staging: boundary panel width in columns
    /// (a multiple of [`TILE_COLS`], see [`InterTaskKernel::panel_cols`]).
    /// `0` selects the baseline global-boundary path.
    pub panel_cols: usize,
    /// Per-strip left-edge scratch for panel seams
    /// ([`InterTaskKernel::edge_words`] words, interleaved by thread).
    /// `None` is valid whenever every subject fits a single panel.
    pub edge: Option<DevicePtr>,
}

impl<'a> InterTaskKernel<'a> {
    /// Blocks needed to give every sequence a thread.
    pub fn grid_blocks(&self) -> u32 {
        (self.group.width as u32).div_ceil(self.threads_per_block)
    }

    /// Boundary words the driver must allocate for a group.
    pub fn boundary_words(width: usize, max_cols: usize) -> usize {
        2 * width * max_cols
    }

    /// Widest boundary panel (a multiple of [`TILE_COLS`], capped at
    /// [`MAX_PANEL_COLS`]) whose H and F staging planes fit `shared_mem`
    /// bytes for blocks of `threads_per_block` threads. Returns 0 when
    /// not even one tile's columns fit — callers fall back to the
    /// baseline path.
    pub fn panel_cols(threads_per_block: u32, shared_mem_bytes: u32) -> usize {
        let budget_words = shared_mem_bytes as usize / 4;
        let per_col_words = 2 * threads_per_block as usize;
        if per_col_words == 0 {
            return 0;
        }
        ((budget_words / per_col_words).min(MAX_PANEL_COLS) / TILE_COLS) * TILE_COLS
    }

    /// Edge-scratch words the driver must allocate for a staged group: 0
    /// when every subject fits one panel (the shared-memory-only case),
    /// else one [`EDGE_WORDS_PER_STRIP`] record per (strip, thread).
    pub fn edge_words(width: usize, query_len: usize, panel_cols: usize, max_cols: usize) -> usize {
        if panel_cols == 0 || max_cols <= panel_cols {
            return 0;
        }
        let strips = query_len.div_ceil(TILE_ROWS).max(1);
        strips * EDGE_WORDS_PER_STRIP * width
    }

    /// Shared words per block for [`LaunchConfig`]: two staging planes of
    /// `panel_cols` columns with one slot per thread.
    fn shared_words(&self) -> u32 {
        (2 * self.panel_cols * self.threads_per_block as usize) as u32
    }

    /// Whether this launch runs the §VII column-panel-major staged order.
    /// Single-strip queries have no boundary at all — the baseline order
    /// is already optimal (and byte-identical), so staging disables
    /// itself there.
    fn panel_mode(&self) -> bool {
        self.panel_cols >= TILE_COLS && self.profile.query_len.div_ceil(TILE_ROWS) > 1
    }

    #[inline]
    fn boundary_h_addr(&self, col: usize, g: usize) -> usize {
        self.boundary.addr() + col * self.group.width + g
    }

    #[inline]
    fn boundary_f_addr(&self, col: usize, g: usize) -> usize {
        self.boundary.addr() + (self.max_cols + col) * self.group.width + g
    }

    /// Shared-slab address of the staged boundary-H slot for panel column
    /// `pc` and block thread `t` (per-thread slots: lanes are adjacent,
    /// conflict-free).
    #[inline]
    fn shared_h_addr(&self, pc: usize, t: usize) -> usize {
        pc * self.threads_per_block as usize + t
    }

    /// Shared-slab address of the staged boundary-F slot.
    #[inline]
    fn shared_f_addr(&self, pc: usize, t: usize) -> usize {
        (self.panel_cols + pc) * self.threads_per_block as usize + t
    }

    /// Edge-scratch address of word `k` of strip `r`'s record for
    /// sequence `g` (interleaved by thread: a warp's lanes are adjacent).
    #[inline]
    fn edge_addr(&self, edge: DevicePtr, r: usize, k: usize, g: usize) -> usize {
        edge.addr() + (r * EDGE_WORDS_PER_STRIP + k) * self.group.width + g
    }

    /// Run one warp's lanes to completion (all strips, all tiles).
    fn run_warp(&self, ctx: &mut BlockCtx<'_>, warp: u32) -> Result<(), GpuError> {
        let t0 = warp as usize * WARP_SIZE;
        let g0 = (ctx.block_idx * ctx.block_dim) as usize + t0;

        // Lanes that own a sequence, and its length (0 for the others, so
        // a lane without a sequence is never active in any column).
        let mut lane_n = [0usize; WARP_SIZE];
        let mut live = 0u32;
        for lane in 0..WARP_SIZE {
            if t0 + lane < ctx.block_dim as usize && g0 + lane < self.group.width {
                lane_n[lane] = self.group.lengths[g0 + lane];
                live |= 1 << lane;
            }
        }
        if live == 0 {
            return Ok(());
        }

        let m = self.profile.query_len;
        let strips = m.div_ceil(TILE_ROWS);
        let max_tiles = lane_n
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .div_ceil(TILE_COLS);
        let panel_tiles = if self.panel_mode() {
            self.panel_cols / TILE_COLS
        } else {
            max_tiles.max(1) // baseline order: one panel spans the subject
        };
        let n_panels = max_tiles.div_ceil(panel_tiles).max(1);
        let edge = if n_panels > 1 {
            Some(self.edge.ok_or_else(|| GpuError::InvalidLaunch {
                reason: "panel staging needs an edge scratch for multi-panel subjects".into(),
            })?)
        } else {
            None
        };
        let mut lanes = LaneState {
            lane_n,
            live,
            regs: WarpRegs::new(),
        };

        // Column panels outer, strips inner. In the §VII staged order the
        // strip boundary lives in shared memory and only the per-strip
        // left-edge registers cross panel seams through global scratch;
        // the baseline order is the one-panel case with the boundary rows
        // in the global planes.
        for p in 0..n_panels {
            let tile0 = p * panel_tiles;
            let tile1 = (tile0 + panel_tiles).min(max_tiles);
            let panel_j0 = tile0 * TILE_COLS;
            if lanes.columns(panel_j0)[0] == 0 {
                break;
            }
            for r in 0..strips {
                let i0 = r * TILE_ROWS;
                lanes.regs.start_strip();
                if let (Some(edge), true) = (edge, p > 0) {
                    self.load_edge(ctx, edge, r, g0, &mut lanes)?;
                }
                for tile in tile0..tile1 {
                    let j0 = tile * TILE_COLS;
                    let cols = lanes.columns(j0);
                    if cols[0] == 0 {
                        break;
                    }
                    let args = TileArgs {
                        g0,
                        r,
                        i0,
                        j0,
                        rows_real: TILE_ROWS.min(m - i0),
                        last_strip: r + 1 == strips,
                        t0,
                        panel_j0,
                        in_shared: self.panel_mode(),
                        cols,
                    };
                    with_avx2(|| self.run_tile(ctx, args, &mut lanes))?;
                }
                if let (Some(edge), true) = (edge, tile1 < max_tiles) {
                    self.store_edge(ctx, edge, r, g0, &mut lanes)?;
                }
            }
        }

        // Write final scores, one word per live lane (coalesced).
        let scores = WarpAccess::run_masked(live, self.group.scores.addr() + g0);
        ctx.global_store(&scores, &lanes.regs.best.map(|b| b as u32))
    }

    /// Restore a strip's left-edge registers from the panel-seam scratch
    /// (17 coalesced loads; lanes finished earlier read stale words that
    /// no active column ever uses).
    fn load_edge(
        &self,
        ctx: &mut BlockCtx<'_>,
        edge: DevicePtr,
        r: usize,
        g0: usize,
        lanes: &mut LaneState,
    ) -> Result<(), GpuError> {
        for k in 0..EDGE_WORDS_PER_STRIP {
            let access = WarpAccess::run_masked(lanes.live, self.edge_addr(edge, r, k, g0));
            *lanes.edge_row(k) = ctx.global_load(&access)?.map(|v| v as i32);
        }
        Ok(())
    }

    /// Save a strip's left-edge registers to the panel-seam scratch
    /// (17 coalesced stores).
    fn store_edge(
        &self,
        ctx: &mut BlockCtx<'_>,
        edge: DevicePtr,
        r: usize,
        g0: usize,
        lanes: &mut LaneState,
    ) -> Result<(), GpuError> {
        for k in 0..EDGE_WORDS_PER_STRIP {
            let access = WarpAccess::run_masked(lanes.live, self.edge_addr(edge, r, k, g0));
            ctx.global_store(&access, &lanes.edge_row(k).map(|v| v as u32))?;
        }
        Ok(())
    }

    /// One 8×4 tile for every active lane of a warp.
    #[inline(always)]
    fn run_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        args: TileArgs,
        lanes: &mut LaneState,
    ) -> Result<(), GpuError> {
        let TileArgs {
            g0,
            r,
            i0,
            j0,
            rows_real,
            last_strip,
            t0,
            panel_j0,
            in_shared,
            cols,
        } = args;
        // Boundary row slots of column `c`, H then F: the shared slab in
        // staged mode (per-thread slots, free of bank conflicts), else the
        // interleaved global planes. Either way a warp's lanes are adjacent.
        let boundary = |c: usize| {
            let (h, f) = if in_shared {
                let pc = j0 + c - panel_j0;
                (self.shared_h_addr(pc, t0), self.shared_f_addr(pc, t0))
            } else {
                (
                    self.boundary_h_addr(j0 + c, g0),
                    self.boundary_f_addr(j0 + c, g0),
                )
            };
            (
                WarpAccess::run_masked(cols[c], h),
                WarpAccess::run_masked(cols[c], f),
            )
        };

        // 1. Database residues: one packed word per lane, fetched through
        // the texture path (CUDASW++ binds the database to texture); the
        // interleaved layout keeps the addresses adjacent.
        let db_access = WarpAccess::run_masked(cols[0], self.group.word_addr(g0, j0 / 4));
        let db_words = ctx.tex_load(self.group.tex, &db_access)?;

        // 2. Boundary H/F from the strip above (or constants for strip 0).
        let mut top_h = [[0u32; WARP_SIZE]; TILE_COLS];
        let mut top_f = [[NEG as u32; WARP_SIZE]; TILE_COLS];
        if r > 0 {
            for c in (0..TILE_COLS).filter(|&c| cols[c] != 0) {
                let (h_acc, f_acc) = boundary(c);
                (top_h[c], top_f[c]) = if in_shared {
                    (ctx.shared_load(&h_acc), ctx.shared_load(&f_acc))
                } else {
                    (ctx.global_load(&h_acc)?, ctx.global_load(&f_acc)?)
                };
            }
        }

        // 3. Column-major DP through the tile.
        let mut bottom_h = [[0u32; WARP_SIZE]; TILE_COLS];
        let mut bottom_f = [[0u32; WARP_SIZE]; TILE_COLS];
        for c in (0..TILE_COLS).filter(|&c| cols[c] != 0) {
            // Texture fetch: up to two packed-profile words cover the 8
            // rows of this column. Every lane forms its addresses (from a
            // zero word, outside the column); the mask picks the fetched.
            let mut tex_lo = [0usize; WARP_SIZE];
            let mut tex_hi = [0usize; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                let d = unpack_residue(db_words[lane], c);
                tex_lo[lane] = self.profile.tex.addr(self.profile.word_index(d, i0 / 4));
                tex_hi[lane] = tex_lo[lane] + 1;
            }
            let w_lo = ctx.tex_load(self.profile.tex, &WarpAccess::gather(cols[c], tex_lo))?;
            let w_hi = if rows_real > 4 {
                ctx.tex_load(self.profile.tex, &WarpAccess::gather(cols[c], tex_hi))?
            } else {
                [0u32; WARP_SIZE]
            };

            let rows = [cols[c]; TILE_ROWS];
            bottom_f[c] = lanes.regs.step(
                self.gaps,
                &rows[..rows_real],
                &[w_lo, w_hi],
                &top_h[c],
                &top_f[c],
            );
            bottom_h[c] = lanes.regs.h_left[TILE_ROWS - 1].map(|h| h as u32);
        }
        let active_cells: u32 = cols.iter().map(|mask| mask.count_ones()).sum();
        ctx.count_cells(u64::from(active_cells) * rows_real as u64);
        ctx.charge(CELL_INSTRUCTIONS * (rows_real * TILE_COLS) as u64);

        // 4. Store the bottom row (H and F) for the next strip.
        if !last_strip {
            for c in (0..TILE_COLS).filter(|&c| cols[c] != 0) {
                let (h_acc, f_acc) = boundary(c);
                if in_shared {
                    ctx.shared_store(&h_acc, &bottom_h[c]);
                    ctx.shared_store(&f_acc, &bottom_f[c]);
                } else {
                    ctx.global_store(&h_acc, &bottom_h[c])?;
                    ctx.global_store(&f_acc, &bottom_f[c])?;
                }
            }
        }
        Ok(())
    }
}

/// One warp's lanes: which own a sequence, how long, and their registers.
struct LaneState {
    /// Sequence length per lane (0 where the lane has no sequence).
    lane_n: [usize; WARP_SIZE],
    /// Lanes that own a sequence.
    live: u32,
    regs: WarpRegs,
}

impl LaneState {
    /// Per tile column `c`, the lanes whose subject still has column
    /// `j0 + c` (a subset of the column before it).
    fn columns(&self, j0: usize) -> [u32; TILE_COLS] {
        let mut cols = [0u32; TILE_COLS];
        for (lane, &n) in self.lane_n.iter().enumerate() {
            for (c, mask) in cols.iter_mut().enumerate() {
                *mask |= u32::from(j0 + c < n) << lane;
            }
        }
        cols
    }

    /// Word `k` of every lane's panel-seam record: the rows of `h_left`,
    /// then of `e_left`, then the diagonal.
    fn edge_row(&mut self, k: usize) -> &mut [i32; WARP_SIZE] {
        if k < TILE_ROWS {
            &mut self.regs.h_left[k]
        } else if k < 2 * TILE_ROWS {
            &mut self.regs.e_left[k - TILE_ROWS]
        } else {
            &mut self.regs.diag
        }
    }
}

/// Static per-tile parameters (kept in a struct to keep call sites sane).
#[derive(Clone, Copy)]
struct TileArgs {
    g0: usize,
    r: usize,
    i0: usize,
    j0: usize,
    rows_real: usize,
    last_strip: bool,
    /// First thread-in-block index of the running warp (shared-slab slot).
    t0: usize,
    /// First column of the current panel (staged mode only).
    panel_j0: usize,
    /// Boundary rows go through the shared slab instead of global planes.
    in_shared: bool,
    /// Active lanes per tile column.
    cols: [u32; TILE_COLS],
}

impl BlockKernel for InterTaskKernel<'_> {
    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            threads_per_block: self.threads_per_block,
            regs_per_thread: 30,
            shared_words: if self.panel_mode() {
                self.shared_words()
            } else {
                0
            },
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
        for w in 0..ctx.warp_count() {
            self.run_warp(ctx, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqstore::{GroupImage, ProfileImage};
    use gpu_sim::{DeviceSpec, GpuDevice};
    use sw_align::smith_waterman::{sw_score, SwParams};
    use sw_align::PackedProfile;
    use sw_db::synth::{database_with_lengths, make_query};

    /// Stage a group + profile, launch the kernel (optionally in §VII
    /// panel-staged mode), return scores.
    fn run_kernel_with_panel(
        dev: &mut GpuDevice,
        query: &[u8],
        group: &[sw_db::Sequence],
        panel_cols: usize,
    ) -> Vec<i32> {
        let params = SwParams::cudasw_default();
        let profile = PackedProfile::build(&params.matrix, query);
        let (pimg, _) = ProfileImage::upload(dev, &profile).unwrap();
        let (gimg, _) = GroupImage::upload(dev, group).unwrap();
        let max_cols = group.iter().map(|s| s.len()).max().unwrap_or(0);
        let boundary = dev
            .alloc(InterTaskKernel::boundary_words(gimg.width, max_cols).max(1))
            .unwrap();
        let edge_words = InterTaskKernel::edge_words(gimg.width, query.len(), panel_cols, max_cols);
        let edge = if edge_words > 0 {
            Some(dev.alloc(edge_words).unwrap())
        } else {
            None
        };
        let kernel = InterTaskKernel {
            group: &gimg,
            profile: &pimg,
            gaps: params.gaps,
            boundary,
            max_cols,
            threads_per_block: 64,
            panel_cols,
            edge,
        };
        let blocks = kernel.grid_blocks();
        dev.launch(&kernel, blocks, "inter_task").unwrap();
        let (raw, _) = dev.copy_from_device(gimg.scores, gimg.width).unwrap();
        raw.into_iter().map(|w| w as i32).collect()
    }

    /// Baseline-path helper.
    fn run_kernel(dev: &mut GpuDevice, query: &[u8], group: &[sw_db::Sequence]) -> Vec<i32> {
        run_kernel_with_panel(dev, query, group, 0)
    }

    #[test]
    fn scores_match_scalar_reference() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let db = database_with_lengths("g", &[5, 17, 33, 64, 100, 9, 41, 3], 11);
        let query = make_query(23, 5); // not a multiple of 8: exercises tails
        let scores = run_kernel(&mut dev, &query, db.sequences());
        let params = SwParams::cudasw_default();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(
                scores[i],
                sw_score(&params, &query, &seq.residues),
                "seq {i} (len {})",
                seq.len()
            );
        }
    }

    #[test]
    fn multi_strip_query() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let db = database_with_lengths("g", &[40, 80, 120], 3);
        let query = make_query(50, 9); // 7 strips; strips > 1 exercises boundary I/O
        let scores = run_kernel(&mut dev, &query, db.sequences());
        let params = SwParams::cudasw_default();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(scores[i], sw_score(&params, &query, &seq.residues));
        }
    }

    #[test]
    fn more_sequences_than_one_block() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let lengths: Vec<usize> = (0..150).map(|i| 10 + (i % 37)).collect();
        let db = database_with_lengths("g", &lengths, 17);
        let query = make_query(16, 2);
        let scores = run_kernel(&mut dev, &query, db.sequences());
        let params = SwParams::cudasw_default();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(scores[i], sw_score(&params, &query, &seq.residues));
        }
    }

    #[test]
    fn db_loads_are_coalesced() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        // 32 equal-length sequences = one full warp, uniform work.
        let db = database_with_lengths("g", &[64; 32], 23);
        let params = SwParams::cudasw_default();
        let query = make_query(8, 3);
        let profile = PackedProfile::build(&params.matrix, &query);
        let (pimg, _) = ProfileImage::upload(&mut dev, &profile).unwrap();
        let (gimg, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
        let boundary = dev
            .alloc(InterTaskKernel::boundary_words(gimg.width, 64))
            .unwrap();
        let kernel = InterTaskKernel {
            group: &gimg,
            profile: &pimg,
            gaps: params.gaps,
            boundary,
            max_cols: 64,
            threads_per_block: 32,
            panel_cols: 0,
            edge: None,
        };
        let stats = dev.launch(&kernel, 1, "inter").unwrap();
        // One strip (query 8 <= 8 rows): no boundary traffic, and database
        // residues go through texture — so there are NO global loads and
        // the only store is the final score word.
        assert_eq!(stats.memory.load_transactions, 0);
        assert_eq!(stats.memory.store_transactions, 1);
        // 16 db-word texture fetches, coalesced into few segments each.
        assert!(stats.memory.tex_instructions > 16);
        assert_eq!(stats.cells(), 32 * 8 * 64);
    }

    #[test]
    fn longest_sequence_dominates_block_time() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        // Block 0: short sequences; block 1: one long straggler.
        let mut lengths = vec![32usize; 63];
        lengths.push(2048);
        let db = database_with_lengths("g", &lengths, 29);
        let params = SwParams::cudasw_default();
        let query = make_query(64, 4);
        let profile = PackedProfile::build(&params.matrix, &query);
        let (pimg, _) = ProfileImage::upload(&mut dev, &profile).unwrap();
        let (gimg, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
        let boundary = dev
            .alloc(InterTaskKernel::boundary_words(gimg.width, 2048))
            .unwrap();
        let kernel = InterTaskKernel {
            group: &gimg,
            profile: &pimg,
            gaps: params.gaps,
            boundary,
            max_cols: 2048,
            threads_per_block: 32,
            panel_cols: 0,
            edge: None,
        };
        let stats = dev.launch(&kernel, 2, "inter").unwrap();
        // The straggler block is far slower than the uniform one.
        assert!(stats.imbalance() > 5.0, "imbalance = {}", stats.imbalance());
    }

    #[test]
    fn panel_helpers() {
        // C2050 (48 KB) at 64 threads: budget 12288 words / 128 per
        // column = 96, capped at 64.
        assert_eq!(InterTaskKernel::panel_cols(64, 48 * 1024), 64);
        // C1060 (16 KB) at 64 threads: 4096 / 128 = 32.
        assert_eq!(InterTaskKernel::panel_cols(64, 16 * 1024), 32);
        // 256 threads on C1060: 4096 / 512 = 8.
        assert_eq!(InterTaskKernel::panel_cols(256, 16 * 1024), 8);
        // Nothing fits: baseline fallback.
        assert_eq!(InterTaskKernel::panel_cols(1024, 1024), 0);
        // Single-panel subjects need no edge scratch.
        assert_eq!(InterTaskKernel::edge_words(32, 64, 64, 60), 0);
        assert_eq!(InterTaskKernel::edge_words(32, 64, 0, 500), 0);
        // Multi-panel: one 17-word record per (strip, thread).
        assert_eq!(
            InterTaskKernel::edge_words(32, 64, 64, 500),
            8 * EDGE_WORDS_PER_STRIP * 32
        );
    }

    #[test]
    fn panel_staging_matches_scalar_reference() {
        // Multi-strip query and lengths straddling several 8-column
        // panels, including tails inside and past panel seams.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let db = database_with_lengths("g", &[5, 17, 33, 64, 100, 9, 41, 3, 8, 80], 13);
        let query = make_query(50, 7);
        let scores = run_kernel_with_panel(&mut dev, &query, db.sequences(), 8);
        let params = SwParams::cudasw_default();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(
                scores[i],
                sw_score(&params, &query, &seq.residues),
                "seq {i} (len {})",
                seq.len()
            );
        }
    }

    #[test]
    fn panel_staging_cuts_boundary_transactions_at_least_4x() {
        // Uniform warp, multi-strip, multi-panel: the staged order must
        // cut global boundary traffic >= 4x (the §VII counted claim).
        let run = |panel: usize| {
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
            let db = database_with_lengths("g", &[256; 32], 23);
            let query = make_query(64, 3);
            let params = SwParams::cudasw_default();
            let profile = PackedProfile::build(&params.matrix, &query);
            let (pimg, _) = ProfileImage::upload(&mut dev, &profile).unwrap();
            let (gimg, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
            let boundary = dev
                .alloc(InterTaskKernel::boundary_words(gimg.width, 256).max(1))
                .unwrap();
            let ew = InterTaskKernel::edge_words(gimg.width, query.len(), panel, 256);
            let edge = (ew > 0).then(|| dev.alloc(ew).unwrap());
            let kernel = InterTaskKernel {
                group: &gimg,
                profile: &pimg,
                gaps: params.gaps,
                boundary,
                max_cols: 256,
                threads_per_block: 32,
                panel_cols: panel,
                edge,
            };
            let stats = dev.launch(&kernel, 1, "inter").unwrap();
            let (raw, _) = dev.copy_from_device(gimg.scores, gimg.width).unwrap();
            let scores: Vec<i32> = raw.into_iter().map(|w| w as i32).collect();
            (stats, scores)
        };
        let (base, base_scores) = run(0);
        let (staged, staged_scores) = run(64);
        assert_eq!(staged_scores, base_scores, "staging must not change scores");
        let base_glob = base.memory.load_transactions + base.memory.store_transactions;
        let staged_glob = staged.memory.load_transactions + staged.memory.store_transactions;
        assert!(
            base_glob as f64 >= 4.0 * staged_glob as f64,
            "boundary traffic must drop >= 4x: {base_glob} vs {staged_glob}"
        );
        // The staged traffic moved into the shared slab, not into thin air.
        assert!(staged.shared.instructions > 0);
        assert_eq!(staged.shared.conflicted_accesses, 0, "per-thread slots");
    }

    #[test]
    fn single_panel_subjects_touch_no_global_intermediates() {
        // §VII shared-memory-only kernel: multi-strip query, subjects
        // within one panel — zero global loads, score store only.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let db = database_with_lengths("g", &[64; 32], 29);
        let params = SwParams::cudasw_default();
        let query = make_query(48, 5); // 6 strips
        let profile = PackedProfile::build(&params.matrix, &query);
        let (pimg, _) = ProfileImage::upload(&mut dev, &profile).unwrap();
        let (gimg, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
        let boundary = dev.alloc(1).unwrap();
        assert_eq!(
            InterTaskKernel::edge_words(gimg.width, query.len(), 64, 64),
            0
        );
        let kernel = InterTaskKernel {
            group: &gimg,
            profile: &pimg,
            gaps: params.gaps,
            boundary,
            max_cols: 64,
            threads_per_block: 32,
            panel_cols: 64,
            edge: None,
        };
        let stats = dev.launch(&kernel, 1, "inter").unwrap();
        assert_eq!(stats.memory.load_transactions, 0);
        assert_eq!(stats.memory.store_transactions, 1);
        let (raw, _) = dev.copy_from_device(gimg.scores, gimg.width).unwrap();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(raw[i] as i32, sw_score(&params, &query, &seq.residues));
        }
    }
}
