//! The register tile of the two tiled kernels, one warp at a time.
//!
//! The inter-task kernel (8×4 tiles) and the improved intra-task kernel
//! (4×1 or 8×1 tiles) both keep a thread's horizontal dependencies — `H`
//! and `E` of the previous column for each of its rows — in registers and
//! advance one column of cells at a time (equation (1) of the paper).
//! [`WarpRegs`] holds those registers for a warp's 32 threads lane-minor,
//! so one row of one column is a handful of 32-wide operations the
//! compiler vectorizes, with no branch on any score.

use gpu_sim::WARP_SIZE;
use sw_align::GapPenalties;

pub(crate) const NEG: i32 = i32::MIN / 2;

/// Most rows a thread's register tile holds.
pub(crate) const MAX_ROWS: usize = 8;

/// The registers of a warp's threads.
pub(crate) struct WarpRegs {
    /// `H(i, j-1)` per tile row and lane.
    pub h_left: [[i32; WARP_SIZE]; MAX_ROWS],
    /// `E(i, j-1)` per tile row and lane.
    pub e_left: [[i32; WARP_SIZE]; MAX_ROWS],
    /// `H(i0-1, j-1)`: the cell diagonally above the tile's first row.
    pub diag: [i32; WARP_SIZE],
    /// Best score each lane has seen.
    pub best: [i32; WARP_SIZE],
}

/// All-ones for the lanes in `mask`, zero for the others.
#[inline]
fn lane_select(mask: u32) -> [i32; WARP_SIZE] {
    std::array::from_fn(|lane| -i32::from(mask & (1 << lane) != 0))
}

impl WarpRegs {
    /// Registers at the left edge of the first strip.
    pub fn new() -> Self {
        Self {
            h_left: [[0; WARP_SIZE]; MAX_ROWS],
            e_left: [[NEG; WARP_SIZE]; MAX_ROWS],
            diag: [0; WARP_SIZE],
            best: [0; WARP_SIZE],
        }
    }

    /// Back to the left edge of the table for the next strip (the best
    /// scores carry over).
    pub fn start_strip(&mut self) {
        *self = Self {
            best: self.best,
            ..Self::new()
        };
    }

    /// Advance one column. `rows[k]` are the lanes that own tile row `k`
    /// (each a subset of the row above it; `rows[0]` are the lanes in the
    /// column at all), `scores[q][lane]` the packed profile word for rows
    /// `4q .. 4q+4`, `top_h`/`top_f` the cells above the tile. Lanes outside
    /// a row's mask keep every register. Returns `F` below each lane's
    /// last row.
    ///
    /// Kept out of line on purpose: inlined into a kernel's frame the lane
    /// loops lose the no-alias facts of these parameters and stay scalar
    /// (measured on the inter-task kernel: 5,300 against 870 cycles a column).
    #[inline(never)]
    pub fn step(
        &mut self,
        gaps: GapPenalties,
        rows: &[u32],
        scores: &[[u32; WARP_SIZE]; MAX_ROWS / 4],
        top_h: &[u32; WARP_SIZE],
        top_f: &[u32; WARP_SIZE],
    ) -> [u32; WARP_SIZE] {
        let (open, extend) = (gaps.open, gaps.extend);
        // F and H of the row above, starting from the cells above the tile.
        let mut f = top_f.map(|f| f as i32);
        let mut h = top_h.map(|h| h as i32);
        let mut diag_k = self.diag;
        for (k, &mask) in rows.iter().enumerate() {
            let keep = lane_select(mask);
            let (h_left, e_left) = (&mut self.h_left[k], &mut self.e_left[k]);
            let words = &scores[k / 4];
            let shift = 8 * (k % 4);
            for l in 0..WARP_SIZE {
                let w = i32::from((words[l] >> shift) as u8 as i8);
                let e = (e_left[l] - extend).max(h_left[l] - open);
                let f_k = (f[l] - extend).max(h[l] - open);
                let h_k = (diag_k[l] + w).max(e).max(f_k).max(0);
                diag_k[l] = h_left[l];
                h[l] = h_k;
                f[l] = (f_k & keep[l]) | (f[l] & !keep[l]);
                h_left[l] = (h_k & keep[l]) | (h_left[l] & !keep[l]);
                e_left[l] = (e & keep[l]) | (e_left[l] & !keep[l]);
                self.best[l] = self.best[l].max(h_k & keep[l]);
            }
        }
        // The diagonal for the next column is H(i0-1, col).
        let keep = lane_select(rows.first().copied().unwrap_or(0));
        for l in 0..WARP_SIZE {
            self.diag[l] = (top_h[l] as i32 & keep[l]) | (self.diag[l] & !keep[l]);
        }
        f.map(|f| f as u32)
    }
}
