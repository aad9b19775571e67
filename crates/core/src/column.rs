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

/// Runs `body` — one call to an `#[inline(always)]` function — in a copy
/// compiled for AVX2 on a host that reports it, so that its 32-lane loops
/// take 8 lanes (4 addresses) an instruction; any other host runs the same
/// body compiled for the baseline. Not for [`WarpRegs::step`], whose
/// references must arrive as parameters for it to vectorize at all.
#[inline(always)]
pub(crate) fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        unsafe fn enabled<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2, all `enabled` asks for.
            return unsafe { enabled(body) };
        }
    }
    body()
}

/// All-ones for the lanes in `mask`, zero for the others.
#[inline(always)]
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
    /// One body, compiled here for the baseline and in
    /// [`WarpRegs::step_avx2`] for a host that reports AVX2; integer
    /// arithmetic, so the two cannot differ. Kept out of line on purpose:
    /// inlined into a kernel's frame the lane loops lose the no-alias facts
    /// of these parameters and stay scalar (measured on the inter-task
    /// kernel: 5,300 against 870 cycles a column).
    #[inline(never)]
    pub fn step(
        &mut self,
        gaps: GapPenalties,
        rows: &[u32],
        scores: &[[u32; WARP_SIZE]; MAX_ROWS / 4],
        top_h: &[u32; WARP_SIZE],
        top_f: &[u32; WARP_SIZE],
    ) -> [u32; WARP_SIZE] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2, all `step_avx2` asks for.
            return unsafe { self.step_avx2(gaps, rows, scores, top_h, top_f) };
        }
        self.step_body(gaps, rows, scores, top_h, top_f)
    }

    /// [`WarpRegs::step`] with eight lanes and one `max` an instruction.
    ///
    /// # Safety
    /// The executing CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2(
        &mut self,
        gaps: GapPenalties,
        rows: &[u32],
        scores: &[[u32; WARP_SIZE]; MAX_ROWS / 4],
        top_h: &[u32; WARP_SIZE],
        top_f: &[u32; WARP_SIZE],
    ) -> [u32; WARP_SIZE] {
        self.step_body(gaps, rows, scores, top_h, top_f)
    }

    #[inline(always)]
    fn step_body(
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Whether every register of two warps is equal.
    fn same(a: &WarpRegs, b: &WarpRegs) -> bool {
        a.h_left == b.h_left && a.e_left == b.e_left && a.diag == b.diag && a.best == b.best
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn both_instantiations_of_step_agree() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: no AVX2 on this host, `step` has one instantiation here");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x57E9);
        let mut pick = |n: usize| rng.gen_range(0..n);
        let (mut base, mut wide) = (WarpRegs::new(), WarpRegs::new());
        for col in 0..4_000 {
            let gaps = GapPenalties {
                open: 4 + pick(16) as i32,
                extend: pick(4) as i32,
            };
            // 1..=8 rows; the first mask has holes, each later row owns a
            // subset of the row above (often all of it).
            let mut rows = [0u32; MAX_ROWS];
            let mut mask = (pick(1 << 32) | pick(1 << 32)) as u32;
            for row in &mut rows {
                *row = mask;
                mask &= [u32::MAX, u32::MAX, pick(1 << 32) as u32, 0][pick(4)];
            }
            let rows = &rows[..1 + pick(MAX_ROWS)];
            // Score bytes over the whole `i8` range, ±127 and -128 forced in.
            let mut scores = [[0u32; WARP_SIZE]; MAX_ROWS / 4];
            for word in scores.iter_mut().flatten() {
                *word = pick(1 << 32) as u32 | [0, 0x7f, 0x8100, 0x80_0000][pick(4)];
            }
            // The row above: real scores, zeros, or the `NEG` of a table edge.
            let mut top_h = [0u32; WARP_SIZE];
            let mut top_f = [NEG as u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                top_h[lane] = [0, pick(1 << 20) as u32, NEG as u32][pick(3)];
                if pick(2) == 0 {
                    top_f[lane] = (pick(1 << 20) as i32 - (1 << 19)) as u32;
                }
            }
            if col % 257 == 0 {
                base.start_strip();
                wide.start_strip();
            }
            let f_base = base.step_body(gaps, rows, &scores, &top_h, &top_f);
            // SAFETY: AVX2 was detected above.
            let f_wide = unsafe { wide.step_avx2(gaps, rows, &scores, &top_h, &top_f) };
            assert!(f_base == f_wide && same(&base, &wide), "column {col}");
        }
        assert!(
            base.best.iter().any(|&b| b > 0),
            "the columns scored nothing"
        );
    }
}
