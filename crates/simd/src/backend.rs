//! The host-backend abstraction: lane-width-agnostic kernels.
//!
//! [`ByteSimd`] and [`WordSimd`] describe the handful of SSE2-style vector
//! operations the Smith-Waterman recurrence needs (saturating add/sub, max,
//! lane shift, any-greater, horizontal max); every backend (AVX2, SSE2 and
//! the portable emulated vectors) instantiates the same generic kernels
//! with its own vector types.
//!
//! **One body per kernel shape.** Each of three shapes is written once for
//! both precisions, which differ only in the few operations its macro
//! arguments name (byte levels against signed words):
//!
//! * the profile striping (`stripe`): lane `k` of segment `j` holds query
//!   position `j + k·seg_len`, and each query code has a score table for
//!   the grouped passes;
//! * Farrar's striped column loop with its bounded Lazy-F repair
//!   (`striped_columns!`), run by [`sw_bytes_checked`] and
//!   [`sw_words_checked`]: nine vector operations a stripe (`add_score` is
//!   one `vpaddsb` on AVX2 and Farrar's biased pair elsewhere), then per
//!   column either the correction loop with its SWAT-style early exit, when
//!   no lane's F outlives a chunk, or a Kogge-Stone max-scan à la Snytsar
//!   (arXiv:1909.00899) and one repair pass; the first `min(PEEL,
//!   seg_len)` repair steps run untested (DESIGN.md §14);
//! * the grouped sweep (`grouped_sweep!`), one subject a lane (CUDASW++'s
//!   inter-task layout) and no Lazy-F, run by [`sw_bytes_grouped`] and
//!   [`sw_words_grouped`].
//!
//! The bodies are macros rather than generic functions over a closure: a
//! closure handed into an AVX2 `#[target_feature]` context is not reliably
//! inlined (see `x86.rs`), and each backend must compile to the same inner
//! loops as before.
//!
//! **Byte→word hand-off.** The byte passes stop as soon as the running
//! maximum *could* saturate during the next column's add — one column
//! before anything does, at the same column on every backend and in both
//! layouts — so H, E and the maximum are still exact. They return them in
//! query order as a [`Handoff`], and the word passes continue from the next
//! column instead of column 0.
//!
//! **Bit-identical scores by construction.** The lane count changes only
//! the striped *layout* (`seg_len = ceil(m / LANES)`), never the arithmetic
//! a cell sees: the repaired recurrence is exact, the overflow check reads
//! the layout-independent running maximum, word mode saturates at
//! `i16::MAX` everywhere, and both repair routes reach one fixpoint because
//! saturating subtraction chains compose (`x ⊖ a ⊖ b = x ⊖ (a + b)`).
//! `tests/handoff_differential.rs` and `tests/peel_differential.rs` pin
//! these invariants; `tests/op_budget.rs` counts the operations.
//!
//! The striped kernels count the vector operations spent repairing F —
//! scan rounds and repair steps, the untested prefix included — per
//! precision. The count is work executed, not time: the prefix raised it on
//! random subjects (3.7 → 6.4 per thousand cells over the paper's query
//! lengths) while the wall clock fell.

use crate::cancel::{CancelToken, CANCEL_CHECK_COLS};
use std::any::Any;
use std::cell::RefCell;
use std::thread::LocalKey;
use sw_align::smith_waterman::SwParams;
use sw_align::GapPenalties;

/// A per-column cancellation probe the generic kernels poll every
/// [`CANCEL_CHECK_COLS`] database columns.
///
/// Two implementations exist: [`NeverCancel`], a compile-time constant
/// `false` that lets the optimizer delete the check entirely (an
/// uncancellable `score_with` pays nothing for cancellation existing), and
/// [`CancelToken`], whose poll is one relaxed atomic load per checkpoint.
pub trait ColumnCheck {
    /// True when the kernel should abandon this alignment.
    fn cancelled(&self) -> bool;
}

/// The infallible check: never cancels, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverCancel;

impl ColumnCheck for NeverCancel {
    #[inline(always)]
    fn cancelled(&self) -> bool {
        false
    }
}

impl ColumnCheck for CancelToken {
    #[inline(always)]
    fn cancelled(&self) -> bool {
        self.poll()
    }
}

/// Vector of 8-bit lanes, each holding a score *level* `0..=255` in an
/// encoding its implementor owns.
///
/// The byte kernel never reads a lane's bits. It builds level vectors with
/// [`level`](Self::level), adds profile bytes written by
/// [`encode_score`](Self::encode_score) through
/// [`add_score`](Self::add_score), subtracts gap penalties as amounts, and
/// reads levels back through `store` + [`decode`](Self::decode) or
/// [`horizontal_max`](Self::horizontal_max). Every provided method is
/// Farrar's biased unsigned byte (the level *is* the byte, `paddusb` then
/// `psubusb bias`), so an implementor of the required methods alone behaves
/// lane-wise exactly like `u8::saturating_*`; one that overrides them (AVX2,
/// offset-binary signed bytes) must leave every level-valued result the
/// same — `tests/vector_contract.rs` holds each implementor to that over
/// all 256 × 256 operand pairs, and cross-backend score identity rests on
/// it.
pub trait ByteSimd: Copy + Send + Sync + 'static {
    /// Number of 8-bit lanes.
    const LANES: usize;

    /// Largest amount one [`sat_sub`](Self::sat_sub) operand can carry; the
    /// byte kernel declines gap penalties above it to the word kernel.
    const SUB_LIMIT: u8 = 255;

    /// All lanes equal to the raw byte `v`: the amount operand of
    /// [`sat_sub`](Self::sat_sub), never a level.
    fn splat(v: u8) -> Self;

    /// All lanes at level `v`.
    #[inline(always)]
    fn level(v: u8) -> Self {
        Self::splat(v)
    }

    /// All lanes at level 0.
    #[inline(always)]
    fn zero() -> Self {
        Self::level(0)
    }

    /// Load `Self::LANES` raw bytes from `lanes` (lane 0 first).
    fn load(lanes: &[u8]) -> Self;

    /// Store `Self::LANES` raw bytes into `out` (lane 0 first);
    /// [`decode`](Self::decode) turns one into its level.
    fn store(self, out: &mut [u8]);

    /// The level a stored lane holds.
    #[inline(always)]
    fn decode(lane: u8) -> u8 {
        lane
    }

    /// The profile byte for substitution score `score` under `bias =
    /// −pad_score`: the operand [`add_score`](Self::add_score) adds.
    /// Encodable scores are `−bias ..= 127` (matrix scores are `i8`).
    #[inline(always)]
    fn encode_score(score: i32, bias: u8) -> u8 {
        (score + bias as i32) as u8
    }

    /// The primitive saturating addition (`paddusb`) the provided
    /// [`add_score`](Self::add_score) is built from.
    fn sat_add(self, rhs: Self) -> Self;

    /// Levels plus profile scores, floored at level 0: lane-wise
    /// `max(level + score, 0)`, exact while `level + score + bias ≤ 255` —
    /// the headroom [`ByteProfileOf::overflow_at`] keeps. `bias` is
    /// `splat(bias)`.
    #[inline(always)]
    fn add_score(self, scores: Self, bias: Self) -> Self {
        self.sat_add(scores).sat_sub(bias)
    }

    /// Levels minus `amount = splat(n)` with `n ≤ SUB_LIMIT`, floored at
    /// level 0 (`psubusb`).
    fn sat_sub(self, amount: Self) -> Self;

    /// Levels minus any `n` in `0..=255`, floored at level 0 (the Lazy-F
    /// scan's clamped decays exceed [`SUB_LIMIT`](Self::SUB_LIMIT)).
    #[inline(always)]
    fn sub_amount(self, n: u8) -> Self {
        self.sat_sub(Self::splat(n))
    }

    /// Lane-wise maximum of levels (`pmaxub`).
    fn max(self, rhs: Self) -> Self;

    /// True when any lane of `self` holds a strictly higher level than the
    /// same lane of `rhs`.
    fn any_gt(self, rhs: Self) -> bool;

    /// Shift lanes towards higher indices by one, inserting level 0 at
    /// lane 0 (`pslldq` by 1 byte).
    fn shift(self) -> Self;

    /// Shift lanes towards higher indices by `n`, filling the bottom `n`
    /// lanes with level 0. Used by the Lazy-F scan with power-of-two `n`;
    /// backends override the default (repeated [`shift`](Self::shift))
    /// with constant-shift instructions.
    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        let mut v = self;
        for _ in 0..n.min(Self::LANES) {
            v = v.shift();
        }
        v
    }

    /// Highest level over all lanes.
    fn horizontal_max(self) -> u8;

    /// Lane `k` becomes `table[i]`, `i` (below 32) being `self`'s raw lane `k`.
    #[inline(always)]
    fn lookup(self, table: &[u8; 32]) -> Self {
        let mut lanes = [0u8; 32];
        self.store(&mut lanes);
        for x in &mut lanes[..Self::LANES] {
            *x = table[*x as usize % 32];
        }
        Self::load(&lanes)
    }
}

/// Vector of signed 16-bit lanes with SSE2 `paddsw`-style semantics.
pub trait WordSimd: Copy + Send + Sync + 'static {
    /// Number of `i16` lanes.
    const LANES: usize;

    /// All lanes equal to `v`.
    fn splat(v: i16) -> Self;

    /// All-zero vector.
    fn zero() -> Self {
        Self::splat(0)
    }

    /// Load `Self::LANES` lanes from `lanes` (lane 0 first).
    fn load(lanes: &[i16]) -> Self;

    /// Store `Self::LANES` lanes into `out` (lane 0 first).
    fn store(self, out: &mut [i16]);

    /// Lane-wise signed saturating addition (`paddsw`).
    fn sat_add(self, rhs: Self) -> Self;

    /// Lane-wise signed saturating subtraction (`psubsw`).
    fn sat_sub(self, rhs: Self) -> Self;

    /// Lane-wise `max(self − rhs, 0)` where both lie in `0..=i16::MAX`
    /// (`psubusw`, which the provided signed pair stands in for). The
    /// portable vectors keep the pair: a `u16` lane loop there defeated the
    /// vectoriser, and their grouped word pass ran 1.5× slower than striped.
    #[inline(always)]
    fn sub_floor(self, rhs: Self) -> Self {
        self.sat_sub(rhs).max(Self::zero())
    }

    /// Lane-wise maximum (`pmaxsw`).
    fn max(self, rhs: Self) -> Self;

    /// True when any lane of `self` is strictly greater than `rhs`.
    fn any_gt(self, rhs: Self) -> bool;

    /// Shift lanes towards higher indices by one, inserting zero at lane 0
    /// (`pslldq` by 2 bytes).
    fn shift(self) -> Self;

    /// Shift lanes towards higher indices by `n`, zero-filling the bottom
    /// `n` lanes. See [`ByteSimd::shift_lanes`].
    #[inline(always)]
    fn shift_lanes(self, n: usize) -> Self {
        let mut v = self;
        for _ in 0..n.min(Self::LANES) {
            v = v.shift();
        }
        v
    }

    /// Maximum over all lanes.
    fn horizontal_max(self) -> i16;

    /// Lane `k` becomes `table[codes[k]]` (every code below 32), widened.
    #[inline(always)]
    fn lookup(codes: &[u8; 32], table: &[i8; 32]) -> Self {
        let lanes: [i16; 32] = std::array::from_fn(|k| table[codes[k] as usize % 32].into());
        Self::load(&lanes)
    }
}

/// One host compute backend: a byte-mode and a word-mode vector type plus
/// a runtime availability probe.
pub trait Backend {
    /// 8-bit vector used by the 2×-lane byte-mode kernel.
    type Byte: ByteSimd;
    /// 16-bit vector used by the exact word-mode kernel.
    type Word: WordSimd;
    /// Stable lowercase name (matches [`crate::BackendKind::name`]).
    const NAME: &'static str;
    /// Whether the pool's adaptive searches take the grouped passes
    /// ([`sw_bytes_grouped`], [`sw_words_grouped`]). SSE2 keeps the striped
    /// ones: with no byte shuffle its lookups are scalar, its grouped byte
    /// pass read 0.86–1.10× the striped one (EXPERIMENTS.md, "Engine
    /// constants"), and Figure 7's SWPS3 series is the striped engine on
    /// SSE2, so grouping there would change what that figure measures.
    const GROUPS: bool = true;
    /// True when this host can execute the backend's instructions.
    fn available() -> bool;
}

/// Striped byte profile for vector type `V`: scores in `V`'s profile
/// encoding, `V::LANES` query positions per segment vector (and per-code tables).
#[derive(Debug, Clone)]
pub struct ByteProfileOf<V: ByteSimd> {
    seg_len: usize,
    bias: u8,
    /// Scores at or above this saturate within one more column.
    overflow_at: u8,
    vectors: Vec<V>,
    query: Vec<u8>,
    /// `tables[a][b]`: query code `a` against subject code `b` (`−bias` past the alphabet).
    tables: Vec<[u8; 32]>,
}

impl<V: ByteSimd> ByteProfileOf<V> {
    /// Build the byte profile of `query` under `params`. Padding lanes carry
    /// the pad score `−bias` (biased: the byte 0), so they sink towards zero.
    pub fn build(params: &SwParams, query: &[u8]) -> Self {
        let bias = (-params.matrix.pad_score()) as u8;
        let encode = |score| V::encode_score(score, bias);
        let (seg_len, vectors, tables) = stripe(params, query, V::LANES, encode, V::load);
        let overflow_at = 255u8
            .saturating_sub(bias)
            .saturating_sub(params.matrix.max_score().clamp(0, 255) as u8);
        Self {
            seg_len,
            bias,
            overflow_at,
            vectors,
            query: query.to_vec(),
            tables,
        }
    }

    /// Profile vector for residue `a`, segment `j`.
    #[inline(always)]
    pub fn get(&self, a: u8, j: usize) -> V {
        self.vectors[a as usize * self.seg_len + j]
    }

    /// Segments per residue row.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// The bias added to every score.
    pub fn bias(&self) -> u8 {
        self.bias
    }

    /// The overflow-detection threshold on the running maximum.
    pub fn overflow_at(&self) -> u8 {
        self.overflow_at
    }
}

/// Striped word profile for vector type `V` (and per-code tables).
#[derive(Debug, Clone)]
pub struct WordProfileOf<V: WordSimd> {
    seg_len: usize,
    vectors: Vec<V>,
    query: Vec<u8>,
    /// `tables[a][b]`: query code `a` against subject code `b` (the pad
    /// score past the alphabet).
    tables: Vec<[i8; 32]>,
}

impl<V: WordSimd> WordProfileOf<V> {
    /// Build the striped word profile of `query` under `params`.
    pub fn build(params: &SwParams, query: &[u8]) -> Self {
        let (seg_len, vectors, tables) = stripe(params, query, V::LANES, |s| s as i8, V::load);
        Self {
            seg_len,
            vectors,
            query: query.to_vec(),
            tables,
        }
    }

    /// Profile vector for residue `a`, segment `j`.
    #[inline(always)]
    pub fn get(&self, a: u8, j: usize) -> V {
        self.vectors[a as usize * self.seg_len + j]
    }

    /// Segments per residue row.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Number of alphabet codes covered.
    pub fn alphabet_size(&self) -> usize {
        self.tables.len()
    }
}

/// The striped layout both profiles share, for vectors of `lanes` (at most
/// 32) lanes: `tables[a][b]`, query code `a` against subject code `b` in
/// the profile's encoding (`encode`); and per subject code and segment `j`
/// one vector whose lane `k` holds `query[j + k·seg_len]`'s entry. Past
/// the alphabet and past the query's end lies the pad score
/// [`ScoringMatrix::pad_score`](sw_align::ScoringMatrix::pad_score), which
/// can never win a running maximum. The lanes are a stack array: a heap
/// buffer built the profiles 12–15% slower.
fn stripe<V, T: Copy, L: Copy + Default + From<T>>(
    params: &SwParams,
    query: &[u8],
    lanes: usize,
    encode: impl Fn(i32) -> T,
    load: impl Fn(&[L]) -> V,
) -> (usize, Vec<V>, Vec<[T; 32]>) {
    let seg_len = query.len().div_ceil(lanes).max(1);
    let size = params.matrix.size();
    debug_assert!(size <= PAD_CODE as usize);
    let pad = encode(params.matrix.pad_score());
    let score = |b: usize, a| (b < size).then(|| encode(params.matrix.score(b as u8, a)));
    let tables: Vec<[T; 32]> = (0..size as u8)
        .map(|a| std::array::from_fn(|b| score(b, a).unwrap_or(pad)))
        .collect();
    let mut vectors = Vec::with_capacity(size * seg_len);
    let mut lane = [L::default(); 32];
    for b in 0..size as u8 {
        let row = params.matrix.row(b);
        for j in 0..seg_len {
            for (k, slot) in lane[..lanes].iter_mut().enumerate() {
                let code = query.get(j + k * seg_len);
                *slot = code.map_or(pad, |&a| encode(row[a as usize].into())).into();
            }
            vectors.push(load(&lane));
        }
    }
    (seg_len, vectors, tables)
}

/// Exact byte-mode state at the column where byte mode gave up, in query
/// order so a kernel of any lane count can resume from it.
///
/// The byte kernel's overflow check fires while `H + score + bias` still
/// fits eight bits for every cell of the column just finished, so nothing
/// has saturated and H, E and the maximum are the true values. Two things
/// differ from a word-mode run and neither can change a score: byte E is
/// floored at zero, but an E at or below zero is inert under
/// `H = max(…, 0)` and only decays further; and the word layout's padding
/// rows beyond the query end start at zero, but they come last in query
/// order, so they never feed a real row and never exceed the running
/// maximum. Both byte passes hand over exactly the query's rows, so a
/// subject's word pass is the same run whichever pass gave up. The
/// default value is the zero state every alignment starts from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Handoff {
    /// Database columns already processed.
    pub cols: usize,
    /// H of the last processed column by query position; positions past
    /// the end read as zero.
    pub h: Vec<i16>,
    /// E entering the next column by query position, floored at zero.
    pub e: Vec<i16>,
    /// Running maximum over the processed columns.
    pub max: i16,
}

impl Handoff {
    /// De-stripe the byte kernel's state after `cols` columns
    /// (`pos = j + k·seg_len`) for an `m`-residue query. Kept out of line,
    /// and handed the reduced maximum: a vector register live across these
    /// allocations would be spilled for the whole column loop.
    #[cold]
    #[inline(never)]
    fn at<V: ByteSimd>(cols: usize, m: usize, h: &[V], e: &[V], max: u8) -> Self {
        let seg_len = h.len();
        let mut lanes = vec![0u8; V::LANES];
        let mut destripe = |segments: &[V]| {
            let mut out = vec![0i16; seg_len * V::LANES];
            for (j, v) in segments.iter().enumerate() {
                v.store(&mut lanes);
                for (k, &x) in lanes.iter().enumerate() {
                    out[j + k * seg_len] = V::decode(x) as i16;
                }
            }
            out.truncate(m);
            out
        };
        Self {
            cols,
            h: destripe(h),
            e: destripe(e),
            max: max as i16,
        }
    }
}

/// Stripe query-order values into the segment vectors of `out`; positions
/// past the end of `values` are zero.
fn restripe<V: WordSimd>(values: &[i16], out: &mut [V]) {
    let seg_len = out.len();
    let mut lanes = vec![0i16; V::LANES];
    for (j, v) in out.iter_mut().enumerate() {
        for (k, slot) in lanes.iter_mut().enumerate() {
            *slot = values.get(j + k * seg_len).copied().unwrap_or(0);
        }
        *v = V::load(&lanes);
    }
}

/// One Lazy-F repair step at segment `j` for either vector trait: four
/// vector operations. Evaluates to the repaired `H ⊖ open`, which the
/// early-exit test compares the decayed F against. A raised H also raises
/// the next column's E, which the main loop derived from the unrepaired H.
macro_rules! repair_step {
    ($hs:ident, $e:ident, $j:ident, $v_f:ident, $v_open:ident, $v_extend:ident) => {{
        let h = $hs[$j].max($v_f);
        $hs[$j] = h;
        // The running maximum is not updated: a carried F is some H of this
        // column — one the main loop folded into the maximum, or inductively
        // a repaired one — minus `open + k·extend ≥ 0`, on either Lazy-F
        // route (the scan only shifts, decays and maximises such values).
        // So `h` never exceeds the maximum's highest lane, and only that
        // lane is ever read (`any_gt(v_limit)`, `horizontal_max`).
        let opened = h.sat_sub($v_open);
        $e[$j] = $e[$j].max(opened);
        $v_f = $v_f.sat_sub($v_extend);
        opened
    }};
}

/// Repair steps every column runs before its first early-exit test
/// (fewer when the stripe is shorter). Of 1, 2, 3, 4, 6 and 8, 4 gave the
/// best rate, or one within 3% of it, at each paper query length on AVX2,
/// SSE2 and the portable vectors alike, so it is one constant and not one
/// per lane count (EXPERIMENTS.md, "Engine constants").
const PEEL: usize = 4;

/// Lane distances of the Kogge-Stone rounds; covers vectors of up to 32
/// lanes (asserted at compile time in the kernels).
const SCAN_STEPS: [usize; 5] = [1, 2, 4, 8, 16];

/// The column loop of both striped kernels, over the `(column, code)` pairs
/// `$cols` and the H-store, H-load and E thirds of `$state`: per column the
/// cancel poll every [`CANCEL_CHECK_COLS`] columns (`return None`), the H
/// wrap and the swap of the H thirds, the precision's own pass down the
/// stripes (`$main`), the Lazy-F repair (its operations added to
/// `$lazy_f`), then `$after`. `$main` gets the profile row `$row`, H to
/// store `$hs`, H to load `$hl` and E `$e`, each exactly `seg_len` vectors
/// so that its loop has no bounds checks, the wrapped H `$v_h` and a zero
/// F `$v_f`, and leaves in lane k of `$v_f` the F leaving chunk k assuming
/// zero F entered it. The precisions differ in their levels alone:
/// `$level(n)` is level `n`, and `$decay` is `$f` less the amount `$n`.
macro_rules! striped_columns {
    (
        $V:ty, $profile:ident, $cols:expr, $state:ident, $check:ident, $force_scan:ident,
        $lazy_f:ident, [$open:ident, $extend:ident, $v_open:ident, $v_extend:ident],
        $top:expr, $level:path, |$f:ident, $n:ident| $decay:expr,
        |$col:ident, $row:ident, $hs:ident, $hl:ident, $e:ident, $v_h:ident, $v_f:ident| $main:block
        $after:block
    ) => {{
        const { assert!(<$V>::LANES <= 2 * SCAN_STEPS[4]) };
        let seg_len = $profile.seg_len;
        // One chunk's decay: `seg_len` extensions. Decays are clamped at
        // `$top`, the largest level, which loses nothing: subtraction
        // composes (x ⊖ a ⊖ b = x ⊖ (a + b)), so any F less `$top` is 0
        // either way, and an F at 0 is inert (H ≥ 0 wins the max and E
        // never reads F).
        let chunk_decay = seg_len as u64 * $extend as u64;
        let v_chunk = $level(chunk_decay.min($top) as _);
        // The repair's early exit is sound only for strictly affine gaps:
        // with open == extend, a lazily-raised H generates an F chain
        // exactly equal to the exit threshold, which the cutoff would drop.
        // Those gap models always scan, and their one repair pass runs to
        // the end. Judged on the clamped pair, which is what the kernels
        // subtract.
        let early_exit = $open > $extend;
        let scan_always = $force_scan || !early_exit;
        let peel = PEEL.min(seg_len);
        let (h_both, e) = $state.split_at_mut(2 * seg_len);
        let (mut h_store, mut h_load) = h_both.split_at_mut(seg_len);
        for ($col, &d) in $cols {
            if $col % CANCEL_CHECK_COLS == 0 && $check.cancelled() {
                return None;
            }
            let mut $v_f = <$V>::zero();
            let mut $v_h = h_store[seg_len - 1].shift();
            std::mem::swap(&mut h_store, &mut h_load);
            let $row = &$profile.vectors[d as usize * seg_len..][..seg_len];
            let ($hs, $hl) = (&mut h_store[..seg_len], &h_load[..seg_len]);
            let $e = &mut e[..seg_len];
            $main
            // Lazy-F: when one lane's F outlives a whole chunk, scan: after
            // the Kogge-Stone rounds lane k holds max_{i<=k}(f_i −
            // (k−i)·chunk_decay), the exact F leaving chunk k, and one pass
            // applies it (F − open ≤ F − extend, so the scan needs no opening
            // term). Otherwise the correction loop's early exit ends it
            // within a chunk.
            let mut passes = <$V>::LANES;
            if scan_always || $v_f.any_gt(v_chunk) {
                // A literal step list, not `while step < LANES`: it must
                // unroll so every `shift_lanes` sees a constant (the portable
                // vectors otherwise fall back to a variable-length copy
                // through memory).
                for step in SCAN_STEPS {
                    if step < <$V>::LANES {
                        let $f = $v_f.shift_lanes(step);
                        let $n = (step as u64 * chunk_decay).min($top);
                        $v_f = $v_f.max($decay);
                        $lazy_f += 1;
                    }
                }
                passes = 1;
            }
            // shift() hands lane k+1 its incoming F; lane 0 gets zero.
            $v_f = $v_f.shift();
            // The first `peel` steps run untested (see `PEEL`); after them a
            // step runs only if the one before left an F that can raise an H.
            let mut opened = <$V>::zero();
            for j in 0..peel {
                opened = repair_step!($hs, $e, j, $v_f, $v_open, $v_extend);
            }
            let mut j = peel;
            $lazy_f += peel as u64;
            while !early_exit || $v_f.any_gt(opened) {
                if j == seg_len {
                    passes -= 1;
                    if passes == 0 {
                        break;
                    }
                    $v_f = $v_f.shift();
                    j = 0;
                }
                opened = repair_step!($hs, $e, j, $v_f, $v_open, $v_extend);
                j += 1;
                $lazy_f += 1;
            }
            $after
        }
    }};
}

/// Outcome of one byte-mode alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteKernelResult {
    /// The exact score, or — once the running maximum could saturate the
    /// 8-bit range — the state the word kernel resumes from.
    pub score: Result<i32, Handoff>,
    /// Lazy-F repair vector operations executed, scan rounds and the
    /// untested prefix included: per column at least `min(PEEL, seg_len)`
    /// and at most `seg_len + log2(LANES) + open/extend + 1`.
    pub lazy_f: u64,
}

/// Outcome of one word-mode alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordKernelResult {
    /// Optimal local score (saturates at `i16::MAX`).
    pub score: i32,
    /// Lazy-F repair vector operations executed; same per-column bounds
    /// as [`ByteKernelResult::lazy_f`].
    pub lazy_f: u64,
}

/// Byte-mode striped Smith-Waterman with a cancellation probe polled every
/// [`CANCEL_CHECK_COLS`] columns; `None` means the alignment was abandoned
/// mid-flight and produced no score.
///
/// [`ByteSimd::add_score`] keeps levels non-negative; the result is a
/// [`Handoff`] as soon as the running maximum could saturate during the
/// next column's biased add, or before the first column when the profile
/// leaves no headroom or a gap penalty exceeds [`ByteSimd::SUB_LIMIT`].
/// `force_scan` takes the scan route of the Lazy-F repair on every column
/// (see the module docs).
///
/// `#[inline(always)]` so backend-specific `#[target_feature]` wrappers can
/// inline the whole kernel (and, transitively, the intrinsics) into a
/// feature-enabled context — without that, every intrinsic call would stay
/// an out-of-line function call and the vector win would evaporate.
#[inline(always)]
pub fn sw_bytes_checked<V: ByteSimd, C: ColumnCheck>(
    gaps: &GapPenalties,
    profile: &ByteProfileOf<V>,
    db: &[u8],
    force_scan: bool,
    check: &C,
) -> Option<ByteKernelResult> {
    let open = gaps.open.clamp(0, 255) as u8;
    let extend = gaps.extend.clamp(0, 255) as u8;
    if profile.overflow_at() == 0 || open.max(extend) > V::SUB_LIMIT {
        // Even the first column's add could saturate, or one `sat_sub`
        // cannot carry a gap penalty: the word kernel takes the pair.
        return Some(ByteKernelResult {
            score: Err(Handoff::default()),
            lazy_f: 0,
        });
    }
    let seg_len = profile.seg_len();
    let (v_open, v_extend) = (V::splat(open), V::splat(extend));
    let v_bias = V::splat(profile.bias());
    let v_limit = V::level(profile.overflow_at() - 1);
    let mut state = vec![V::zero(); 3 * seg_len];
    let mut v_max = V::zero();
    let mut lazy_f = 0u64;
    striped_columns! {
        V, profile, db.iter().enumerate(), state, check, force_scan,
        lazy_f, [open, extend, v_open, v_extend],
        255, V::level, |f, n| f.sub_amount(n as u8),
        |col, row, hs, hl, e, v_h, v_f| {
            // The loop body is nine vector operations where `add_score` is
            // one instruction (AVX2) and ten where it is Farrar's biased
            // pair. Loads precede stores because the thirds of `state` are
            // not provably disjoint and the portable vectors only vectorise
            // that way.
            for j in 0..seg_len {
                let (e_j, h_next) = (e[j], hl[j]);
                v_h = v_h.add_score(row[j], v_bias).max(e_j);
                // The running maximum takes H before F joins it. F is an
                // earlier H of this lane and column less `open + k·extend`,
                // already folded in, so nothing is lost; and `max(H, E)` now
                // has two uses, so it cannot be re-associated into `max(H,
                // max(E, F))`, a fourth operation on the F → H → F chain
                // each stripe waits for (AVX2 measured 1–5% slower that
                // way, portable 4–6%).
                v_max = v_max.max(v_h);
                v_h = v_h.max(v_f);
                hs[j] = v_h;
                let opened = v_h.sat_sub(v_open);
                e[j] = opened.max(e_j.sat_sub(v_extend));
                v_f = opened.max(v_f.sat_sub(v_extend));
                v_h = h_next;
            }
        }
        {
            // Overflow check: once the running max could saturate during
            // the next column's biased add, hand the still-exact state over.
            if v_max.any_gt(v_limit) {
                let (m, max) = (profile.query.len(), v_max.horizontal_max());
                let score = Err(Handoff::at(col + 1, m, hs, e, max));
                return Some(ByteKernelResult { score, lazy_f });
            }
        }
    }
    Some(ByteKernelResult {
        score: Ok(v_max.horizontal_max() as i32),
        lazy_f,
    })
}

/// The table index a lane reads past its subject's end (a matrix has at most
/// 24 codes), scored `−bias ≤ 0`: a padded column cannot raise a maximum.
const PAD_CODE: u8 = 31;

/// Stream columns the grouped passes transpose at a time (even, so a
/// two-column pass, which starts on an even column, never crosses a block).
const GROUP_BLOCK: usize = CANCEL_CHECK_COLS;

/// This thread's H/E rows of one grouped pass, kept across calls: a fresh
/// buffer per call left freed blocks resident (`peak_rss_mb` +8% on the
/// scans).
type RowCache = LocalKey<RefCell<Option<Box<dyn Any>>>>;

thread_local! {
    static GROUP_STATE: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
    static WORD_STATE: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// `len` rows of `[zero; 2]`, in `cache`'s buffer when it holds one.
fn cached_rows<V: Copy + 'static>(cache: &'static RowCache, len: usize, zero: V) -> Vec<[V; 2]> {
    let cached = cache.with(|c| c.take()).and_then(|b| b.downcast().ok());
    let mut rows = cached.map_or_else(Vec::new, |b: Box<Vec<[V; 2]>>| *b);
    rows.clear();
    rows.resize(len, [zero; 2]);
    rows
}

/// Panics when a subject holds a code past a profile's `alphabet` tables.
fn assert_codes(subjects: &[&[u8]], alphabet: usize) {
    for s in subjects {
        let top = s.iter().fold(0, |top: u8, &b| top.max(b));
        assert!((top as usize) < alphabet, "code {top} past the alphabet");
    }
}

/// The scalar side of a grouped stream: its queue of subjects, the subject
/// each lane holds and the column it entered on, the column each lane that
/// holds none handed off on, the lanes' codes for the current block, and
/// the lane-columns its subjects kept busy. A subject enters a lane
/// only where a pass starts, so no pass sweeps two subjects in one lane.
#[derive(Default)]
struct Stream<'a> {
    subjects: &'a [&'a [u8]],
    lanes: usize,
    next: usize,
    held: [Option<usize>; 32],
    from: [usize; 32],
    handed: [Option<usize>; 32],
    block: Vec<[u8; 32]>,
    busy: u64,
    /// One past the last column a held subject reaches.
    horizon: usize,
    /// The next column on which a subject ends or a lane can fill.
    event: usize,
}

impl<'a> Stream<'a> {
    fn new(subjects: &'a [&'a [u8]], lanes: usize) -> Self {
        let block = vec![[PAD_CODE; 32]; GROUP_BLOCK];
        Self {
            subjects,
            lanes,
            block,
            ..Self::default()
        }
    }

    /// Lane `k`'s codes from column `col` to the end of its block: its
    /// subject's, then [`PAD_CODE`].
    fn write(&mut self, k: usize, col: usize) {
        let rest = self.held[k].and_then(|i| self.subjects[i].get(col - self.from[k]..));
        let mut codes = rest.unwrap_or_default().iter();
        for row in &mut self.block[col % GROUP_BLOCK..] {
            row[k] = codes.next().copied().unwrap_or(PAD_CODE);
        }
    }

    /// Lane `k` gives up its subject if it has ended by column `col`.
    fn ended(&mut self, k: usize, col: usize) -> Option<usize> {
        let len = self.subjects[self.held[k]?].len();
        if self.from[k] + len > col {
            return None;
        }
        self.busy += len as u64;
        self.held[k].take()
    }

    /// Free lane `k` takes the next non-empty subject at column `col`.
    fn take(&mut self, k: usize, col: usize) -> Option<usize> {
        self.next += (self.subjects[self.next..].iter())
            .take_while(|s| s.is_empty())
            .count();
        if self.held[k].is_some() || self.next == self.subjects.len() {
            return None;
        }
        (self.held[k], self.from[k], self.handed[k]) = (Some(self.next), col, None);
        self.next += 1;
        self.write(k, col);
        self.held[k]
    }

    /// Lane `k` hands its subject off after column `col`: the subject and
    /// the columns of it swept. The lane reads [`PAD_CODE`] from there on,
    /// and the next event, at `col`, resets it.
    fn hand_off(&mut self, k: usize, col: usize) -> Option<(usize, usize)> {
        let i = self.held[k].take()?;
        let cols = col - self.from[k];
        (self.busy, self.handed[k], self.event) = (self.busy + cols as u64, Some(col), col);
        self.write(k, col);
        Some((i, cols))
    }

    /// The horizon, and the next event from column `col` on: the first end
    /// of a held subject, or `col` itself while a lane is free and a subject
    /// waits, or no lane holds one.
    fn plan(&mut self, col: usize) {
        let ends =
            (0..self.lanes).filter_map(|k| Some(self.from[k] + self.subjects[self.held[k]?].len()));
        (self.horizon, self.event) =
            ends.fold((0, usize::MAX), |(h, e), end| (h.max(end), e.min(end)));
        let free = self.held[..self.lanes].contains(&None) && self.next < self.subjects.len();
        if free || self.horizon == 0 {
            self.event = col;
        }
    }

    /// Add the `[busy, pad, handed_off]` lane-columns of the stream's `cols`
    /// columns to `sum`: a lane that handed off and took no other subject is
    /// handed off to the end, and every other column not busy is pad.
    fn finish(self, cols: usize, sum: &mut [u64; 3]) {
        let waits = self.handed[..self.lanes]
            .iter()
            .flatten()
            .map(|at| cols - at);
        let (busy, handed) = (self.busy, waits.sum::<usize>() as u64);
        let pad = (self.lanes * cols) as u64 - busy - handed;
        for (sum, n) in sum.iter_mut().zip([busy, pad, handed]) {
            *sum += n;
        }
    }
}

/// One cell in every lane, from `$scored` (the diagonal H plus the score),
/// the entering E and the running F (advanced): H and the E leaving. E and
/// F never fall below zero (`$sub` floors there), so neither does H. The
/// maximum takes H before F joins it, as in the striped loop; `$g` is
/// `[open, extend, ..]`.
macro_rules! group_cell {
    ($g:ident, $sub:ident, $scored:expr, $e:ident, $f:expr, $max:ident) => {{
        let h = $scored.max($e);
        $max = $max.max(h);
        let h = h.max($f);
        let opened = h.$sub($g[0]);
        $f = opened.max($f.$sub($g[1]));
        (h, opened.max($e.$sub($g[1])))
    }};
}

/// The sweep of both grouped passes over `$stream`, on `$state` (per query
/// row H of the last column and E entering the next) and the maxima
/// `$v_max`, stored as raw `$lane`s in `$maxima` on each event; it evaluates
/// to the columns swept. On an event column each ended subject `$li` leaves
/// with its raw maximum `$lx` (`$leave`), and once `$check` is polled,
/// `$refill` resets each `(lane, subject taken)` of `$reset` that took a
/// subject or handed off. Every [`GROUP_BLOCK`] columns `$check` is polled
/// and the codes are transposed; a column's score vectors are `$lookup` of
/// its lane codes `$codes` in each query code's `$table`. One pass down the
/// query sweeps one column, or two from an even column while a held subject
/// reaches the second and `$pair` holds; a cell adds its score with `$add`
/// and subtracts the gaps `$g` with `$sub`. After a pass, when `$hands`
/// holds, the maxima and the state (raw rows `$rows`: `[2i]` H and `[2i +
/// 1]` E of query row `i`) are stored once and `$hand` runs for each lane
/// `$hk` with its raw maximum `$hx` at `$col`. Every vector operation runs
/// here, in the caller's (AVX2) context.
macro_rules! grouped_sweep {
    (
        $V:ty, $lane:ty, $profile:ident, $stream:ident, $state:ident, $check:ident, $v_max:ident,
        |$codes:ident, $table:ident| $lookup:expr, $g:ident, $sub:ident,
        $add:ident($($arg:expr),*), $pair:expr, $rows:ident, $maxima:ident,
        |$li:ident, $lx:ident| $leave:expr, |$reset:ident| $refill:block,
        $hands:expr, |$col:ident, $hk:ident, $hx:ident| $hand:expr
    ) => {{
        let mut scores = [[<$V>::zero(); 32]; 2];
        let mut $maxima = [<$lane>::default(); 32];
        let mut $rows = vec![[<$lane>::default(); 32]; 2 * $state.len()];
        let mut $col = 0;
        loop {
            if $col >= $stream.event {
                $v_max.store(&mut $maxima);
                let (mut reset, mut n) = ([(0, None); 32], 0);
                for k in 0..<$V>::LANES {
                    if let Some($li) = $stream.ended(k, $col) {
                        let $lx = $maxima[k];
                        $leave;
                    }
                    let handed = $stream.handed[k] == Some($col);
                    let took = $stream.take(k, $col);
                    if handed || took.is_some() {
                        (reset[n], n) = ((k, took), n + 1);
                    }
                }
                if n > 0 {
                    if $check.cancelled() {
                        return None;
                    }
                    let $reset = &reset[..n];
                    $refill
                }
                $stream.plan($col);
                if $stream.horizon <= $col {
                    break $col;
                }
            }
            let at = $col % GROUP_BLOCK;
            if at == 0 {
                if $check.cancelled() {
                    return None;
                }
                for k in 0..<$V>::LANES {
                    $stream.write(k, $col);
                }
            }
            let pair = $col % 2 == 0 && $col + 1 < $stream.horizon && $pair;
            for ($codes, scores) in $stream.block[at..][..1 + pair as usize].iter().zip(&mut scores) {
                for (v, $table) in scores.iter_mut().zip(&$profile.tables) {
                    *v = $lookup;
                }
            }
            let (mut diag, mut f) = ([<$V>::zero(); 2], [<$V>::zero(); 2]);
            let cells = $state.iter_mut().zip(&$profile.query);
            if pair {
                // The second column's cell takes the first's E at once and
                // its H as the diagonal a row later: one load and store a row
                // for two cells, and two F chains that overlap.
                for (row, &a) in cells {
                    let (a, e) = (a as usize % 32, row[1]);
                    let scored = diag[0].$add(scores[0][a] $(, $arg)*);
                    let (h, e) = group_cell!($g, $sub, scored, e, f[0], $v_max);
                    let scored = diag[1].$add(scores[1][a] $(, $arg)*);
                    let next = group_cell!($g, $sub, scored, e, f[1], $v_max);
                    (diag, *row) = ([row[0], h], [next.0, next.1]);
                }
            } else {
                for (row, &a) in cells {
                    let (a, e) = (a as usize % 32, row[1]);
                    let scored = diag[0].$add(scores[0][a] $(, $arg)*);
                    let (h, e) = group_cell!($g, $sub, scored, e, f[0], $v_max);
                    (diag[0], *row) = (row[0], [h, e]);
                }
            }
            $col += 1 + pair as usize;
            if $hands {
                $v_max.store(&mut $maxima);
                for (row, raw) in $state.iter().zip($rows.chunks_exact_mut(2)) {
                    row[0].store(&mut raw[0]);
                    row[1].store(&mut raw[1]);
                }
                for ($hk, &$hx) in $maxima[..<$V>::LANES].iter().enumerate() {
                    $hand;
                }
            }
        }
    }};
}

/// Byte-mode *inter-sequence* Smith-Waterman over any number of `subjects`,
/// streamed through the lanes in order, one a lane (a lane whose subject
/// ends or hands off takes the next at once), polling
/// `check` every [`CANCEL_CHECK_COLS`] columns (`None`: abandoned): per
/// column one [`ByteSimd::lookup`] per code, then nine operations a cell
/// and no Lazy-F. A lane's running maximum is [`sw_bytes_checked`]'s, so it
/// hands off at the same column with the same [`Handoff`]. Two columns are
/// swept at once while no lane is within one column's largest score of its
/// limit. Adds the stream's `[busy, pad, handed_off]` lane-columns to
/// `lane_columns`.
///
/// # Panics
///
/// When `subjects` hold a code outside the alphabet.
#[inline(always)]
pub fn sw_bytes_grouped<V: ByteSimd, C: ColumnCheck>(
    gaps: &GapPenalties,
    profile: &ByteProfileOf<V>,
    subjects: &[&[u8]],
    check: &C,
    lane_columns: &mut [u64; 3],
) -> Option<Vec<Result<i32, Handoff>>> {
    assert_codes(subjects, profile.tables.len());
    let open = gaps.open.clamp(0, 255) as u8;
    let extend = gaps.extend.clamp(0, 255) as u8;
    let (overflow_at, bias) = (profile.overflow_at(), profile.bias());
    if overflow_at == 0 || open.max(extend) > V::SUB_LIMIT {
        return Some(vec![Err(Handoff::default()); subjects.len()]);
    }
    let g = [V::splat(open), V::splat(extend), V::splat(bias)];
    // The hand-off level, and the level from which one column's largest
    // score could reach it.
    let max_score = 255 - bias - overflow_at;
    let pairs = overflow_at > max_score;
    let limits = [overflow_at - 1, (overflow_at - 1).saturating_sub(max_score)].map(V::level);
    let mut state = cached_rows(&GROUP_STATE, profile.query.len(), V::zero());
    let mut v_max = V::zero();
    let mut out = vec![Ok(0); subjects.len()];
    let mut stream = Stream::new(subjects, V::LANES);
    let cols = grouped_sweep! {
        V, u8, profile, stream, state, check, v_max,
        |codes, table| V::load(codes).lookup(table), g, sat_sub,
        add_score(g[2]), pairs && !v_max.any_gt(limits[1]), rows, maxima,
        |i, x| out[i] = Ok(V::decode(x).into()),
        |reset| {
            let mut clear = [0; 32];
            for &(k, _) in reset {
                clear[k] = V::SUB_LIMIT;
            }
            let clear = V::load(&clear);
            for [h, e] in state.iter_mut() {
                (*h, *e) = (clear_lanes(*h, clear), clear_lanes(*e, clear));
            }
            v_max = clear_lanes(v_max, clear);
        },
        v_max.any_gt(limits[0]), |col, k, x| {
            if V::decode(x) >= overflow_at {
                if let Some((i, cols)) = stream.hand_off(k, col) {
                    out[i] = Err(lane_handoff::<V>(cols, &rows, k, x));
                }
            }
        }
    };
    stream.finish(cols, lane_columns);
    GROUP_STATE.with(|c| c.replace(Some(Box::new(state))));
    Some(out)
}

/// `v` less the per-lane amounts `clear` (`0` or `SUB_LIMIT`), twice if one
/// falls short of 254, the most a lane reaches before it hands off.
#[inline(always)]
fn clear_lanes<V: ByteSimd>(v: V, clear: V) -> V {
    let v = v.sat_sub(clear);
    if V::SUB_LIMIT < 254 {
        v.sat_sub(clear)
    } else {
        v
    }
}

/// Lane `k`'s [`Handoff`] after `cols` columns, from the raw state rows and
/// maximum `max`: out of line, so it touches bytes only.
#[cold]
#[inline(never)]
fn lane_handoff<V: ByteSimd>(cols: usize, rows: &[[u8; 32]], k: usize, max: u8) -> Handoff {
    let level = |raw: &[u8; 32]| V::decode(raw[k]) as i16;
    Handoff {
        cols,
        h: rows.iter().step_by(2).map(level).collect(),
        e: rows.iter().skip(1).step_by(2).map(level).collect(),
        max: V::decode(max).into(),
    }
}

/// Word-mode *inter-sequence* Smith-Waterman over any number of `subjects`,
/// streamed through the lanes in order as [`sw_bytes_grouped`] streams
/// them, each resuming from `starts[i]` — its column, H/E rows and maximum —
/// and polling `check` every [`CANCEL_CHECK_COLS`] columns (`None`:
/// abandoned). The sweep is [`sw_bytes_grouped`]'s with
/// [`WordSimd::lookup`] and `H = max(diag + s, E, F, 0)`, two columns at a
/// time but an odd last one. Each subject ends with [`sw_words_checked`]'s
/// score from the same start, saturating at `i16::MAX` as it does. Adds the
/// stream's `[busy, pad, handed_off]` lane-columns to `lane_columns`.
///
/// # Panics
///
/// When `subjects` differ in number from `starts`, or hold a code outside
/// the alphabet.
#[inline(always)]
pub fn sw_words_grouped<V: WordSimd, C: ColumnCheck>(
    gaps: &GapPenalties,
    profile: &WordProfileOf<V>,
    subjects: &[&[u8]],
    starts: &[&Handoff],
    check: &C,
    lane_columns: &mut [u64; 3],
) -> Option<Vec<i32>> {
    assert!(subjects.len() == starts.len());
    assert_codes(subjects, profile.tables.len());
    let (open, extend) = word_gaps(gaps);
    let g = [V::splat(open), V::splat(extend)];
    // Each subject's columns past its start; one with none scores its
    // start's maximum.
    let rest: Vec<&[u8]> = (subjects.iter().zip(starts))
        .map(|(s, h)| &s[h.cols..])
        .collect();
    let mut out: Vec<i32> = starts.iter().map(|s| s.max.into()).collect();
    let mut state = cached_rows(&WORD_STATE, profile.query.len(), V::zero());
    let mut v_max = V::zero();
    let mut stream = Stream::new(&rest, V::LANES);
    // E and F floored at zero floor `diag + s` in the first `max`.
    let cols = grouped_sweep! {
        V, i16, profile, stream, state, check, v_max,
        |codes, table| V::lookup(codes, table), g, sub_floor,
        sat_add(), true, rows, maxima,
        |i, x| out[i] = x.into(),
        |reset| {
            for (row, raw) in state.iter().zip(rows.chunks_exact_mut(2)) {
                row[0].store(&mut raw[0]);
                row[1].store(&mut raw[1]);
            }
            // Every lane reset took a subject: no word lane hands off.
            for &(k, i) in reset {
                let Some(i) = i else { continue };
                let start = starts[i];
                for (r, raw) in rows.chunks_exact_mut(2).enumerate() {
                    raw[0][k] = start.h.get(r).copied().unwrap_or(0);
                    raw[1][k] = start.e.get(r).copied().unwrap_or(0);
                }
                maxima[k] = start.max;
            }
            for (row, raw) in state.iter_mut().zip(rows.chunks_exact(2)) {
                *row = [V::load(&raw[0]), V::load(&raw[1])];
            }
            v_max = V::load(&maxima);
        },
        false, |_col, _k, _x| {}
    };
    stream.finish(cols, lane_columns);
    WORD_STATE.with(|c| c.replace(Some(Box::new(state))));
    Some(out)
}

/// The gap penalties as word lanes subtract them, clamped at `i16::MAX`
/// as the byte kernels clamp at 255. Exact: H never exceeds `i16::MAX`, so
/// H minus any larger penalty is at most 0 and inert either way.
fn word_gaps(gaps: &GapPenalties) -> (i16, i16) {
    let clamp = |p: i32| p.clamp(0, i16::MAX.into()) as i16;
    (clamp(gaps.open), clamp(gaps.extend))
}

/// Word-mode striped Smith-Waterman continuing from `start` (the zero
/// state, or what the byte kernel handed over), with a cancellation probe
/// polled every [`CANCEL_CHECK_COLS`] columns; `None` means the alignment
/// was abandoned.
///
/// Same Lazy-F repair as [`sw_bytes_checked`], its decays clamped at
/// `i16::MAX`.
///
/// `#[inline(always)]` for the same reason as [`sw_bytes_checked`].
#[inline(always)]
pub fn sw_words_checked<V: WordSimd, C: ColumnCheck>(
    gaps: &GapPenalties,
    profile: &WordProfileOf<V>,
    db: &[u8],
    force_scan: bool,
    start: &Handoff,
    check: &C,
) -> Option<WordKernelResult> {
    let seg_len = profile.seg_len();
    let (open, extend) = word_gaps(gaps);
    let (v_open, v_extend) = (V::splat(open), V::splat(extend));
    let mut state = vec![V::zero(); 3 * seg_len];
    restripe(&start.h, &mut state[..seg_len]);
    restripe(&start.e, &mut state[2 * seg_len..]);
    let mut v_max = V::splat(start.max);
    let mut lazy_f = 0u64;
    striped_columns! {
        V, profile, db.iter().enumerate().skip(start.cols), state, check, force_scan,
        lazy_f, [open, extend, v_open, v_extend],
        i16::MAX as u64, V::splat, |f, n| f.sat_sub(V::splat(n as i16)),
        |col, row, hs, hl, e, v_h, v_f| {
            // Unlike the byte loop this one reads `e[j]` and `hl[j]` where
            // they are used: with both held in registers the compiler joins
            // E and F first and lengthens the F → H → F chain by a `max`
            // (word mode measured 4% slower on AVX2 and 10–14% on SSE2 that
            // way).
            for j in 0..seg_len {
                v_h = v_h.sat_add(row[j]);
                v_h = v_h.max(e[j]).max(v_f).max(V::zero());
                v_max = v_max.max(v_h);
                hs[j] = v_h;
                let opened = v_h.sat_sub(v_open);
                e[j] = opened.max(e[j].sat_sub(v_extend));
                v_f = opened.max(v_f.sat_sub(v_extend));
                v_h = hl[j];
            }
        }
        {}
    }
    Some(WordKernelResult {
        score: v_max.horizontal_max() as i32,
        lazy_f,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::{I16x8, U8x16};
    use sw_align::alphabet::{encode_protein, Alphabet};
    use sw_align::matrix::ScoringMatrix;

    /// A hand-built stream on 16 byte lanes, under +127/−4 (one match hands
    /// off, single columns only): sixteen 10-residue strangers, one of which
    /// matches on its second column, then a 7-residue, an empty and a
    /// one-residue subject. The seven takes the lane that hands off, on
    /// column 2, and the one-residue subject follows it on column 9: every
    /// lane ends on column 10, and no lane-column is pad. The word pass
    /// resumes the hand-off's eight columns in one lane of eight.
    #[test]
    fn a_stream_counts_its_lane_columns_in_closed_form() {
        let p = SwParams {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 127, -4),
            gaps: GapPenalties::cudasw_default(),
        };
        let q: Vec<u8> = (0..30).map(|i| i % 10).collect();
        let stranger = |len: usize| vec![10 + len as u8 % 10; len];
        let mut subjects: Vec<Vec<u8>> = (0..16).map(|_| stranger(10)).collect();
        subjects[3][1] = q[0];
        subjects.extend([stranger(7), Vec::new(), stranger(1)]);
        let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
        let byte = ByteProfileOf::<U8x16>::build(&p, &q);
        let count = |refs: &[&[u8]]| {
            let mut columns = [0; 3];
            let lanes = sw_bytes_grouped(&p.gaps, &byte, refs, &NeverCancel, &mut columns);
            (lanes.unwrap(), columns)
        };
        let (lanes, columns) = count(&refs);
        let busy = 15 * 10 + 2 + 7 + 1;
        assert_eq!(columns, [busy, 0, 0], "[busy, pad, handed_off]");
        let start = lanes[3].clone().unwrap_err();
        assert_eq!((start.cols, &lanes[17]), (2, &Ok(0)));
        let word = WordProfileOf::<I16x8>::build(&p, &q);
        let mut columns = [0; 3];
        let one = (&refs[3..4], &[&start]);
        sw_words_grouped(&p.gaps, &word, one.0, one.1, &NeverCancel, &mut columns);
        assert_eq!(columns, [8, 8 * 8 - 8, 0]);
        // Fifteen strangers match on their first column, one does not, and
        // one more subject waits: on column 1 fifteen lanes hand off and
        // lane 0 takes the last subject, which ends the stream on column 11,
        // a column after lane 15; the other fourteen wait to the end.
        subjects = (0..17).map(|_| stranger(10)).collect();
        for d in &mut subjects[..15] {
            d[0] = q[0];
        }
        let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
        assert_eq!(count(&refs).1, [15 + 10 + 10, 1, 14 * 10]);
        // With lane 15 handing off too, it waits as well.
        subjects[15][0] = q[0];
        let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
        assert_eq!(count(&refs).1, [16 + 10, 0, 15 * 10]);
    }

    #[test]
    fn both_profiles_stripe_the_query_and_pad_with_the_pad_score() {
        let p = SwParams::cudasw_default();
        let qc = encode_protein("MKVLAWGGSCMKVLAWG").unwrap(); // 17 residues
        let word = WordProfileOf::<I16x8>::build(&p, &qc);
        let byte = ByteProfileOf::<U8x16>::build(&p, &qc);
        assert_eq!((word.seg_len(), byte.seg_len()), (3, 2));
        assert_eq!(byte.bias() as i32, -p.matrix.min_score());
        // Lane k of segment j holds query position j + k·seg_len; past the
        // query's end lies the pad score (biased: the byte 0).
        let a = 0u8; // 'A'
        let score = |pos: usize| {
            qc.get(pos)
                .map_or(p.matrix.pad_score(), |&b| p.matrix.score(a, b))
        };
        for (k, &val) in word.get(a, 1).0.iter().enumerate() {
            assert_eq!(val as i32, score(1 + k * 3), "word lane {k}");
        }
        for (k, &val) in byte.get(a, 1).0.iter().enumerate() {
            assert_eq!(
                val as i32 - byte.bias() as i32,
                score(1 + k * 2),
                "byte lane {k}"
            );
        }
    }
}
