//! The host-backend abstraction: lane-width-agnostic striped kernels.
//!
//! [`ByteSimd`] and [`WordSimd`] describe the handful of SSE2-style vector
//! operations the striped Smith-Waterman recurrence needs (saturating
//! add/sub, max, lane shift, any-greater, horizontal max).
//! [`sw_bytes_checked`] and [`sw_words_checked`] implement Farrar's kernel
//! exactly once per precision, generically over those traits; every backend
//! (AVX2, SSE2, NEON, and the portable emulated vectors) instantiates the
//! same kernel with its own vector type.
//!
//! **Nine vector operations a stripe.** A byte lane holds a score *level*
//! `0..=255` in an encoding its vector type owns, and the byte loop adds a
//! profile score through [`ByteSimd::add_score`] — "floored at level 0" is
//! part of the operation. Farrar's biased unsigned bytes (SSE2, NEON,
//! portable) spend two instructions there, `paddusb` then `psubusb bias`,
//! ten a stripe; AVX2's offset-binary signed bytes spend one `vpaddsb`,
//! because a signed saturating add floors at its own minimum, and that loop
//! runs close to its issue rate (two such operations a cycle), so the
//! tenth was most of a tenth of its time. Three of the nine form the
//! F → H → F chain one stripe hands the next (`max(H, F)`, `⊖ open`,
//! `max` into F); the running maximum is folded before F joins H so that
//! it stays three. A Lazy-F repair step is four operations on
//! every backend and in both precisions (see `repair_step!` for why it
//! leaves the running maximum alone). `tests/op_budget.rs` counts both.
//!
//! **One bounded Lazy-F repair.** In the striped layout lane `k` covers the
//! contiguous query chunk `[k·seg_len, (k+1)·seg_len)`, so the F value
//! leaving lane `k`'s chunk feeds lane `k+1`'s — a linear recurrence in the
//! (max, +) semiring with decay `seg_len × gap_extend` per lane step. After
//! each column's main loop the kernels look at the exit-F vector once:
//!
//! * no lane's F exceeds one chunk's decay: every carried F dies inside the
//!   next chunk, so Farrar's correction loop with the SWAT-style early exit
//!   ends within `seg_len + open/extend + 1` steps;
//! * some lane's F is larger (a strong alignment column), or
//!   `open == extend` (where the early exit is unsound): a Kogge-Stone
//!   max-scan à la Snytsar (arXiv:1909.00899) resolves every lane's exact
//!   incoming F in `log2(LANES)` steps and one repair pass applies it.
//!
//! Both routes reach the same fixpoint, so the choice is invisible in the
//! scores; `force_scan` ([`crate::KernelMode::PrefixScan`]) takes the scan
//! on every column.
//!
//! On either route the first `min(PEEL, seg_len)` repair steps of a column
//! run before the early-exit test is consulted: on random subjects the
//! tested loop leaves after one to five steps with geometrically falling
//! odds, a branch no predictor learns. Steps past the old exit change
//! nothing — the state there is the fixpoint and every F is the score of
//! a real gap, so `max(H, F)` and `max(E, H ⊖ open)` return what they were
//! given (DESIGN.md §14) — and a column still spends at most `max(PEEL,
//! exit) ≤ seg_len + log2(LANES) + open/extend + 1` repair operations.
//!
//! **Byte→word hand-off.** The byte kernel stops as soon as the running
//! maximum *could* saturate during the next column's biased add — one
//! column before anything does, in either encoding (AVX2 keeps the biased
//! threshold although its add has `bias` more headroom: every backend must
//! hand off at the same column) — so its H, E and maximum are still exact.
//! It returns them de-striped as a [`Handoff`]; the word kernel re-stripes
//! that to its own lane count and continues at the next column instead of
//! column 0 (see [`Handoff`] for why floored E and padding rows are
//! harmless).
//!
//! **The grouped byte pass.** [`sw_bytes_grouped`] scores up to `LANES`
//! subjects at once, one a lane (CUDASW++'s inter-task layout), with no
//! Lazy-F; each lane hands off exactly where the striped kernel would.
//!
//! **Bit-identical scores by construction.** The lane count only changes the
//! striped *layout* (`seg_len = ceil(m / LANES)`), never the arithmetic any
//! H/E/F cell sees: the post-Lazy-F recurrence is exact, byte-mode overflow
//! detection triggers on the running maximum (which is layout-independent),
//! and word mode saturates at `i16::MAX` identically everywhere. The same
//! argument makes the two repair routes agree: saturating subtraction chains
//! compose (`x ⊖ a ⊖ b = x ⊖ (a + b)`), so the scanned incoming-F values
//! equal the correction loop's fixpoint exactly. `tests/handoff_differential.rs`
//! and `tests/peel_differential.rs` pin these invariants.
//!
//! The kernels count the vector operations spent repairing F — scan steps
//! and repair-loop steps alike, the untested prefix included — so the
//! adaptive driver can report byte-mode and word-mode correction work
//! separately per backend. The count is work executed, not time: the
//! prefix raised it on random subjects (3.7 → 6.4 per thousand cells over
//! the paper's query lengths) while the wall clock fell.

use crate::cancel::{CancelToken, CANCEL_CHECK_COLS};
use std::any::Any;
use std::cell::RefCell;
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
    /// −min_score`: the operand [`add_score`](Self::add_score) adds.
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
    /// Whether the pool's adaptive searches take the grouped byte pass
    /// ([`sw_bytes_grouped`]); false where it measured slower than the
    /// striped one (EXPERIMENTS.md, "Host engine and pool").
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
    /// Build the byte profile of `query` under `params`.
    ///
    /// Padding lanes (query positions `>= m`) carry the matrix minimum
    /// `−bias` (biased: the byte 0), so they sink towards zero and never
    /// win the running maximum.
    pub fn build(params: &SwParams, query: &[u8]) -> Self {
        let m = query.len();
        let seg_len = m.div_ceil(V::LANES).max(1);
        let alphabet_size = params.matrix.size();
        let bias = (-params.matrix.min_score()).max(0) as u8;
        let mut vectors = Vec::with_capacity(alphabet_size * seg_len);
        let mut lanes = vec![0u8; V::LANES];
        for a in 0..alphabet_size as u8 {
            let row = params.matrix.row(a);
            for j in 0..seg_len {
                for (k, slot) in lanes.iter_mut().enumerate() {
                    let pos = j + k * seg_len;
                    let score = if pos < m {
                        row[query[pos] as usize] as i32
                    } else {
                        -(bias as i32)
                    };
                    *slot = V::encode_score(score, bias);
                }
                vectors.push(V::load(&lanes));
            }
        }
        let overflow_at = 255u8
            .saturating_sub(bias)
            .saturating_sub(params.matrix.max_score().clamp(0, 255) as u8);
        debug_assert!(alphabet_size <= PAD_CODE as usize);
        let tables = (0..alphabet_size as u8)
            .map(|a| {
                let mut table = [V::encode_score(-(bias as i32), bias); 32];
                for (b, slot) in table.iter_mut().enumerate().take(alphabet_size) {
                    *slot = V::encode_score(params.matrix.score(b as u8, a), bias);
                }
                table
            })
            .collect();
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

/// Striped word profile for vector type `V`.
#[derive(Debug, Clone)]
pub struct WordProfileOf<V: WordSimd> {
    seg_len: usize,
    alphabet_size: usize,
    vectors: Vec<V>,
}

impl<V: WordSimd> WordProfileOf<V> {
    /// Build the striped word profile of `query` under `params`.
    ///
    /// Padding lanes score the matrix minimum so they can never win the
    /// running maximum.
    pub fn build(params: &SwParams, query: &[u8]) -> Self {
        let m = query.len();
        let seg_len = m.div_ceil(V::LANES).max(1);
        let alphabet_size = params.matrix.size();
        let pad = params.matrix.min_score() as i16;
        let mut vectors = Vec::with_capacity(alphabet_size * seg_len);
        let mut lanes = vec![0i16; V::LANES];
        for a in 0..alphabet_size as u8 {
            let row = params.matrix.row(a);
            for j in 0..seg_len {
                for (k, slot) in lanes.iter_mut().enumerate() {
                    let pos = j + k * seg_len;
                    *slot = if pos < m {
                        row[query[pos] as usize] as i16
                    } else {
                        pad
                    };
                }
                vectors.push(V::load(&lanes));
            }
        }
        Self {
            seg_len,
            alphabet_size,
            vectors,
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
        self.alphabet_size
    }
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
/// per lane count (EXPERIMENTS.md, "PR 15").
const PEEL: usize = 4;

/// Lane distances of the Kogge-Stone rounds; covers vectors of up to 32
/// lanes (asserted at compile time in the kernels).
const SCAN_STEPS: [usize; 5] = [1, 2, 4, 8, 16];

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
    const { assert!(V::LANES <= 2 * SCAN_STEPS[4]) };
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
    let v_open = V::splat(open);
    let v_extend = V::splat(extend);
    let v_bias = V::splat(profile.bias());
    let v_limit = V::level(profile.overflow_at() - 1);
    // One chunk's decay: `seg_len` extensions. Level subtraction
    // composes (x ⊖ a ⊖ b = x ⊖ min(255, a + b)), so clamping at 255 loses
    // nothing — any F minus 255 is 0 either way.
    let chunk_decay = seg_len as u64 * gaps.extend.max(0) as u64;
    let v_chunk = V::level(chunk_decay.min(255) as u8);
    // The repair's early exit is sound only for strictly affine gaps: with
    // open == extend, a lazily-raised H generates an F chain exactly equal
    // to the exit threshold, which the cutoff would drop. Those gap models
    // always scan, and their one repair pass runs to the end.
    let early_exit = gaps.open > gaps.extend;
    let scan_always = force_scan || !early_exit;
    let peel = PEEL.min(seg_len);
    // H-store, H-load and E share one buffer; the two H thirds trade
    // places every column.
    let mut state = vec![V::zero(); 3 * seg_len];
    let (h_both, e) = state.split_at_mut(2 * seg_len);
    let (mut h_store, mut h_load) = h_both.split_at_mut(seg_len);
    let mut v_max = V::zero();
    let mut lazy_f = 0u64;

    for (col, &d) in db.iter().enumerate() {
        if col % CANCEL_CHECK_COLS == 0 && check.cancelled() {
            return None;
        }
        let mut v_f = V::zero();
        // H of the last segment, shifted one lane: the "wrap" of the
        // striped layout (element k of the last segment precedes element
        // k+1 of segment 0 in query order).
        let mut v_h = h_store[seg_len - 1].shift();
        std::mem::swap(&mut h_store, &mut h_load);
        // Four views of exactly `seg_len` vectors, cut once per column: the
        // loop body is nine vector operations where `add_score` is one
        // instruction (AVX2) and ten where it is Farrar's biased pair, with
        // no bounds checks (`tests/op_budget.rs` holds it to that). Loads
        // precede stores because the thirds of `state` are not provably
        // disjoint and the portable vectors only vectorise that way.
        let row = &profile.vectors[d as usize * seg_len..][..seg_len];
        let (hs, hl) = (&mut h_store[..seg_len], &h_load[..seg_len]);
        let e = &mut e[..seg_len];
        for j in 0..seg_len {
            let (e_j, h_next) = (e[j], hl[j]);
            v_h = v_h.add_score(row[j], v_bias).max(e_j);
            // The running maximum takes H before F joins it. F is an
            // earlier H of this lane and column less `open + k·extend`,
            // already folded in, so nothing is lost; and `max(H, E)` now has
            // two uses, so it cannot be re-associated into `max(H, max(E,
            // F))`, a fourth operation on the F → H → F chain each stripe
            // waits for (AVX2 measured 1–5% slower that way, portable 4–6%).
            v_max = v_max.max(v_h);
            v_h = v_h.max(v_f);
            hs[j] = v_h;
            let opened = v_h.sat_sub(v_open);
            e[j] = opened.max(e_j.sat_sub(v_extend));
            v_f = opened.max(v_f.sat_sub(v_extend));
            v_h = h_next;
        }
        // Lazy-F: repair H values that should have been reached by F
        // propagating across segment boundaries. Lane k of `v_f` is the F
        // leaving chunk k assuming zero F entered it. When one of them
        // outlives a whole chunk, scan: after the Kogge-Stone rounds lane k
        // holds max_{i<=k}(f_i − (k−i)·chunk_decay), the exact F leaving
        // chunk k, and a single pass applies it. (A gap opened from an
        // F-raised H scores F − open ≤ F − extend, so pure extension
        // dominates and the scan needs no opening term.) Otherwise the
        // correction loop's early exit ends it within a chunk.
        let mut passes = V::LANES;
        if scan_always || v_f.any_gt(v_chunk) {
            // A literal step list, not `while step < LANES`: it must unroll
            // so every `shift_lanes` sees a constant (the portable vectors
            // otherwise fall back to a variable-length copy through memory).
            for step in SCAN_STEPS {
                if step < V::LANES {
                    let decay = (step as u64 * chunk_decay).min(255) as u8;
                    v_f = v_f.max(v_f.shift_lanes(step).sub_amount(decay));
                    lazy_f += 1;
                }
            }
            passes = 1;
        }
        // shift() hands lane k+1 its incoming F; lane 0 gets zero.
        v_f = v_f.shift();
        // The first `peel` steps run untested (see `PEEL`); after them a
        // step runs only if the one before left an F that can raise an H.
        let mut opened = V::zero();
        for j in 0..peel {
            opened = repair_step!(hs, e, j, v_f, v_open, v_extend);
        }
        let mut j = peel;
        lazy_f += peel as u64;
        while !early_exit || v_f.any_gt(opened) {
            if j == seg_len {
                passes -= 1;
                if passes == 0 {
                    break;
                }
                v_f = v_f.shift();
                j = 0;
            }
            opened = repair_step!(hs, e, j, v_f, v_open, v_extend);
            j += 1;
            lazy_f += 1;
        }
        // Overflow check: once the running max could saturate during the
        // next column's biased add, hand the still-exact state over.
        if v_max.any_gt(v_limit) {
            let (m, max) = (profile.query.len(), v_max.horizontal_max());
            let score = Err(Handoff::at(col + 1, m, hs, e, max));
            return Some(ByteKernelResult { score, lazy_f });
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

/// Subject columns the grouped pass transposes at a time.
const GROUP_BLOCK: usize = CANCEL_CHECK_COLS;

thread_local! {
    /// The grouped pass's H/E rows, kept across groups: a fresh buffer per
    /// group left freed blocks resident (`peak_rss_mb` +8% on the scans).
    static GROUP_STATE: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// One cell in every lane, from the diagonal H, the score, the entering E
/// and the running F (advanced): H and the E leaving. The maximum takes H
/// before F joins it, as in the striped loop; `$g` is `[open, extend, bias]`.
macro_rules! group_cell {
    ($g:ident, $diag:expr, $score:expr, $e:ident, $f:expr, $max:ident) => {{
        let h = $diag.add_score($score, $g[2]).max($e);
        $max = $max.max(h);
        let h = h.max($f);
        let opened = h.sat_sub($g[0]);
        $f = opened.max($f.sat_sub($g[1]));
        (h, opened.max($e.sat_sub($g[1])))
    }};
}

/// Byte-mode *inter-sequence* Smith-Waterman: lane `k` scores
/// `subjects[k]` (at most `V::LANES`), polling `check` every
/// [`CANCEL_CHECK_COLS`] columns (`None`: abandoned): per column one
/// [`ByteSimd::lookup`] per code, then nine operations a cell and no Lazy-F.
/// A lane's running maximum is [`sw_bytes_checked`]'s, so it hands off at
/// the same column with the same [`Handoff`]. Two columns are swept at once
/// while no lane is within one column's largest score of its limit.
///
/// # Panics
///
/// When `subjects` outnumber the lanes or hold a code outside the alphabet.
#[inline(always)]
pub fn sw_bytes_grouped<V: ByteSimd, C: ColumnCheck>(
    gaps: &GapPenalties,
    profile: &ByteProfileOf<V>,
    subjects: &[&[u8]],
    check: &C,
) -> Option<Vec<Result<i32, Handoff>>> {
    assert!(subjects.len() <= V::LANES);
    for s in subjects {
        let top = s.iter().fold(0, |top: u8, &b| top.max(b));
        assert!(
            (top as usize) < profile.tables.len(),
            "code {top} past the alphabet"
        );
    }
    let open = gaps.open.clamp(0, 255) as u8;
    let extend = gaps.extend.clamp(0, 255) as u8;
    let (overflow_at, bias) = (profile.overflow_at(), profile.bias());
    if overflow_at == 0 || open.max(extend) > V::SUB_LIMIT {
        return Some(vec![Err(Handoff::default()); subjects.len()]);
    }
    let g = [V::splat(open), V::splat(extend), V::splat(bias)];
    // Raw per-lane limits: the hand-off level, and the level from which
    // one column's largest score could reach it.
    let max_score = 255 - bias - overflow_at;
    let pairs = overflow_at > max_score;
    let mut limits = [[0u8; 32]; 2];
    V::level(overflow_at - 1).store(&mut limits[0]);
    V::level((overflow_at - 1).saturating_sub(max_score)).store(&mut limits[1]);
    let mut v_limits = limits.map(|l| V::load(&l));
    // H of the last column and E entering the next, per query row.
    let cached = GROUP_STATE
        .with(|c| c.take())
        .and_then(|b| b.downcast().ok());
    let mut state: Box<Vec<[V; 2]>> = cached.unwrap_or_default();
    state.clear();
    state.resize(profile.query.len(), [V::zero(); 2]);
    let mut block = [[PAD_CODE; 32]; GROUP_BLOCK];
    let mut scores = [[V::zero(); 32]; 2];
    let mut v_max = V::zero();
    let mut handoffs = vec![None; subjects.len()];
    let cols = subjects.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut col = 0;
    while col < cols {
        let at = col % GROUP_BLOCK;
        if at == 0 {
            if check.cancelled() {
                return None;
            }
            transpose(subjects, col, &mut block);
        }
        let pair = pairs && col + 1 < cols && at + 1 < GROUP_BLOCK && !v_max.any_gt(v_limits[1]);
        for (codes, scores) in block[at..][..1 + pair as usize].iter().zip(&mut scores) {
            let codes = V::load(codes);
            for (v, table) in scores.iter_mut().zip(&profile.tables) {
                *v = codes.lookup(table);
            }
        }
        let (mut diag, mut f) = ([V::zero(); 2], [V::zero(); 2]);
        let rows = state.iter_mut().zip(&profile.query);
        if pair {
            // The second column's cell takes the first's E at once and its
            // H as the diagonal a row later: one load and store a row for
            // two cells, and two F chains that overlap.
            for (row, &a) in rows {
                let (a, e) = (a as usize % 32, row[1]);
                let (h, e) = group_cell!(g, diag[0], scores[0][a], e, f[0], v_max);
                let next = group_cell!(g, diag[1], scores[1][a], e, f[1], v_max);
                (diag, *row) = ([row[0], h], [next.0, next.1]);
            }
        } else {
            for (row, &a) in rows {
                let e = row[1];
                let (h, e) = group_cell!(g, diag[0], scores[0][a as usize % 32], e, f[0], v_max);
                (diag[0], *row) = (row[0], [h, e]);
            }
        }
        col += 1 + pair as usize;
        if v_max.any_gt(v_limits[0]) {
            v_limits = hand_off_lanes(col, &state, v_max, &mut limits, &mut handoffs);
        }
    }
    GROUP_STATE.with(|c| c.replace(Some(state)));
    let mut maxima = [0u8; 32];
    v_max.store(&mut maxima);
    let lane = |(h, x): (Option<Handoff>, u8)| h.map_or(Ok(V::decode(x) as i32), Err);
    Some(handoffs.into_iter().zip(maxima).map(lane).collect())
}

/// Subject columns `col..col + GROUP_BLOCK` into `block`, one row of lane
/// codes per column; a lane past its subject's end reads [`PAD_CODE`].
fn transpose(subjects: &[&[u8]], col: usize, block: &mut [[u8; 32]; GROUP_BLOCK]) {
    block.fill([PAD_CODE; 32]);
    for (k, s) in subjects.iter().enumerate() {
        for (row, &b) in block.iter_mut().zip(s.get(col..).unwrap_or_default()) {
            row[k % 32] = b;
        }
    }
}

/// Hand over each lane past its limit after `cols` columns and raise its
/// limits to level 255 (returned). Out of line as [`Handoff::at`] is.
#[cold]
#[inline(never)]
fn hand_off_lanes<V: ByteSimd>(
    cols: usize,
    state: &[[V; 2]],
    v_max: V,
    limits: &mut [[u8; 32]; 2],
    handoffs: &mut [Option<Handoff>],
) -> [V; 2] {
    let level = |v: V, k: usize| {
        let mut raw = [0u8; 32];
        v.store(&mut raw);
        V::decode(raw[k]) as i16
    };
    let mut never = [0u8; 32];
    V::level(u8::MAX).store(&mut never);
    for (k, handoff) in handoffs.iter_mut().enumerate() {
        if level(v_max, k) > V::decode(limits[0][k]) as i16 {
            let rows = |i: usize| state.iter().map(|r| level(r[i], k)).collect();
            let (h, e, max) = (rows(0), rows(1), level(v_max, k));
            *handoff = Some(Handoff { cols, h, e, max });
            (limits[0][k], limits[1][k]) = (never[0], never[0]);
        }
    }
    limits.map(|l| V::load(&l))
}

/// Word-mode striped Smith-Waterman continuing from `start` (the zero
/// state, or what the byte kernel handed over), with a cancellation probe
/// polled every [`CANCEL_CHECK_COLS`] columns; `None` means the alignment
/// was abandoned.
///
/// Same Lazy-F repair as [`sw_bytes_checked`]; the i16 decay clamp at
/// `i16::MAX` is equally lossless because any F value at or below zero is
/// inert (H ≥ 0 always wins the max and E never reads F).
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
    const { assert!(V::LANES <= 2 * SCAN_STEPS[4]) };
    let seg_len = profile.seg_len();
    let v_open = V::splat(gaps.open as i16);
    let v_extend = V::splat(gaps.extend as i16);
    let chunk_decay = seg_len as u64 * gaps.extend.max(0) as u64;
    let v_chunk = V::splat(chunk_decay.min(i16::MAX as u64) as i16);
    // See the byte kernel for why the cutoff needs strictly affine gaps.
    let early_exit = gaps.open > gaps.extend;
    let scan_always = force_scan || !early_exit;
    let peel = PEEL.min(seg_len);
    let mut state = vec![V::zero(); 3 * seg_len];
    let (h_both, e) = state.split_at_mut(2 * seg_len);
    let (mut h_store, mut h_load) = h_both.split_at_mut(seg_len);
    restripe(&start.h, h_store);
    restripe(&start.e, e);
    let mut v_max = V::splat(start.max);
    let mut lazy_f = 0u64;

    for (col, &d) in db.iter().enumerate().skip(start.cols) {
        if col % CANCEL_CHECK_COLS == 0 && check.cancelled() {
            return None;
        }
        let mut v_f = V::zero();
        let mut v_h = h_store[seg_len - 1].shift();
        std::mem::swap(&mut h_store, &mut h_load);
        let row = &profile.vectors[d as usize * seg_len..][..seg_len];
        let (hs, hl) = (&mut h_store[..seg_len], &h_load[..seg_len]);
        let e = &mut e[..seg_len];
        // Unlike the byte loop this one reads `e[j]` and `hl[j]` where they
        // are used: with both held in registers the compiler joins E and F
        // first and lengthens the F → H → F chain by a `max` (word mode
        // measured 4% slower on AVX2 and 10–14% on SSE2 that way).
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
        let mut passes = V::LANES;
        if scan_always || v_f.any_gt(v_chunk) {
            for step in SCAN_STEPS {
                if step < V::LANES {
                    let decay = V::splat((step as u64 * chunk_decay).min(i16::MAX as u64) as i16);
                    v_f = v_f.max(v_f.shift_lanes(step).sat_sub(decay));
                    lazy_f += 1;
                }
            }
            passes = 1;
        }
        v_f = v_f.shift();
        let mut opened = V::zero();
        for j in 0..peel {
            opened = repair_step!(hs, e, j, v_f, v_open, v_extend);
        }
        let mut j = peel;
        lazy_f += peel as u64;
        while !early_exit || v_f.any_gt(opened) {
            if j == seg_len {
                passes -= 1;
                if passes == 0 {
                    break;
                }
                v_f = v_f.shift();
                j = 0;
            }
            opened = repair_step!(hs, e, j, v_f, v_open, v_extend);
            j += 1;
            lazy_f += 1;
        }
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
    use sw_align::alphabet::encode_protein;

    #[test]
    fn word_profile_layout_is_striped() {
        let p = SwParams::cudasw_default();
        let qc = encode_protein("MKVLAWGGSCMKVLAWG").unwrap(); // 17 residues
        let prof = WordProfileOf::<I16x8>::build(&p, &qc);
        assert_eq!(prof.seg_len(), 3);
        // Element k of segment j covers query position j + k*3; positions
        // past the query end carry the matrix minimum.
        let a = 0u8; // 'A'
        for (k, &val) in prof.get(a, 1).0.iter().enumerate() {
            let pos = 1 + k * 3;
            let expected = if pos < qc.len() {
                p.matrix.score(a, qc[pos]) as i16
            } else {
                p.matrix.min_score() as i16
            };
            assert_eq!(val, expected, "lane {k}");
        }
    }

    #[test]
    fn byte_profile_bias_is_matrix_minimum() {
        let p = SwParams::cudasw_default();
        let q = encode_protein("MKV").unwrap();
        let profile = ByteProfileOf::<U8x16>::build(&p, &q);
        assert_eq!(profile.bias() as i32, -p.matrix.min_score());
        assert_eq!(profile.seg_len(), 1);
        // Biased scores: a real lane holds score + bias, padding holds 0.
        let lanes = profile.get(q[0], 0).0;
        assert_eq!(
            lanes[0] as i32,
            p.matrix.score(q[0], q[0]) + profile.bias() as i32
        );
        assert_eq!(lanes[3], 0);
    }
}
