//! An operation budget for the byte kernel's column loop.
//!
//! [`Counted`] is a [`ByteSimd`] implementor that delegates to the portable
//! vector and counts the kernel's trait calls, so the one generic loop in
//! `backend.rs` cannot grow an operation without this test changing. The
//! AVX2 byte loop is issue-bound (EXPERIMENTS.md, "Engine constants"): an operation
//! there costs what it looks like, 5.5–8.8% of the scan rate.
//!
//! Per column, with `add_score` counted once (it is one `vpaddsb` on AVX2
//! and the pair `paddusb`, `psubusb bias` on the biased backends):
//!
//! * the main loop: `9·seg_len` arithmetic calls — per stripe `add_score`,
//!   `max(E)`, `max` into the running maximum, `max(F)`, `H ⊖ open`,
//!   `E ⊖ extend`, `max` into E, `F ⊖ extend`, `max` into F;
//! * the epilogue's constant `c = 5`, none of them arithmetic: the wrap
//!   `shift` of the last H stripe, `any_gt(chunk decay)` choosing the
//!   Lazy-F route, the `shift` handing each lane its incoming F, the first
//!   early-exit `any_gt`, and the overflow `any_gt(limit)`;
//! * each repair step: four arithmetic calls (`max(H, F)`, `H ⊖ open`,
//!   `max` into E, `F ⊖ extend`) and, past the untested prefix, one
//!   early-exit `any_gt`;
//! * each scan round on a column that scans: `shift_lanes`, `sub_amount`,
//!   `max`.
//!
//! The grouped byte pass (subjects streamed through the lanes) spends the
//! same nine calls a cell: no Lazy-F, and the column's score vectors come
//! from `lookup`, which is not arithmetic. On a column where lanes take a
//! subject it spends two more a row and one in all, the `sat_sub` that
//! clears their H, E and maximum (on this 255-limit vector; AVX2 subtracts
//! twice). The grouped word
//! pass spends nine — `sat_add`, `max(E)`, `max` into the running
//! maximum, `max(F)`, the floored `H ⊖ open`, `E ⊖ extend` and
//! `F ⊖ extend` (`sub_floor`, one `vpsubusw` on AVX2) and the two `max`
//! into E and F — on every column of its stream, an odd last one swept
//! alone; it writes a refilled lane's rows through memory.

use std::cell::Cell;
use sw_align::alphabet::Alphabet;
use sw_align::matrix::ScoringMatrix;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::GapPenalties;
use sw_db::synth::make_query;
use sw_simd::backend::{
    sw_bytes_checked, sw_bytes_grouped, sw_words_grouped, ByteProfileOf, ByteSimd, Handoff,
    WordProfileOf, WordSimd,
};
use sw_simd::portable::{I16x8, U8x16};
use sw_simd::NeverCancel;

#[derive(Clone, Copy)]
struct Calls {
    /// `add_score`, `sat_add`, `sat_sub`, `sub_amount`, `max`.
    arithmetic: u64,
    any_gt: u64,
    shift: u64,
    shift_lanes: u64,
    /// `store` (the byte vector only).
    stores: u64,
}

const NO_CALLS: Calls = Calls {
    arithmetic: 0,
    any_gt: 0,
    shift: 0,
    shift_lanes: 0,
    stores: 0,
};

thread_local! {
    static CALLS: Cell<Calls> = const { Cell::new(NO_CALLS) };
}

fn tick(bump: impl FnOnce(&mut Calls)) {
    CALLS.with(|c| {
        let mut calls = c.get();
        bump(&mut calls);
        c.set(calls);
    });
}

/// The trait methods both counting vectors forward to the portable
/// vector `$inner` of `$lane` lanes: the binary `$arithmetic` ones counted
/// as arithmetic, the tests and shifts on their own, and stores when
/// `$stores` holds. Constructors, loads and the final `horizontal_max` are
/// not counted: none runs per stripe.
macro_rules! counting {
    ($inner:ty, $lane:ty, $stores:expr, $($arithmetic:ident),*) => {
        const LANES: usize = <$inner>::LANES;

        fn splat(v: $lane) -> Self {
            Self(<$inner>::splat(v))
        }

        fn load(lanes: &[$lane]) -> Self {
            Self(<$inner>::load(lanes))
        }

        fn store(self, out: &mut [$lane]) {
            tick(|c| c.stores += u64::from($stores));
            self.0.store(out)
        }

        $(
            fn $arithmetic(self, rhs: Self) -> Self {
                tick(|c| c.arithmetic += 1);
                Self(self.0.$arithmetic(rhs.0))
            }
        )*

        fn any_gt(self, rhs: Self) -> bool {
            tick(|c| c.any_gt += 1);
            self.0.any_gt(rhs.0)
        }

        fn shift(self) -> Self {
            tick(|c| c.shift += 1);
            Self(self.0.shift())
        }

        fn shift_lanes(self, n: usize) -> Self {
            tick(|c| c.shift_lanes += 1);
            Self(self.0.shift_lanes(n))
        }

        fn horizontal_max(self) -> $lane {
            self.0.horizontal_max()
        }
    };
}

/// The portable byte vector, counting; `lookup` is not counted.
#[derive(Clone, Copy)]
struct Counted(U8x16);

impl ByteSimd for Counted {
    counting!(U8x16, u8, true, sat_add, sat_sub, max);

    fn add_score(self, scores: Self, bias: Self) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.add_score(scores.0, bias.0))
    }

    fn sub_amount(self, n: u8) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.sub_amount(n))
    }

    /// Not counted, its store included: a column's lookups are not state.
    fn lookup(self, table: &[u8; 32]) -> Self {
        Self(self.0.lookup(table))
    }
}

/// The portable word vector, counting; `lookup` is not counted.
#[derive(Clone, Copy)]
struct CountedWord(I16x8);

impl WordSimd for CountedWord {
    counting!(I16x8, i16, false, sat_add, sat_sub, sub_floor, max);
}

#[test]
fn the_column_loop_stays_inside_its_operation_budget() {
    let p = SwParams::cudasw_default();
    // 375 residues on 16 lanes: seg_len 24, past the untested prefix of 4.
    let query = make_query(375, 1);
    let profile = ByteProfileOf::<Counted>::build(&p, &query);
    let seg_len = profile.seg_len() as u64;
    assert_eq!(seg_len, 24);
    let peel = 4;

    for (subject, seed) in [(400usize, 2u64), (1500, 3)] {
        let db = make_query(subject, seed);
        let cols = db.len() as u64;
        CALLS.with(|c| c.set(NO_CALLS));
        let result =
            sw_bytes_checked(&p.gaps, &profile, &db, false, &NeverCancel).expect("never cancels");
        let calls = CALLS.with(Cell::get);
        assert_eq!(
            result.score,
            Ok(sw_score(&p, &query, &db)),
            "a random subject stays in byte mode"
        );

        // `lazy_f` counts scan rounds and repair steps alike.
        let scan_rounds = calls.shift_lanes;
        let repair_steps = result.lazy_f - scan_rounds;
        let tested_steps = repair_steps - cols * peel;
        assert!(tested_steps > 0, "some column must repair past the prefix");
        assert!(
            calls.arithmetic <= cols * 9 * seg_len + 4 * repair_steps + 2 * scan_rounds,
            "arithmetic calls {} over {cols} columns, {repair_steps} repair steps, \
             {scan_rounds} scan rounds",
            calls.arithmetic
        );
        // c = 5 a column: two shifts, three tests; one more test after
        // every tested repair step. With strictly affine gaps a column that
        // does not scan never wraps a second repair pass, so no third shift.
        assert!(calls.shift <= 2 * cols, "shifts {}", calls.shift);
        assert!(
            calls.any_gt <= 3 * cols + tested_steps,
            "tests {} over {cols} columns, {tested_steps} tested steps",
            calls.any_gt
        );
    }
}

/// The stream columns of `lens` entering `lanes` lanes in order, each on
/// the first even column a lane is free, none handing off: the last
/// subject's end.
fn stream_columns(lanes: usize, lens: &[usize]) -> u64 {
    let mut free = vec![0usize; lanes];
    let mut end = 0;
    for &len in lens {
        let lane = (0..lanes).min_by_key(|&k| free[k]).unwrap();
        free[lane] = free[lane].next_multiple_of(2) + len;
        end = end.max(free[lane]);
    }
    end as u64
}

#[test]
fn the_grouped_loop_spends_nine_operations_a_cell() {
    let p = SwParams::cudasw_default();
    let query = make_query(375, 1);
    let profile = ByteProfileOf::<Counted>::build(&p, &query);
    // Random subjects of unequal lengths stay in byte mode; the last three
    // enter lanes freed on columns 300, 302 and 304.
    let lens: Vec<usize> = (0..Counted::LANES + 3)
        .map(|k| {
            if k < Counted::LANES {
                300 + 2 * k
            } else {
                99 + k
            }
        })
        .collect();
    let subjects: Vec<Vec<u8>> = (lens.iter().enumerate())
        .map(|(k, &len)| make_query(len, 10 + k as u64))
        .collect();
    let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
    let cols = stream_columns(Counted::LANES, &lens);
    assert_eq!(cols, 304 + 117);
    CALLS.with(|c| c.set(NO_CALLS));
    let lanes = sw_bytes_grouped(&p.gaps, &profile, &refs, &NeverCancel, &mut [0; 3])
        .expect("never cancels");
    let calls = CALLS.with(Cell::get);
    for (d, lane) in refs.iter().zip(lanes) {
        assert_eq!(lane, Ok(sw_score(&p, &query, d)));
    }
    // Nine a cell, and two a row and one more on each column where lanes
    // fill (0, 300, 302 and 304): the `sat_sub` of each row's H and E and
    // of the maxima that clears them.
    let m = query.len() as u64;
    assert_eq!(calls.arithmetic, 9 * m * cols + (2 * m + 1) * 4);
    assert_eq!(calls.shift + calls.shift_lanes, 0, "no lane reads another");
    // At most two tests a sweep of one or two columns: whether the next
    // sweep may take two, and the hand-off limit.
    assert!(calls.any_gt <= 2 * cols, "tests {}", calls.any_gt);
}

#[test]
fn a_column_where_every_lane_hands_off_stores_each_row_once() {
    // Under +127/−4 a match on a subject's first column hands it off. The
    // same stream with and without that match: every lane handing off on
    // column 1 costs one store of each of the `2m` state rows and O(1) more,
    // where storing each lane's rows apart stored `2m` a lane.
    let p = SwParams {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Protein, 127, -4),
        gaps: GapPenalties::cudasw_default(),
    };
    let query: Vec<u8> = make_query(200, 3).into_iter().map(|r| r % 10).collect();
    let profile = ByteProfileOf::<Counted>::build(&p, &query);
    let strangers: Vec<Vec<u8>> = (0..Counted::LANES)
        .map(|k| (0..40).map(|i| 10 + ((i + k) % 10) as u8).collect())
        .collect();
    let stores = |subjects: &[Vec<u8>]| {
        let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
        CALLS.with(|c| c.set(NO_CALLS));
        let lanes = sw_bytes_grouped(&p.gaps, &profile, &refs, &NeverCancel, &mut [0; 3]);
        (lanes.expect("never cancels"), CALLS.with(Cell::get).stores)
    };
    let (calm, calm_stores) = stores(&strangers);
    assert!(calm.iter().all(Result::is_ok));
    let matched: Vec<Vec<u8>> = (strangers.iter())
        .map(|d| [&query[..1], &d[1..]].concat())
        .collect();
    let (handed, handed_stores) = stores(&matched);
    assert!(handed
        .iter()
        .all(|lane| lane.as_ref().is_err_and(|h| h.cols == 1)));
    let rows = 2 * query.len() as u64;
    assert!(
        handed_stores - calm_stores <= rows + 4,
        "{} stores past the calm stream's {calm_stores}",
        handed_stores - calm_stores
    );
}

#[test]
fn the_grouped_word_loop_spends_nine_operations_a_cell() {
    let p = SwParams::cudasw_default();
    let query = make_query(375, 1);
    let profile = WordProfileOf::<CountedWord>::build(&p, &query);
    // From the zero state, one subject more than lanes: the last enters the
    // lane freed on column 200 and ends on 309, an odd column swept alone
    // after 154 pairs.
    let lens: Vec<usize> = (0..CountedWord::LANES + 1)
        .map(|k| if k < CountedWord::LANES { 200 + k } else { 109 })
        .collect();
    let subjects: Vec<Vec<u8>> = (lens.iter().enumerate())
        .map(|(k, &len)| make_query(len, 10 + k as u64))
        .collect();
    let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
    let zero = Handoff::default();
    let starts = vec![&zero; refs.len()];
    let cols = stream_columns(CountedWord::LANES, &lens);
    assert_eq!(cols, 309);
    CALLS.with(|c| c.set(NO_CALLS));
    let scores =
        sw_words_grouped(&p.gaps, &profile, &refs, &starts, &NeverCancel, &mut [0; 3]).unwrap();
    let calls = CALLS.with(Cell::get);
    for (d, score) in refs.iter().zip(scores) {
        assert_eq!(score, sw_score(&p, &query, d));
    }
    assert_eq!(calls.arithmetic, 9 * query.len() as u64 * cols);
    assert_eq!(calls.shift + calls.shift_lanes, 0, "no lane reads another");
    assert_eq!(calls.any_gt, 0, "no test: no hand-off and no Lazy-F");
}
