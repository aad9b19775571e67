//! An operation budget for the byte kernel's column loop.
//!
//! [`Counted`] is a [`ByteSimd`] implementor that delegates to the portable
//! vector and counts the kernel's trait calls, so the one generic loop in
//! `backend.rs` cannot grow an operation without this test changing. The
//! AVX2 byte loop is issue-bound (EXPERIMENTS.md, "PR 20"): an operation
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
//! The parent of the PR that added this test, counted the same way by
//! hand, spent `10·seg_len` (the `⊖ bias` was a call of its own on every
//! backend) and five per repair step (it re-folded the repaired H into the
//! running maximum).
//!
//! The grouped byte pass (one subject a lane) spends the same nine calls a
//! cell and nothing else arithmetic: no Lazy-F, and the column's score
//! vectors come from `lookup`, which is not arithmetic.

use std::cell::Cell;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_db::synth::make_query;
use sw_simd::backend::{sw_bytes_checked, sw_bytes_grouped, ByteProfileOf, ByteSimd};
use sw_simd::portable::U8x16;
use sw_simd::NeverCancel;

#[derive(Clone, Copy)]
struct Calls {
    /// `add_score`, `sat_add`, `sat_sub`, `sub_amount`, `max`.
    arithmetic: u64,
    any_gt: u64,
    shift: u64,
    shift_lanes: u64,
}

const NO_CALLS: Calls = Calls {
    arithmetic: 0,
    any_gt: 0,
    shift: 0,
    shift_lanes: 0,
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

/// The portable vector, counting. Constructors, loads, stores and the
/// final `horizontal_max` are not counted: none runs per stripe.
#[derive(Clone, Copy)]
struct Counted(U8x16);

impl ByteSimd for Counted {
    const LANES: usize = U8x16::LANES;

    fn splat(v: u8) -> Self {
        Self(U8x16::splat(v))
    }

    fn load(lanes: &[u8]) -> Self {
        Self(U8x16::load(lanes))
    }

    fn store(self, out: &mut [u8]) {
        self.0.store(out)
    }

    fn sat_add(self, rhs: Self) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.sat_add(rhs.0))
    }

    fn add_score(self, scores: Self, bias: Self) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.add_score(scores.0, bias.0))
    }

    fn sat_sub(self, amount: Self) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.sat_sub(amount.0))
    }

    fn sub_amount(self, n: u8) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.sub_amount(n))
    }

    fn max(self, rhs: Self) -> Self {
        tick(|c| c.arithmetic += 1);
        Self(self.0.max(rhs.0))
    }

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

    fn horizontal_max(self) -> u8 {
        self.0.horizontal_max()
    }
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

#[test]
fn the_grouped_loop_spends_nine_operations_a_cell() {
    let p = SwParams::cudasw_default();
    let query = make_query(375, 1);
    let profile = ByteProfileOf::<Counted>::build(&p, &query);
    // Random subjects of unequal lengths stay in byte mode.
    let subjects: Vec<Vec<u8>> = (0..Counted::LANES)
        .map(|k| make_query(300 + 5 * k, 10 + k as u64))
        .collect();
    let refs: Vec<&[u8]> = subjects.iter().map(Vec::as_slice).collect();
    let cols = refs.iter().map(|s| s.len()).max().unwrap() as u64;
    CALLS.with(|c| c.set(NO_CALLS));
    let lanes = sw_bytes_grouped(&p.gaps, &profile, &refs, &NeverCancel).expect("never cancels");
    let calls = CALLS.with(Cell::get);
    for (d, lane) in refs.iter().zip(lanes) {
        assert_eq!(lane, Ok(sw_score(&p, &query, d)));
    }
    assert_eq!(calls.arithmetic, 9 * query.len() as u64 * cols);
    assert_eq!(calls.shift + calls.shift_lanes, 0, "no lane reads another");
    // At most two tests a sweep of one or two columns: whether the next
    // sweep may take two, and the hand-off limit.
    assert!(calls.any_gt <= 2 * cols, "tests {}", calls.any_gt);
}
