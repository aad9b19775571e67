//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment module produces the same rows/series the paper reports
//! (see DESIGN.md §4 for the experiment index). Two execution modes are
//! used, following the scaling policy of DESIGN.md §5:
//!
//! * **functional** — the kernels execute every DP cell through the
//!   simulated memory system (exact counters; used for Table I, the
//!   ablations, and anchor points);
//! * **analytic** — the validated closed-form models of
//!   `cudasw_core::model` run at full paper scale (500k-sequence
//!   Swissprot; used for the sweep curves of Figures 2/3/5/6/7 and
//!   Table II).
//!
//! The `repro` binary drives everything: `repro all` regenerates the whole
//! evaluation section. Its documents (`BENCH_device.json`,
//! `BENCH_soak.json`) hold simulated-clock numbers only, so they are
//! snapshots, checked with `cmp`. Apart from Figure 7's host series,
//! wall-clock speed is measured by the repo benchmark (`benchmark/`).

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{Series, Table};
