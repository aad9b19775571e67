//! §III ablation — replay the incremental development of the improved
//! kernel, then each §VI future-work idea applied to it (functional).
//!
//! §III-A: fixing the register spill (deep swap + hand unrolling)
//! "yielded about a two-fold performance increase". §III-B: the packed
//! query profile makes "only a single read required for every four
//! cells, reducing these memory operations by a factor of four". §VI:
//! coalesced strip-boundary I/O, a shared-memory boundary, one pipeline
//! fill/flush across strips. (§VI's fourth idea, the streamed host→device
//! copy, is not a kernel stage: it is the counted `stream` row of
//! `repro device-opt`.)

use crate::report::Table;
use crate::workloads;
use cudasw_core::variants::{run_intra_variant, AblationStage};
use cudasw_core::ImprovedParams;
use gpu_sim::DeviceSpec;
use sw_align::SwParams;

/// One stage's measurements.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Stage name.
    pub name: &'static str,
    /// Simulated GCUPs.
    pub gcups: f64,
    /// Global transactions.
    pub global_transactions: u64,
    /// Texture fetch instructions.
    pub tex_instructions: u64,
    /// Barrier count.
    pub syncs: u64,
    /// Speedup over the previous stage.
    pub speedup_vs_previous: f64,
}

/// The ablation's data.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Rows in stage order.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// The §III development story as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "§III ablation — incremental development of the improved kernel",
            &[
                "stage",
                "GCUPs",
                "global transactions",
                "tex fetches",
                "speedup vs prev",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.name.to_string(),
                format!("{:.2}", r.gcups),
                r.global_transactions.to_string(),
                r.tex_instructions.to_string(),
                format!("{:.2}x", r.speedup_vs_previous),
            ]);
        }
        t
    }

    /// The final kernel against each §VI idea as a table.
    pub fn table_extensions(&self) -> Table {
        let mut t = Table::new(
            "§VI kernel extensions on long sequences (functional)",
            &["variant", "GCUPs", "global transactions", "syncs"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.name.to_string(),
                format!("{:.2}", r.gcups),
                r.global_transactions.to_string(),
                r.syncs.to_string(),
            ]);
        }
        t
    }

    /// End-to-end speedup from the first stage to the last.
    pub fn total_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup_vs_previous).product()
    }

    /// Row by stage name.
    pub fn row(&self, name: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Run `stages` functionally over `long_seqs` over-threshold sequences
/// (functionally validated: all stages must agree on scores).
pub fn run(
    spec: &DeviceSpec,
    stages: &[AblationStage],
    long_seqs: usize,
    mean_len: usize,
    query_len: usize,
) -> AblationResult {
    let db = workloads::long_tail_db(long_seqs, mean_len);
    let query = workloads::query(query_len);
    let mut rows = Vec::new();
    let mut prev_seconds: Option<f64> = None;
    let mut reference: Option<Vec<i32>> = None;
    for stage in stages {
        let (scores, stats) = run_intra_variant(
            spec,
            db.sequences(),
            &query,
            &SwParams::cudasw_default(),
            ImprovedParams::default(),
            stage.variant,
            stage.device,
        )
        .expect("stage run");
        let reference = reference.get_or_insert_with(|| scores.clone());
        assert_eq!(&scores, reference, "stage {} changed scores", stage.name);
        let speedup = prev_seconds.map(|p| p / stats.seconds).unwrap_or(1.0);
        prev_seconds = Some(stats.seconds);
        rows.push(AblationRow {
            name: stage.name,
            gcups: stats.gcups(),
            global_transactions: stats.global_transactions(),
            tex_instructions: stats.memory.tex_instructions,
            syncs: stats.totals.syncs,
            speedup_vs_previous: speedup,
        });
    }
    AblationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudasw_core::variants::{development_stages, FINAL_KERNEL_STAGE};

    fn section3(long_seqs: usize, mean_len: usize, query_len: usize) -> AblationResult {
        let stages = &development_stages()[..=FINAL_KERNEL_STAGE];
        run(
            &DeviceSpec::tesla_c1060(),
            stages,
            long_seqs,
            mean_len,
            query_len,
        )
    }

    fn section6(spec: &DeviceSpec, query_len: usize) -> AblationResult {
        let stages = &development_stages()[FINAL_KERNEL_STAGE..];
        run(spec, stages, 2, 3300, query_len)
    }

    #[test]
    fn every_stage_improves() {
        let r = section3(3, 3300, 300);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows[1..] {
            assert!(
                row.speedup_vs_previous >= 1.0,
                "{} regressed: {:.2}x",
                row.name,
                row.speedup_vs_previous
            );
        }
        assert!(r.total_speedup() > 1.5, "total {:.2}x", r.total_speedup());
    }

    #[test]
    fn deep_swap_removes_spill_traffic() {
        let r = section3(2, 3200, 256);
        let naive = &r.rows[0];
        let deep = &r.rows[1];
        assert!(deep.global_transactions < naive.global_transactions);
    }

    #[test]
    fn profile_packing_quarters_tex_fetches() {
        let r = section3(2, 3200, 256);
        let deep = &r.rows[1];
        let improved = &r.rows[2];
        // Texture ops cover profile fetches (4x in the per-row variant)
        // plus unchanged database-residue fetches, so the total lands
        // around 2.5x.
        let ratio = deep.tex_instructions as f64 / improved.tex_instructions.max(1) as f64;
        assert!((2.0..=3.0).contains(&ratio), "tex ratio {ratio:.2}");
    }

    #[test]
    fn section6_rows_are_complete_and_consistent() {
        // Query of 300 rows with default n_th=256 is single-strip: no
        // boundary traffic, so no stage may add any.
        let r = section6(&DeviceSpec::tesla_c2050(), 300);
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[0].name, "improved");
        let base = r.rows[0].global_transactions;
        for row in &r.rows {
            assert!(row.gcups > 0.0, "{} has zero GCUPs", row.name);
            assert!(
                row.global_transactions <= base,
                "{} added global traffic",
                row.name
            );
        }
        let rendered = r.table_extensions().render();
        for row in &r.rows {
            assert!(rendered.contains(row.name), "{} missing", row.name);
        }
    }

    #[test]
    fn coalesced_io_improves_gcups_on_multi_strip_queries() {
        // A long query, so boundary traffic exists to coalesce.
        let r = section6(&DeviceSpec::tesla_c1060(), 2200);
        let base = r.row("improved").unwrap();
        let coal = r.row("+coalesced-io").unwrap();
        assert!(coal.global_transactions < base.global_transactions);
        assert!(coal.gcups >= base.gcups * 0.95);
        // The fused pipeline saves barriers, the shared boundary (which
        // does not fit the C1060's 16 KB at this length) falls back.
        assert!(r.row("+continuous-pipeline").unwrap().syncs < base.syncs);
        let fallback = r.row("+shared-boundary").unwrap();
        assert_eq!(fallback.global_transactions, base.global_transactions);
    }
}
