//! Figure 7 — overall GCUPs as a function of query length, against the
//! SWPS3 CPU baseline.
//!
//! "We measure the GCUPs from multiple query sequences against the
//! Swissprot database. As a point of reference, we also ran SWPS3, a
//! vectorized SSE implementation of Smith-Waterman using four cores [...]
//! When our improved intra-task kernel is incorporated into CUDASW++, the
//! performance is consistently higher than the original CUDASW++ by an
//! average of about four GCUPs or 25%."
//!
//! GPU curves are simulated (analytic, paper scale); the SWPS3 curve is
//! *host-measured* wall-clock GCUPs of this workspace's striped SIMD engine
//! — [`QueryEngine`] on the SSE2 backend where the host has it, the
//! like-for-like of the paper's SSE baseline — over a scaled database on
//! the work-stealing pool (see EXPERIMENTS.md for how the two time bases
//! are compared).

use crate::experiments::{four_configs, predict};
use crate::report::{series_table, Series, Table};
use crate::workloads;
use sw_align::SwParams;
use sw_db::catalog::{paper_query_lengths, PaperDb};
use sw_simd::{
    effective_workers, search_protected, BackendKind, PoolConfig, Precision, QueryEngine,
};

/// Worker threads requested for the CPU baseline (the paper's four Xeon
/// cores); the pool clamps this to what the host can run.
const SWPS3_THREADS: usize = 4;

/// Figure 7's data.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The four GPU configurations.
    pub gpu: Vec<Series>,
    /// SWPS3 (host-measured), if it was run.
    pub swps3: Option<Series>,
    /// Mean absolute GCUPs gain (improved − original), per device.
    pub mean_gain: Vec<(String, f64)>,
}

impl Fig7Result {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut series = self.gpu.clone();
        if let Some(s) = &self.swps3 {
            series.push(s.clone());
        }
        series_table(
            "Figure 7 — GCUPs vs query length on Swissprot",
            "query length",
            &series,
        )
    }

    /// Gains as a table.
    pub fn table_gains(&self) -> Table {
        let mut t = Table::new(
            "Figure 7 summary — mean gain of the improved kernel",
            &["device", "mean gain (GCUPs)"],
        );
        for (dev, g) in &self.mean_gain {
            t.push_row(vec![dev.clone(), format!("{g:.2}")]);
        }
        t
    }
}

/// Run Figure 7. `swps3_db_size` > 0 also measures the CPU baseline on a
/// scaled functional database of that many sequences (0 skips it, e.g. in
/// benches). The watchdog is disarmed: a fault-free search would otherwise
/// return on its poll tick, and a point of a few milliseconds would read
/// as the tick.
pub fn run(threshold: usize, swps3_db_size: usize) -> Fig7Result {
    let lengths = workloads::paper_scale_lengths(PaperDb::Swissprot);
    let queries = paper_query_lengths();
    let mut gpu = Vec::new();
    let mut per_device: Vec<(String, Vec<f64>, Vec<f64>)> = vec![
        ("Tesla C2050".to_string(), Vec::new(), Vec::new()),
        ("Tesla C1060".to_string(), Vec::new(), Vec::new()),
    ];
    for (label, spec, intra) in four_configs() {
        let mut s = Series::new(label);
        for &qlen in &queries {
            let p = predict(&spec, &lengths, qlen, threshold, intra, false);
            s.push(qlen as f64, p.gcups());
            let slot = if spec.name.contains("C2050") { 0 } else { 1 };
            match intra {
                cudasw_core::model::PredictedIntra::Improved => per_device[slot].1.push(p.gcups()),
                cudasw_core::model::PredictedIntra::Original => per_device[slot].2.push(p.gcups()),
            }
        }
        gpu.push(s);
    }
    let mean_gain = per_device
        .into_iter()
        .map(|(dev, imp, orig)| {
            let gain: f64 =
                imp.iter().zip(&orig).map(|(i, o)| i - o).sum::<f64>() / imp.len() as f64;
            (dev, gain)
        })
        .collect();

    let swps3 = if swps3_db_size > 0 {
        let db = workloads::functional_db(PaperDb::Swissprot, swps3_db_size);
        let kind = if BackendKind::Sse2.is_available() {
            BackendKind::Sse2
        } else {
            BackendKind::detect()
        };
        let cfg = PoolConfig::new(SWPS3_THREADS, Precision::Adaptive).with_watchdog(0, 1);
        let mut s = Series::new(format!(
            "SWPS3 role ({kind}, {} threads, host-measured)",
            effective_workers(SWPS3_THREADS, db.len())
        ));
        for &qlen in &queries {
            let query = workloads::query(qlen);
            let engine = QueryEngine::with_backend(SwParams::cudasw_default(), &query, kind);
            let r = search_protected(&engine, db.sequences(), &cfg)
                .expect("no cancel token is configured");
            sw_simd::record_stats(kind, &r.stats);
            s.push(qlen as f64, db.total_cells(qlen) as f64 / r.seconds / 1.0e9);
        }
        Some(s)
    } else {
        None
    };

    Fig7Result {
        gpu,
        swps3,
        mean_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improved_beats_original_at_every_query_length() {
        let r = run(3072, 0);
        for (imp_idx, orig_idx) in [(0usize, 1usize), (2, 3)] {
            for (pi, po) in r.gpu[imp_idx].points.iter().zip(&r.gpu[orig_idx].points) {
                assert!(pi.1 >= po.1, "query {}: {} < {}", pi.0, pi.1, po.1);
            }
        }
    }

    #[test]
    fn mean_gain_is_positive_on_both_devices() {
        let r = run(3072, 0);
        for (dev, g) in &r.mean_gain {
            assert!(*g > 0.0, "{dev}: {g:.2}");
        }
    }

    #[test]
    fn improved_curve_is_flat_for_long_queries() {
        // "the performance is consistent for query lengths above 1000".
        let r = run(3072, 0);
        let c1060_imp = &r.gpu[2];
        let long: Vec<f64> = c1060_imp
            .points
            .iter()
            .filter(|p| p.0 >= 1000.0)
            .map(|p| p.1)
            .collect();
        let max = long.iter().cloned().fold(f64::MIN, f64::max);
        let min = long.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / max < 0.25,
            "long-query spread too large: {min:.1}..{max:.1}"
        );
    }

    #[test]
    fn swps3_runs_and_reports_positive_gcups() {
        let r = run(3072, 60);
        let s = r.swps3.expect("swps3 series");
        assert_eq!(s.points.len(), 15);
        assert!(s.points.iter().all(|p| p.1 > 0.0));
    }
}
