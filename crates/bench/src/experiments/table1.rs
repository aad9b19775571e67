//! Table I — total global memory transactions of the two intra-task
//! kernels, for queries of length 567 and 5478.
//!
//! "We used a profiler to count the number of global memory accesses of
//! both the improved and the original kernel. We used a query sequence of
//! length 567 and a query sequence of length 5478 and ran each against the
//! Swissprot database." Only sequences above the threshold reach the
//! intra-task kernels, so the workload is the long tail.
//!
//! This experiment is fully *functional*: the simulator counts the actual
//! coalesced transactions.

use crate::report::Table;
use crate::workloads;
use cudasw_core::variants::run_intra_variant;
use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    VariantConfig,
};
use gpu_sim::DeviceSpec;

/// One Table I cell set.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Query length.
    pub query_len: usize,
    /// Measured global transactions.
    pub transactions: u64,
    /// Cells computed (for the per-cell rate).
    pub cells: u64,
}

/// Table I's data.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rows (improved/original × the two query lengths).
    pub rows: Vec<Table1Row>,
    /// Number of long sequences used.
    pub long_seqs: usize,
    /// Total residues of the long tail.
    pub long_residues: u64,
}

impl Table1Result {
    /// Reduction ratio original/improved for a query length.
    pub fn reduction(&self, query_len: usize) -> f64 {
        let get = |k: &str| {
            self.rows
                .iter()
                .find(|r| r.kernel == k && r.query_len == query_len)
                .map(|r| r.transactions)
                .unwrap_or(0)
        };
        get("Orig. Kernel") as f64 / get("Imp. Kernel").max(1) as f64
    }

    /// Render as a table in the paper's layout.
    pub fn table(&self, query_lens: &[usize]) -> Table {
        let mut headers = vec!["Kernel".to_string()];
        for q in query_lens {
            headers.push(format!("Query Len. {q}"));
        }
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!(
                "Table I — global memory transactions ({} long sequences, {} residues)",
                self.long_seqs, self.long_residues
            ),
            &headers_ref,
        );
        for kernel in ["Imp. Kernel", "Orig. Kernel"] {
            let mut row = vec![kernel.to_string()];
            for &q in query_lens {
                let v = self
                    .rows
                    .iter()
                    .find(|r| r.kernel == kernel && r.query_len == q)
                    .map(|r| r.transactions)
                    .unwrap_or(0);
                row.push(v.to_string());
            }
            t.push_row(row);
        }
        t
    }
}

/// Run Table I functionally with `long_seqs` synthetic over-threshold
/// sequences of mean length `mean_len` and the given query lengths.
pub fn run(
    spec: &DeviceSpec,
    long_seqs: usize,
    mean_len: usize,
    query_lens: &[usize],
) -> Table1Result {
    let db = workloads::long_tail_db(long_seqs, mean_len);
    let mut rows = Vec::new();
    for &qlen in query_lens {
        let query = workloads::query(qlen);
        let (_, imp) = run_intra_variant(
            spec,
            db.sequences(),
            &query,
            ImprovedParams::default(),
            VariantConfig::improved(),
            DeviceKernelConfig::default(),
        )
        .expect("improved kernel");
        rows.push(Table1Row {
            kernel: "Imp. Kernel",
            query_len: qlen,
            transactions: imp.global_transactions(),
            cells: imp.cells(),
        });
        // The original kernel through the driver path (all sequences go to
        // the intra kernel at threshold 1).
        let mut cfg = CudaSwConfig::original();
        cfg.threshold = 1;
        cfg.intra = IntraKernelChoice::Original;
        let mut driver = CudaSwDriver::new(spec.clone(), cfg);
        let r = driver.search(&query, &db).expect("original kernel");
        rows.push(Table1Row {
            kernel: "Orig. Kernel",
            query_len: qlen,
            transactions: r.intra.global_transactions,
            cells: r.intra.cells,
        });
    }
    Table1Result {
        rows,
        long_seqs,
        long_residues: db.total_residues(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_of_magnitude_reduction_for_both_query_lengths() {
        // Small functional instance: the *ratios* carry the result. Query
        // 512 fits one strip (no boundary traffic at all, like the paper's
        // 567), query 2048 needs two strips (boundary rows appear, like
        // the paper's 5478).
        let r = run(&DeviceSpec::tesla_c1060(), 3, 3300, &[512, 2048]);
        assert!(
            r.reduction(512) > 1000.0,
            "single-strip reduction = {:.1}",
            r.reduction(512)
        );
        assert!(
            r.reduction(2048) > 20.0,
            "multi-strip reduction = {:.1}",
            r.reduction(2048)
        );
        // Single-strip queries reduce far more (the paper's 567 column is
        // ~2000:1 while 5478 is ~40:1).
        assert!(r.reduction(512) > r.reduction(2048));
    }

    #[test]
    fn table_renders_with_both_kernels() {
        let r = run(&DeviceSpec::tesla_c1060(), 2, 3200, &[64]);
        let rendered = r.table(&[64]).render();
        assert!(rendered.contains("Imp. Kernel"));
        assert!(rendered.contains("Orig. Kernel"));
    }
}
