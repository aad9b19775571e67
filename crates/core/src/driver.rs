//! The CUDASW++ application driver.
//!
//! Reproduces the host-side logic of CUDASW++: sort the database by length
//! (done by `sw_db::Database`), split it at the threshold (default 3072),
//! stage groups of `s` sequences for the inter-task kernel — `s` computed
//! from the occupancy calculator, "based on machine parameters to maximize
//! the occupancy" — and hand every sequence over the threshold to the
//! selected intra-task kernel (original or improved), one block each.
//!
//! The driver accounts inter-task and intra-task time separately, which is
//! what Figure 5(b) plots, and accumulates host→device transfer time for
//! the streamed-copy experiment of §VI.
//!
//! This module holds the configuration, the result type and the entry
//! point; the walk itself — partition, per-search database uploads,
//! allocator mark, the per-search `streamed_h2d` session — is the chunk
//! loop in `chunk_loop.rs`, of which [`CudaSwDriver::search`] is the
//! fault-free case. Every kernel is built and launched by the shared
//! launch path in `launch.rs`, which is also where each
//! [`DeviceKernelConfig`] kernel flag is read.

use crate::intra_improved::{ImprovedParams, VariantConfig};
use gpu_sim::stats::{LaunchStats, RunStats};
use gpu_sim::{DeviceSpec, GpuDevice, GpuError};
use obs::MetricsRegistry;
use sw_align::SwParams;
use sw_db::Database;

/// Record one kernel launch under its driver phase (`"inter"` /
/// `"intra"`) in the ambient metrics registry. The registry is the source
/// of truth for phase accounting; [`RunStats`] views are reconstructed
/// from it by [`phase_run_stats`].
pub(crate) fn note_phase_launch(phase: &str, stats: &LaunchStats) {
    let labels = [("phase", phase)];
    obs::counter_add("cudasw.core.phase.launches", &labels, 1.0);
    obs::counter_add("cudasw.core.phase.cells", &labels, stats.cells() as f64);
    obs::counter_add("cudasw.core.phase.seconds", &labels, stats.seconds);
    obs::counter_add(
        "cudasw.core.phase.global_transactions",
        &labels,
        stats.global_transactions() as f64,
    );
}

/// The thin [`RunStats`] view over one phase of a metrics delta.
///
/// Counter values are exact for the integer fields (every count in this
/// workspace is far below 2^53), so the reconstruction is lossless.
fn phase_run_stats(delta: &MetricsRegistry, phase: &str) -> RunStats {
    let labels = [("phase", phase)];
    RunStats {
        launches: delta.counter_sum("cudasw.core.phase.launches", &labels) as u32,
        cells: delta.counter_sum("cudasw.core.phase.cells", &labels) as u64,
        seconds: delta.counter_sum("cudasw.core.phase.seconds", &labels),
        global_transactions: delta.counter_sum("cudasw.core.phase.global_transactions", &labels)
            as u64,
    }
}

/// One search's `search` span and the registry snapshot its result is
/// measured against. Phase accounting lives in the metrics registry; the
/// [`RunStats`] fields of a [`SearchResult`] are views reconstructed from
/// the delta between [`SearchScope::begin`] and [`SearchScope::finish`].
pub(crate) struct SearchScope {
    span: obs::SpanGuard,
    metrics_before: MetricsRegistry,
}

impl SearchScope {
    pub(crate) fn begin() -> Self {
        Self {
            span: obs::span("search", "phase"),
            metrics_before: obs::snapshot_metrics(),
        }
    }

    pub(crate) fn finish(
        self,
        scores: Vec<i32>,
        transfer_seconds: f64,
        fraction_long: f64,
        threshold: usize,
        query_len: usize,
    ) -> SearchResult {
        let delta = obs::snapshot_metrics().diff(&self.metrics_before);
        self.span.end_with(&[("query_len", &query_len.to_string())]);
        SearchResult {
            scores,
            inter: phase_run_stats(&delta, "inter"),
            intra: phase_run_stats(&delta, "intra"),
            transfer_seconds,
            fraction_long,
            threshold,
            query_len,
        }
    }
}

/// Every optimization beyond the published kernels: the paper's §VI
/// future-work ideas and the §VII device-level ones. All default **off**,
/// which is the paper's published kernel behaviour; every flag is
/// independently switchable and every combination computes bit-identical
/// scores (held by the differential suite) — the flags change *where
/// traffic flows and when*, never *what is computed*. The last four and
/// `pipeline_fusion` only touch the improved intra-task kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceKernelConfig {
    /// Stage inter-task strip-boundary H/F traffic in shared memory by
    /// processing subjects in column panels; only per-strip edge state
    /// crosses panel seams through global scratch.
    pub boundary_staging: bool,
    /// Run subject groups that fit a single panel entirely out of shared
    /// memory: no global intermediates at all, score store only.
    pub shared_only: bool,
    /// Cross-strip pipeline fusion in the improved intra-task kernel: one
    /// fill/flush per alignment instead of one per strip (counted as
    /// hidden latency, never silently dropped).
    pub pipeline_fusion: bool,
    /// Stream host→device copies so transfer overlaps kernel execution;
    /// bytes moved are unchanged, only the exposed critical path shrinks.
    pub streamed_h2d: bool,
    /// SaLoBa-style residue-balanced assignment of long subjects to
    /// intra-task blocks (arXiv:2301.09310), replacing one-block-per-pair.
    pub balanced_intra: bool,
    /// §VI: stage the improved intra-task kernel's strip-boundary rows in
    /// shared memory and flush/prefetch them in coalesced 32-column bursts.
    pub coalesced_boundary: bool,
    /// §VI: keep that strip boundary entirely in shared memory (Fermi's
    /// larger shared memory). A launch whose longest sequence does not fit
    /// falls back to the global boundary, coalesced if that is on.
    pub shared_boundary: bool,
}

impl DeviceKernelConfig {
    /// Every optimization on.
    pub fn all_on() -> Self {
        Self {
            boundary_staging: true,
            shared_only: true,
            pipeline_fusion: true,
            streamed_h2d: true,
            balanced_intra: true,
            coalesced_boundary: true,
            shared_boundary: true,
        }
    }

    /// All 128 flag combinations, baseline first — the differential-test
    /// matrix. The §VII flags sit on the low bits, so the first 32 leave
    /// both §VI boundary flags off.
    pub fn all_combinations() -> Vec<Self> {
        (0u8..128)
            .map(|bits| Self {
                boundary_staging: bits & 1 != 0,
                shared_only: bits & 2 != 0,
                pipeline_fusion: bits & 4 != 0,
                streamed_h2d: bits & 8 != 0,
                balanced_intra: bits & 16 != 0,
                coalesced_boundary: bits & 32 != 0,
                shared_boundary: bits & 64 != 0,
            })
            .collect()
    }

    /// Stable short id for bench keys and labels ("none", "staging+fusion",
    /// "all", ...).
    pub fn label(&self) -> String {
        let names = [
            (self.boundary_staging, "staging"),
            (self.shared_only, "shared"),
            (self.pipeline_fusion, "fusion"),
            (self.streamed_h2d, "stream"),
            (self.balanced_intra, "balance"),
            (self.coalesced_boundary, "coalesce"),
            (self.shared_boundary, "shared-boundary"),
        ];
        let on: Vec<&str> = names.iter().filter(|(f, _)| *f).map(|&(_, n)| n).collect();
        if on.is_empty() {
            "none".to_string()
        } else if on.len() == names.len() {
            "all".to_string()
        } else {
            on.join("+")
        }
    }
}

/// Which intra-task kernel the application uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraKernelChoice {
    /// The original CUDASW++ wavefront kernel.
    Original,
    /// The paper's improved kernel, at a §III development stage.
    Improved(VariantConfig),
}

/// Application configuration.
#[derive(Debug, Clone)]
pub struct CudaSwConfig {
    /// Substitution matrix and gap penalties.
    pub params: SwParams,
    /// Length threshold between the kernels (default 3072).
    pub threshold: usize,
    /// Inter-task threads per block.
    pub inter_threads_per_block: u32,
    /// Improved-kernel launch shape.
    pub improved: ImprovedParams,
    /// Selected intra-task kernel.
    pub intra: IntraKernelChoice,
    /// §VI / §VII optimization toggles (default all off).
    pub device: DeviceKernelConfig,
}

impl CudaSwConfig {
    /// The paper's defaults with the improved kernel.
    pub fn improved() -> Self {
        Self {
            params: SwParams::cudasw_default(),
            threshold: crate::DEFAULT_THRESHOLD,
            inter_threads_per_block: 256,
            improved: ImprovedParams::default(),
            intra: IntraKernelChoice::Improved(VariantConfig::improved()),
            device: DeviceKernelConfig::default(),
        }
    }

    /// The paper's defaults with the original kernel.
    pub fn original() -> Self {
        Self {
            intra: IntraKernelChoice::Original,
            ..Self::improved()
        }
    }
}

/// Result of one whole-database search.
///
/// `PartialEq` compares every field bit-for-bit (floats included): the
/// checkpoint/resume machinery promises a resumed search reproduces an
/// uninterrupted one *exactly*, and the crash-matrix tests hold it to
/// that.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Scores aligned with `db.sequences()` order.
    pub scores: Vec<i32>,
    /// Inter-task kernel aggregate (all group launches).
    pub inter: RunStats,
    /// Intra-task kernel aggregate.
    pub intra: RunStats,
    /// Host→device transfer seconds (database, profile).
    pub transfer_seconds: f64,
    /// Fraction of sequences the intra-task kernel handled.
    pub fraction_long: f64,
    /// The threshold used.
    pub threshold: usize,
    /// Query length.
    pub query_len: usize,
}

impl SearchResult {
    /// Total DP cells updated.
    pub fn total_cells(&self) -> u64 {
        self.inter.cells + self.intra.cells
    }

    /// Kernel time (the paper's GCUPs denominator; transfers excluded, as
    /// in the original study which stages the database once up front).
    pub fn kernel_seconds(&self) -> f64 {
        self.inter.seconds + self.intra.seconds
    }

    /// Overall GCUPs.
    pub fn gcups(&self) -> f64 {
        let s = self.kernel_seconds();
        if s <= 0.0 {
            0.0
        } else {
            self.total_cells() as f64 / s / 1.0e9
        }
    }

    /// Fraction of kernel time spent in the intra-task kernel — the y-axis
    /// of Figure 5(b)/6.
    pub fn fraction_time_intra(&self) -> f64 {
        let s = self.kernel_seconds();
        if s <= 0.0 {
            0.0
        } else {
            self.intra.seconds / s
        }
    }

    /// Indices of the `k` best-scoring sequences, best first.
    pub fn top_hits(&self, k: usize) -> Vec<(usize, i32)> {
        let mut ranked: Vec<(usize, i32)> = self.scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

/// A device plus a configuration, ready to run searches.
pub struct CudaSwDriver {
    /// The simulated device.
    pub dev: GpuDevice,
    /// Application configuration.
    pub config: CudaSwConfig,
}

impl CudaSwDriver {
    /// Bring up a driver on `spec`.
    pub fn new(spec: DeviceSpec, config: CudaSwConfig) -> Self {
        Self {
            dev: GpuDevice::new(spec),
            config,
        }
    }

    /// The inter-task group size `s` for this device and configuration
    /// (threads resident at full occupancy across all SMs).
    pub fn group_size(&self) -> usize {
        (self
            .dev
            .spec
            .intertask_group_size(self.config.inter_threads_per_block, 30, 0) as usize)
            .max(1)
    }

    /// Compare `query` against every database sequence: the chunk loop of
    /// `chunk_loop.rs` under no policy — the first device error is
    /// returned as it is. The device's integrity-check and watchdog
    /// settings are used as found, not set.
    pub fn search(&mut self, query: &[u8], db: &Database) -> Result<SearchResult, GpuError> {
        self.search_with(query, db, None)
            .map(|searched| searched.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sw_db::synth::{database_with_lengths, make_query};

    fn mixed_db() -> Database {
        // Threshold at 100 puts 3 of 8 sequences on the intra-task path.
        database_with_lengths("mixed", &[20, 45, 60, 80, 95, 120, 150, 300], 71)
    }

    fn small_config(intra: IntraKernelChoice) -> CudaSwConfig {
        CudaSwConfig {
            threshold: 100,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            intra,
            ..CudaSwConfig::improved()
        }
    }

    #[test]
    fn threshold_extremes() {
        let db = mixed_db();
        let query = make_query(40, 35);

        // Everything inter-task.
        let mut cfg = small_config(IntraKernelChoice::Improved(VariantConfig::improved()));
        cfg.threshold = 10_000;
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let r = driver.search(&query, &db).unwrap();
        assert_eq!(r.intra.launches, 0);
        assert_eq!(r.fraction_time_intra(), 0.0);

        // Everything intra-task.
        let mut cfg = small_config(IntraKernelChoice::Improved(VariantConfig::improved()));
        cfg.threshold = 1;
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let r = driver.search(&query, &db).unwrap();
        assert_eq!(r.inter.launches, 0);
        assert!((r.fraction_long - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_groups_are_launched() {
        // Group size on the C1060 is large; shrink the device to force
        // several groups instead.
        let mut spec = DeviceSpec::tesla_c1060();
        spec.sm_count = 1;
        spec.max_threads_per_sm = 64;
        spec.max_blocks_per_sm = 2;
        let mut cfg = small_config(IntraKernelChoice::Improved(VariantConfig::improved()));
        cfg.inter_threads_per_block = 32;
        let mut driver = CudaSwDriver::new(spec, cfg);
        assert_eq!(driver.group_size(), 64);
        let db = database_with_lengths("many", &[30; 200], 79);
        let query = make_query(24, 41);
        let r = driver.search(&query, &db).unwrap();
        assert_eq!(r.inter.launches, 4); // 200 sequences / 64 per group
    }

    #[test]
    fn top_hits_ranked_best_first() {
        let db = mixed_db();
        let query = db.sequences()[5].residues.clone();
        let mut driver = CudaSwDriver::new(
            DeviceSpec::tesla_c1060(),
            small_config(IntraKernelChoice::Improved(VariantConfig::improved())),
        );
        let r = driver.search(&query, &db).unwrap();
        let top = r.top_hits(3);
        assert_eq!(top[0].0, 5, "self-match ranks first");
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn empty_query_and_empty_db() {
        let mut driver = CudaSwDriver::new(
            DeviceSpec::tesla_c1060(),
            small_config(IntraKernelChoice::Improved(VariantConfig::improved())),
        );
        let db = mixed_db();
        let r = driver.search(&[], &db).unwrap();
        assert!(r.scores.iter().all(|&s| s == 0));

        let empty = Database::new("empty", sw_align::Alphabet::Protein, vec![]);
        let r = driver.search(&make_query(10, 1), &empty).unwrap();
        assert!(r.scores.is_empty());
        assert_eq!(r.gcups(), 0.0);
    }
}
