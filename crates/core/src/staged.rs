//! Device-resident databases: stage once, search many times.
//!
//! [`CudaSwDriver::search`] re-uploads the database on every call, which
//! is the right accounting for the paper's single-query experiments but
//! wasteful for a query *stream* against a fixed database — SWAPHI-style
//! serving keeps the database resident and pays the PCIe cost once.
//!
//! [`CudaSwDriver::stage_database`] uploads every inter-task group image
//! and every intra-task sequence image once and returns a
//! [`StagedDatabase`] handle; [`CudaSwDriver::search_staged`] then runs a
//! whole search against the resident images, staging only the per-query
//! artefacts (packed profile + packed query residues, two H2D transfers).
//! Scores are identical to [`CudaSwDriver::search`] — both go through the
//! same launch path (`launch.rs`), so the kernels see the same groups, the
//! same profile, the same launch shapes; only the transfer accounting
//! moves (database bytes live in [`StagedDatabase::staging_seconds`], not
//! in every result). This module owns what is specific to residency: the
//! one-time uploads, the staged/query allocator marks, and the second of
//! the driver's two `streamed_h2d` session lifetimes — one that lives as
//! long as the staged database, where the chunk loop's (`chunk_loop.rs`)
//! lives as long as one search.
//!
//! The handle borrows nothing but is only valid while its allocations
//! live: any call that resets the allocator ([`gpu_sim::GpuDevice::free_all`],
//! and therefore [`CudaSwDriver::search`] /
//! [`CudaSwDriver::search_resilient`] and a repeated
//! [`CudaSwDriver::stage_database`]) invalidates it, and
//! [`CudaSwDriver::search_staged`] rejects a handle whose fingerprint no
//! longer matches the device state ([`GpuError::BadAccess`] would follow
//! otherwise). The single-query path is unchanged.

use crate::driver::{note_phase_launch, CudaSwDriver, SearchResult, SearchScope};
use crate::intra_orig::IntraPair;
use crate::seqstore::GroupImage;
use gpu_sim::GpuError;
use sw_align::PackedProfile;
use sw_db::Database;

/// One inter-task group resident on the device.
#[derive(Debug, Clone)]
struct StagedGroup {
    /// The uploaded interleaved image (residues, lengths, score buffer).
    img: GroupImage,
    /// Index of the group's first sequence within the short partition.
    offset: usize,
}

/// A database resident on one device, reusable across queries.
#[derive(Debug, Clone)]
pub struct StagedDatabase {
    groups: Vec<StagedGroup>,
    long: Vec<IntraPair>,
    n_short: usize,
    threshold: usize,
    /// Allocator mark right after staging: per-query scratch is released
    /// back to this point between searches.
    mark: usize,
    /// Allocator epoch at staging time; a later `free_all` (a plain
    /// `search`, a re-stage) bumps it and makes this handle stale.
    epoch: u64,
    /// H2D seconds spent staging (paid once; *not* part of any
    /// per-query [`SearchResult::transfer_seconds`]).
    staging_seconds: f64,
}

impl StagedDatabase {
    /// Number of database sequences staged.
    pub fn len(&self) -> usize {
        self.n_short + self.long.len()
    }

    /// True when the staged database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-time H2D transfer seconds the staging cost.
    pub fn staging_seconds(&self) -> f64 {
        self.staging_seconds
    }

    /// The threshold the staged partition was built with.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Fraction of sequences on the intra-task path.
    pub fn fraction_long(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.long.len() as f64 / self.len() as f64
        }
    }
}

impl CudaSwDriver {
    /// Upload `db` once: every inter-task group image (current
    /// [`CudaSwDriver::group_size`]) and every intra-task sequence image,
    /// score buffers included. Resets the device allocator first, so any
    /// previously staged handle on this driver is invalidated.
    pub fn stage_database(&mut self, db: &Database) -> Result<StagedDatabase, GpuError> {
        let sp = obs::span("stage_database", "phase");
        self.dev.free_all();
        if self.config.device.streamed_h2d {
            // §VII streamed copy: the session opened here persists for the
            // staged database's lifetime, so later queries' uploads hide
            // behind earlier queries' kernel launches.
            self.dev.begin_h2d_stream();
        }
        let partition = db.partition(self.config.threshold);
        let mut staging_seconds = 0.0;
        let s = self.group_size();
        let mut groups = Vec::new();
        let mut offset = 0usize;
        for group in partition.short.chunks(s) {
            let (img, secs) = GroupImage::upload(&mut self.dev, group)?;
            staging_seconds += secs;
            groups.push(StagedGroup { img, offset });
            offset += group.len();
        }
        let long = IntraPair::stage(&mut self.dev, partition.long, &mut staging_seconds)?;
        obs::counter_add("cudasw.core.staged.databases", &[], 1.0);
        obs::counter_add("cudasw.core.staged.sequences", &[], db.len() as f64);
        sp.end_with(&[("sequences", &db.len().to_string())]);
        Ok(StagedDatabase {
            groups,
            long,
            n_short: partition.short.len(),
            threshold: self.config.threshold,
            mark: self.dev.mark(),
            epoch: self.dev.alloc_epoch(),
            staging_seconds,
        })
    }

    /// Whether `staged` still points at live device allocations: false
    /// once the allocator was reset (or rolled below the staged images) —
    /// a plain `search`, `search_resilient`, device revival, or re-stage
    /// ran in between. A stale handle must be re-staged before use;
    /// [`CudaSwDriver::search_staged`] rejects it with
    /// [`GpuError::InvalidLaunch`].
    pub fn staged_valid(&self, staged: &StagedDatabase) -> bool {
        self.dev.alloc_epoch() == staged.epoch && self.dev.mark() >= staged.mark
    }

    /// [`CudaSwDriver::search`] against a database staged by
    /// [`CudaSwDriver::stage_database`]: only the query artefacts are
    /// uploaded (the packed profile and the packed query residues), the
    /// database images are reused in place. Scores are identical to the
    /// un-staged search; `transfer_seconds` covers the per-query traffic
    /// only.
    ///
    /// This is not a case of the chunk loop every other search runs
    /// (`chunk_loop.rs`), and stays apart from it: which of the two runs is
    /// decided by the input (the caller holds a [`StagedDatabase`] or does
    /// not), the `streamed_h2d` session here outlives the search with the
    /// staged images, and a retry inside it would change what the serve
    /// lane's ladder does on a fault — drop the handle and rerun through
    /// the loop — which `BENCH_soak.json` pins. The two share the launch
    /// path and the result assembly.
    pub fn search_staged(
        &mut self,
        query: &[u8],
        staged: &StagedDatabase,
    ) -> Result<SearchResult, GpuError> {
        if !self.staged_valid(staged) {
            return Err(GpuError::InvalidLaunch {
                reason: "stale StagedDatabase handle: device allocations were released".into(),
            });
        }
        let scope = SearchScope::begin();
        // Release the previous query's scratch, keep the database.
        self.dev.free_to(staged.mark);
        let mut scores = vec![0i32; staged.len()];

        let sp_stage = obs::span("stage_query", "phase");
        let packed = PackedProfile::build(&self.config.params.matrix, query);
        let (staged_query, mut transfer_seconds) = self.stage_query(query, &packed)?;
        sp_stage.end_with(&[]);
        let query_mark = self.dev.mark();

        // Inter-task: one launch per resident group, per-launch scratch
        // (the boundary buffer) released between launches.
        let sp_inter = obs::span("inter_task", "phase");
        for group in &staged.groups {
            let (stats, group_scores) =
                self.launch_inter_group(&group.img, &staged_query.profile, &mut transfer_seconds)?;
            note_phase_launch("inter", &stats);
            scores[group.offset..group.offset + group_scores.len()].copy_from_slice(&group_scores);
            self.dev.free_to(query_mark);
        }
        sp_inter.end_with(&[]);

        // Intra-task: one launch over all resident long sequences.
        if !staged.long.is_empty() {
            let sp_intra = obs::span("intra_task", "phase");
            let (stats, long_scores) =
                self.launch_intra(&staged.long, &staged_query, &mut transfer_seconds)?;
            note_phase_launch("intra", &stats);
            scores[staged.n_short..].copy_from_slice(&long_scores);
            sp_intra.end_with(&[]);
        }

        self.dev.free_to(staged.mark);
        Ok(scope.finish(
            scores,
            transfer_seconds,
            staged.fraction_long(),
            staged.threshold,
            query.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CudaSwConfig, IntraKernelChoice};
    use crate::intra_improved::{ImprovedParams, VariantConfig};
    use gpu_sim::DeviceSpec;
    use sw_align::smith_waterman::sw_score;
    use sw_align::SwParams;
    use sw_db::synth::{database_with_lengths, make_query};

    fn config(intra: IntraKernelChoice) -> CudaSwConfig {
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

    fn db() -> sw_db::Database {
        database_with_lengths("staged", &[20, 45, 60, 80, 95, 120, 150, 300], 71)
    }

    #[test]
    fn repeated_staged_searches_upload_only_query_artefacts() {
        let db = db();
        let cfg = config(IntraKernelChoice::Improved(VariantConfig::improved()));
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg.clone());
        let staged = driver.stage_database(&db).unwrap();
        assert!(staged.staging_seconds() > 0.0);
        let q1 = make_query(57, 33);
        let q2 = make_query(64, 34);
        driver.search_staged(&q1, &staged).unwrap();
        let before = obs::snapshot_metrics();
        let r = driver.search_staged(&q2, &staged).unwrap();
        let delta = obs::snapshot_metrics().diff(&before);
        // Exactly two H2D transfers per staged search: the packed profile
        // and the packed query residues. No database re-upload.
        assert_eq!(delta.counter_sum("cudasw.gpu_sim.h2d.calls", &[]), 2.0);
        let mut plain = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let plain = plain.search(&q2, &db).unwrap();
        let params = SwParams::cudasw_default();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(r.scores[i], sw_score(&params, &q2, &seq.residues));
        }
        assert_eq!(r.total_cells(), plain.total_cells());
        assert_eq!(r.fraction_long, plain.fraction_long);
        // Query staging is the only H2D traffic left per search: the
        // database's upload moved into `staging_seconds`, once.
        let paid = r.transfer_seconds + staged.staging_seconds();
        assert!((paid - plain.transfer_seconds).abs() < 1e-12);
    }

    #[test]
    fn many_groups_and_params_change_between_queries() {
        // Small device => several inter-task groups stay resident at once.
        let mut spec = DeviceSpec::tesla_c1060();
        spec.sm_count = 1;
        spec.max_threads_per_sm = 64;
        spec.max_blocks_per_sm = 2;
        let mut cfg = config(IntraKernelChoice::Improved(VariantConfig::improved()));
        cfg.inter_threads_per_block = 32;
        let db = database_with_lengths("many", &[30; 200], 79);
        let query = make_query(24, 41);
        let mut driver = CudaSwDriver::new(spec, cfg);
        let staged = driver.stage_database(&db).unwrap();
        let r = driver.search_staged(&query, &staged).unwrap();
        assert_eq!(r.inter.launches, 4);
        // Swap the scoring matrix: the resident residues are reusable, the
        // profile is per-query anyway.
        driver.config.params = SwParams {
            matrix: sw_align::ScoringMatrix::blosum50(),
            ..SwParams::cudasw_default()
        };
        let r50 = driver.search_staged(&query, &staged).unwrap();
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(
                r50.scores[i],
                sw_score(&driver.config.params, &query, &seq.residues)
            );
        }
        assert_ne!(r50.scores, r.scores);
    }

    #[test]
    fn a_stale_handle_is_rejected() {
        let db = db();
        let mut driver = CudaSwDriver::new(
            DeviceSpec::tesla_c1060(),
            config(IntraKernelChoice::Improved(VariantConfig::improved())),
        );
        let staged = driver.stage_database(&db).unwrap();
        assert!(driver.staged_valid(&staged));
        // A plain search resets the allocator and re-stages everything.
        driver.search(&make_query(30, 1), &db).unwrap();
        let err = driver.search_staged(&make_query(30, 1), &staged);
        assert!(matches!(err, Err(GpuError::InvalidLaunch { .. })));
    }

    #[test]
    fn empty_database_and_empty_query() {
        let mut driver = CudaSwDriver::new(
            DeviceSpec::tesla_c1060(),
            config(IntraKernelChoice::Improved(VariantConfig::improved())),
        );
        let empty = sw_db::Database::new("empty", sw_align::Alphabet::Protein, vec![]);
        let staged = driver.stage_database(&empty).unwrap();
        assert!(staged.is_empty());
        let r = driver.search_staged(&make_query(10, 1), &staged).unwrap();
        assert!(r.scores.is_empty());

        let db = db();
        let staged = driver.stage_database(&db).unwrap();
        let r = driver.search_staged(&[], &staged).unwrap();
        assert!(r.scores.iter().all(|&s| s == 0));
    }
}
