//! Named kernel stages for ablation studies.
//!
//! §III of the paper presents the improved kernel as a sequence of
//! incremental changes, each with a measured effect, and §VI lists what it
//! would try next. This module names those stages in one list — the §III
//! story up to the final kernel, then each §VI idea applied to it — and
//! provides a staging helper so benches and the `repro` binary can run any
//! stage over a workload with one call.

use crate::checkpoint::ChunkPhase;
use crate::driver::{CudaSwConfig, CudaSwDriver, DeviceKernelConfig, IntraKernelChoice};
use crate::intra_improved::{ImprovedParams, VariantConfig};
use crate::launch::StagedQuery;
use crate::seqstore::ProfileImage;
use gpu_sim::{DeviceSpec, GpuError, LaunchStats, TexRef};
use sw_align::PackedProfile;
use sw_db::Sequence;

/// One named kernel stage.
#[derive(Debug, Clone)]
pub struct AblationStage {
    /// Short name for report rows.
    pub name: &'static str,
    /// What changed relative to the previous stage (§III) or to the final
    /// kernel (§VI).
    pub description: &'static str,
    /// The §III development stage.
    pub variant: VariantConfig,
    /// The §VI ideas switched on.
    pub device: DeviceKernelConfig,
}

/// Index in [`development_stages`] of the kernel exactly as §III ends up:
/// stages `..=FINAL_KERNEL_STAGE` are the §III development story, stages
/// `FINAL_KERNEL_STAGE..` the final kernel followed by each §VI idea.
pub const FINAL_KERNEL_STAGE: usize = 2;

/// The development stages of §III in paper order, then the intra-task
/// future-work ideas of §VI, each applied to the final kernel.
pub fn development_stages() -> Vec<AblationStage> {
    let section3 = |name, description, variant| AblationStage {
        name,
        description,
        variant,
        device: DeviceKernelConfig::default(),
    };
    let section6 = |name, description, device| AblationStage {
        name,
        description,
        variant: VariantConfig::improved(),
        device,
    };
    let off = DeviceKernelConfig::default();
    vec![
        section3(
            "naive",
            "shallow swap spills register arrays to local memory; \
             similarity fetched once per cell (§III-A before)",
            VariantConfig::naive(),
        ),
        section3(
            "deep-swap",
            "register arrays fixed by the deep swap + hand unrolling \
             (§III-A after); profile still fetched per row",
            VariantConfig::deep_swap(),
        ),
        section3(
            "improved",
            "packed query profile: one texture read per four cells \
             (§III-B) — the final kernel",
            VariantConfig::improved(),
        ),
        section6(
            "+coalesced-io",
            "strip-boundary rows staged in shared memory and moved \
             in coalesced 32-column bursts",
            DeviceKernelConfig {
                coalesced_boundary: true,
                ..off
            },
        ),
        section6(
            "+shared-boundary",
            "strip boundary kept entirely in (Fermi's larger) shared memory",
            DeviceKernelConfig {
                shared_boundary: true,
                ..off
            },
        ),
        section6(
            "+continuous-pipeline",
            "one pipeline fill/flush for the whole alignment",
            DeviceKernelConfig {
                pipeline_fusion: true,
                ..off
            },
        ),
        section6(
            "+all",
            "coalesced boundary I/O, shared boundary where it fits and \
             continuous pipeline together",
            DeviceKernelConfig {
                coalesced_boundary: true,
                shared_boundary: true,
                pipeline_fusion: true,
                ..off
            },
        ),
    ]
}

/// Stage `sequences` and `query` on a fresh device described by `spec` and
/// run the improved kernel at development stage `variant` with the `device`
/// optimizations as one intra-task chunk of the driver's chunk loop (so the
/// shared-memory boundary falls back transparently when a sequence does
/// not fit, same policy as every search). Returns the scores and the
/// launch statistics.
pub fn run_intra_variant(
    spec: &DeviceSpec,
    sequences: &[Sequence],
    query: &[u8],
    params: ImprovedParams,
    variant: VariantConfig,
    device: DeviceKernelConfig,
) -> Result<(Vec<i32>, LaunchStats), GpuError> {
    let mut driver = CudaSwDriver::new(
        spec.clone(),
        CudaSwConfig {
            improved: params,
            intra: IntraKernelChoice::Improved(variant),
            device,
            ..CudaSwConfig::improved()
        },
    );
    let packed = PackedProfile::build(&driver.config.params.matrix, query);
    let (profile, _) = ProfileImage::upload(&mut driver.dev, &packed)?;
    // The improved kernel never reads the packed residues: bind none.
    let staged = StagedQuery {
        q_tex: TexRef::new(profile.tex.base(), 0),
        profile,
    };
    let (stats, scores, _) = driver.run_chunk(ChunkPhase::Intra, sequences, &staged)?;
    Ok((scores, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sw_align::smith_waterman::sw_score;
    use sw_align::SwParams;
    use sw_db::synth::{database_with_lengths, make_query};

    #[test]
    fn stages_are_distinct_and_named() {
        let stages = development_stages();
        assert_eq!(stages.len(), 7);
        assert_eq!(stages[0].name, "naive");
        let last = &stages[FINAL_KERNEL_STAGE];
        assert_eq!(last.name, "improved");
        assert_eq!(last.variant, VariantConfig::improved());
        for (i, s) in stages.iter().enumerate() {
            assert!(!s.description.is_empty());
            // §III stages switch nothing on; §VI stages are the final kernel.
            assert_eq!(
                s.device == DeviceKernelConfig::default(),
                i <= FINAL_KERNEL_STAGE
            );
            assert!(i < FINAL_KERNEL_STAGE || s.variant == last.variant);
            assert!(stages[..i].iter().all(|t| t.name != s.name));
        }
    }

    #[test]
    fn development_story_monotonically_improves() {
        // Each §III stage must run at least as fast (in simulated time) as
        // the previous one on a long-sequence workload.
        let spec = DeviceSpec::tesla_c1060();
        let db = database_with_lengths("long", &[600, 700], 99);
        let query = make_query(256, 43);
        let params = ImprovedParams {
            threads_per_block: 64,
            tile_height: 4,
        };
        let mut last_seconds = f64::INFINITY;
        let sw = SwParams::cudasw_default();
        for stage in &development_stages()[..=FINAL_KERNEL_STAGE] {
            let (scores, stats) = run_intra_variant(
                &spec,
                db.sequences(),
                &query,
                params,
                stage.variant,
                stage.device,
            )
            .unwrap();
            for (i, seq) in db.sequences().iter().enumerate() {
                assert_eq!(
                    scores[i],
                    sw_score(&sw, &query, &seq.residues),
                    "{}",
                    stage.name
                );
            }
            assert!(
                stats.seconds <= last_seconds,
                "{} slower than its predecessor: {} > {}",
                stage.name,
                stats.seconds,
                last_seconds
            );
            last_seconds = stats.seconds;
        }
    }

    #[test]
    fn section6_stages_never_add_global_traffic() {
        let spec = DeviceSpec::tesla_c2050();
        let db = database_with_lengths("long", &[300], 101);
        let query = make_query(300, 44);
        let params = ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        };
        let run = |stage: &AblationStage| {
            let (variant, device) = (stage.variant, stage.device);
            run_intra_variant(&spec, db.sequences(), &query, params, variant, device).unwrap()
        };
        let stages = development_stages();
        let (_, base) = run(&stages[FINAL_KERNEL_STAGE]);
        for stage in &stages[FINAL_KERNEL_STAGE + 1..] {
            let (_, stats) = run(stage);
            assert!(
                stats.global_transactions() <= base.global_transactions(),
                "{} added global traffic",
                stage.name
            );
        }
    }
}
