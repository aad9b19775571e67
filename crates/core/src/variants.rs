//! Named kernel variants for ablation studies.
//!
//! §III of the paper presents the improved kernel as a sequence of
//! incremental changes, each with a measured effect. This module names
//! those stages (and the §VI extensions) and provides a staging helper so
//! benches and the `repro` binary can run any variant over a workload
//! with one call.

use crate::driver::{CudaSwConfig, CudaSwDriver, IntraKernelChoice};
use crate::intra_improved::{ImprovedParams, VariantConfig};
use crate::intra_orig::IntraPair;
use crate::launch::StagedQuery;
use crate::seqstore::ProfileImage;
use gpu_sim::{DeviceSpec, GpuError, LaunchStats, TexRef};
use sw_align::PackedProfile;
use sw_db::Sequence;

/// One named kernel variant.
#[derive(Debug, Clone)]
pub struct AblationStage {
    /// Short name for report rows.
    pub name: &'static str,
    /// What changed relative to the previous stage.
    pub description: &'static str,
    /// The kernel behaviour.
    pub variant: VariantConfig,
}

/// The development stages of §III, in paper order.
pub fn development_stages() -> Vec<AblationStage> {
    vec![
        AblationStage {
            name: "naive",
            description: "shallow swap spills register arrays to local memory; \
                          similarity fetched once per cell (§III-A before)",
            variant: VariantConfig::naive(),
        },
        AblationStage {
            name: "deep-swap",
            description: "register arrays fixed by the deep swap + hand unrolling \
                          (§III-A after); profile still fetched per row",
            variant: VariantConfig::deep_swap(),
        },
        AblationStage {
            name: "improved",
            description: "packed query profile: one texture read per four cells \
                          (§III-B) — the final kernel",
            variant: VariantConfig::improved(),
        },
    ]
}

/// The future-work extensions of §VI, each applied to the improved kernel.
pub fn extension_stages() -> Vec<AblationStage> {
    vec![
        AblationStage {
            name: "improved",
            description: "the paper's final kernel (baseline for extensions)",
            variant: VariantConfig::improved(),
        },
        AblationStage {
            name: "+coalesced-io",
            description: "strip-boundary rows staged in shared memory and moved \
                          in coalesced 32-column bursts",
            variant: VariantConfig {
                coalesce_boundary: true,
                ..VariantConfig::improved()
            },
        },
        AblationStage {
            name: "+shared-boundary",
            description: "strip boundary kept entirely in (Fermi's larger) shared memory",
            variant: VariantConfig {
                boundary_in_shared: true,
                ..VariantConfig::improved()
            },
        },
        AblationStage {
            name: "+continuous-pipeline",
            description: "one pipeline fill/flush for the whole alignment",
            variant: VariantConfig {
                continuous_pipeline: true,
                ..VariantConfig::improved()
            },
        },
        AblationStage {
            name: "+all",
            description: "coalesced boundary I/O and continuous pipeline together",
            variant: VariantConfig {
                coalesce_boundary: true,
                continuous_pipeline: true,
                ..VariantConfig::improved()
            },
        },
    ]
}

/// Stage `sequences` and `query` on a fresh device described by `spec` and
/// run the improved kernel in `variant` mode through the driver's launch
/// path (so the shared-memory boundary falls back transparently when a
/// sequence does not fit, same policy as every search). Returns the scores
/// and the launch statistics.
pub fn run_intra_variant(
    spec: &DeviceSpec,
    sequences: &[Sequence],
    query: &[u8],
    params: ImprovedParams,
    variant: VariantConfig,
) -> Result<(Vec<i32>, LaunchStats), GpuError> {
    let mut driver = CudaSwDriver::new(
        spec.clone(),
        CudaSwConfig {
            improved: params,
            intra: IntraKernelChoice::Improved(variant),
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
    let mut transfer_seconds = 0.0;
    let pairs = IntraPair::stage(&mut driver.dev, sequences, &mut transfer_seconds)?;
    let (stats, scores) =
        driver.launch_intra(&pairs, &staged, "intra_variant", &mut transfer_seconds)?;
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
        let dev_stages = development_stages();
        assert_eq!(dev_stages.len(), 3);
        assert_eq!(dev_stages[0].name, "naive");
        assert_eq!(dev_stages[2].variant, VariantConfig::improved());
        let ext = extension_stages();
        assert_eq!(ext.len(), 5);
        for s in &ext {
            assert!(!s.description.is_empty());
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
        for stage in development_stages() {
            let (scores, stats) =
                run_intra_variant(&spec, db.sequences(), &query, params, stage.variant).unwrap();
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
    fn extensions_never_add_global_traffic() {
        let spec = DeviceSpec::tesla_c2050();
        let db = database_with_lengths("long", &[300], 101);
        let query = make_query(300, 44);
        let params = ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        };
        let stages = extension_stages();
        let (_, base) =
            run_intra_variant(&spec, db.sequences(), &query, params, stages[0].variant).unwrap();
        for stage in &stages[1..] {
            let (_, stats) =
                run_intra_variant(&spec, db.sequences(), &query, params, stage.variant).unwrap();
            assert!(
                stats.global_transactions() <= base.global_transactions(),
                "{} added global traffic",
                stage.name
            );
        }
    }
}
