//! One module per paper table/figure (see DESIGN.md §4 for the index).

pub mod ablation;
pub mod chaos;
pub mod device_opt;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod integrity;
pub mod multigpu;
pub mod retune;
pub mod serve;
pub mod soak;
pub mod strips;
pub mod table1;
pub mod table2;
pub mod validation;

use cudasw_core::model::{predict_search_lengths, PredictedIntra, PredictedSearch};
use cudasw_core::ImprovedParams;
use gpu_sim::{DeviceSpec, TimingModel};

/// The four configurations of Figures 5/6/7: (label, device, kernel).
pub fn four_configs() -> Vec<(String, DeviceSpec, PredictedIntra)> {
    vec![
        (
            "Imp. Intratask (Tesla C2050)".to_string(),
            DeviceSpec::tesla_c2050(),
            PredictedIntra::Improved,
        ),
        (
            "Orig. Intratask (Tesla C2050)".to_string(),
            DeviceSpec::tesla_c2050(),
            PredictedIntra::Original,
        ),
        (
            "Imp. Intratask (Tesla C1060)".to_string(),
            DeviceSpec::tesla_c1060(),
            PredictedIntra::Improved,
        ),
        (
            "Orig. Intratask (Tesla C1060)".to_string(),
            DeviceSpec::tesla_c1060(),
            PredictedIntra::Original,
        ),
    ]
}

/// Predict one whole search at paper scale (helper shared by the sweeps).
pub fn predict(
    spec: &DeviceSpec,
    lengths: &[usize],
    query_len: usize,
    threshold: usize,
    intra: PredictedIntra,
    caches_off: bool,
) -> PredictedSearch {
    predict_search_lengths(
        spec,
        &TimingModel::default(),
        lengths,
        query_len,
        threshold,
        intra,
        &ImprovedParams::default(),
        caches_off,
    )
}

/// Fraction of `lengths` (sorted) at or above `threshold`, in percent.
pub fn pct_over(lengths: &[usize], threshold: usize) -> f64 {
    if lengths.is_empty() {
        return 0.0;
    }
    let split = lengths.partition_point(|&l| l < threshold);
    (lengths.len() - split) as f64 / lengths.len() as f64 * 100.0
}

/// The threshold sweep of Figures 3/5/6: the default 3072 decreased by 100
/// per step, 20 runs ("decreasing the threshold by 100 for each of the 20
/// runs").
pub fn paper_threshold_sweep() -> Vec<usize> {
    (0..20).map(|i| 3072 - i * 100).collect()
}
