//! End-to-end integration of the CUDASW++ driver beyond one fresh search:
//! a device with its caches off, a driver reused across searches and
//! queries, and the improved kernel's application-level speed. That every
//! path scores what `sw_score` does is `tests/conformance.rs`.

use cudasw_core::{CudaSwConfig, CudaSwDriver};
use gpu_sim::DeviceSpec;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_db::stats::LogNormalParams;
use sw_db::synth::make_query;
use sw_db::SynthConfig;

fn test_db(seqs: usize, seed: u64) -> sw_db::Database {
    SynthConfig::new(
        "e2e",
        seqs,
        LogNormalParams::from_mean_std(120.0, 90.0),
        seed,
    )
    .generate()
}

#[test]
fn caches_off_device_still_computes_correctly() {
    let db = test_db(30, 3);
    let query = make_query(64, 4);
    let params = SwParams::cudasw_default();
    let mut driver = CudaSwDriver::new(
        DeviceSpec::tesla_c2050_caches_off(),
        CudaSwConfig {
            threshold: 120,
            ..CudaSwConfig::improved()
        },
    );
    let r = driver.search(&query, &db).expect("search");
    for (i, seq) in db.sequences().iter().enumerate() {
        assert_eq!(r.scores[i], sw_score(&params, &query, &seq.residues));
    }
}

#[test]
fn repeated_searches_on_one_driver_are_stable() {
    // The driver frees and re-stages device memory per search; results and
    // simulated timings must not drift across reuse.
    let db = test_db(25, 5);
    let query = make_query(48, 6);
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), CudaSwConfig::improved());
    let first = driver.search(&query, &db).expect("first");
    for _ in 0..3 {
        let again = driver.search(&query, &db).expect("repeat");
        assert_eq!(again.scores, first.scores);
        assert!((again.kernel_seconds() - first.kernel_seconds()).abs() < 1e-12);
    }
}

#[test]
fn improved_kernel_never_slower_at_application_level() {
    // The paper's core claim, end to end, on a tail-heavy workload.
    let db = SynthConfig::new(
        "tail-heavy",
        50,
        LogNormalParams::from_mean_std(250.0, 400.0),
        9,
    )
    .generate();
    let query = make_query(128, 10);
    let threshold = 400;
    let mut orig = CudaSwDriver::new(
        DeviceSpec::tesla_c1060(),
        CudaSwConfig {
            threshold,
            ..CudaSwConfig::original()
        },
    );
    let mut imp = CudaSwDriver::new(
        DeviceSpec::tesla_c1060(),
        CudaSwConfig {
            threshold,
            ..CudaSwConfig::improved()
        },
    );
    let r_orig = orig.search(&query, &db).expect("orig");
    let r_imp = imp.search(&query, &db).expect("imp");
    assert_eq!(r_orig.scores, r_imp.scores);
    // Figure 5a: the swap raises overall GCUPS by shrinking the intra share.
    let (g_orig, g_imp) = (r_orig.gcups(), r_imp.gcups());
    assert!(g_imp > g_orig, "improved {g_imp} <= original {g_orig}");
    assert!(r_imp.fraction_time_intra() < r_orig.fraction_time_intra());
}
