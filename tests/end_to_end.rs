//! End-to-end integration: every alignment path in the workspace — scalar
//! reference, CPU SIMD baselines, and both simulated GPU kernels through
//! the full CUDASW++ driver — must agree on optimal scores.

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, IntraKernelChoice, VariantConfig};
use gpu_sim::DeviceSpec;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_db::stats::LogNormalParams;
use sw_db::synth::make_query;
use sw_db::SynthConfig;
use sw_simd::{search_sequences, Precision, QueryEngine};

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
fn all_paths_agree_on_scores() {
    let db = test_db(60, 1);
    let query = make_query(96, 2);
    let params = SwParams::cudasw_default();

    // Scalar reference.
    let expected: Vec<i32> = db
        .sequences()
        .iter()
        .map(|s| sw_score(&params, &query, &s.residues))
        .collect();

    // CPU SIMD (SWPS3 role).
    let engine = QueryEngine::new(params.clone(), &query);
    let simd = search_sequences(&engine, db.sequences(), 4, Precision::Adaptive);
    assert_eq!(simd.scores, expected, "striped SIMD diverged");

    // GPU driver, both kernels, both devices. A low threshold forces a
    // meaningful share of sequences through the intra-task kernels.
    for spec in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_c2050()] {
        for intra in [
            IntraKernelChoice::Original,
            IntraKernelChoice::Improved(VariantConfig::improved()),
        ] {
            let cfg = CudaSwConfig {
                threshold: 150,
                improved: ImprovedParams {
                    threads_per_block: 64,
                    tile_height: 4,
                },
                intra,
                ..CudaSwConfig::improved()
            };
            let name = spec.name.clone();
            let mut driver = CudaSwDriver::new(spec.clone(), cfg);
            let r = driver.search(&query, &db).expect("search");
            assert_eq!(r.scores, expected, "{name} with {intra:?} diverged");
            assert!(r.intra.launches > 0, "threshold did not engage intra-task");
        }
    }
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
fn different_queries_share_the_database() {
    let db = test_db(40, 7);
    let params = SwParams::cudasw_default();
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), CudaSwConfig::improved());
    for qlen in [16usize, 33, 120] {
        let query = make_query(qlen, qlen as u64);
        let r = driver.search(&query, &db).expect("search");
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(
                r.scores[i],
                sw_score(&params, &query, &seq.residues),
                "qlen={qlen} seq={i}"
            );
        }
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
    assert!(r_imp.kernel_seconds() <= r_orig.kernel_seconds());
}
