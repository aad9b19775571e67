//! Property-based cross-validation across crate boundaries: random
//! workloads through the full stack.

use cudasw_core::variants::run_intra_variant;
use cudasw_core::{CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, VariantConfig};
use gpu_sim::DeviceSpec;
use proptest::prelude::*;
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::Alphabet;
use sw_db::{Database, Sequence};
use sw_simd::QueryEngine;

fn protein_seq(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, min..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpu_driver_matches_scalar_on_random_databases(
        query in protein_seq(1, 80),
        seqs in proptest::collection::vec(protein_seq(1, 150), 1..12),
        threshold in 1usize..200,
    ) {
        let params = SwParams::cudasw_default();
        let expected: Vec<i32> = {
            let mut db: Vec<&Vec<u8>> = seqs.iter().collect();
            db.sort_by_key(|s| s.len());
            db.iter().map(|s| sw_score(&params, &query, s)).collect()
        };
        let db = Database::new(
            "prop",
            Alphabet::Protein,
            seqs.iter()
                .enumerate()
                .map(|(i, s)| Sequence::new(format!("s{i}"), s.clone()))
                .collect(),
        );
        let cfg = CudaSwConfig {
            threshold,
            improved: ImprovedParams { threads_per_block: 32, tile_height: 4 },
            ..CudaSwConfig::improved()
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let r = driver.search(&query, &db).expect("search");
        prop_assert_eq!(r.scores, expected);
    }

    #[test]
    fn improved_kernel_matches_striped_simd(
        query in protein_seq(1, 120),
        target in protein_seq(1, 200),
    ) {
        let params = SwParams::cudasw_default();
        let simd = QueryEngine::new(params, &query).score(&target);
        let db = Database::new(
            "pair",
            Alphabet::Protein,
            vec![Sequence::new("t", target.clone())],
        );
        let (scores, _) = run_intra_variant(
            &DeviceSpec::tesla_c2050(),
            db.sequences(),
            &query,
            ImprovedParams { threads_per_block: 32, tile_height: 4 },
            VariantConfig::improved(),
            DeviceKernelConfig::default(),
        )
        .expect("kernel run");
        prop_assert_eq!(scores[0], simd);
    }

    #[test]
    fn tile_shapes_are_score_invariant(
        query in protein_seq(30, 200),
        target in protein_seq(30, 200),
        n_th in prop_oneof![Just(32u32), Just(64), Just(96)],
        th in prop_oneof![Just(4usize), Just(8)],
    ) {
        let params = SwParams::cudasw_default();
        let expected = sw_score(&params, &query, &target);
        let db = Database::new(
            "pair",
            Alphabet::Protein,
            vec![Sequence::new("t", target.clone())],
        );
        let (scores, _) = run_intra_variant(
            &DeviceSpec::tesla_c1060(),
            db.sequences(),
            &query,
            ImprovedParams { threads_per_block: n_th, tile_height: th },
            VariantConfig::improved(),
            DeviceKernelConfig::default(),
        )
        .expect("kernel run");
        prop_assert_eq!(scores[0], expected, "n_th={} th={}", n_th, th);
    }
}
