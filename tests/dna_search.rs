//! DNA database search — "many different protein, RNA, or DNA databases
//! are routinely used for comparison purposes" (§IV-B). The whole stack is
//! alphabet-generic: a 5-code DNA alphabet with a match/mismatch matrix
//! flows through the profiles, the SIMD baselines and both GPU kernels.

use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    VariantConfig,
};
use gpu_sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_align::smith_waterman::{sw_score, SwParams};
use sw_align::{Alphabet, GapPenalties, ScoringMatrix};
use sw_db::{Database, Sequence};
use sw_simd::{search_sequences, Precision, QueryEngine};

fn dna_params() -> SwParams {
    SwParams {
        // The classic megablast-style +2/-3 with affine gaps 5/2.
        matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3),
        gaps: GapPenalties::new(5, 2).unwrap(),
    }
}

fn random_dna(len: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u8..4)).collect()
}

fn dna_db(seed: u64) -> (Database, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs = Vec::new();
    for i in 0..25 {
        let len = 40 + (i * 13) % 300;
        seqs.push(Sequence::new(format!("dna{i}"), random_dna(len, &mut rng)));
    }
    // Plant a strong hit: a sequence containing the query.
    let query = random_dna(60, &mut rng);
    let mut planted = random_dna(30, &mut rng);
    planted.extend_from_slice(&query);
    planted.extend(random_dna(30, &mut rng));
    seqs.push(Sequence::new("planted", planted));
    (Database::new("dna-db", Alphabet::Dna, seqs), query)
}

#[test]
fn gpu_driver_searches_dna() {
    let (db, query) = dna_db(11);
    let params = dna_params();
    for intra in [
        IntraKernelChoice::Original,
        IntraKernelChoice::Improved(VariantConfig::improved()),
    ] {
        let cfg = CudaSwConfig {
            params: params.clone(),
            threshold: 150,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            inter_threads_per_block: 256,
            intra,
            device: DeviceKernelConfig::default(),
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg);
        let r = driver.search(&query, &db).expect("DNA search");
        for (i, seq) in db.sequences().iter().enumerate() {
            assert_eq!(
                r.scores[i],
                sw_score(&params, &query, &seq.residues),
                "seq {i} with {intra:?}"
            );
        }
        // The planted perfect hit scores 2 * 60.
        let (best_idx, best_score) = r.top_hits(1)[0];
        assert_eq!(db.sequences()[best_idx].id, "planted");
        assert_eq!(best_score, 120);
    }
}

#[test]
fn simd_baseline_searches_dna() {
    let (db, query) = dna_db(13);
    let params = dna_params();
    let engine = QueryEngine::new(params.clone(), &query);
    let r = search_sequences(&engine, db.sequences(), 2, Precision::Adaptive);
    for (i, seq) in db.sequences().iter().enumerate() {
        assert_eq!(r.scores[i], sw_score(&params, &query, &seq.residues));
    }
}
