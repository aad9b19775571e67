//! Differential tests: the improved and original intra-task kernels
//! against the scalar `sw_align::sw_score` oracle on a seeded random
//! corpus and on the boundary cases (no positive-scoring overlap, gap
//! walls, lengths at and straddling the 3072 kernel threshold).

use cudasw_core::variants::run_intra_variant;
use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    VariantConfig,
};
use gpu_sim::DeviceSpec;
use sw_align::{encode_protein, sw_score, SwParams};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::{Database, Sequence};

fn oracle_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let params = SwParams::cudasw_default();
    db.sequences()
        .iter()
        .map(|s| sw_score(&params, query, &s.residues))
        .collect()
}

/// The improved kernel via the direct variant runner.
fn improved_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let (scores, _) = run_intra_variant(
        &DeviceSpec::tesla_c1060(),
        db.sequences(),
        query,
        ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        VariantConfig::improved(),
        DeviceKernelConfig::default(),
    )
    .unwrap();
    scores
}

/// The original kernel via the driver with everything routed intra-task.
fn original_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let mut cfg = CudaSwConfig::original();
    cfg.threshold = 1;
    cfg.intra = IntraKernelChoice::Original;
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
    driver.search(query, db).unwrap().scores
}

fn assert_all_agree(label: &str, query: &[u8], db: &Database) {
    let expect = oracle_scores(query, db);
    assert_eq!(
        improved_scores(query, db),
        expect,
        "{label}: improved kernel"
    );
    assert_eq!(
        original_scores(query, db),
        expect,
        "{label}: original kernel"
    );
}

#[test]
fn seeded_random_corpus_matches_scalar_oracle() {
    // Lengths chosen around the kernels' internal strip/tile boundaries
    // (multiples of the 32-thread warp, one off either side, primes).
    let lengths = [1, 31, 32, 33, 63, 64, 65, 97, 128, 130, 191, 256, 311, 400];
    for seed in [3u64, 11, 29] {
        let db = database_with_lengths("diff", &lengths, seed);
        for qlen in [1usize, 17, 48, 96] {
            let query = make_query(qlen, seed.wrapping_mul(131) + qlen as u64);
            assert_all_agree(&format!("seed {seed} qlen {qlen}"), &query, &db);
        }
    }
}

#[test]
fn no_positive_overlap_scores_zero_on_every_path() {
    // Glycine vs tryptophan scores negative in BLOSUM62, so a G-only
    // query against W-only subjects has no positive-scoring cell at all:
    // the local alignment is empty and every implementation must say 0.
    let query = encode_protein(&"G".repeat(40)).unwrap();
    let subjects: Vec<Sequence> = [5usize, 33, 64, 120]
        .iter()
        .enumerate()
        .map(|(i, &len)| Sequence::new(format!("w{i}"), encode_protein(&"W".repeat(len)).unwrap()))
        .collect();
    let db = Database::new("allw", sw_align::Alphabet::Protein, subjects);
    let expect = oracle_scores(&query, &db);
    assert!(expect.iter().all(|&s| s == 0), "oracle must find nothing");
    assert_all_agree("empty overlap", &query, &db);
}

#[test]
fn gap_wall_cases_match_oracle() {
    // Two identical blocks separated by a wall the alignment must either
    // gap across or abandon — exercises the E/F gap recurrences hard.
    let block = "ACDEFGHIKLMNPQRS";
    let query = encode_protein(&format!("{block}{block}")).unwrap();
    let walled: Vec<Sequence> = [1usize, 3, 9, 27]
        .iter()
        .enumerate()
        .map(|(i, &gap)| {
            let s = format!("{block}{}{block}", "W".repeat(gap));
            Sequence::new(format!("gap{i}"), encode_protein(&s).unwrap())
        })
        .collect();
    let db = Database::new("gaps", sw_align::Alphabet::Protein, walled);
    assert_all_agree("gap wall", &query, &db);
}

/// Lengths at and straddling the paper's 3072 threshold: the driver routes
/// each side to a different kernel, scores still match the oracle, and
/// the metrics registry shows both kernels actually ran.
#[test]
fn threshold_straddling_lengths_route_and_score_correctly() {
    let lengths = [3070usize, 3071, 3072, 3073, 3080];
    let db = database_with_lengths("straddle", &lengths, 7);
    let query = make_query(24, 9);
    let expect = oracle_scores(&query, &db);

    let (result, run) = obs::capture(|| {
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), CudaSwConfig::improved());
        driver.search(&query, &db).unwrap()
    });
    assert_eq!(result.scores, expect, "default driver vs oracle");

    // partition: len < 3072 is inter-task, len >= 3072 is intra-task.
    let n_long = lengths.iter().filter(|&&l| l >= 3072).count();
    assert_eq!(db.partition(3072).long.len(), n_long);
    let m = &run.metrics;
    assert!(m.counter_sum("cudasw.core.phase.cells", &[("phase", "inter")]) > 0.0);
    assert!(m.counter_sum("cudasw.core.phase.cells", &[("phase", "intra")]) > 0.0);
    // Cell accounting identifies the split exactly: intra cells = long
    // residues x query length.
    let long_residues: usize = lengths.iter().filter(|&&l| l >= 3072).sum();
    assert_eq!(
        m.counter_sum("cudasw.core.phase.cells", &[("phase", "intra")]) as usize,
        long_residues * query.len(),
    );

    // Both dedicated kernels agree on the same mixed-length set too.
    assert_all_agree("straddle", &query, &db);
}
