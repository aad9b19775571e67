//! Standard workloads shared by the experiments.
//!
//! Sizes follow the scaling policy of DESIGN.md §5: analytic experiments
//! run at realistic database scale (lengths only), functional experiments
//! use reduced sequence counts whose runtime stays in seconds. Every
//! workload is seeded and deterministic.

use sw_db::catalog::PaperDb;
use sw_db::stats::LogNormalParams;
use sw_db::synth::{make_query, sample_lengths};
use sw_db::{Database, SynthConfig};

/// Workload seed base (fixed so every run regenerates identical inputs).
pub const SEED: u64 = 2011; // the paper's year

/// Paper-scale sequence lengths of one benchmark database (sorted).
///
/// A log-normal fit underestimates the extreme tail of real protein
/// databases: Swissprot's longest entries (titin and friends) exceed
/// 35,000 residues — which is exactly why §II-C raises the threshold to
/// 36,000 to push *everything* through the inter-task kernel. Those
/// outliers are what make that configuration collapse (a 35k-residue
/// alignment run by a single thread dominates the launch), so each preset
/// appends a small deterministic extreme tail.
pub fn paper_scale_lengths(db: PaperDb) -> Vec<usize> {
    let mut lengths = sample_lengths(
        db.realistic_seq_count(),
        db.lognormal(),
        20,
        36_000,
        SEED ^ db.paper_fraction_over_threshold().to_bits(),
    );
    let tail: &[usize] = match db {
        PaperDb::Swissprot => &[
            35_213, 22_152, 18_141, 14_507, 13_100, 12_464, 11_103, 10_624,
        ],
        // The mammalian genome databases contain titin (~34k) and a few
        // other giants.
        PaperDb::EnsemblDog | PaperDb::EnsemblRat | PaperDb::RefSeqHuman | PaperDb::RefSeqMouse => {
            &[34_350, 22_000, 13_000, 8_800]
        }
        // Arabidopsis tops out near 5.4k (midasin); no titin-scale outliers.
        PaperDb::Tair => &[5_393, 5_098, 5_002],
    };
    lengths.extend_from_slice(tail);
    lengths.sort_unstable();
    lengths
}

/// A functional (residues materialized) scaled version of a paper database.
pub fn functional_db(db: PaperDb, num_seqs: usize) -> Database {
    db.generate(num_seqs, SEED)
}

/// The Figure 2 database construction: `s` sequences with log-normal
/// lengths of the given standard deviation around a fixed median (the
/// paper: median 1000, σ between 100 and 4000).
///
/// The lengths are **unsorted**: the paper runs the kernels directly on
/// the generated random databases ("we generated several random databases
/// containing s sequences"), so threads of one warp get arbitrary-length
/// sequences — which is precisely the load imbalance Figure 2 exposes.
/// CUDASW++'s sorting pass is the mitigation, not part of this experiment.
pub fn fig2_lengths(std_dev: f64, s: usize, median: f64) -> Vec<usize> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, LogNormal};
    let params = LogNormalParams::from_median_and_std(median, std_dev);
    let mut rng = StdRng::seed_from_u64(SEED ^ std_dev.to_bits());
    let dist = LogNormal::new(params.mu, params.sigma).expect("validated sigma");
    (0..s)
        .map(|_| (dist.sample(&mut rng).round() as usize).clamp(20, 36_000))
        .collect()
}

/// The query of the threshold experiments (the paper uses lengths 567,
/// 572 and 576 across Figures 2/3/5; one deterministic query per length).
pub fn query(len: usize) -> Vec<u8> {
    make_query(len, SEED)
}

/// Long-sequence workload for intra-task kernel experiments: `count`
/// sequences of roughly Swissprot-tail lengths.
pub fn long_tail_db(count: usize, mean_len: usize) -> Database {
    let params = LogNormalParams::from_mean_std(mean_len as f64, mean_len as f64 * 0.2);
    let mut cfg = SynthConfig::new(format!("tail-{mean_len}"), count, params, SEED + 7);
    cfg.min_len = 3072;
    cfg.max_len = 3 * mean_len;
    cfg.generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_lengths_match_tail_target() {
        let lens = paper_scale_lengths(PaperDb::Swissprot);
        assert_eq!(lens.len(), 500_008); // 500k sampled + 8 extreme outliers
        let over = lens.iter().filter(|&&l| l >= 3072).count() as f64 / lens.len() as f64;
        assert!((over - 0.0012).abs() < 6e-4, "tail = {over}");
    }

    #[test]
    fn fig2_lengths_hit_requested_std() {
        let lens = fig2_lengths(1000.0, 30_000, 1000.0);
        let stats = sw_db::LengthStats::from_lengths(lens.iter().copied());
        assert!(
            (stats.std_dev - 1000.0).abs() < 120.0,
            "std = {}",
            stats.std_dev
        );
    }

    #[test]
    fn queries_are_deterministic() {
        assert_eq!(query(567), query(567));
        assert_eq!(query(144).len(), 144);
    }

    #[test]
    fn long_tail_db_is_all_over_threshold() {
        let db = long_tail_db(8, 4000);
        assert_eq!(db.len(), 8);
        assert!(db.sequences().iter().all(|s| s.len() >= 3072));
    }
}
