//! Seeded synthetic database generation.
//!
//! Residues are drawn from the Robinson–Robinson background amino-acid
//! frequencies; lengths are drawn from a log-normal distribution (the
//! paper's own model for protein databases). Everything is seeded, so a
//! given configuration always produces the same database.

use crate::database::{Database, Sequence};
use crate::stats::LogNormalParams;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use std::sync::OnceLock;
use sw_align::alphabet::{AMINO_ACID_FREQUENCIES, PROTEIN_ALPHABET_SIZE};
use sw_align::Alphabet;

/// Top bits of a 53-bit draw that index [`ResidueSampler::buckets`].
const BUCKET_BITS: u32 = 12;
/// Draws per bucket, as a shift: the 53-bit draw without its bucket bits.
const BUCKET_WIDTH: u32 = 53 - BUCKET_BITS;
/// Bucket entry for "a cumulative weight falls inside: binary-search".
const SEARCH: u8 = u8::MAX;

/// Residue codes in proportion to [`AMINO_ACID_FREQUENCIES`], one
/// `next_u64` per residue. A draw `m` (53 bits) sits at
/// `x = m·2⁻⁵³·total` on the cumulative weight line and gets the first
/// code whose cumulative weight exceeds `x`. `x` is monotone in `m`, so a
/// bucket of draws whose closed `x` range holds no cumulative weight gets
/// one code throughout, stored in its table entry; only the few buckets
/// that straddle a weight run the binary search. Exact: every draw gets
/// the code the search alone would give it.
struct ResidueSampler {
    cumulative: [f64; PROTEIN_ALPHABET_SIZE],
    total: f64,
    buckets: [u8; 1 << BUCKET_BITS],
}

impl ResidueSampler {
    fn get() -> &'static Self {
        static SAMPLER: OnceLock<ResidueSampler> = OnceLock::new();
        SAMPLER.get_or_init(|| {
            let mut cumulative = AMINO_ACID_FREQUENCIES;
            let mut total = 0.0;
            for c in &mut cumulative {
                total += *c;
                *c = total;
            }
            let mut s = ResidueSampler {
                cumulative,
                total,
                buckets: [SEARCH; 1 << BUCKET_BITS],
            };
            for b in 0..1u64 << BUCKET_BITS {
                let (lo, hi) = (s.x(b << BUCKET_WIDTH), s.x(((b + 1) << BUCKET_WIDTH) - 1));
                if !s.cumulative.iter().any(|c| (lo..=hi).contains(c)) {
                    s.buckets[b as usize] = s.search(lo);
                }
            }
            s
        })
    }

    fn x(&self, m: u64) -> f64 {
        m as f64 * (1.0 / (1u64 << 53) as f64) * self.total
    }

    fn search(&self, x: f64) -> u8 {
        let i = match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        i.min(PROTEIN_ALPHABET_SIZE - 1) as u8
    }

    /// The code for the 53-bit draw `m`.
    fn code(&self, m: u64) -> u8 {
        match self.buckets[(m >> BUCKET_WIDTH) as usize] {
            SEARCH => self.search(self.x(m)),
            code => code,
        }
    }
}

/// `len` residues of realistic composition.
fn residues(len: usize, rng: &mut StdRng) -> Vec<u8> {
    let sampler = ResidueSampler::get();
    (0..len)
        .map(|_| sampler.code(rng.next_u64() >> 11))
        .collect()
}

/// `name` with whitespace replaced by `_`, for ids: a FASTA header's id
/// ends at its first whitespace.
fn id_name(name: &str) -> String {
    name.replace(char::is_whitespace, "_")
}

/// Configuration for a synthetic database.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Database name.
    pub name: String,
    /// Number of sequences.
    pub num_seqs: usize,
    /// Log-normal length parameters.
    pub lengths: LogNormalParams,
    /// Shortest admissible length (paper query range starts ~144; database
    /// floors around 10–30 residues in practice).
    pub min_len: usize,
    /// Longest admissible length (Swissprot tops out near 36,000 — the
    /// value the paper raises the threshold to in §II-C).
    pub max_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SynthConfig {
    /// A config with workspace defaults for length bounds.
    pub fn new(
        name: impl Into<String>,
        num_seqs: usize,
        lengths: LogNormalParams,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            num_seqs,
            lengths,
            min_len: 20,
            max_len: 36_000,
            seed,
        }
    }

    /// Generate the database.
    pub fn generate(&self) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let len_dist = LogNormal::new(self.lengths.mu, self.lengths.sigma)
            .expect("sigma validated by LogNormalParams");
        let id_name = id_name(&self.name);
        let mut sequences = Vec::with_capacity(self.num_seqs);
        for i in 0..self.num_seqs {
            let len =
                (len_dist.sample(&mut rng).round() as usize).clamp(self.min_len, self.max_len);
            let residues = residues(len, &mut rng);
            sequences.push(Sequence::new(format!("synth|{id_name}|{i}"), residues));
        }
        Database::new(self.name.clone(), Alphabet::Protein, sequences)
    }
}

/// Sample `n` sequence *lengths* from a log-normal distribution, sorted
/// ascending — the cheap input format of the analytic performance models,
/// which lets experiments run at full paper scale (Swissprot has ~500k
/// sequences) without materializing residues.
pub fn sample_lengths(
    n: usize,
    params: LogNormalParams,
    min_len: usize,
    max_len: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4C454E); // "LEN"
    let dist = LogNormal::new(params.mu, params.sigma).expect("validated sigma");
    let mut lengths: Vec<usize> = (0..n)
        .map(|_| (dist.sample(&mut rng).round() as usize).clamp(min_len, max_len))
        .collect();
    lengths.sort_unstable();
    lengths
}

/// Generate a random query of exactly `len` residues (realistic
/// composition, seeded).
pub fn make_query(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_5545_5259); // "QUERY"
    residues(len, &mut rng)
}

/// A database where every sequence has exactly the lengths given —
/// useful for tests that need precise control.
pub fn database_with_lengths(name: &str, lengths: &[usize], seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let id_name = id_name(name);
    let sequences = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| Sequence::new(format!("fixed|{id_name}|{i}"), residues(len, &mut rng)))
        .collect();
    Database::new(name, Alphabet::Protein, sequences)
}

/// Convenience: `n` sequences uniformly random in `[lo, hi]` lengths.
pub fn uniform_database(name: &str, n: usize, lo: usize, hi: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let lengths: Vec<usize> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
    database_with_lengths(name, &lengths, seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::new("det", 50, LogNormalParams::from_mean_std(300.0, 200.0), 42);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.sequences(), b.sequences());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            SynthConfig::new("s", 20, LogNormalParams::from_mean_std(300.0, 200.0), seed).generate()
        };
        assert_ne!(mk(1).sequences(), mk(2).sequences());
    }

    #[test]
    fn lengths_match_target_distribution() {
        let target = LogNormalParams::from_mean_std(360.0, 300.0);
        let cfg = SynthConfig::new("dist", 20_000, target, 7);
        let db = cfg.generate();
        let stats = db.length_stats();
        assert!((stats.mean - 360.0).abs() < 20.0, "mean = {}", stats.mean);
        assert!(
            (stats.std_dev - 300.0).abs() < 40.0,
            "std = {}",
            stats.std_dev
        );
    }

    #[test]
    fn length_bounds_respected() {
        let mut cfg = SynthConfig::new(
            "bounds",
            500,
            LogNormalParams::from_mean_std(100.0, 400.0),
            3,
        );
        cfg.min_len = 50;
        cfg.max_len = 200;
        let db = cfg.generate();
        let stats = db.length_stats();
        assert!(stats.min >= 50);
        assert!(stats.max <= 200);
    }

    #[test]
    fn residues_are_standard_codes() {
        let cfg = SynthConfig::new("codes", 10, LogNormalParams::from_mean_std(100.0, 50.0), 9);
        for seq in cfg.generate().sequences() {
            assert!(seq.residues.iter().all(|&c| c < 20));
        }
    }

    #[test]
    fn residue_composition_is_realistic() {
        let q = make_query(200_000, 11);
        let leu = q.iter().filter(|&&c| c == 10).count() as f64 / q.len() as f64;
        let trp = q.iter().filter(|&&c| c == 17).count() as f64 / q.len() as f64;
        // Leucine ~9%, tryptophan ~1.3%.
        assert!((leu - 0.09).abs() < 0.01, "leu = {leu}");
        assert!((trp - 0.013).abs() < 0.005, "trp = {trp}");
    }

    #[test]
    fn make_query_exact_length_and_deterministic() {
        let a = make_query(567, 5);
        let b = make_query(567, 5);
        assert_eq!(a.len(), 567);
        assert_eq!(a, b);
        assert_ne!(a, make_query(567, 6));
    }

    #[test]
    fn fixed_lengths_database() {
        let db = database_with_lengths("fix", &[10, 5, 20], 1);
        let lens: Vec<usize> = db.sequences().iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![5, 10, 20]);
    }

    #[test]
    fn sampled_lengths_sorted_and_bounded() {
        let params = LogNormalParams::from_mean_std(360.0, 300.0);
        let lens = sample_lengths(10_000, params, 20, 5000, 3);
        assert_eq!(lens.len(), 10_000);
        assert!(lens.windows(2).all(|w| w[0] <= w[1]));
        assert!(*lens.first().unwrap() >= 20);
        assert!(*lens.last().unwrap() <= 5000);
        let mean: f64 = lens.iter().map(|&l| l as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 360.0).abs() < 30.0, "mean = {mean}");
        // Deterministic.
        assert_eq!(lens, sample_lengths(10_000, params, 20, 5000, 3));
    }

    /// The binary search the bucket table replaced (the rand shim's
    /// deleted weighted-index sampler), over the same prefix sums:
    /// what the bucket table must answer for every 53-bit draw `m`.
    fn reference(m: u64) -> u8 {
        let s = ResidueSampler::get();
        let x = (m as f64 * (1.0 / (1u64 << 53) as f64)) * s.total;
        let last = s.cumulative.len() - 1;
        match s
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite weights"))
        {
            Ok(i) => (i + 1).min(last) as u8,
            Err(i) => i.min(last) as u8,
        }
    }

    #[test]
    fn every_clean_bucket_answers_the_reference_at_both_ends() {
        let s = ResidueSampler::get();
        let mut fallbacks = 0;
        for (b, &code) in (0u64..).zip(s.buckets.iter()) {
            if code == SEARCH {
                fallbacks += 1;
                continue;
            }
            let (first, last) = (b << BUCKET_WIDTH, ((b + 1) << BUCKET_WIDTH) - 1);
            assert_eq!(
                (code, code),
                (reference(first), reference(last)),
                "bucket {b}"
            );
        }
        assert!(
            fallbacks * 100 < s.buckets.len(),
            "{fallbacks} fallback buckets"
        );
    }

    #[test]
    fn draws_around_every_cumulative_weight_match_the_reference() {
        let s = ResidueSampler::get();
        for (i, &c) in s.cumulative.iter().enumerate() {
            // Smallest m with x(m) >= c, by bisection over 0..2^53.
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if s.x(mid) >= c {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            if lo == 1 << 53 {
                // Only the zero-weight tail sits at `total`, beyond every draw.
                assert_eq!(c, s.total, "prefix sum {i}");
                continue;
            }
            assert_eq!(
                s.buckets[(lo >> BUCKET_WIDTH) as usize],
                SEARCH,
                "prefix sum {i}"
            );
            for m in [lo.saturating_sub(1), lo, lo + 1] {
                assert_eq!(s.code(m), reference(m), "prefix sum {i}, m = {m}");
            }
        }
    }

    #[test]
    fn seeded_draws_match_the_reference() {
        let s = ResidueSampler::get();
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..10_000_000 {
            let m = rng.next_u64() >> 11;
            let code = s.code(m);
            assert_eq!(code, reference(m), "m = {m}");
            assert!(code < 20, "m = {m}: code {code}");
        }
    }

    #[test]
    fn uniform_database_bounds() {
        let db = uniform_database("u", 100, 10, 20, 2);
        let stats = db.length_stats();
        assert!(stats.min >= 10 && stats.max <= 20);
        assert_eq!(db.len(), 100);
    }
}
