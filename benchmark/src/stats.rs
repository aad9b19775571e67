//! Order statistics and the score checksum shared by every workload.

/// Percentiles a latency distribution may be reported at, highest first.
const CANDIDATE_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product such as 0.999 × 10 000, which lands a
    // hair above 9 990 in binary, from rounding up to the next rank.
    (((p / 100.0) * n as f64 - 1.0e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// The highest candidate percentile with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Ascending copy of `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// CRC-32 of a score vector, order included.
pub fn score_crc(scores: &[i32]) -> u32 {
    let bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_le_bytes()).collect();
    gpu_sim::crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        // Rank rounds up: 4 samples, p50 -> rank 2, p51 -> rank 3.
        let w = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&w, 50.0), 20.0);
        assert_eq!(percentile(&w, 51.0), 30.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // 250 samples: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(highest_supported_percentile(250), Some(95.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn crc_depends_on_order() {
        assert_ne!(score_crc(&[1, 2, 3]), score_crc(&[3, 2, 1]));
        assert_eq!(score_crc(&[7, 8]), score_crc(&[7, 8]));
    }
}
