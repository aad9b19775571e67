//! The sequence database container and CUDASW++'s work partitioning.
//!
//! CUDASW++ sorts the database by length, sends sequences below the
//! threshold (default 3072) to the inter-task kernel in groups of `s`
//! sequences (one thread each), and sequences at or above the threshold to
//! the intra-task kernel (one block each). [`Database::partition`]
//! reproduces exactly that split.

use crate::stats::LengthStats;
use sw_align::Alphabet;

/// One database sequence (already encoded to residue codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Identifier (FASTA header up to the first whitespace).
    pub id: String,
    /// Rest of the FASTA header.
    pub description: String,
    /// Encoded residues.
    pub residues: Vec<u8>,
}

impl Sequence {
    /// Build a sequence from parts.
    pub fn new(id: impl Into<String>, residues: Vec<u8>) -> Self {
        Self {
            id: id.into(),
            description: String::new(),
            residues,
        }
    }

    /// Length in residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence has no residues.
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }
}

/// An in-memory sequence database.
#[derive(Debug, Clone)]
pub struct Database {
    /// Human-readable name (e.g. `"Swissprot (synthetic)"`).
    pub name: String,
    /// The alphabet the sequences are encoded over.
    pub alphabet: Alphabet,
    sequences: Vec<Sequence>,
}

/// The threshold split of a sorted database.
#[derive(Debug, Clone, Copy)]
pub struct Partition<'a> {
    /// Sequences below the threshold, sorted ascending by length
    /// (inter-task work).
    pub short: &'a [Sequence],
    /// Sequences at or above the threshold (intra-task work).
    pub long: &'a [Sequence],
    /// The threshold used.
    pub threshold: usize,
}

impl<'a> Partition<'a> {
    /// Fraction of database sequences handled by the intra-task kernel —
    /// the x-axis of Figures 3, 5 and 6.
    pub fn fraction_long(&self) -> f64 {
        let total = self.short.len() + self.long.len();
        if total == 0 {
            0.0
        } else {
            self.long.len() as f64 / total as f64
        }
    }
}

impl Database {
    /// Build a database; sequences are sorted ascending by length, which is
    /// the representation every consumer in this workspace expects.
    pub fn new(name: impl Into<String>, alphabet: Alphabet, mut sequences: Vec<Sequence>) -> Self {
        sequences.sort_by_key(|s| s.len());
        Self {
            name: name.into(),
            alphabet,
            sequences,
        }
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True when the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// The sequences, sorted ascending by length.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Total residues across all sequences.
    pub fn total_residues(&self) -> u64 {
        self.sequences.iter().map(|s| s.len() as u64).sum()
    }

    /// Number of DP cells a query of `query_len` induces over the whole
    /// database.
    pub fn total_cells(&self, query_len: usize) -> u64 {
        self.total_residues() * query_len as u64
    }

    /// Length statistics.
    pub fn length_stats(&self) -> LengthStats {
        LengthStats::from_lengths(self.sequences.iter().map(|s| s.len()))
    }

    /// Split at `threshold`: sequences shorter than the threshold go to the
    /// inter-task kernel, the rest to the intra-task kernel.
    pub fn partition(&self, threshold: usize) -> Partition<'_> {
        let split = self.sequences.partition_point(|s| s.len() < threshold);
        Partition {
            short: &self.sequences[..split],
            long: &self.sequences[split..],
            threshold,
        }
    }

    /// The threshold that puts exactly the longest `fraction` of sequences
    /// into the intra-task kernel (used to sweep the x-axis of Figures
    /// 3/5/6). Returns a threshold value; ties in length may make the
    /// achieved fraction differ slightly.
    pub fn threshold_for_fraction_long(&self, fraction: f64) -> usize {
        if self.sequences.is_empty() {
            return 0;
        }
        let long_count =
            ((self.sequences.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let idx = self.sequences.len() - long_count.min(self.sequences.len());
        if idx == 0 {
            0
        } else if idx >= self.sequences.len() {
            self.sequences.last().expect("non-empty").len() + 1
        } else {
            self.sequences[idx].len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(id: &str, len: usize) -> Sequence {
        Sequence::new(id, vec![0u8; len])
    }

    fn db() -> Database {
        Database::new(
            "test",
            Alphabet::Protein,
            vec![
                seq("d", 4000),
                seq("a", 100),
                seq("c", 3000),
                seq("b", 200),
                seq("e", 5000),
            ],
        )
    }

    #[test]
    fn sequences_sorted_by_length() {
        let d = db();
        let lens: Vec<usize> = d.sequences().iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![100, 200, 3000, 4000, 5000]);
    }

    #[test]
    fn partition_respects_threshold() {
        let d = db();
        let p = d.partition(3072);
        assert_eq!(p.short.len(), 3);
        assert_eq!(p.long.len(), 2);
        assert!((p.fraction_long() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn threshold_at_boundary_is_exclusive_below() {
        let d = db();
        // threshold == 3000: the 3000-residue sequence is NOT short.
        let p = d.partition(3000);
        assert_eq!(p.short.len(), 2);
        assert_eq!(p.long.len(), 3);
    }

    #[test]
    fn totals() {
        let d = db();
        assert_eq!(d.total_residues(), 12300);
        assert_eq!(d.total_cells(10), 123_000);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
    }

    #[test]
    fn threshold_for_fraction() {
        let d = db();
        // 40% long -> the two longest (4000, 5000) -> threshold 4000.
        let t = d.threshold_for_fraction_long(0.4);
        assert_eq!(t, 4000);
        let p = d.partition(t);
        assert!((p.fraction_long() - 0.4).abs() < 1e-12);
        // 0% long -> threshold above the max length.
        let t0 = d.threshold_for_fraction_long(0.0);
        assert_eq!(d.partition(t0).long.len(), 0);
        // 100% long -> threshold 0.
        let t1 = d.threshold_for_fraction_long(1.0);
        assert_eq!(d.partition(t1).short.len(), 0);
    }

    #[test]
    fn empty_database() {
        let d = Database::new("empty", Alphabet::Protein, vec![]);
        assert!(d.is_empty());
        assert_eq!(d.partition(100).fraction_long(), 0.0);
        assert_eq!(d.threshold_for_fraction_long(0.5), 0);
    }
}
