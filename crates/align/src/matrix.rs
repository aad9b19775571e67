//! Substitution (similarity) matrices.
//!
//! The paper scores residue pairs with a function `w : A × A → Z`; in
//! practice this is a BLOSUM or PAM matrix. CUDASW++'s benchmarks use
//! BLOSUM62 with gap-open 10 / gap-extend 2, which is also the default of
//! this workspace ([`ScoringMatrix::blosum62`] + `GapPenalties::cudasw_default`).
//!
//! Matrices are stored row-major as `i8` over the 24-code protein alphabet
//! (see [`crate::alphabet`]): every BLOSUM/PAM entry fits in a byte, and the
//! improved intra-task kernel's packed query profile stores four `i8`
//! scores per 32-bit word exactly as the paper describes.
//!
//! BLOSUM62 and BLOSUM50 are shipped as the full authentic 24×24 NCBI
//! tables; any other matrix goes through [`ScoringMatrix::from_raw`].

use crate::alphabet::{Alphabet, PROTEIN_ALPHABET_SIZE};
use crate::error::AlignError;

/// A square substitution matrix over residue codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoringMatrix {
    name: String,
    alphabet: Alphabet,
    size: usize,
    /// Row-major `size × size` scores.
    scores: Vec<i8>,
}

impl ScoringMatrix {
    /// Build a matrix from a row-major slice of scores.
    ///
    /// `scores.len()` must equal `size * size` and `size` must not exceed
    /// the alphabet size.
    pub fn from_raw(
        name: impl Into<String>,
        alphabet: Alphabet,
        size: usize,
        scores: Vec<i8>,
    ) -> Result<Self, AlignError> {
        if size == 0 || size > alphabet.size() || scores.len() != size * size {
            return Err(AlignError::CodeOutOfRange {
                code: size.min(u8::MAX as usize) as u8,
                alphabet_size: alphabet.size(),
            });
        }
        Ok(Self {
            name: name.into(),
            alphabet,
            size,
            scores,
        })
    }

    /// Simple match/mismatch matrix (useful for DNA).
    pub fn match_mismatch(alphabet: Alphabet, match_score: i8, mismatch_score: i8) -> Self {
        let size = alphabet.size();
        let mut scores = vec![mismatch_score; size * size];
        for i in 0..size {
            scores[i * size + i] = match_score;
        }
        Self {
            name: format!("match/mismatch({match_score}/{mismatch_score})"),
            alphabet,
            size,
            scores,
        }
    }

    /// Human-readable name, e.g. `"BLOSUM62"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The alphabet this matrix scores.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Number of residue codes covered.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Score of the pair `(a, b)`.
    ///
    /// # Panics
    /// Panics if either code is outside the matrix (use
    /// [`ScoringMatrix::try_score`] for a checked lookup). Kernels index
    /// with already-validated database codes, so the hot path stays
    /// branch-light.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize * self.size + b as usize] as i32
    }

    /// Checked score lookup.
    pub fn try_score(&self, a: u8, b: u8) -> Result<i32, AlignError> {
        if (a as usize) >= self.size {
            return Err(AlignError::CodeOutOfRange {
                code: a,
                alphabet_size: self.size,
            });
        }
        if (b as usize) >= self.size {
            return Err(AlignError::CodeOutOfRange {
                code: b,
                alphabet_size: self.size,
            });
        }
        Ok(self.score(a, b))
    }

    /// Row of scores against every alphabet code, for residue `a`.
    #[inline]
    pub fn row(&self, a: u8) -> &[i8] {
        &self.scores[a as usize * self.size..(a as usize + 1) * self.size]
    }

    /// Largest entry in the matrix.
    pub fn max_score(&self) -> i32 {
        self.scores.iter().copied().max().unwrap_or(0) as i32
    }

    /// Smallest entry in the matrix.
    pub fn min_score(&self) -> i32 {
        self.scores.iter().copied().min().unwrap_or(0) as i32
    }

    /// True when `w(a, b) == w(b, a)` for all pairs.
    pub fn is_symmetric(&self) -> bool {
        for a in 0..self.size {
            for b in (a + 1)..self.size {
                if self.scores[a * self.size + b] != self.scores[b * self.size + a] {
                    return false;
                }
            }
        }
        true
    }

    /// The NCBI BLOSUM62 matrix (full 24×24). Default for this workspace.
    pub fn blosum62() -> Self {
        Self::parse_24("BLOSUM62", BLOSUM62_TEXT)
    }

    /// The NCBI BLOSUM50 matrix (full 24×24).
    pub fn blosum50() -> Self {
        Self::parse_24("BLOSUM50", BLOSUM50_TEXT)
    }

    fn parse_24(name: &str, text: &str) -> Self {
        const N: usize = PROTEIN_ALPHABET_SIZE;
        let scores: Vec<i8> = text
            .split_ascii_whitespace()
            .map(|t| t.parse::<i8>().expect("matrix literal must be an i8"))
            .collect();
        assert_eq!(
            scores.len(),
            N * N,
            "matrix literal for {name} has wrong size"
        );
        Self {
            name: name.to_string(),
            alphabet: Alphabet::Protein,
            size: N,
            scores,
        }
    }
}

impl Default for ScoringMatrix {
    fn default() -> Self {
        Self::blosum62()
    }
}

// Row and column order: A R N D C Q E G H I L K M F P S T W Y V B Z X *
const BLOSUM62_TEXT: &str = "
 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
-2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
-1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
-4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
";

const BLOSUM50_TEXT: &str = "
 5 -2 -1 -2 -1 -1 -1  0 -2 -1 -2 -1 -1 -3 -1  1  0 -3 -2  0 -2 -1 -1 -5
-2  7 -1 -2 -4  1  0 -3  0 -4 -3  3 -2 -3 -3 -1 -1 -3 -1 -3 -1  0 -1 -5
-1 -1  7  2 -2  0  0  0  1 -3 -4  0 -2 -4 -2  1  0 -4 -2 -3  4  0 -1 -5
-2 -2  2  8 -4  0  2 -1 -1 -4 -4 -1 -4 -5 -1  0 -1 -5 -3 -4  5  1 -1 -5
-1 -4 -2 -4 13 -3 -3 -3 -3 -2 -2 -3 -2 -2 -4 -1 -1 -5 -3 -1 -3 -3 -2 -5
-1  1  0  0 -3  7  2 -2  1 -3 -2  2  0 -4 -1  0 -1 -1 -1 -3  0  4 -1 -5
-1  0  0  2 -3  2  6 -3  0 -4 -3  1 -2 -3 -1 -1 -1 -3 -2 -3  1  5 -1 -5
 0 -3  0 -1 -3 -2 -3  8 -2 -4 -4 -2 -3 -4 -2  0 -2 -3 -3 -4 -1 -2 -2 -5
-2  0  1 -1 -3  1  0 -2 10 -4 -3  0 -1 -1 -2 -1 -2 -3  2 -4  0  0 -1 -5
-1 -4 -3 -4 -2 -3 -4 -4 -4  5  2 -3  2  0 -3 -3 -1 -3 -1  4 -4 -3 -1 -5
-2 -3 -4 -4 -2 -2 -3 -4 -3  2  5 -3  3  1 -4 -3 -1 -2 -1  1 -4 -3 -1 -5
-1  3  0 -1 -3  2  1 -2  0 -3 -3  6 -2 -4 -1  0 -1 -3 -2 -3  0  1 -1 -5
-1 -2 -2 -4 -2  0 -2 -3 -1  2  3 -2  7  0 -3 -2 -1 -1  0  1 -3 -1 -1 -5
-3 -3 -4 -5 -2 -4 -3 -4 -1  0  1 -4  0  8 -4 -3 -2  1  4 -1 -4 -4 -2 -5
-1 -3 -2 -1 -4 -1 -1 -2 -2 -3 -4 -1 -3 -4 10 -1 -1 -4 -3 -3 -2 -1 -2 -5
 1 -1  1  0 -1  0 -1  0 -1 -3 -3  0 -2 -3 -1  5  2 -4 -2 -2  0  0 -1 -5
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  2  5 -3 -2  0  0 -1  0 -5
-3 -3 -4 -5 -5 -1 -3 -3 -3 -3 -2 -3 -1  1 -4 -4 -3 15  2 -3 -5 -2 -3 -5
-2 -1 -2 -3 -3 -1 -2 -3  2 -1 -1 -2  0  4 -3 -2 -2  2  8 -1 -3 -2 -1 -5
 0 -3 -3 -4 -1 -3 -3 -4 -4  4  1 -3  1 -1 -3 -2  0 -3 -1  5 -4 -3 -1 -5
-2 -1  4  5 -3  0  1 -1  0 -4 -4  0 -3 -4 -2  0  0 -5 -3 -4  5  2 -1 -5
-1  0  0  1 -3  4  5 -2  0 -3 -3  1 -1 -4 -1  0 -1 -2 -2 -3  2  5 -1 -5
-1 -1 -1 -1 -2 -1 -1 -2 -1 -1 -1 -1 -1 -2 -2 -1  0 -3 -1 -1 -1 -1 -1 -5
-5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5 -5  1
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_protein;

    fn all_matrices() -> Vec<ScoringMatrix> {
        vec![ScoringMatrix::blosum62(), ScoringMatrix::blosum50()]
    }

    #[test]
    fn all_protein_matrices_are_symmetric_24x24() {
        for m in all_matrices() {
            assert_eq!(m.size(), 24, "{}", m.name());
            assert!(m.is_symmetric(), "{} is not symmetric", m.name());
        }
    }

    #[test]
    fn diagonals_are_positive_for_standard_residues() {
        for m in all_matrices() {
            for code in 0..20u8 {
                assert!(
                    m.score(code, code) > 0,
                    "{}: w({code},{code}) = {}",
                    m.name(),
                    m.score(code, code)
                );
            }
        }
    }

    #[test]
    fn blosum62_spot_values() {
        let m = ScoringMatrix::blosum62();
        let code = |c: char| encode_protein(&c.to_string()).unwrap()[0];
        assert_eq!(m.score(code('A'), code('A')), 4);
        assert_eq!(m.score(code('W'), code('W')), 11);
        assert_eq!(m.score(code('W'), code('C')), -2);
        assert_eq!(m.score(code('E'), code('Q')), 2);
        assert_eq!(m.score(code('N'), code('B')), 3);
        assert_eq!(m.score(code('*'), code('*')), 1);
    }

    #[test]
    fn blosum50_spot_values() {
        let m = ScoringMatrix::blosum50();
        let code = |c: char| encode_protein(&c.to_string()).unwrap()[0];
        assert_eq!(m.score(code('C'), code('C')), 13);
        assert_eq!(m.score(code('W'), code('W')), 15);
        assert_eq!(m.score(code('A'), code('A')), 5);
    }

    #[test]
    fn min_max_scores() {
        let m = ScoringMatrix::blosum62();
        assert_eq!(m.max_score(), 11);
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    fn match_mismatch_matrix() {
        let m = ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3);
        assert_eq!(m.score(0, 0), 2);
        assert_eq!(m.score(0, 1), -3);
        assert!(m.is_symmetric());
    }

    #[test]
    fn try_score_bounds() {
        let m = ScoringMatrix::blosum62();
        assert!(m.try_score(0, 23).is_ok());
        assert!(m.try_score(24, 0).is_err());
        assert!(m.try_score(0, 255).is_err());
    }

    #[test]
    fn from_raw_rejects_bad_sizes() {
        assert!(ScoringMatrix::from_raw("bad", Alphabet::Dna, 5, vec![0; 24]).is_err());
        assert!(ScoringMatrix::from_raw("bad", Alphabet::Dna, 6, vec![0; 36]).is_err());
        assert!(ScoringMatrix::from_raw("ok", Alphabet::Dna, 5, vec![0; 25]).is_ok());
    }

    #[test]
    fn row_matches_score() {
        let m = ScoringMatrix::blosum62();
        for a in 0..24u8 {
            let row = m.row(a);
            for b in 0..24u8 {
                assert_eq!(row[b as usize] as i32, m.score(a, b));
            }
        }
    }
}
