//! The Rognes–Seeberg query profile.
//!
//! A query profile turns the similarity lookup `w(q[i], d[j])` into a
//! linear table scan: for a fixed query, `profile[a][i] = w(a, q[i])` is
//! precomputed for every alphabet symbol `a` and query position `i`, so an
//! inner loop over query positions for one database residue reads
//! consecutive memory (and, on the GPU, consecutive texture words).
//!
//! [`PackedProfile`] additionally packs **four** consecutive query
//! positions' scores into one 32-bit word. The paper: "We applied the query
//! profile to our intra-task implementation so that it stores the
//! similarity scores of four symbols in a single variable. By making our
//! tile height a multiple of four, only a single read is required for every
//! four cells, reducing these memory operations by a factor of four."

use crate::matrix::ScoringMatrix;

/// Unpacked query profile: `score(a, i) = w(a, query[i])`.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    alphabet_size: usize,
    query_len: usize,
    /// Residue-major: row `a` holds scores against every query position.
    scores: Vec<i8>,
}

impl QueryProfile {
    /// Build the profile for `query` under `matrix`.
    pub fn build(matrix: &ScoringMatrix, query: &[u8]) -> Self {
        let alphabet_size = matrix.size();
        let query_len = query.len();
        let mut scores = vec![0i8; alphabet_size * query_len];
        for a in 0..alphabet_size {
            let row = matrix.row(a as u8);
            let out = &mut scores[a * query_len..(a + 1) * query_len];
            for (slot, &q) in out.iter_mut().zip(query) {
                *slot = row[q as usize];
            }
        }
        Self {
            alphabet_size,
            query_len,
            scores,
        }
    }

    /// Profile score for database residue `a` at query position `i`.
    #[inline]
    pub fn score(&self, a: u8, i: usize) -> i32 {
        self.scores[a as usize * self.query_len + i] as i32
    }

    /// Row of scores for database residue `a` across the whole query.
    #[inline]
    pub fn row(&self, a: u8) -> &[i8] {
        &self.scores[a as usize * self.query_len..(a as usize + 1) * self.query_len]
    }

    /// Query length the profile was built for.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Number of alphabet codes covered.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Total size of the profile in bytes (what the kernel uploads).
    pub fn size_bytes(&self) -> usize {
        self.scores.len()
    }
}

/// Packed query profile: four query positions per 32-bit word.
///
/// The query is padded to a multiple of 4 with a sentinel that scores
/// [`ScoringMatrix::pad_score`] against everything, so padded cells can never
/// win the local maximum.
#[derive(Debug, Clone)]
pub struct PackedProfile {
    alphabet_size: usize,
    query_len: usize,
    words_per_row: usize,
    /// Residue-major rows of packed words.
    words: Vec<u32>,
    pad_score: i8,
}

impl PackedProfile {
    /// Build the packed profile for `query` under `matrix`.
    pub fn build(matrix: &ScoringMatrix, query: &[u8]) -> Self {
        let alphabet_size = matrix.size();
        let query_len = query.len();
        let words_per_row = query_len.div_ceil(4);
        let pad_score = matrix.pad_score() as i8;
        let mut words = vec![0u32; alphabet_size * words_per_row];
        for a in 0..alphabet_size {
            let row = matrix.row(a as u8);
            for w in 0..words_per_row {
                let mut packed = [pad_score; 4];
                #[allow(clippy::needless_range_loop)] // k maps query position AND lane
                for k in 0..4 {
                    let i = w * 4 + k;
                    if i < query_len {
                        packed[k] = row[query[i] as usize];
                    }
                }
                words[a * words_per_row + w] = Self::pack(packed);
            }
        }
        Self {
            alphabet_size,
            query_len,
            words_per_row,
            words,
            pad_score,
        }
    }

    /// Pack four `i8` scores into one little-endian word.
    #[inline]
    pub fn pack(scores: [i8; 4]) -> u32 {
        u32::from_le_bytes(scores.map(|s| s as u8))
    }

    /// Unpack one word back into four scores.
    #[inline]
    pub fn unpack(word: u32) -> [i8; 4] {
        word.to_le_bytes().map(|b| b as i8)
    }

    /// The packed word covering query positions `4·w .. 4·w+4` for database
    /// residue `a`.
    #[inline]
    pub fn word(&self, a: u8, w: usize) -> u32 {
        self.words[a as usize * self.words_per_row + w]
    }

    /// Score for residue `a` at query position `i` (crossing word packing).
    #[inline]
    pub fn score(&self, a: u8, i: usize) -> i32 {
        Self::unpack(self.word(a, i / 4))[i % 4] as i32
    }

    /// Query length before padding.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Query length after padding to a multiple of 4.
    pub fn padded_len(&self) -> usize {
        self.words_per_row * 4
    }

    /// Words per alphabet row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of alphabet codes covered.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Score used for padding positions.
    pub fn pad_score(&self) -> i8 {
        self.pad_score
    }

    /// Size of the packed table in bytes (what is bound to texture memory).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_protein;

    #[test]
    fn profile_matches_matrix() {
        let m = ScoringMatrix::blosum62();
        let q = encode_protein("MKVLAWGGSC").unwrap();
        let p = QueryProfile::build(&m, &q);
        for a in 0..24u8 {
            for (i, &qi) in q.iter().enumerate() {
                assert_eq!(p.score(a, i), m.score(a, qi), "a={a} i={i}");
            }
        }
        assert_eq!(p.query_len(), 10);
        assert_eq!(p.alphabet_size(), 24);
        assert_eq!(p.size_bytes(), 240);
    }

    #[test]
    fn packed_profile_matches_matrix() {
        let m = ScoringMatrix::blosum62();
        let q = encode_protein("MKVLAWGGS").unwrap(); // length 9: padding needed
        let p = PackedProfile::build(&m, &q);
        assert_eq!(p.padded_len(), 12);
        assert_eq!(p.words_per_row(), 3);
        for a in 0..24u8 {
            for (i, &qi) in q.iter().enumerate() {
                assert_eq!(p.score(a, i), m.score(a, qi), "a={a} i={i}");
            }
        }
    }

    #[test]
    fn packing_roundtrip() {
        let cases = [[0i8, 1, -1, 127], [-128, -4, 11, 0], [5, 5, 5, 5]];
        for c in cases {
            assert_eq!(PackedProfile::unpack(PackedProfile::pack(c)), c);
        }
    }

    #[test]
    fn padding_scores_matrix_minimum() {
        let m = ScoringMatrix::blosum62();
        let q = encode_protein("MK").unwrap();
        let p = PackedProfile::build(&m, &q);
        assert_eq!(p.pad_score() as i32, m.min_score());
        for a in 0..24u8 {
            for i in q.len()..p.padded_len() {
                assert_eq!(p.score(a, i), m.min_score(), "a={a} i={i}");
            }
        }
    }

    #[test]
    fn packed_reads_are_one_per_four_cells() {
        let m = ScoringMatrix::blosum62();
        let q = encode_protein("MKVLAWGG").unwrap();
        let p = PackedProfile::build(&m, &q);
        // 8 query positions -> 2 words per residue row.
        assert_eq!(p.words_per_row(), 2);
        assert_eq!(p.size_bytes(), 24 * 2 * 4);
    }

    #[test]
    fn empty_query() {
        let m = ScoringMatrix::blosum62();
        let p = PackedProfile::build(&m, &[]);
        assert_eq!(p.words_per_row(), 0);
        assert_eq!(p.padded_len(), 0);
        let up = QueryProfile::build(&m, &[]);
        assert_eq!(up.query_len(), 0);
    }
}
