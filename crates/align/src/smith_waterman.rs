//! Scalar Smith-Waterman: the reference every other implementation in this
//! workspace is validated against.
//!
//! [`sw_score`] computes only the optimal local-alignment score in linear
//! space, exactly as the paper's kernels do ("for comparisons of a query
//! sequence to an entire database, we are generally only concerned with the
//! score and not the actual alignment"). [`sw_score_full`] materializes the
//! whole `H` table (used by tests).

use crate::gaps::GapPenalties;
use crate::matrix::ScoringMatrix;

/// The "minus infinity" sentinel seeding the `E`/`F` gap recurrences.
///
/// Half of `i32::MIN` so that subtracting a gap penalty (or adding a
/// substitution score) can never wrap around to a large positive value:
/// the recurrences only ever *subtract* penalties from it, and one
/// `debug_assert!` per search guards that substitution scores stay far
/// above it (see [`sw_score`]).
pub const NEG_INF: i32 = i32::MIN / 2;

/// Parameters shared by every Smith-Waterman variant.
#[derive(Debug, Clone)]
pub struct SwParams {
    /// Substitution matrix `w`.
    pub matrix: ScoringMatrix,
    /// Affine gap penalties (ρ, σ).
    pub gaps: GapPenalties,
}

impl SwParams {
    /// BLOSUM62 with ρ = 10, σ = 2 — the CUDASW++ evaluation setup.
    pub fn cudasw_default() -> Self {
        Self {
            matrix: ScoringMatrix::blosum62(),
            gaps: GapPenalties::cudasw_default(),
        }
    }
}

impl Default for SwParams {
    fn default() -> Self {
        Self::cudasw_default()
    }
}

/// Optimal local alignment score between `query` and `db` (residue codes).
///
/// Linear space: `O(min-side)` memory, `O(n·m)` time. Returns 0 for empty
/// inputs (the empty alignment is always admissible in local alignment).
pub fn sw_score(params: &SwParams, query: &[u8], db: &[u8]) -> i32 {
    if query.is_empty() || db.is_empty() {
        return 0;
    }
    debug_assert!(
        params.matrix.min_score() > NEG_INF / 2,
        "substitution scores must not underflow the NEG_INF sentinel"
    );
    let (open, extend) = (params.gaps.open, params.gaps.extend);
    let m = query.len();
    // One column of H and E, indexed by query position (0..=m).
    let mut h_col = vec![0i32; m + 1];
    let mut e_col = vec![NEG_INF; m + 1];
    let mut best = 0i32;

    for &d in db {
        let row = params.matrix.row(d);
        let mut h_diag = 0i32; // H[i-1][j-1]
        let mut h_up = 0i32; // H[i-1][j] (current column, previous row)
        let mut f = NEG_INF; // F[i-1][j], walking down i
        for i in 1..=m {
            // `h_col[i]` still holds H[i][j-1] and `e_col[i]` holds E[i][j-1].
            let e = (e_col[i] - extend).max(h_col[i] - open);
            f = (f - extend).max(h_up - open);
            let h_sub = h_diag + row[query[i - 1] as usize] as i32;
            let h = h_sub.max(e).max(f).max(0);
            h_diag = h_col[i];
            h_col[i] = h;
            e_col[i] = e;
            h_up = h;
            if h > best {
                best = h;
            }
        }
    }
    best
}

/// Full `H` table (dimensions `(m+1) × (n+1)`, row 0 and column 0 are the
/// zero boundary), plus the optimal score.
///
/// Memory is `O(n·m)`; intended for tests and small inputs.
pub fn sw_score_full(params: &SwParams, query: &[u8], db: &[u8]) -> (Vec<Vec<i32>>, i32) {
    let m = query.len();
    let n = db.len();
    debug_assert!(
        params.matrix.min_score() > NEG_INF / 2,
        "substitution scores must not underflow the NEG_INF sentinel"
    );
    let (open, extend) = (params.gaps.open, params.gaps.extend);
    let mut h = vec![vec![0i32; n + 1]; m + 1];
    let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
    let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
    let mut best = 0;
    for i in 1..=m {
        let qrow = params.matrix.row(query[i - 1]);
        for j in 1..=n {
            e[i][j] = (e[i][j - 1] - extend).max(h[i][j - 1] - open);
            f[i][j] = (f[i - 1][j] - extend).max(h[i - 1][j] - open);
            let sub = h[i - 1][j - 1] + qrow[db[j - 1] as usize] as i32;
            h[i][j] = sub.max(e[i][j]).max(f[i][j]).max(0);
            if h[i][j] > best {
                best = h[i][j];
            }
        }
    }
    (h, best)
}

/// Position `(i, j)` (1-based, in `H`-table coordinates) of the maximum
/// cell, breaking ties towards the smallest `i`, then smallest `j`.
pub fn sw_max_cell(h: &[Vec<i32>]) -> (usize, usize, i32) {
    let mut best = (0, 0, 0);
    for (i, row) in h.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v > best.2 {
                best = (i, j, v);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_protein;

    fn p() -> SwParams {
        SwParams::cudasw_default()
    }

    fn score(q: &str, d: &str) -> i32 {
        sw_score(
            &p(),
            &encode_protein(q).unwrap(),
            &encode_protein(d).unwrap(),
        )
    }

    #[test]
    fn empty_inputs_score_zero() {
        assert_eq!(score("", "MKV"), 0);
        assert_eq!(score("MKV", ""), 0);
        assert_eq!(score("", ""), 0);
    }

    #[test]
    fn identical_sequences_score_sum_of_diagonal() {
        let q = "MKVLAW";
        let codes = encode_protein(q).unwrap();
        let expected: i32 = codes.iter().map(|&c| p().matrix.score(c, c)).sum();
        assert_eq!(score(q, q), expected);
    }

    #[test]
    fn single_residue_match() {
        // W-W scores 11 in BLOSUM62.
        assert_eq!(score("W", "W"), 11);
    }

    #[test]
    fn unrelated_sequences_never_negative() {
        // Local alignment score is always >= 0.
        assert_eq!(score("WWWW", "PPPP").max(0), score("WWWW", "PPPP"));
        assert!(score("WWWW", "PPPP") >= 0);
    }

    #[test]
    fn gap_is_taken_when_cheaper_than_mismatches() {
        // Query = AAWAA, db = AA AA with an inserted residue in the query:
        // aligning through a 1-gap costs open=10; compare hand-computed.
        let with_gap = score("AAWAA", "AAAA");
        // ungapped best: AAWAA vs AAAA shifted — compute full table agreement
        let (h, best) = sw_score_full(
            &p(),
            &encode_protein("AAWAA").unwrap(),
            &encode_protein("AAAA").unwrap(),
        );
        assert_eq!(with_gap, best);
        assert_eq!(sw_max_cell(&h).2, best);
    }

    #[test]
    fn linear_space_matches_full_table() {
        let qs = ["MKVLAWGGSC", "AAAA", "WCWCWCWC", "M"];
        let ds = ["MKVLAWGGSC", "GGGG", "CWCWCWCW", "MKVLLLLAW"];
        for q in qs {
            for d in ds {
                let qc = encode_protein(q).unwrap();
                let dc = encode_protein(d).unwrap();
                let lin = sw_score(&p(), &qc, &dc);
                let (_, full) = sw_score_full(&p(), &qc, &dc);
                assert_eq!(lin, full, "q={q} d={d}");
            }
        }
    }

    #[test]
    fn score_is_symmetric_for_symmetric_matrix() {
        let q = encode_protein("MKWVLAW").unwrap();
        let d = encode_protein("KWVAWML").unwrap();
        assert_eq!(sw_score(&p(), &q, &d), sw_score(&p(), &d, &q));
    }

    #[test]
    fn known_alignment_with_gap_extension() {
        // q = ACDEFG, d = ACDXXEFG scored by hand:
        // match A+C+D = 4+9+6 = 19, gap of 2 (10+2=12), match E+F+G = 5+6+6 = 17
        // total = 19 - 12 + 17 = 24.
        assert!(score("ACDEFG", "ACDXXEFG") >= 24);
        let (_, best) = sw_score_full(
            &p(),
            &encode_protein("ACDEFG").unwrap(),
            &encode_protein("ACDXXEFG").unwrap(),
        );
        assert_eq!(score("ACDEFG", "ACDXXEFG"), best);
    }

    #[test]
    fn longer_db_never_lowers_score() {
        // Appending residues to the database can only keep or improve the
        // best local score.
        let q = encode_protein("MKVLAW").unwrap();
        let mut d = encode_protein("GGG").unwrap();
        let mut prev = sw_score(&p(), &q, &d);
        for &c in &encode_protein("MKVLAW").unwrap() {
            d.push(c);
            let s = sw_score(&p(), &q, &d);
            assert!(s >= prev);
            prev = s;
        }
    }
}
