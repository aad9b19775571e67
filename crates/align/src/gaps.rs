//! The affine gap model of the paper.
//!
//! The recurrence (equation (1) of the paper) charges a *gap-open* penalty
//! ρ when a gap starts from the `H` state and a *gap-extension* penalty σ
//! for every further unpaired symbol:
//!
//! ```text
//! E[i][j] = max(E[i][j-1] - σ, H[i][j-1] - ρ)
//! F[i][j] = max(F[i-1][j] - σ, H[i-1][j] - ρ)
//! ```
//!
//! so a gap of length `L` costs `ρ + (L - 1)·σ`. CUDASW++'s published
//! benchmarks use ρ = 10, σ = 2 with BLOSUM62, which is
//! [`GapPenalties::cudasw_default`].

use crate::error::AlignError;
use crate::smith_waterman::NEG_INF;

/// Affine gap penalties (stored as positive magnitudes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GapPenalties {
    /// Gap-open penalty ρ (charged for the first symbol of a gap).
    pub open: i32,
    /// Gap-extension penalty σ (charged for each subsequent symbol).
    pub extend: i32,
}

impl GapPenalties {
    /// Create a validated gap model. Requires `2^30 >= open >= extend >= 0`:
    /// a gap must not get cheaper by splitting, penalties are magnitudes,
    /// and every recurrence subtracts them from the [`NEG_INF`] sentinel
    /// (`i32::MIN / 2`), which a penalty above its magnitude would wrap.
    pub fn new(open: i32, extend: i32) -> Result<Self, AlignError> {
        if extend < 0 || open < extend || open > -NEG_INF {
            return Err(AlignError::InvalidGapPenalties { open, extend });
        }
        Ok(Self { open, extend })
    }

    /// The parameters of the CUDASW++ evaluation: ρ = 10, σ = 2.
    pub fn cudasw_default() -> Self {
        Self {
            open: 10,
            extend: 2,
        }
    }

    /// Total cost of a gap of `len` unpaired symbols.
    pub fn cost(&self, len: usize) -> i64 {
        if len == 0 {
            0
        } else {
            self.open as i64 + (len as i64 - 1) * self.extend as i64
        }
    }
}

impl Default for GapPenalties {
    fn default() -> Self {
        Self::cudasw_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_cudasw() {
        assert_eq!(
            GapPenalties::default(),
            GapPenalties {
                open: 10,
                extend: 2
            }
        );
    }

    #[test]
    fn validation() {
        assert!(GapPenalties::new(10, 2).is_ok());
        assert!(GapPenalties::new(2, 2).is_ok());
        assert!(GapPenalties::new(1, 2).is_err(), "open < extend rejected");
        assert!(
            GapPenalties::new(5, -1).is_err(),
            "negative extend rejected"
        );
        assert!(GapPenalties::new(1 << 30, 1 << 30).is_ok());
        let wide = GapPenalties::new(i32::MAX, i32::MAX);
        assert!(wide.is_err(), "a penalty that wraps the sentinel rejected");
        assert!(wide.unwrap_err().to_string().contains("sentinel"));
    }

    #[test]
    fn gap_cost_formula() {
        let g = GapPenalties::cudasw_default();
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(1), 10);
        assert_eq!(g.cost(2), 12);
        assert_eq!(g.cost(5), 18);
    }
}
