//! Property-based tests for the alignment substrate.

use proptest::prelude::*;
use sw_align::smith_waterman::{sw_score, sw_score_full};
use sw_align::{GapPenalties, PackedProfile, QueryProfile, ScoringMatrix, SwParams};

/// A random protein sequence over the 20 standard residues.
fn protein_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, 0..=max_len)
}

fn params() -> SwParams {
    SwParams::cudasw_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn local_score_is_nonnegative(q in protein_seq(64), d in protein_seq(64)) {
        prop_assert!(sw_score(&params(), &q, &d) >= 0);
    }

    #[test]
    fn linear_space_equals_full_table(q in protein_seq(40), d in protein_seq(40)) {
        let p = params();
        let (_, full) = sw_score_full(&p, &q, &d);
        prop_assert_eq!(sw_score(&p, &q, &d), full);
    }

    #[test]
    fn score_is_symmetric(q in protein_seq(48), d in protein_seq(48)) {
        let p = params();
        prop_assert_eq!(sw_score(&p, &q, &d), sw_score(&p, &d, &q));
    }

    #[test]
    fn profiles_agree_with_matrix(q in protein_seq(33)) {
        let m = ScoringMatrix::blosum62();
        let up = QueryProfile::build(&m, &q);
        let pp = PackedProfile::build(&m, &q);
        for a in 0..m.size() as u8 {
            for (i, &qi) in q.iter().enumerate() {
                prop_assert_eq!(up.score(a, i), m.score(a, qi));
                prop_assert_eq!(pp.score(a, i), m.score(a, qi));
            }
        }
    }

    #[test]
    fn appending_to_db_is_monotone(q in protein_seq(24), d in protein_seq(24), extra in protein_seq(8)) {
        let p = params();
        let base = sw_score(&p, &q, &d);
        let mut longer = d.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(sw_score(&p, &q, &longer) >= base);
    }

    #[test]
    fn concatenation_superadditive(q in protein_seq(16), d1 in protein_seq(16), d2 in protein_seq(16)) {
        // The best local score in d1 ++ d2 is at least the max of the parts.
        let p = params();
        let mut cat = d1.clone();
        cat.extend_from_slice(&d2);
        let parts = sw_score(&p, &q, &d1).max(sw_score(&p, &q, &d2));
        prop_assert!(sw_score(&p, &q, &cat) >= parts);
    }

    #[test]
    fn gap_cost_monotone_in_length(open in 0i32..30, extend in 0i32..10, len in 0usize..100) {
        prop_assume!(open >= extend);
        let g = GapPenalties::new(open, extend).unwrap();
        prop_assert!(g.cost(len + 1) >= g.cost(len));
    }
}
