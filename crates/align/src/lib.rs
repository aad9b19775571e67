//! Sequence-alignment substrate for the CUDASW++ reproduction.
//!
//! This crate provides everything the GPU kernels and CPU baselines share:
//!
//! * [`alphabet`] — residue alphabets (protein / DNA) and their `u8` codes;
//! * [`matrix`] — substitution matrices (BLOSUM/PAM families) over those codes;
//! * [`gaps`] — the affine gap model of the paper (open penalty ρ, extend σ);
//! * [`smith_waterman`] — the exact scalar Smith-Waterman recurrence
//!   (equation (1) of the paper), score-only in linear space (the paper
//!   is score-only too) and full-matrix for tests;
//! * [`profile`] — the Rognes–Seeberg query profile, including the packed
//!   4-scores-per-word layout that the improved intra-task kernel reads
//!   from texture memory.
//!
//! All aligners in this workspace — the SIMD baselines in `sw-simd` and the
//! simulated GPU kernels in `cudasw-core` — are validated against
//! [`smith_waterman::sw_score`], which is written to mirror the recurrence
//! in the paper as literally as possible.

pub mod alphabet;
pub mod error;
pub mod gaps;
pub mod matrix;
pub mod profile;
pub mod smith_waterman;

pub use alphabet::{decode_protein, encode_dna, encode_protein, Alphabet, PROTEIN_ALPHABET};
pub use error::AlignError;
pub use gaps::GapPenalties;
pub use matrix::ScoringMatrix;
pub use profile::{PackedProfile, QueryProfile};
pub use smith_waterman::{sw_score, sw_score_full, SwParams};
