//! Error type shared by the alignment substrate.

use std::fmt;

/// Errors produced while encoding sequences or configuring aligners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// A character in the input is not part of the selected alphabet.
    InvalidResidue {
        /// Offending character.
        ch: char,
        /// Byte offset in the input string.
        position: usize,
    },
    /// A sequence was empty where a non-empty one is required.
    EmptySequence,
    /// A residue code is outside the alphabet used by a scoring matrix.
    CodeOutOfRange {
        /// The offending code.
        code: u8,
        /// Number of codes the matrix covers.
        alphabet_size: usize,
    },
    /// Gap penalties must satisfy `2^30 >= open >= extend >= 0`.
    InvalidGapPenalties {
        /// Gap-open penalty ρ.
        open: i32,
        /// Gap-extension penalty σ.
        extend: i32,
    },
    /// A matrix with `w(a, b) != w(b, a)` for some pair: the scorers do not
    /// agree on which argument is the query residue.
    AsymmetricMatrix {
        /// The matrix's name.
        name: String,
    },
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::InvalidResidue { ch, position } => {
                write!(f, "invalid residue {ch:?} at position {position}")
            }
            AlignError::EmptySequence => write!(f, "sequence must not be empty"),
            AlignError::CodeOutOfRange {
                code,
                alphabet_size,
            } => write!(
                f,
                "residue code {code} is outside the matrix alphabet (size {alphabet_size})"
            ),
            AlignError::InvalidGapPenalties { open, extend } => write!(
                f,
                "invalid gap penalties: open={open}, extend={extend} (need 2^30 >= open >= \
                 extend >= 0; a larger penalty wraps the i32::MIN / 2 gap sentinel)"
            ),
            AlignError::AsymmetricMatrix { name } => {
                write!(f, "matrix {name} is not symmetric")
            }
        }
    }
}

impl std::error::Error for AlignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AlignError::InvalidResidue {
            ch: '!',
            position: 3,
        };
        assert!(e.to_string().contains('!'));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(AlignError::EmptySequence);
        assert!(!e.to_string().is_empty());
    }
}
