//! Texture references.
//!
//! CUDASW++ binds the query profile to texture memory: a read-only region
//! of global memory fetched through the texture path (cached on GT200,
//! L1/L2 on Fermi). A [`TexRef`] is just the bound region; fetches go
//! through [`crate::kernel::BlockCtx::tex_load`].

use crate::memory::DevicePtr;
use std::ops::Range;

/// A texture binding over `[base, base + words)` of global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TexRef {
    base: DevicePtr,
    words: usize,
}

impl TexRef {
    /// Bind `words` words starting at `base`.
    pub fn new(base: DevicePtr, words: usize) -> Self {
        Self { base, words }
    }

    /// Absolute word address of texel `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> usize {
        debug_assert!(i < self.words, "texel {i} out of bounds ({})", self.words);
        self.base.addr() + i
    }

    /// First word of the binding.
    pub fn base(&self) -> DevicePtr {
        self.base
    }

    /// Number of bound words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The bound (absolute) word addresses.
    #[inline]
    pub fn span(&self) -> Range<usize> {
        self.base.addr()..self.base.addr() + self.words
    }

    /// True when `addr` (absolute) is inside the binding.
    pub fn contains(&self, addr: usize) -> bool {
        self.span().contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing() {
        let t = TexRef::new(DevicePtr(96), 10);
        assert_eq!(t.addr(0), 96);
        assert_eq!(t.addr(9), 105);
        assert!(t.contains(96));
        assert!(t.contains(105));
        assert!(!t.contains(106));
        assert!(!t.contains(95));
        assert_eq!(t.words(), 10);
        assert_eq!(t.base(), DevicePtr(96));
    }
}
