//! Runtime backend and kernel-mode selection.
//!
//! [`BackendKind::detect`] picks the widest backend the running CPU
//! supports: AVX2 (32-lane byte mode) > SSE2 (16-lane, x86-64 baseline) >
//! the portable emulated vectors. The x86 backends are compiled on x86-64
//! only; any other target runs the portable one. The portable backend is
//! available on every build, so tests reach it through
//! [`QueryEngine::with_backend`](crate::QueryEngine::with_backend). The
//! `SW_SIMD_BACKEND` environment variable (`avx2` / `sse2` / `portable`)
//! requests a specific backend at run time and is ignored — never trusted
//! — when that backend is unavailable.
//!
//! [`KernelMode`] selects how cross-segment F propagation is repaired in
//! the striped kernels. By default each column takes the classic Lazy-F
//! correction loop unless its exit F outlives a chunk, in which case
//! Snytsar's prefix scan (arXiv:1909.00899) computes the exact
//! lane-boundary F values in `log2(lanes)` steps and repairs in a single
//! pass; `prefix-scan` forces the scan on every column. Both produce
//! bit-identical scores and overflow verdicts;
//! `SW_KERNEL_MODE=correction-loop|prefix-scan` overrides the default.

/// The host compute backends this build knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// AVX2: 32 × u8 byte mode, 16 × i16 word mode (x86-64, detected).
    Avx2,
    /// SSE2: 16 × u8 byte mode, 8 × i16 word mode (x86-64 baseline).
    Sse2,
    /// Emulated fixed-size-array vectors (any target).
    Portable,
}

impl BackendKind {
    /// Every kind, widest first — the preference order of [`detect`].
    ///
    /// [`detect`]: BackendKind::detect
    pub const ALL: [BackendKind; 3] = [BackendKind::Avx2, BackendKind::Sse2, BackendKind::Portable];

    /// Stable lowercase name (used in metrics labels, env overrides, and
    /// the repo benchmark's result line).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Avx2 => "avx2",
            BackendKind::Sse2 => "sse2",
            BackendKind::Portable => "portable",
        }
    }

    /// Parse a backend name as used by `SW_SIMD_BACKEND`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "avx2" => Some(BackendKind::Avx2),
            "sse2" => Some(BackendKind::Sse2),
            "portable" => Some(BackendKind::Portable),
            _ => None,
        }
    }

    /// True when this build can execute the backend on the running CPU.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx2 => {
                use crate::backend::Backend;
                crate::x86::Avx2Backend::available()
            }
            #[cfg(target_arch = "x86_64")]
            BackendKind::Sse2 => {
                use crate::backend::Backend;
                crate::x86::Sse2Backend::available()
            }
            BackendKind::Portable => true,
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }

    /// All backends available on this host, widest first (always ends with
    /// [`BackendKind::Portable`]).
    pub fn available() -> Vec<BackendKind> {
        Self::ALL.into_iter().filter(|k| k.is_available()).collect()
    }

    /// The backend production code should use: the `SW_SIMD_BACKEND`
    /// override when set *and* available, otherwise the widest available.
    pub fn detect() -> BackendKind {
        if let Ok(name) = std::env::var("SW_SIMD_BACKEND") {
            if let Some(kind) = BackendKind::from_name(name.trim()) {
                if kind.is_available() {
                    return kind;
                }
            }
        }
        Self::ALL
            .into_iter()
            .find(|k| k.is_available())
            .unwrap_or(BackendKind::Portable)
    }

    /// u8 lanes of this backend's byte mode.
    pub fn byte_lanes(self) -> usize {
        match self {
            BackendKind::Avx2 => 32,
            _ => 16,
        }
    }

    /// i16 lanes of this backend's word mode.
    pub fn word_lanes(self) -> usize {
        match self {
            BackendKind::Avx2 => 16,
            _ => 8,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the striped kernels repair cross-segment F propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Farrar's Lazy-F correction loop with the SWAT-style early exit,
    /// bounded: a column whose exit F outlives one chunk (or any column
    /// when `open == extend`) takes the scan below instead. The default.
    #[default]
    CorrectionLoop,
    /// Snytsar's deconstruction (arXiv:1909.00899) forced on every column:
    /// a Kogge-Stone max-scan over the lane-boundary F values (decay
    /// `seg_len × gap_extend` per lane step) yields every lane's exact
    /// incoming F at once, so a single repair pass over the segments
    /// suffices. Kept for the `SW_KERNEL_MODE=prefix-scan` override and to
    /// drive the scan route in the differential and conformance suites.
    PrefixScan,
}

impl KernelMode {
    /// Both modes, default first.
    pub const ALL: [KernelMode; 2] = [KernelMode::CorrectionLoop, KernelMode::PrefixScan];

    /// Stable lowercase name (metrics labels, env override, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::CorrectionLoop => "correction-loop",
            KernelMode::PrefixScan => "prefix-scan",
        }
    }

    /// Parse a mode name as used by `SW_KERNEL_MODE`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "correction-loop" | "loop" => Some(KernelMode::CorrectionLoop),
            "prefix-scan" | "scan" => Some(KernelMode::PrefixScan),
            _ => None,
        }
    }

    /// The mode production code should use: the `SW_KERNEL_MODE` override
    /// when set and recognised, otherwise the correction loop.
    pub fn detect() -> KernelMode {
        if let Ok(name) = std::env::var("SW_KERNEL_MODE") {
            if let Some(mode) = KernelMode::from_name(name.trim()) {
                return mode;
            }
        }
        KernelMode::default()
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_available() {
        assert!(BackendKind::Portable.is_available());
        let available = BackendKind::available();
        assert!(!available.is_empty());
        assert_eq!(available.last(), Some(&BackendKind::Portable));
        assert!(available.contains(&BackendKind::detect()));
    }

    #[test]
    fn names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name("AVX2"), Some(BackendKind::Avx2));
        assert_eq!(BackendKind::from_name("riscv-v"), None);
    }

    #[test]
    fn lane_counts() {
        assert_eq!(BackendKind::Avx2.byte_lanes(), 32);
        assert_eq!(BackendKind::Avx2.word_lanes(), 16);
        for kind in [BackendKind::Sse2, BackendKind::Portable] {
            assert_eq!(kind.byte_lanes(), 16);
            assert_eq!(kind.word_lanes(), 8);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_is_baseline_on_x86_64() {
        assert!(BackendKind::Sse2.is_available());
    }

    #[test]
    fn kernel_mode_names_round_trip() {
        for mode in KernelMode::ALL {
            assert_eq!(KernelMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(KernelMode::from_name("scan"), Some(KernelMode::PrefixScan));
        assert_eq!(
            KernelMode::from_name("LOOP"),
            Some(KernelMode::CorrectionLoop)
        );
        assert_eq!(KernelMode::from_name("wavefront"), None);
        assert_eq!(KernelMode::default(), KernelMode::CorrectionLoop);
    }
}
