//! Errors reported by the device simulator.
//!
//! Besides the four host-side programming mistakes the simulator has
//! always modelled, the fault-injection layer ([`crate::fault`]) can
//! surface the hardware failure modes a production deployment must
//! survive: transient faults, launch timeouts, detected memory corruption
//! and whole-device loss. [`GpuError::is_transient`] and
//! [`GpuError::is_recoverable`] classify every variant so host-side
//! recovery policy can be written against the *class* of an error rather
//! than pattern-matching variants.

use std::fmt;
use std::ops::Range;

/// Where in the device pipeline a fault was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Device memory allocation.
    Alloc,
    /// Kernel launch / execution.
    Launch,
    /// Host→device transfer.
    HostToDevice,
    /// Device→host transfer.
    DeviceToHost,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Alloc => write!(f, "alloc"),
            FaultSite::Launch => write!(f, "launch"),
            FaultSite::HostToDevice => write!(f, "h2d"),
            FaultSite::DeviceToHost => write!(f, "d2h"),
        }
    }
}

/// Errors from allocation, transfers, and kernel launches.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future failure modes can be added without breaking the
/// workspace. Use the classification methods instead of exhaustive
/// matching where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuError {
    /// Device global memory is exhausted.
    OutOfMemory {
        /// Words requested by the failing allocation.
        requested_words: usize,
        /// Words still available.
        available_words: usize,
    },
    /// A kernel accessed an address outside any allocation.
    BadAccess {
        /// Offending word address.
        addr: usize,
        /// Size of the device memory in words.
        mem_words: usize,
    },
    /// A texture fetch left the binding it went through (above or below).
    OutsideBinding {
        /// Offending (absolute) word address.
        addr: usize,
        /// The bound word addresses.
        binding: Range<usize>,
    },
    /// The launch configuration is not executable on this device.
    InvalidLaunch {
        /// Human-readable reason (block too large, zero blocks, ...).
        reason: String,
    },
    /// A host/device copy had mismatched lengths.
    SizeMismatch {
        /// Expected number of words.
        expected: usize,
        /// Provided number of words.
        got: usize,
    },
    /// A one-off hardware fault (SEU, PCIe replay failure, driver
    /// glitch) hit the operation; retrying the same operation is expected
    /// to succeed.
    TransientFault {
        /// Pipeline stage the fault hit.
        site: FaultSite,
    },
    /// The launch exceeded the watchdog's cycle budget and was killed
    /// (the simulator's model of a hung kernel being reset by the
    /// driver's watchdog timer).
    LaunchTimeout {
        /// Cycle budget the watchdog enforced.
        budget_cycles: u64,
        /// Simulated cycles the launch would have taken.
        observed_cycles: u64,
    },
    /// ECC detected an uncorrectable corrupted word while data crossed
    /// the bus; the payload was discarded.
    CorruptionDetected {
        /// Word address of the corrupted word.
        addr: usize,
    },
    /// The end-to-end transfer checksum did not match: the payload was
    /// silently corrupted in flight (past ECC) and the integrity layer
    /// caught it. The destination contents must not be trusted; a retry
    /// re-transfers from the intact source.
    ChecksumMismatch {
        /// Transfer direction the mismatch was detected on.
        site: FaultSite,
        /// Word address of the transfer's device-side buffer.
        addr: usize,
    },
    /// The device stopped responding entirely and every subsequent
    /// operation on it will fail (cudaErrorDevicesUnavailable).
    DeviceLost,
}

impl GpuError {
    /// True when retrying the *same* operation on the *same* device is
    /// expected to succeed: one-off faults, watchdog kills of a hung
    /// launch, and detected transfer corruption (whether ECC caught it in
    /// flight or the end-to-end checksum caught it after landing).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GpuError::TransientFault { .. }
                | GpuError::LaunchTimeout { .. }
                | GpuError::CorruptionDetected { .. }
                | GpuError::ChecksumMismatch { .. }
        )
    }

    /// True when a host-side recovery strategy other than "abort" exists:
    /// every transient fault (retry), [`GpuError::OutOfMemory`]
    /// (re-chunk the working set) and [`GpuError::DeviceLost`] (fall back
    /// to another device or the CPU path). Host programming mistakes
    /// (`BadAccess`, `OutsideBinding`, `InvalidLaunch`, `SizeMismatch`) are
    /// not recoverable: retrying a wrong program cannot make it right.
    pub fn is_recoverable(&self) -> bool {
        self.is_transient() || matches!(self, GpuError::OutOfMemory { .. } | GpuError::DeviceLost)
    }
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested_words,
                available_words,
            } => write!(
                f,
                "device out of memory: requested {requested_words} words, {available_words} available"
            ),
            GpuError::BadAccess { addr, mem_words } => {
                write!(f, "device access out of bounds: word {addr} >= {mem_words}")
            }
            GpuError::OutsideBinding { addr, binding } => write!(
                f,
                "texture fetch outside its binding: word {addr} not in [{}, {})",
                binding.start, binding.end
            ),
            GpuError::InvalidLaunch { reason } => write!(f, "invalid launch: {reason}"),
            GpuError::SizeMismatch { expected, got } => {
                write!(f, "size mismatch: expected {expected} words, got {got}")
            }
            GpuError::TransientFault { site } => {
                write!(f, "transient fault during {site}")
            }
            GpuError::LaunchTimeout {
                budget_cycles,
                observed_cycles,
            } => write!(
                f,
                "launch watchdog timeout: {observed_cycles} cycles exceeds budget {budget_cycles}"
            ),
            GpuError::CorruptionDetected { addr } => {
                write!(f, "uncorrectable memory corruption detected at word {addr}")
            }
            GpuError::ChecksumMismatch { site, addr } => {
                write!(
                    f,
                    "end-to-end checksum mismatch on {site} transfer at word {addr}"
                )
            }
            GpuError::DeviceLost => write!(f, "device lost"),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_numbers() {
        let e = GpuError::BadAccess {
            addr: 42,
            mem_words: 10,
        };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn transient_classification() {
        assert!(GpuError::TransientFault {
            site: FaultSite::Launch
        }
        .is_transient());
        assert!(GpuError::LaunchTimeout {
            budget_cycles: 10,
            observed_cycles: 20
        }
        .is_transient());
        assert!(GpuError::CorruptionDetected { addr: 3 }.is_transient());
        assert!(GpuError::ChecksumMismatch {
            site: FaultSite::DeviceToHost,
            addr: 3
        }
        .is_transient());

        assert!(!GpuError::DeviceLost.is_transient());
        assert!(!GpuError::OutOfMemory {
            requested_words: 8,
            available_words: 4
        }
        .is_transient());
        assert!(!GpuError::BadAccess {
            addr: 0,
            mem_words: 0
        }
        .is_transient());
    }

    #[test]
    fn recoverable_classification() {
        // Everything transient is recoverable.
        assert!(GpuError::TransientFault {
            site: FaultSite::DeviceToHost
        }
        .is_recoverable());
        assert!(GpuError::LaunchTimeout {
            budget_cycles: 1,
            observed_cycles: 2
        }
        .is_recoverable());
        assert!(GpuError::CorruptionDetected { addr: 0 }.is_recoverable());
        assert!(GpuError::ChecksumMismatch {
            site: FaultSite::HostToDevice,
            addr: 0
        }
        .is_recoverable());

        // OOM recovers by re-chunking; device loss by fallback.
        assert!(GpuError::OutOfMemory {
            requested_words: 8,
            available_words: 4
        }
        .is_recoverable());
        assert!(GpuError::DeviceLost.is_recoverable());

        // Host programming mistakes are not.
        assert!(!GpuError::BadAccess {
            addr: 1,
            mem_words: 1
        }
        .is_recoverable());
        assert!(!GpuError::OutsideBinding {
            addr: 1,
            binding: 2..3
        }
        .is_recoverable());
        assert!(!GpuError::InvalidLaunch {
            reason: "zero blocks".into()
        }
        .is_recoverable());
        assert!(!GpuError::SizeMismatch {
            expected: 1,
            got: 2
        }
        .is_recoverable());
    }

    #[test]
    fn every_transient_error_is_recoverable() {
        let samples = [
            GpuError::OutOfMemory {
                requested_words: 1,
                available_words: 0,
            },
            GpuError::BadAccess {
                addr: 0,
                mem_words: 0,
            },
            GpuError::OutsideBinding {
                addr: 0,
                binding: 1..2,
            },
            GpuError::InvalidLaunch { reason: "r".into() },
            GpuError::SizeMismatch {
                expected: 0,
                got: 1,
            },
            GpuError::TransientFault {
                site: FaultSite::Alloc,
            },
            GpuError::LaunchTimeout {
                budget_cycles: 0,
                observed_cycles: 1,
            },
            GpuError::CorruptionDetected { addr: 9 },
            GpuError::ChecksumMismatch {
                site: FaultSite::DeviceToHost,
                addr: 9,
            },
            GpuError::DeviceLost,
        ];
        for e in samples {
            assert!(
                !e.is_transient() || e.is_recoverable(),
                "{e} transient but not recoverable"
            );
        }
    }
}
