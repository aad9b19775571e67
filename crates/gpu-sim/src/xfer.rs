//! Host↔device transfer model (PCIe) and the end-to-end transfer
//! integrity checksum.
//!
//! Two things matter to the paper's future-work section: the plain copy
//! cost of staging the whole database before any alignment starts, and the
//! *streamed* alternative that copies a chunk, starts computing on it, and
//! hides the rest of the copy behind kernel execution — counted copy by
//! copy in a [`crate::GpuDevice::begin_h2d_stream`] session, not estimated
//! here.
//!
//! The integrity layer ([`crc32`], [`crc32_words`]) models what a
//! production scan does on hardware whose bus can corrupt data past ECC:
//! checksum the payload on the sending side, verify on the receiving side,
//! and fail the transfer loudly ([`crate::GpuError::ChecksumMismatch`])
//! instead of letting a flipped bit flow into final scores. The device
//! arms it with [`crate::GpuDevice::set_integrity_checks`]; the same CRC
//! also protects the checkpoint log in `cudasw-core`.

use crate::device::DeviceSpec;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// stream. Bitwise, table-free: transfers here are simulated, so clarity
/// beats throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = crc32_byte(crc, b);
    }
    !crc
}

/// CRC-32 of a word payload (little-endian byte order) — the transfer
/// integrity checksum.
pub fn crc32_words(words: &[u32]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for w in words {
        for b in w.to_le_bytes() {
            crc = crc32_byte(crc, b);
        }
    }
    !crc
}

#[inline]
fn crc32_byte(mut crc: u32, byte: u8) -> u32 {
    crc ^= u32::from(byte);
    for _ in 0..8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
    }
    crc
}

/// PCIe-link timing.
#[derive(Debug, Clone, Copy)]
pub struct TransferModel {
    /// Sustained bandwidth in bytes/second.
    pub bytes_per_second: f64,
    /// Fixed per-transfer latency in seconds (driver + DMA setup).
    pub latency_seconds: f64,
}

impl TransferModel {
    /// Model for the given device (both Teslas sit on PCIe 2.0 x16).
    pub fn new(spec: &DeviceSpec) -> Self {
        Self {
            bytes_per_second: spec.pcie_bandwidth_gbps * 1.0e9,
            latency_seconds: 10.0e-6,
        }
    }

    /// Seconds for one synchronous transfer of `bytes`.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency_seconds + bytes as f64 / self.bytes_per_second
    }
}

/// Accumulated transfer traffic for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Host→device bytes.
    pub h2d_bytes: u64,
    /// Device→host bytes.
    pub d2h_bytes: u64,
    /// Simulated seconds spent in host→device copies.
    pub h2d_seconds: f64,
    /// Simulated seconds spent in device→host copies.
    pub d2h_seconds: f64,
    /// Host→device copies that failed from an injected fault (byte and
    /// second counters above only cover successful copies).
    pub h2d_faults: u64,
    /// Device→host copies that failed from an injected fault.
    pub d2h_faults: u64,
    /// Transfers whose payload was checksum-verified by the integrity
    /// layer ([`crate::GpuDevice::set_integrity_checks`]).
    pub integrity_checked: u64,
    /// Integrity checksum mismatches detected (a payload was silently
    /// corrupted in flight and caught).
    pub integrity_mismatches: u64,
    /// Host→device copies issued inside a stream session
    /// ([`crate::GpuDevice::begin_h2d_stream`], §VII streamed copy).
    pub h2d_streamed: u64,
    /// Simulated seconds of H2D copy time hidden behind kernel execution
    /// by streaming. Bytes moved are unchanged; only the critical path
    /// shrinks, and this field keeps the hidden portion auditable
    /// (`h2d_seconds` counts only the exposed part of streamed copies).
    pub h2d_hidden_seconds: f64,
}

impl TransferStats {
    pub(crate) fn record_h2d(&mut self, bytes: usize, seconds: f64) {
        self.h2d_bytes += bytes as u64;
        self.h2d_seconds += seconds;
    }

    pub(crate) fn record_d2h(&mut self, bytes: usize, seconds: f64) {
        self.d2h_bytes += bytes as u64;
        self.d2h_seconds += seconds;
    }

    pub(crate) fn record_h2d_streamed(&mut self, hidden_seconds: f64) {
        self.h2d_streamed += 1;
        self.h2d_hidden_seconds += hidden_seconds;
    }

    pub(crate) fn record_h2d_fault(&mut self) {
        self.h2d_faults += 1;
    }

    pub(crate) fn record_d2h_fault(&mut self) {
        self.d2h_faults += 1;
    }

    pub(crate) fn record_integrity_check(&mut self) {
        self.integrity_checked += 1;
    }

    pub(crate) fn record_integrity_mismatch(&mut self) {
        self.integrity_mismatches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn model() -> TransferModel {
        TransferModel::new(&DeviceSpec::tesla_c1060())
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = model();
        let small = m.transfer_seconds(1 << 10);
        let big = m.transfer_seconds(1 << 30);
        assert!(big > small * 100.0);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let m = model();
        assert!((m.transfer_seconds(0) - m.latency_seconds).abs() < 1e-15);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values ("123456789" → 0xCBF43926).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_words_is_byte_crc_of_le_bytes() {
        let words = [0x0403_0201u32, 0x0807_0605];
        assert_eq!(
            crc32_words(&words),
            crc32(&[1, 2, 3, 4, 5, 6, 7, 8]),
            "word CRC must equal the CRC of the little-endian byte stream"
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let words: Vec<u32> = (0..257).collect();
        let clean = crc32_words(&words);
        for (i, bit) in [(0usize, 0u32), (100, 13), (256, 31)] {
            let mut corrupt = words.clone();
            corrupt[i] ^= 1 << bit;
            assert_ne!(crc32_words(&corrupt), clean, "flip at word {i} bit {bit}");
        }
    }
}
