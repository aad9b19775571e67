//! A deterministic, CUDA-like SIMT device simulator.
//!
//! This crate is the hardware substitute for the NVIDIA Tesla C1060
//! (GT200) and Tesla C2050 (Fermi) GPUs used by the paper. Kernels are
//! ordinary Rust code written in *warp-collective* style against
//! [`kernel::BlockCtx`]: every global/texture/shared access is issued for a
//! whole warp at once, which lets the simulator model coalescing, caches
//! and bank conflicts exactly the way the hardware documentation describes
//! them — while the kernel *functionally* computes real results through the
//! simulated memories.
//!
//! What is modelled (because the paper's analysis depends on it):
//!
//! * **global memory** with warp coalescing into 128-byte segments and
//!   transaction/byte counters ([`memory`]);
//! * **caches**: Fermi per-SM L1 and device-wide L2 (which can be disabled,
//!   reproducing Figure 6), and the GT200 per-SM texture cache ([`cache`],
//!   [`texture`]);
//! * **shared memory** with bank-conflict accounting ([`shared`]);
//! * **occupancy** limits from registers/shared memory/threads ([`device`]);
//! * **timing**: a per-block roofline (compute vs memory vs latency chains)
//!   plus greedy makespan scheduling of blocks onto SMs, which is what
//!   makes the inter-task kernel load-imbalance-sensitive (Figure 2)
//!   ([`timing`]);
//! * **host↔device transfers** over a PCIe model, including the streamed
//!   copy of the paper's future-work section ([`xfer`]);
//! * **fault injection**: deterministic, seeded schedules of transient
//!   faults, hangs (with a watchdog budget), allocation pressure,
//!   ECC-detected corruption and whole-device loss, for exercising
//!   host-side recovery ([`fault`]).
//!
//! Everything is deterministic: simulated time is derived purely from
//! counters, never from the wall clock.

// Crash-only discipline: the simulator is infrastructure under every
// other crate's fault tests — non-test code must never panic through a
// careless unwrap. Tests are exempt (a failed unwrap *is* the assert).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod shared;
pub mod stats;
pub mod texture;
pub mod timing;
pub mod warp;
pub mod xfer;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use device::{Arch, DeviceSpec, Occupancy};
pub use error::{FaultSite, GpuError};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultStats, HANG_CYCLE_MULTIPLIER};
pub use kernel::{BlockCtx, BlockKernel, GpuDevice, LaunchConfig};
pub use memory::{DevicePtr, MemoryStats};
pub use stats::LaunchStats;
pub use texture::TexRef;
pub use timing::TimingModel;
pub use warp::{lane_bits, lanes_in, WarpAccess, WARP_SIZE};
pub use xfer::{crc32, crc32_words, TransferModel, TransferStats};
