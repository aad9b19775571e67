//! The performance model.
//!
//! The simulator measures *what* a kernel does (warp instructions, memory
//! transactions at each level of the hierarchy, shared-memory bank cycles,
//! barriers, explicit latency chains) and this module converts those
//! counters into cycles. The model is a per-block roofline followed by a
//! greedy makespan over SMs:
//!
//! ```text
//! block_cycles  = max(compute, memory) + latency + syncs·sync_cost
//!   compute     = warp_instructions × cycles_per_warp_instr
//!   memory      = near_hits·l1_cost + l2_hits·l2_cost
//!               + dram_bytes / per-SM bandwidth share
//!               + shared_bank_cycles
//! launch_cycles = max(makespan(block_cycles over SMs), device DRAM roofline)
//!               + launch_overhead
//! ```
//!
//! All constants live in [`TimingModel`] and are documented where they are
//! defined. They were calibrated once against the anchor numbers the paper
//! reports for the Tesla C1060 (inter-task ≈ 17 GCUPs, original intra-task
//! ≈ 1.5 GCUPs, §II-C) and then left alone; experiments vary *workloads*,
//! never these constants.

use crate::device::DeviceSpec;

/// Everything a block did, as counted during execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCost {
    /// Warp instructions issued (arithmetic + one per memory instruction).
    pub warp_instructions: u64,
    /// Global/texture transactions that hit the near cache (L1 or tex).
    pub near_hits: u64,
    /// Transactions that hit L2.
    pub l2_hits: u64,
    /// Bytes served by DRAM (128 B per global line, 32 B per texture
    /// segment).
    pub dram_bytes: u64,
    /// Serialized shared-memory bank cycles.
    pub shared_cycles: u64,
    /// `__syncthreads()` executed.
    pub syncs: u64,
    /// Explicit latency chains (pipeline fill/flush, dependent-load
    /// round-trips) reported by the kernel.
    pub latency_cycles: u64,
    /// Latency cycles a kernel *would* have stalled for but hid behind
    /// other work (cross-strip pipeline fusion, §VII). Never added to
    /// [`TimingModel::block_cycles`] — kept so removed stalls stay a
    /// counted, assertable quantity rather than silently vanishing.
    pub hidden_latency_cycles: u64,
    /// DP cells updated (for GCUPs bookkeeping).
    pub cells: u64,
}

impl BlockCost {
    /// Accumulate another block's counters (for launch-level totals).
    pub fn merge(&mut self, other: &BlockCost) {
        self.warp_instructions += other.warp_instructions;
        self.near_hits += other.near_hits;
        self.l2_hits += other.l2_hits;
        self.dram_bytes += other.dram_bytes;
        self.shared_cycles += other.shared_cycles;
        self.syncs += other.syncs;
        self.latency_cycles += other.latency_cycles;
        self.hidden_latency_cycles += other.hidden_latency_cycles;
        self.cells += other.cells;
    }
}

/// Tunable cost constants. See module docs for the calibration policy.
#[derive(Debug, Clone)]
pub struct TimingModel {
    /// Cycles per transaction served by L1 / texture cache (throughput).
    pub near_hit_cycles: f64,
    /// Cycles per transaction served by L2.
    pub l2_hit_cycles: f64,
    /// Cost of one `__syncthreads()` in cycles.
    pub sync_cycles: f64,
    /// Fixed kernel-launch overhead in cycles (driver + dispatch).
    pub launch_overhead_cycles: f64,
    /// Fraction of peak DRAM bandwidth a single block can use. Streams from
    /// one block do not saturate the device; 1/sm_count of peak is the
    /// fair-share baseline and this factor scales it.
    pub per_block_bandwidth_boost: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            near_hit_cycles: 1.0,
            l2_hit_cycles: 8.0,
            sync_cycles: 30.0,
            launch_overhead_cycles: 7_000.0,
            per_block_bandwidth_boost: 1.0,
        }
    }
}

impl TimingModel {
    /// Cycles one block takes, assuming its warps hide each other's
    /// latency (roofline of compute vs memory) plus unhideable serial
    /// latency the kernel declared.
    pub fn block_cycles(&self, spec: &DeviceSpec, cost: &BlockCost) -> f64 {
        let compute = cost.warp_instructions as f64 * spec.cycles_per_warp_instr();
        // One block's fair share of DRAM bandwidth is 1/sm_count of peak
        // (other SMs' blocks stream concurrently).
        let per_block_bpc =
            spec.bytes_per_cycle() / spec.sm_count as f64 * self.per_block_bandwidth_boost;
        let memory = cost.near_hits as f64 * self.near_hit_cycles
            + cost.l2_hits as f64 * self.l2_hit_cycles
            + cost.dram_bytes as f64 / per_block_bpc
            + cost.shared_cycles as f64;
        compute.max(memory) + cost.latency_cycles as f64 + cost.syncs as f64 * self.sync_cycles
    }

    /// Greedy list-scheduling makespan of per-block cycles over the SMs,
    /// in block launch order (matching the hardware's work distributor),
    /// bounded below by the device-wide DRAM roofline.
    pub fn launch_cycles(
        &self,
        spec: &DeviceSpec,
        block_cycles: &[f64],
        total_dram_bytes: u64,
    ) -> f64 {
        let mut sm_time = vec![0f64; (spec.sm_count as usize).max(1)];
        for &c in block_cycles {
            // Next block goes to the SM that frees up first. Manual scan:
            // `total_cmp` keeps this panic-free under the unwrap/expect
            // lint wall even if a cost ever went non-finite.
            let mut idx = 0;
            for (i, t) in sm_time.iter().enumerate().skip(1) {
                if t.total_cmp(&sm_time[idx]).is_lt() {
                    idx = i;
                }
            }
            sm_time[idx] += c;
        }
        let makespan = sm_time.iter().cloned().fold(0f64, f64::max);
        let dram_roofline = total_dram_bytes as f64 / spec.bytes_per_cycle();
        makespan.max(dram_roofline) + self.launch_overhead_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn spec() -> DeviceSpec {
        DeviceSpec::tesla_c1060()
    }

    #[test]
    fn compute_bound_block() {
        let tm = TimingModel::default();
        let cost = BlockCost {
            warp_instructions: 1000,
            ..Default::default()
        };
        let c = tm.block_cycles(&spec(), &cost);
        assert!((c - 4000.0).abs() < 1e-6, "GT200 cpi=4: {c}");
    }

    #[test]
    fn memory_bound_block() {
        let tm = TimingModel::default();
        let cost = BlockCost {
            warp_instructions: 10,
            dram_bytes: 1000 * 128,
            ..Default::default()
        };
        let c = tm.block_cycles(&spec(), &cost);
        // 128 KB at (78.7/30) B/cycle ≈ 48.8 Kcycles, way above
        // the 40-cycle compute.
        assert!(c > 40_000.0, "c = {c}");
    }

    #[test]
    fn one_huge_block_dominates() {
        let tm = TimingModel::default();
        let s = spec();
        let mut blocks = vec![10.0; 100];
        blocks.push(1_000_000.0);
        let t = tm.launch_cycles(&s, &blocks, 0);
        assert!(t >= 1_000_000.0, "imbalance must dominate: {t}");
        assert!(t < 1_010_000.0 + tm.launch_overhead_cycles);
    }

    #[test]
    fn dram_roofline_applies() {
        let tm = TimingModel::default();
        let s = spec();
        // Tiny compute but a million DRAM lines.
        let t = tm.launch_cycles(&s, &[1.0], 128_000_000);
        let roofline = 128_000_000.0 / s.bytes_per_cycle();
        assert!(t >= roofline);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = BlockCost {
            warp_instructions: 1,
            near_hits: 2,
            l2_hits: 3,
            dram_bytes: 4,
            shared_cycles: 5,
            syncs: 6,
            latency_cycles: 7,
            hidden_latency_cycles: 9,
            cells: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.warp_instructions, 2);
        assert_eq!(a.cells, 16);
        assert_eq!(a.latency_cycles, 14);
        assert_eq!(a.hidden_latency_cycles, 18);
    }

    #[test]
    fn hidden_latency_never_costs_cycles() {
        let tm = TimingModel::default();
        let base = tm.block_cycles(&spec(), &BlockCost::default());
        let with = tm.block_cycles(
            &spec(),
            &BlockCost {
                hidden_latency_cycles: 1_000_000,
                ..Default::default()
            },
        );
        assert!((with - base).abs() < 1e-9, "hidden stalls must be free");
    }

    #[test]
    fn fermi_compute_is_faster_per_instruction() {
        let tm = TimingModel::default();
        let cost = BlockCost {
            warp_instructions: 1000,
            ..Default::default()
        };
        let gt200 = tm.block_cycles(&DeviceSpec::tesla_c1060(), &cost);
        let fermi = tm.block_cycles(&DeviceSpec::tesla_c2050(), &cost);
        assert!(fermi < gt200);
    }
}
