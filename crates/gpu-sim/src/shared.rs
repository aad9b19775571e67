//! Per-block shared memory with bank-conflict accounting.
//!
//! The improved intra-task kernel keeps vertical and diagonal dependencies
//! in shared memory; its access pattern (lane `l` touching word `l·stride`)
//! determines bank conflicts. GT200 serves shared memory per half-warp
//! over 16 banks, Fermi per warp over 32 banks; a warp access costs as many
//! shared cycles as the maximum number of distinct addresses mapping to
//! one bank (broadcast of the *same* address is free).

use crate::warp::{WarpAccess, WARP_SIZE};

/// Shared-memory statistics for a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Warp-level shared load/store instructions.
    pub instructions: u64,
    /// Total serialized bank cycles (1 per conflict-free access).
    pub bank_cycles: u64,
    /// Accesses that had at least one conflict.
    pub conflicted_accesses: u64,
}

/// One block's shared memory.
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<u32>,
    banks: usize,
    stats: SharedStats,
}

impl SharedMem {
    /// Allocate `words` words of shared memory served by `banks` banks.
    pub fn new(words: usize, banks: u32) -> Self {
        Self {
            data: vec![0; words],
            banks: banks as usize,
            stats: SharedStats::default(),
        }
    }

    /// Size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    fn account(&mut self, access: &WarpAccess) -> u32 {
        let degree = access.bank_conflict_degree(self.banks);
        self.stats.instructions += 1;
        self.stats.bank_cycles += degree as u64;
        if degree > 1 {
            self.stats.conflicted_accesses += 1;
        }
        degree
    }

    /// Warp-collective load. Returns `(values, serialization cycles)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds shared addresses — that is a kernel bug, the
    /// moral equivalent of a CUDA shared-memory overrun, and tests rely on
    /// it being loud.
    pub fn warp_load(&mut self, access: &WarpAccess) -> ([u32; WARP_SIZE], u32) {
        (access.load_from(&self.data), self.account(access))
    }

    /// Warp-collective store. Returns serialization cycles.
    pub fn warp_store(&mut self, access: &WarpAccess, values: &[u32; WARP_SIZE]) -> u32 {
        access.store_to(&mut self.data, values);
        self.account(access)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SharedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SharedMem {
        SharedMem::new(1024, 32)
    }

    #[test]
    fn contiguous_access_is_conflict_free() {
        let mut m = mem();
        let a = WarpAccess::contiguous(0);
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 1);
        assert_eq!(m.stats().conflicted_accesses, 0);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 32)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 32);
        assert_eq!(m.stats().conflicted_accesses, 1);
    }

    #[test]
    fn stride_2_is_two_way_conflict() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 2)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 2);
    }

    #[test]
    fn broadcast_same_address_is_free() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, 5)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 1, "broadcast should not serialize");
    }

    #[test]
    fn gt200_16_banks() {
        let mut m = SharedMem::new(1024, 16);
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 16)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 32);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut m = mem();
        let a = WarpAccess::contiguous(64);
        let mut vals = [0u32; 32];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = 1000 + i as u32;
        }
        m.warp_store(&a, &vals);
        let (back, _) = m.warp_load(&a);
        assert_eq!(back, vals);
        assert_eq!(m.stats().instructions, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mut m = SharedMem::new(8, 32);
        let a = WarpAccess::contiguous(0); // lanes reach word 31 > 7
        let _ = m.warp_load(&a);
    }
}
