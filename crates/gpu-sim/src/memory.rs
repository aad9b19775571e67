//! Simulated global memory and the cache-routed memory system.
//!
//! Device memory is word-addressable (one word = 4 bytes = one `u32`),
//! which matches what the kernels actually move: `i32` DP cells and packed
//! query-profile words. A [`MemorySystem`] owns the backing store, the
//! allocator, and the cache hierarchy; every warp-collective access is
//! coalesced into 128-byte lines, routed through the caches the device
//! has, and tallied in [`MemoryStats`].
//!
//! Transaction counting matches the paper's Table I semantics: a "global
//! memory access" is one 128-byte segment transaction issued by a warp
//! (pre-cache), and DRAM traffic (post-cache) is tracked separately for
//! the timing model.

use crate::cache::{Cache, CacheStats};
use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::warp::{WarpAccess, WARP_SIZE};

/// Words per 128-byte line/segment.
pub const LINE_WORDS: usize = 32;

/// Words per 32-byte texture segment.
pub const TEX_SEGMENT_WORDS: usize = 8;

/// A typed-less handle to device global memory (a word offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub usize);

impl DevicePtr {
    /// Pointer `words` words past this one.
    #[inline]
    pub fn offset(self, words: usize) -> DevicePtr {
        DevicePtr(self.0 + words)
    }

    /// Raw word address.
    #[inline]
    pub fn addr(self) -> usize {
        self.0
    }
}

/// Counters for all memory traffic of a device (cumulative; launches
/// snapshot-diff them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Warp-level global load instructions issued.
    pub load_instructions: u64,
    /// Warp-level global store instructions issued.
    pub store_instructions: u64,
    /// Global load transactions (128-byte segments, pre-cache).
    pub load_transactions: u64,
    /// Global store transactions (128-byte segments, pre-cache).
    pub store_transactions: u64,
    /// Bytes served by DRAM for loads (post-cache).
    pub dram_read_bytes: u64,
    /// Bytes written towards DRAM for stores.
    pub dram_write_bytes: u64,
    /// Warp-level texture fetch instructions.
    pub tex_instructions: u64,
    /// Texture transactions (pre-cache).
    pub tex_transactions: u64,
    /// Texture bytes served by DRAM (32-byte segments).
    pub tex_dram_bytes: u64,
    /// Texture-L2 behaviour (GT200's dedicated tex L2; on Fermi texture
    /// misses are folded into the data-L2 counters instead).
    pub tex_l2_stats: CacheStats,
    /// Aggregated L1 behaviour (all SMs).
    pub l1: CacheStats,
    /// L2 behaviour.
    pub l2: CacheStats,
    /// Aggregated texture-cache behaviour (all SMs).
    pub tex_cache: CacheStats,
}

impl MemoryStats {
    /// Total global transactions, the paper's Table I metric.
    pub fn global_transactions(&self) -> u64 {
        self.load_transactions + self.store_transactions
    }

    /// Total bytes moved to/from DRAM (for the bandwidth roofline).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes + self.tex_dram_bytes
    }

    /// Difference of two snapshots (`self` later than `earlier`).
    pub fn since(&self, earlier: &MemoryStats) -> MemoryStats {
        MemoryStats {
            load_instructions: self.load_instructions - earlier.load_instructions,
            store_instructions: self.store_instructions - earlier.store_instructions,
            load_transactions: self.load_transactions - earlier.load_transactions,
            store_transactions: self.store_transactions - earlier.store_transactions,
            dram_read_bytes: self.dram_read_bytes - earlier.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes - earlier.dram_write_bytes,
            tex_instructions: self.tex_instructions - earlier.tex_instructions,
            tex_transactions: self.tex_transactions - earlier.tex_transactions,
            tex_dram_bytes: self.tex_dram_bytes - earlier.tex_dram_bytes,
            tex_l2_stats: CacheStats {
                hits: self.tex_l2_stats.hits - earlier.tex_l2_stats.hits,
                misses: self.tex_l2_stats.misses - earlier.tex_l2_stats.misses,
            },
            l1: CacheStats {
                hits: self.l1.hits - earlier.l1.hits,
                misses: self.l1.misses - earlier.l1.misses,
            },
            l2: CacheStats {
                hits: self.l2.hits - earlier.l2.hits,
                misses: self.l2.misses - earlier.l2.misses,
            },
            tex_cache: CacheStats {
                hits: self.tex_cache.hits - earlier.tex_cache.hits,
                misses: self.tex_cache.misses - earlier.tex_cache.misses,
            },
        }
    }
}

/// Cost of one warp access, as seen by the issuing block (for timing).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessCost {
    /// Segment transactions issued.
    pub transactions: u32,
    /// Of those, lines that hit L1 (or the texture cache for tex fetches).
    pub near_hits: u32,
    /// Lines that hit L2 (data L2 or texture L2).
    pub l2_hits: u32,
    /// Bytes that went to DRAM (128 per global line, 32 per tex segment).
    pub dram_bytes: u32,
}

/// Global memory plus the device's cache hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    data: Vec<u32>,
    cursor: usize,
    capacity_words: usize,
    l1: Vec<Cache>,
    l2: Option<Cache>,
    tex: Vec<Cache>,
    tex_l2: Option<Cache>,
    /// Instruction, transaction and DRAM-byte counters only; the four cache
    /// aggregates stay zero here and are summed in [`MemorySystem::stats`].
    stats: MemoryStats,
    epoch: u64,
}

impl MemorySystem {
    /// Build the memory system a device spec describes.
    ///
    /// The backing store grows lazily; `capacity_words` only bounds the
    /// allocator (so a 4 GB device does not reserve 4 GB of host RAM).
    pub fn new(spec: &DeviceSpec) -> Self {
        let l1 = match spec.l1 {
            Some(cfg) => (0..spec.sm_count).map(|_| Cache::new(cfg)).collect(),
            None => Vec::new(),
        };
        let l2 = spec.l2.map(Cache::new);
        let tex = match spec.tex_cache {
            Some(cfg) => (0..spec.sm_count).map(|_| Cache::new(cfg)).collect(),
            None => Vec::new(),
        };
        let tex_l2 = spec.tex_l2.map(Cache::new);
        Self {
            data: Vec::new(),
            cursor: 0,
            capacity_words: (spec.global_mem_bytes / 4) as usize,
            l1,
            l2,
            tex,
            tex_l2,
            stats: MemoryStats::default(),
            epoch: 0,
        }
    }

    /// Allocate `words` words, 128-byte aligned like `cudaMalloc`.
    pub fn alloc(&mut self, words: usize) -> Result<DevicePtr, GpuError> {
        let aligned = self.cursor.next_multiple_of(LINE_WORDS);
        if aligned + words > self.capacity_words {
            return Err(GpuError::OutOfMemory {
                requested_words: words,
                available_words: self.capacity_words.saturating_sub(aligned),
            });
        }
        self.cursor = aligned + words;
        if self.data.len() < self.cursor {
            self.data.resize(self.cursor, 0);
        }
        Ok(DevicePtr(aligned))
    }

    /// Release every allocation (bump-allocator reset). Cache contents are
    /// invalidated; counters survive. Each reset advances the allocator
    /// epoch, so handles to pre-reset allocations can detect staleness
    /// even if the watermark later climbs back past them.
    pub fn free_all(&mut self) {
        self.free_to(0);
        self.epoch += 1;
    }

    /// Number of full allocator resets ([`MemorySystem::free_all`]) so
    /// far. A handle that records the epoch at allocation time is stale
    /// iff the current epoch differs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current allocator watermark; pass it to [`MemorySystem::free_to`]
    /// later to release everything allocated after this point.
    pub fn mark(&self) -> usize {
        self.cursor
    }

    /// Release every allocation made after `mark` (stack discipline).
    /// Caches are invalidated because freed lines may be re-allocated.
    pub fn free_to(&mut self, mark: usize) {
        debug_assert!(mark <= self.cursor, "free_to above the watermark");
        self.cursor = mark;
        self.data.truncate(mark);
        for c in &mut self.l1 {
            c.invalidate();
        }
        if let Some(l2) = &mut self.l2 {
            l2.invalidate();
        }
        for c in &mut self.tex {
            c.invalidate();
        }
        if let Some(t2) = &mut self.tex_l2 {
            t2.invalidate();
        }
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> usize {
        self.cursor
    }

    /// Words the allocator may hand out in total.
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// Clamp the allocator's capacity to `words` (memory-pressure
    /// injection: a shared or fragmented device exposes less than its
    /// nameplate capacity). Only ever shrinks; existing allocations are
    /// untouched even if they already exceed the new limit.
    pub fn limit_capacity(&mut self, words: usize) {
        self.capacity_words = self.capacity_words.min(words);
    }

    /// Direct host-side write (used by transfer modelling; not a kernel
    /// access, so it is not counted as global traffic).
    pub fn host_write(&mut self, ptr: DevicePtr, words: &[u32]) -> Result<(), GpuError> {
        let end = ptr.0 + words.len();
        if end > self.data.len() {
            return Err(GpuError::BadAccess {
                addr: end.saturating_sub(1),
                mem_words: self.data.len(),
            });
        }
        self.data[ptr.0..end].copy_from_slice(words);
        Ok(())
    }

    /// Direct host-side read.
    pub fn host_read(&self, ptr: DevicePtr, len: usize) -> Result<&[u32], GpuError> {
        let end = ptr.0 + len;
        if end > self.data.len() {
            return Err(GpuError::BadAccess {
                addr: end.saturating_sub(1),
                mem_words: self.data.len(),
            });
        }
        Ok(&self.data[ptr.0..end])
    }

    fn check(&self, access: &WarpAccess) -> Result<(), GpuError> {
        if let Some(max) = access.max_addr() {
            if max >= self.data.len() {
                return Err(GpuError::BadAccess {
                    addr: max,
                    mem_words: self.data.len(),
                });
            }
        }
        Ok(())
    }

    /// Route one set of lines through (L1 →) L2 → DRAM, returning the cost.
    fn route_load(&mut self, sm: usize, access: &WarpAccess) -> AccessCost {
        let lines = access.distinct_lines(LINE_WORDS);
        let mut cost = AccessCost {
            transactions: lines.count() as u32,
            ..Default::default()
        };
        for line in lines.iter() {
            let l1_hit = match self.l1.get_mut(sm) {
                Some(l1) => l1.access(line),
                None => false,
            };
            if l1_hit {
                cost.near_hits += 1;
                continue;
            }
            let l2_hit = match &mut self.l2 {
                Some(l2) => l2.access(line),
                None => false,
            };
            if l2_hit {
                cost.l2_hits += 1;
            } else {
                cost.dram_bytes += LINE_WORDS as u32 * 4;
            }
        }
        cost
    }

    /// Warp-collective global load on SM `sm`.
    pub fn warp_load(
        &mut self,
        sm: usize,
        access: &WarpAccess,
    ) -> Result<([u32; WARP_SIZE], AccessCost), GpuError> {
        self.check(access)?;
        let cost = self.route_load(sm, access);
        self.stats.load_instructions += 1;
        self.stats.load_transactions += cost.transactions as u64;
        self.stats.dram_read_bytes += cost.dram_bytes as u64;
        Ok((access.load_from(&self.data), cost))
    }

    /// Warp-collective global store on SM `sm`.
    ///
    /// Stores are modelled write-through to DRAM with allocation in L2
    /// (Fermi L1 is write-evict for global stores, so L1 is bypassed).
    pub fn warp_store(
        &mut self,
        sm: usize,
        access: &WarpAccess,
        values: &[u32; WARP_SIZE],
    ) -> Result<AccessCost, GpuError> {
        let _ = sm;
        self.check(access)?;
        let lines = access.distinct_lines(LINE_WORDS);
        let mut cost = AccessCost {
            transactions: lines.count() as u32,
            ..Default::default()
        };
        for line in lines.iter() {
            if let Some(l2) = &mut self.l2 {
                l2.access(line);
            }
            cost.dram_bytes += LINE_WORDS as u32 * 4;
        }
        self.stats.store_instructions += 1;
        self.stats.store_transactions += cost.transactions as u64;
        self.stats.dram_write_bytes += cost.dram_bytes as u64;
        access.store_to(&mut self.data, values);
        Ok(cost)
    }

    /// Warp-collective texture fetch on SM `sm`.
    ///
    /// Texture fetches move 32-byte segments through the per-SM texture
    /// cache, then a second level: GT200's dedicated texture L2, or the
    /// data L2 on Fermi (which is why Figure 6's cache disable affects
    /// Fermi texture misses but not the texture cache itself). Texture
    /// traffic is never counted as a Table-I global transaction.
    pub fn warp_tex_load(
        &mut self,
        sm: usize,
        access: &WarpAccess,
    ) -> Result<([u32; WARP_SIZE], AccessCost), GpuError> {
        self.check(access)?;
        let lines = access.distinct_lines(TEX_SEGMENT_WORDS);
        let mut cost = AccessCost {
            transactions: lines.count() as u32,
            ..Default::default()
        };
        for line in lines.iter() {
            let near_hit = match self.tex.get_mut(sm) {
                Some(t) => t.access(line),
                None => false,
            };
            if near_hit {
                cost.near_hits += 1;
                continue;
            }
            let second_hit = if let Some(t2) = &mut self.tex_l2 {
                t2.access(line)
            } else if let Some(l2) = &mut self.l2 {
                // Fermi: the 32-byte tex segment maps into its 128-byte
                // data-L2 line.
                l2.access(line * TEX_SEGMENT_WORDS / LINE_WORDS)
            } else {
                false
            };
            if second_hit {
                cost.l2_hits += 1;
            } else {
                cost.dram_bytes += TEX_SEGMENT_WORDS as u32 * 4;
            }
        }
        self.stats.tex_instructions += 1;
        self.stats.tex_transactions += cost.transactions as u64;
        self.stats.tex_dram_bytes += cost.dram_bytes as u64;
        Ok((access.load_from(&self.data), cost))
    }

    /// Cumulative counters. The per-cache aggregates are summed here, from
    /// the caches' own counters, rather than kept current per access.
    pub fn stats(&self) -> MemoryStats {
        let sum = |caches: &[Cache]| {
            let mut total = CacheStats::default();
            for c in caches {
                total.merge(&c.stats());
            }
            total
        };
        let one = |cache: &Option<Cache>| cache.as_ref().map(Cache::stats).unwrap_or_default();
        MemoryStats {
            l1: sum(&self.l1),
            l2: one(&self.l2),
            tex_cache: sum(&self.tex),
            tex_l2_stats: one(&self.tex_l2),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn c1060_mem() -> MemorySystem {
        MemorySystem::new(&DeviceSpec::tesla_c1060())
    }

    fn c2050_mem() -> MemorySystem {
        MemorySystem::new(&DeviceSpec::tesla_c2050())
    }

    #[test]
    fn alloc_is_line_aligned() {
        let mut m = c1060_mem();
        let a = m.alloc(5).unwrap();
        let b = m.alloc(5).unwrap();
        assert_eq!(a.addr() % LINE_WORDS, 0);
        assert_eq!(b.addr() % LINE_WORDS, 0);
        assert!(b.addr() >= a.addr() + 5);
    }

    #[test]
    fn host_roundtrip() {
        let mut m = c1060_mem();
        let p = m.alloc(8).unwrap();
        m.host_write(p, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(m.host_read(p, 8).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.stats().global_transactions(), 0, "host I/O is uncounted");
    }

    #[test]
    fn coalesced_load_is_one_transaction() {
        let mut m = c1060_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        let (_, cost) = m.warp_load(0, &access).unwrap();
        assert_eq!(cost.transactions, 1);
        assert_eq!(m.stats().load_transactions, 1);
        assert_eq!(m.stats().load_instructions, 1);
    }

    #[test]
    fn strided_load_is_many_transactions() {
        let mut m = c1060_mem();
        let p = m.alloc(32 * 32).unwrap();
        let access = WarpAccess::from_lanes((0..32).map(|l| (l, p.addr() + l * 32)));
        let (_, cost) = m.warp_load(0, &access).unwrap();
        assert_eq!(cost.transactions, 32);
    }

    #[test]
    fn gt200_loads_all_go_to_dram() {
        let mut m = c1060_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        let (_, c1) = m.warp_load(0, &access).unwrap();
        let (_, c2) = m.warp_load(0, &access).unwrap();
        assert_eq!(c1.dram_bytes, 128);
        assert_eq!(c2.dram_bytes, 128, "no cache on GT200 globals");
    }

    #[test]
    fn fermi_second_load_hits_l1() {
        let mut m = c2050_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        let (_, c1) = m.warp_load(0, &access).unwrap();
        let (_, c2) = m.warp_load(0, &access).unwrap();
        assert_eq!(c1.dram_bytes, 128);
        assert_eq!(c2.near_hits, 1);
        assert_eq!(c2.dram_bytes, 0);
        assert_eq!(m.stats().l1.hits, 1);
    }

    #[test]
    fn fermi_cross_sm_load_hits_l2() {
        let mut m = c2050_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        m.warp_load(0, &access).unwrap();
        let (_, c2) = m.warp_load(1, &access).unwrap();
        assert_eq!(c2.near_hits, 0, "different SM, different L1");
        assert_eq!(c2.l2_hits, 1);
    }

    #[test]
    fn store_then_load_hits_l2_on_fermi() {
        let mut m = c2050_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        m.warp_store(0, &access, &[9; 32]).unwrap();
        let (vals, cost) = m.warp_load(1, &access).unwrap();
        assert_eq!(vals, [9; 32]);
        assert_eq!(cost.l2_hits, 1);
    }

    #[test]
    fn store_values_visible() {
        let mut m = c1060_mem();
        let p = m.alloc(32).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        let mut vals = [0u32; 32];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as u32 * 3;
        }
        m.warp_store(0, &access, &vals).unwrap();
        let (back, _) = m.warp_load(0, &access).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn tex_load_uses_tex_cache_on_gt200() {
        let mut m = c1060_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        let (_, c1) = m.warp_tex_load(0, &access).unwrap();
        let (_, c2) = m.warp_tex_load(0, &access).unwrap();
        // 32 contiguous words span four 32-byte texture segments.
        assert_eq!(c1.transactions, 4);
        assert_eq!(c1.dram_bytes, 4 * 32);
        assert_eq!(c2.near_hits, 4);
        assert_eq!(m.stats().tex_transactions, 8);
        assert_eq!(m.stats().global_transactions(), 0, "tex is not global");
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut m = c1060_mem();
        let p = m.alloc(16).unwrap();
        let access = WarpAccess::contiguous(p.addr() + 1000);
        assert!(matches!(
            m.warp_load(0, &access),
            Err(GpuError::BadAccess { .. })
        ));
    }

    #[test]
    fn oom_reported() {
        let mut m = c1060_mem();
        let too_big = (DeviceSpec::tesla_c1060().global_mem_bytes / 4 + 1) as usize;
        assert!(matches!(
            m.alloc(too_big),
            Err(GpuError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn free_all_resets_allocator() {
        let mut m = c1060_mem();
        let a = m.alloc(1024).unwrap();
        m.free_all();
        let b = m.alloc(8).unwrap();
        assert_eq!(a.addr(), b.addr());
    }

    #[test]
    fn stats_since_diffs() {
        let mut m = c1060_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::contiguous(p.addr());
        m.warp_load(0, &access).unwrap();
        let snap = m.stats();
        m.warp_load(0, &access).unwrap();
        let d = m.stats().since(&snap);
        assert_eq!(d.load_instructions, 1);
        assert_eq!(d.load_transactions, 1);
    }

    #[test]
    fn partial_warp_counts_lines_only_for_active() {
        let mut m = c1060_mem();
        let p = m.alloc(64).unwrap();
        let access = WarpAccess::from_lanes([(0usize, p.addr()), (1, p.addr() + 1)]);
        let (_, cost) = m.warp_load(0, &access).unwrap();
        assert_eq!(cost.transactions, 1);
    }
}
