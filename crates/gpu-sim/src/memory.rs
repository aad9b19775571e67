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
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

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
///
/// Inside a launch, a line that reaches the device-wide level while an
/// earlier block still runs has no outcome yet: it is counted in neither
/// `l2_hits` nor `dram_bytes` here, but in the block's totals once it is
/// applied.
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

/// The caches one SM owns: its L1 and its texture cache. A launch worker
/// owns whole SMs, so only the blocks of this SM, in index order, ever
/// touch them. Aligned so that two SMs' counters, written on every access,
/// never share a host cache line.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct SmCaches {
    l1: Option<Cache>,
    tex: Option<Cache>,
}

impl SmCaches {
    /// The texture cache's [`Cache::clock`] (0 without one).
    pub(crate) fn tex_clock(&self) -> u64 {
        self.tex.as_ref().map_or(0, Cache::clock)
    }
}

/// An access that reaches the device-wide level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// A global load that missed L1 (or found none): one 128-byte line.
    Load = 0,
    /// A global store: one 128-byte line, allocated in L2.
    Store = 1,
    /// A texture fetch that missed the texture cache: one 32-byte segment.
    Tex = 2,
}

/// The device-wide caches: the data L2 and GT200's texture L2. Their
/// state depends on the order every block's accesses arrive in, so a
/// launch applies those accesses in block order.
#[derive(Debug)]
pub(crate) struct DeviceCaches {
    l2: Option<Cache>,
    tex_l2: Option<Cache>,
}

impl DeviceCaches {
    /// Per [`Reach`], whether such an access touches a device-wide cache
    /// at all (when not, it is a DRAM access, known at once).
    pub(crate) fn reaches(&self) -> [bool; 3] {
        let l2 = self.l2.is_some();
        [l2, l2, l2 || self.tex_l2.is_some()]
    }

    /// Apply one access; `true` on a hit.
    pub(crate) fn apply(&mut self, reach: Reach, line: usize) -> bool {
        match (reach, &mut self.tex_l2, &mut self.l2) {
            (Reach::Tex, Some(t2), _) => t2.access(line),
            // Fermi: the 32-byte tex segment maps into its 128-byte
            // data-L2 line.
            (Reach::Tex, None, Some(l2)) => l2.access(line * TEX_SEGMENT_WORDS / LINE_WORDS),
            (Reach::Load | Reach::Store, _, Some(l2)) => l2.access(line),
            _ => false,
        }
    }
}

/// Where a block's device-wide accesses go.
pub(crate) trait Level2 {
    /// Apply `line`'s access now and return whether it hit, or keep it for
    /// later (`None`): its outcome is then counted in [`Settled`].
    fn reach(&mut self, reach: Reach, line: usize) -> Option<bool>;
}

impl Level2 for DeviceCaches {
    fn reach(&mut self, reach: Reach, line: usize) -> Option<bool> {
        Some(self.apply(reach, line))
    }
}

/// Device-wide outcomes counted after the access that caused them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Settled {
    /// Loads and fetches that hit a device-wide cache.
    pub l2_hits: u64,
    /// Load bytes DRAM served.
    pub dram_read_bytes: u64,
    /// Texture bytes DRAM served.
    pub tex_dram_bytes: u64,
}

impl Settled {
    /// Count one applied access. A store's outcome costs nothing: it was
    /// charged its DRAM write when issued.
    pub(crate) fn add(&mut self, reach: Reach, hit: bool) {
        match (reach, hit) {
            (Reach::Store, _) => {}
            (_, true) => self.l2_hits += 1,
            (Reach::Load, false) => self.dram_read_bytes += LINE_WORDS as u64 * 4,
            (Reach::Tex, false) => self.tex_dram_bytes += TEX_SEGMENT_WORDS as u64 * 4,
        }
    }
}

/// The words one block read and wrote, for CUDA's rule that no block of a
/// launch touches a word another block of it wrote. A texture fetch reads
/// its whole 32-byte segment: the texture cache holds segments, and is not
/// kept coherent with the launch's own stores.
#[derive(Debug)]
pub(crate) struct Touched {
    /// Per 64-word chunk of device memory: the read and the written bits.
    bits: Vec<[u64; 2]>,
    /// The chunks that have a bit set, each once.
    chunks: Vec<usize>,
}

impl Touched {
    /// Nothing touched, over `words` words of device memory.
    pub(crate) fn new(words: usize) -> Self {
        Self {
            bits: vec![[0; 2]; words.div_ceil(64)],
            chunks: Vec::new(),
        }
    }

    /// Mark the words `lo ..= hi`, at most 64 of them, which must be
    /// inside memory.
    #[inline]
    fn mark_span(&mut self, lo: usize, hi: usize, side: usize) {
        let bits = (u128::MAX >> (127 - (hi - lo))) << (lo % 64);
        self.set(lo / 64, side, bits as u64);
        if bits >> 64 != 0 {
            self.set(lo / 64 + 1, side, (bits >> 64) as u64);
        }
    }

    /// Set `bits`, which are not all zero, in `chunk`'s `side`.
    #[inline]
    fn set(&mut self, chunk: usize, side: usize, bits: u64) {
        let marks = &mut self.bits[chunk];
        if *marks == [0, 0] {
            self.chunks.push(chunk);
        }
        marks[side] |= bits;
    }

    /// Mark the words a global access touches, which must be inside
    /// memory.
    fn mark(&mut self, access: &WarpAccess, write: bool) {
        let side = usize::from(write);
        if let Some((_, _, lo, hi)) = access.as_solid_run() {
            self.mark_span(lo, hi, side);
        } else {
            for (_, addr) in access.iter_active() {
                self.set(addr / 64, side, 1 << (addr % 64));
            }
        }
    }

    /// Fold this block's words into `earlier`, the words of the blocks
    /// before it, and forget them. Returns the lowest word this block
    /// shares with an earlier one against the rule: one that either side
    /// wrote.
    pub(crate) fn retire_into(&mut self, earlier: &mut Touched) -> Option<usize> {
        let mut clash: Option<usize> = None;
        for chunk in self.chunks.drain(..) {
            let [read, written] = std::mem::take(&mut self.bits[chunk]);
            let [was_read, was_written] = &mut earlier.bits[chunk];
            let shared = (*was_written & (read | written)) | (*was_read & written);
            if shared != 0 {
                let word = chunk * 64 + shared.trailing_zeros() as usize;
                clash = Some(clash.map_or(word, |c| c.min(word)));
            }
            *was_read |= read;
            *was_written |= written;
        }
        clash
    }
}

/// Global memory plus the device's cache hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    /// Device memory, the allocated words. Atomic (and accessed relaxed)
    /// because a launch's blocks run on several host threads; CUDA's rule
    /// that no block touches a word another block of the launch wrote is
    /// what makes the values deterministic.
    store: Vec<AtomicU32>,
    cursor: usize,
    capacity_words: usize,
    sms: Vec<SmCaches>,
    device: DeviceCaches,
    /// Instruction, transaction and DRAM-byte counters only; the four cache
    /// aggregates stay zero here and are summed in [`MemorySystem::stats`].
    stats: MemoryStats,
    epoch: u64,
}

/// What a launch splits a [`MemorySystem`] into: the words every worker
/// shares, the per-SM caches each worker owns some of, and the device-wide
/// caches the blocks take turns at.
pub(crate) struct LaunchParts<'m> {
    pub data: &'m [AtomicU32],
    pub sms: &'m mut [SmCaches],
    pub device: &'m mut DeviceCaches,
}

impl MemorySystem {
    /// Build the memory system a device spec describes.
    ///
    /// The backing store grows lazily; `capacity_words` only bounds the
    /// allocator (so a 4 GB device does not reserve 4 GB of host RAM).
    pub fn new(spec: &DeviceSpec) -> Self {
        let sms = (0..spec.sm_count)
            .map(|_| SmCaches {
                l1: spec.l1.map(Cache::new),
                tex: spec.tex_cache.map(Cache::new),
            })
            .collect();
        Self {
            store: Vec::new(),
            cursor: 0,
            capacity_words: (spec.global_mem_bytes / 4) as usize,
            sms,
            device: DeviceCaches {
                l2: spec.l2.map(Cache::new),
                tex_l2: spec.tex_l2.map(Cache::new),
            },
            stats: MemoryStats::default(),
            epoch: 0,
        }
    }

    /// Allocate `words` words, 128-byte aligned like `cudaMalloc`.
    pub fn alloc(&mut self, words: usize) -> Result<DevicePtr, GpuError> {
        let aligned = self.cursor.next_multiple_of(LINE_WORDS);
        let end = aligned
            .checked_add(words)
            .filter(|&end| end <= self.capacity_words);
        let Some(end) = end else {
            return Err(GpuError::OutOfMemory {
                requested_words: words,
                available_words: self.capacity_words.saturating_sub(aligned),
            });
        };
        if self.store.len() < end {
            self.store.resize_with(end, AtomicU32::default);
        }
        self.cursor = end;
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
        self.store.truncate(mark);
        let sm_caches = self.sms.iter_mut().flat_map(|sm| [&mut sm.l1, &mut sm.tex]);
        let device = [&mut self.device.l2, &mut self.device.tex_l2];
        for cache in sm_caches.chain(device).flatten() {
            cache.invalidate();
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

    /// The words `[ptr, ptr + len)`, or the error naming the last of them
    /// (or the first, when the end does not exist) if they are not all in
    /// memory.
    fn host_span(&self, ptr: DevicePtr, len: usize) -> Result<&[AtomicU32], GpuError> {
        let bad = || GpuError::BadAccess {
            addr: ptr
                .0
                .checked_add(len)
                .map_or(ptr.0, |end| end.saturating_sub(1)),
            mem_words: self.cursor,
        };
        let end = ptr.0.checked_add(len).ok_or_else(bad)?;
        self.store.get(ptr.0..end).ok_or_else(bad)
    }

    /// Direct host-side write (used by transfer modelling; not a kernel
    /// access, so it is not counted as global traffic).
    pub fn host_write(&mut self, ptr: DevicePtr, words: &[u32]) -> Result<(), GpuError> {
        for (word, &value) in self.host_span(ptr, words.len())?.iter().zip(words) {
            word.store(value, Relaxed);
        }
        Ok(())
    }

    /// Direct host-side read.
    pub fn host_read(&self, ptr: DevicePtr, len: usize) -> Result<Vec<u32>, GpuError> {
        Ok(self
            .host_span(ptr, len)?
            .iter()
            .map(|word| word.load(Relaxed))
            .collect())
    }

    /// Split for a launch (see [`LaunchParts`]).
    pub(crate) fn launch_parts(&mut self) -> LaunchParts<'_> {
        LaunchParts {
            data: &self.store,
            sms: &mut self.sms,
            device: &mut self.device,
        }
    }

    /// Add a block's instruction, transaction and DRAM-byte counters.
    pub(crate) fn absorb(&mut self, block: &MemoryStats) {
        let s = &mut self.stats;
        s.load_instructions += block.load_instructions;
        s.store_instructions += block.store_instructions;
        s.load_transactions += block.load_transactions;
        s.store_transactions += block.store_transactions;
        s.dram_read_bytes += block.dram_read_bytes;
        s.dram_write_bytes += block.dram_write_bytes;
        s.tex_instructions += block.tex_instructions;
        s.tex_transactions += block.tex_transactions;
        s.tex_dram_bytes += block.tex_dram_bytes;
    }

    /// One access issued outside any launch, as a block on SM `sm` whose
    /// device-wide accesses apply at once.
    fn direct<R>(&mut self, sm: usize, access: impl FnOnce(&mut BlockMem<'_>) -> R) -> R {
        let mut none = SmCaches {
            l1: None,
            tex: None,
        };
        let mut block = BlockMem {
            data: &self.store,
            caches: self.sms.get_mut(sm).unwrap_or(&mut none),
            reaches: self.device.reaches(),
            level: &mut self.device,
            touched: None,
            tex_since: 0,
            stats: MemoryStats::default(),
        };
        let out = access(&mut block);
        let stats = block.stats;
        self.absorb(&stats);
        out
    }

    /// Warp-collective global load on SM `sm`.
    pub fn warp_load(
        &mut self,
        sm: usize,
        access: &WarpAccess,
    ) -> Result<([u32; WARP_SIZE], AccessCost), GpuError> {
        let mut out = [0; WARP_SIZE];
        let cost = self.direct(sm, |block| block.load(access, &mut out))?;
        Ok((out, cost))
    }

    /// Warp-collective global store on SM `sm`.
    pub fn warp_store(
        &mut self,
        sm: usize,
        access: &WarpAccess,
        values: &[u32; WARP_SIZE],
    ) -> Result<AccessCost, GpuError> {
        self.direct(sm, |block| block.store(access, values))
    }

    /// Warp-collective texture fetch on SM `sm`.
    pub fn warp_tex_load(
        &mut self,
        sm: usize,
        access: &WarpAccess,
    ) -> Result<([u32; WARP_SIZE], AccessCost), GpuError> {
        let mut out = [0; WARP_SIZE];
        let cost = self.direct(sm, |block| block.tex_load(access, &mut out))?;
        Ok((out, cost))
    }

    /// Cumulative counters. The per-cache aggregates are summed here, from
    /// the caches' own counters, rather than kept current per access.
    pub fn stats(&self) -> MemoryStats {
        let sum = |caches: &mut dyn Iterator<Item = &Option<Cache>>| {
            let mut total = CacheStats::default();
            for c in caches.flatten() {
                total.merge(&c.stats());
            }
            total
        };
        let one = |cache: &Option<Cache>| cache.as_ref().map(Cache::stats).unwrap_or_default();
        MemoryStats {
            l1: sum(&mut self.sms.iter().map(|sm| &sm.l1)),
            l2: one(&self.device.l2),
            tex_cache: sum(&mut self.sms.iter().map(|sm| &sm.tex)),
            tex_l2_stats: one(&self.device.tex_l2),
            ..self.stats
        }
    }
}

/// One block's view of the memory system: the shared words, its SM's
/// caches, and wherever its device-wide accesses go.
pub(crate) struct BlockMem<'a> {
    pub data: &'a [AtomicU32],
    pub caches: &'a mut SmCaches,
    pub level: &'a mut dyn Level2,
    /// [`DeviceCaches::reaches`] of the device.
    pub reaches: [bool; 3],
    /// The words this block touched, inside a launch (host-issued
    /// accesses have no other block to clash with).
    pub touched: Option<&'a mut Touched>,
    /// [`SmCaches::tex_clock`] as the block began. A texture-cache hit on
    /// a segment stamped after it is one this block fetched, and marked,
    /// before.
    pub tex_since: u64,
    /// This block's instruction, transaction and DRAM-byte counters (the
    /// DRAM bytes of device-wide accesses applied later are in
    /// [`Settled`]).
    pub stats: MemoryStats,
}

impl BlockMem<'_> {
    #[inline]
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

    /// Check a global access and mark the words it touches.
    #[inline]
    fn check_global(&mut self, access: &WarpAccess, write: bool) -> Result<(), GpuError> {
        self.check(access)?;
        if let Some(touched) = self.touched.as_deref_mut() {
            touched.mark(access, write);
        }
        Ok(())
    }

    /// The outcome of one device-wide access, if known now: a miss at
    /// once when the device has no cache at that level.
    #[inline]
    fn reach(&mut self, reach: Reach, line: usize, device: bool) -> Option<bool> {
        if device {
            self.level.reach(reach, line)
        } else {
            Some(false)
        }
    }

    /// Every active lane's word into `out` (inactive lanes keep theirs).
    fn read(&self, access: &WarpAccess, out: &mut [u32; WARP_SIZE]) {
        if let Some((first, last, lo, hi)) = access.as_solid_run() {
            // A whole warp is a fixed-length copy the compiler unrolls.
            let words = &self.data[lo..=hi];
            if let Ok(words) = <&[AtomicU32; WARP_SIZE]>::try_from(words) {
                for (value, word) in out.iter_mut().zip(words) {
                    *value = word.load(Relaxed);
                }
            } else {
                for (value, word) in out[first..=last].iter_mut().zip(words) {
                    *value = word.load(Relaxed);
                }
            }
        } else {
            for (lane, addr) in access.iter_active() {
                out[lane] = self.data[addr].load(Relaxed);
            }
        }
    }

    /// Warp-collective global load into `out`: through this SM's L1 (if
    /// any), then the device-wide L2 (if any), then DRAM.
    pub(crate) fn load(
        &mut self,
        access: &WarpAccess,
        out: &mut [u32; WARP_SIZE],
    ) -> Result<AccessCost, GpuError> {
        self.check_global(access, false)?;
        let lines = access.distinct_lines(LINE_WORDS);
        let mut cost = AccessCost {
            transactions: lines.count() as u32,
            ..Default::default()
        };
        let device = self.reaches[Reach::Load as usize];
        for line in lines.iter() {
            if self.caches.l1.as_mut().is_some_and(|l1| l1.access(line)) {
                cost.near_hits += 1;
                continue;
            }
            match self.reach(Reach::Load, line, device) {
                Some(true) => cost.l2_hits += 1,
                Some(false) => cost.dram_bytes += LINE_WORDS as u32 * 4,
                None => {}
            }
        }
        self.stats.load_instructions += 1;
        self.stats.load_transactions += cost.transactions as u64;
        self.stats.dram_read_bytes += cost.dram_bytes as u64;
        self.read(access, out);
        Ok(cost)
    }

    /// Warp-collective global store.
    ///
    /// Stores are modelled write-through to DRAM with allocation in L2
    /// (Fermi L1 is write-evict for global stores, so L1 is bypassed).
    pub(crate) fn store(
        &mut self,
        access: &WarpAccess,
        values: &[u32; WARP_SIZE],
    ) -> Result<AccessCost, GpuError> {
        self.check_global(access, true)?;
        let lines = access.distinct_lines(LINE_WORDS);
        let cost = AccessCost {
            transactions: lines.count() as u32,
            dram_bytes: lines.count() as u32 * LINE_WORDS as u32 * 4,
            ..Default::default()
        };
        if self.reaches[Reach::Store as usize] {
            for line in lines.iter() {
                self.level.reach(Reach::Store, line);
            }
        }
        self.stats.store_instructions += 1;
        self.stats.store_transactions += cost.transactions as u64;
        self.stats.dram_write_bytes += cost.dram_bytes as u64;
        if let Some((first, last, lo, hi)) = access.as_solid_run() {
            if let Ok(words) = <&[AtomicU32; WARP_SIZE]>::try_from(&self.data[lo..=hi]) {
                for (word, &value) in words.iter().zip(values) {
                    word.store(value, Relaxed);
                }
            } else {
                for (word, &value) in self.data[lo..=hi].iter().zip(&values[first..=last]) {
                    word.store(value, Relaxed);
                }
            }
        } else {
            for (lane, addr) in access.iter_active() {
                self.data[addr].store(values[lane], Relaxed);
            }
        }
        Ok(cost)
    }

    /// Warp-collective texture fetch into `out`.
    ///
    /// Texture fetches move 32-byte segments through the per-SM texture
    /// cache, then a second level: GT200's dedicated texture L2, or the
    /// data L2 on Fermi (which is why Figure 6's cache disable affects
    /// Fermi texture misses but not the texture cache itself). Texture
    /// traffic is never counted as a Table-I global transaction.
    pub(crate) fn tex_load(
        &mut self,
        access: &WarpAccess,
        out: &mut [u32; WARP_SIZE],
    ) -> Result<AccessCost, GpuError> {
        self.check(access)?;
        let lines = access.distinct_lines(TEX_SEGMENT_WORDS);
        let mut cost = AccessCost {
            transactions: lines.count() as u32,
            ..Default::default()
        };
        let device = self.reaches[Reach::Tex as usize];
        for line in lines.iter() {
            let near = self
                .caches
                .tex
                .as_mut()
                .and_then(|t| t.access_stamped(line));
            if let Some(touched) = self.touched.as_deref_mut() {
                // See `tex_since`: such a hit was marked when first fetched.
                if near.is_none_or(|stamp| stamp <= self.tex_since) {
                    let first = line * TEX_SEGMENT_WORDS;
                    touched.mark_span(first, first + TEX_SEGMENT_WORDS - 1, 0);
                }
            }
            if near.is_some() {
                cost.near_hits += 1;
                continue;
            }
            match self.reach(Reach::Tex, line, device) {
                Some(true) => cost.l2_hits += 1,
                Some(false) => cost.dram_bytes += TEX_SEGMENT_WORDS as u32 * 4,
                None => {}
            }
        }
        self.stats.tex_instructions += 1;
        self.stats.tex_transactions += cost.transactions as u64;
        self.stats.tex_dram_bytes += cost.dram_bytes as u64;
        self.read(access, out);
        Ok(cost)
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
    fn freed_words_come_back_zero() {
        let mut m = c1060_mem();
        let a = m.alloc(40).unwrap();
        m.host_write(a, &[7; 40]).unwrap();
        m.free_to(a.addr() + 5);
        // The next allocation starts on the next line; the words between
        // are allocated again too, and every one of them reads zero.
        let b = m.alloc(8).unwrap();
        assert_eq!(b.addr(), a.addr() + 32);
        assert_eq!(m.host_read(a, 5).unwrap(), [7; 5]);
        assert_eq!(m.host_read(a.offset(5), 35).unwrap(), [0; 35]);
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
