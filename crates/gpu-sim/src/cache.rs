//! Set-associative LRU cache model.
//!
//! Instantiated three ways by the device:
//! * Fermi **L1**, one per SM (16 or 48 KB depending on the configuration;
//!   the C2050 preset uses 48 KB for data as CUDASW++ kernels prefer);
//! * Fermi **L2**, one per device (768 KB);
//! * GT200 **texture cache**, one per SM (8 KB working set per TPC in
//!   hardware; modelled per SM).
//!
//! Figure 6 of the paper disables L1 and L2 entirely; [`Cache::disabled`]
//! models that by reporting every access as a miss without updating state.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes (128 on both architectures).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Fermi L1 in its 48 KB configuration.
    pub fn fermi_l1_48k() -> Self {
        Self {
            capacity_bytes: 48 * 1024,
            line_bytes: 128,
            ways: 6,
        }
    }

    /// Fermi L1 in its 16 KB configuration.
    pub fn fermi_l1_16k() -> Self {
        Self {
            capacity_bytes: 16 * 1024,
            line_bytes: 128,
            ways: 4,
        }
    }

    /// Fermi device-wide L2 (768 KB on the C2050).
    pub fn fermi_l2() -> Self {
        Self {
            capacity_bytes: 768 * 1024,
            line_bytes: 128,
            ways: 16,
        }
    }

    /// GT200 per-SM texture cache (8 KB working set, 32-byte segments —
    /// texture fetches are finer-grained than global-memory lines).
    pub fn gt200_tex() -> Self {
        Self {
            capacity_bytes: 8 * 1024,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// GT200 device-level texture L2 (256 KB per TPC group, modelled as
    /// one device-wide cache).
    pub fn gt200_tex_l2() -> Self {
        Self {
            capacity_bytes: 256 * 1024,
            line_bytes: 32,
            ways: 8,
        }
    }

    /// Fermi per-SM texture cache (12 KB). Separate from L1/L2 — it keeps
    /// working when the data caches are disabled, which matters for the
    /// paper's Figure 6 experiment.
    pub fn fermi_tex() -> Self {
        Self {
            capacity_bytes: 12 * 1024,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit a resident line.
    pub hits: u64,
    /// Accesses that missed and (if enabled) filled a line.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Accumulate another instance's counters (e.g. summing per-SM L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A set-associative LRU cache over line indices.
///
/// Addresses are *line indices* (byte address / line size) — the caller
/// (the coalescer) has already grouped word addresses into lines.
#[derive(Debug, Clone)]
pub struct Cache {
    enabled: bool,
    sets: usize,
    /// `⌈2¹²⁸ / sets⌉` (wrapped to 0 for one set), see [`Cache::set_of`].
    sets_reciprocal: u128,
    ways: usize,
    /// `slots[set * ways + way]` is the way's `(tag, stamp)` — the resident
    /// line and the clock at its last touch — side by side, so that a probe
    /// reads one stretch of host memory. An invalid way is [`INVALID`].
    slots: Vec<(usize, u64)>,
    clock: u64,
    stats: CacheStats,
}

/// No line, and older than any touch (the clock starts at 1).
const INVALID: (usize, u64) = (usize::MAX, 0);

impl Cache {
    /// Build an enabled cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_geometry(true, config.sets(), config.ways)
    }

    /// A cache that always misses (Figure 6's "caches turned off").
    pub fn disabled() -> Self {
        Self::with_geometry(false, 1, 1)
    }

    fn with_geometry(enabled: bool, sets: usize, ways: usize) -> Self {
        Self {
            enabled,
            sets,
            sets_reciprocal: (u128::MAX / sets as u128).wrapping_add(1),
            ways,
            slots: vec![INVALID; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// `line % sets` in four multiplies, no hardware divide (Lemire, Kaser
    /// & Kurz 2019, "Faster remainder by direct computation"): the low 128
    /// bits of `⌈2¹²⁸ / sets⌉ · line` are the fraction `line / sets` leaves,
    /// and `sets` times that is the remainder, exact for all 64-bit inputs.
    #[inline]
    fn set_of(&self, line: usize) -> usize {
        let fraction = self.sets_reciprocal.wrapping_mul(line as u128);
        let sets = self.sets as u128;
        (((fraction >> 64) * sets + ((fraction as u64 as u128 * sets) >> 64)) >> 64) as usize
    }

    /// Access one line; returns `true` on hit. Misses allocate (LRU evict).
    pub fn access(&mut self, line: usize) -> bool {
        if !self.enabled {
            self.stats.misses += 1;
            return false;
        }
        self.clock += 1;
        let base = self.set_of(line) * self.ways;
        let set = &mut self.slots[base..base + self.ways];
        // A line is resident in at most one way, so the search compares
        // every way and has no branch on which of them matched.
        let mut hit = usize::MAX;
        for (way, slot) in set.iter().enumerate() {
            if slot.0 == line {
                hit = way;
            }
        }
        if let Some(slot) = set.get_mut(hit) {
            slot.1 = self.clock;
            self.stats.hits += 1;
            return true;
        }
        // Miss: the first way with the oldest stamp, which is the first
        // invalid way while there is one and the LRU way after.
        let mut victim = 0;
        for (way, slot) in set.iter().enumerate() {
            if slot.1 < set[victim].1 {
                victim = way;
            }
        }
        set[victim] = (line, self.clock);
        self.stats.misses += 1;
        false
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all resident lines but keep counters.
    pub fn invalidate(&mut self) {
        self.slots.fill(INVALID);
    }

    /// Reset counters but keep contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::fermi_l1_48k());
        assert!(!c.access(7));
        assert!(c.access(7));
        assert!(c.access(7));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = Cache::disabled();
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2-way cache with 1 set: lines 0 and 1 fit, line 2 evicts LRU (0).
        let cfg = CacheConfig {
            capacity_bytes: 256,
            line_bytes: 128,
            ways: 2,
        };
        assert_eq!(cfg.sets(), 1);
        let mut c = Cache::new(cfg);
        c.access(0);
        c.access(1);
        assert!(c.access(0), "line 0 resident");
        c.access(2); // evicts line 1 (LRU)
        assert!(c.access(0), "line 0 survived");
        assert!(!c.access(1), "line 1 evicted");
    }

    #[test]
    fn invalidate_clears_contents_keeps_stats() {
        let mut c = Cache::new(CacheConfig::gt200_tex());
        c.access(3);
        c.access(3);
        let before = c.stats();
        c.invalidate();
        assert!(!c.access(3));
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses + 1);
    }

    #[test]
    fn capacity_working_set_fits() {
        // A working set smaller than capacity must eventually 100% hit.
        let cfg = CacheConfig::fermi_l1_48k(); // 384 lines
        let mut c = Cache::new(cfg);
        let lines: Vec<usize> = (0..100).collect();
        for &l in &lines {
            c.access(l);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &l in &lines {
                assert!(c.access(l), "line {l} should be resident");
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { hits: 1, misses: 2 };
        a.merge(&CacheStats {
            hits: 10,
            misses: 20,
        });
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22
            }
        );
    }
}
