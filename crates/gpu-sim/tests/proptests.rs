//! Property-based tests for the device simulator's invariants.

use gpu_sim::memory::{MemoryStats, MemorySystem, LINE_WORDS, TEX_SEGMENT_WORDS};
use gpu_sim::{
    Cache, CacheConfig, CacheStats, DeviceSpec, GpuDevice, GpuError, TexRef, WarpAccess, WARP_SIZE,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{BTreeMap, BTreeSet};

fn warp_access(max_addr: usize) -> impl Strategy<Value = WarpAccess> {
    proptest::collection::vec((0usize..WARP_SIZE, 0usize..max_addr), 0..=WARP_SIZE)
        .prop_map(WarpAccess::from_lanes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transactions_bounded_by_active_lanes(a in warp_access(1 << 16)) {
        let lines = a.distinct_lines(LINE_WORDS);
        prop_assert!(lines.count() <= a.active_lanes() as usize);
        if a.active_lanes() > 0 {
            prop_assert!(lines.count() >= 1);
        } else {
            prop_assert_eq!(lines.count(), 0);
        }
    }

    #[test]
    fn lines_cover_all_active_addresses(a in warp_access(1 << 12)) {
        let lines: Vec<usize> = a.distinct_lines(LINE_WORDS).iter().collect();
        for (_, addr) in a.iter_active() {
            prop_assert!(lines.contains(&(addr / LINE_WORDS)));
        }
        // And no duplicates.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), lines.len());
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(lines in proptest::collection::vec(0usize..512, 1..200)) {
        let mut c = Cache::new(CacheConfig::fermi_l1_16k());
        for &l in &lines {
            c.access(l);
        }
        prop_assert_eq!(c.stats().accesses(), lines.len() as u64);
    }

    #[test]
    fn cache_is_lru_consistent(lines in proptest::collection::vec(0usize..8, 1..100)) {
        // A direct-mapped-sized working set (8 lines into a cache with
        // >= 8 ways * sets) must stop missing after the first pass.
        let mut c = Cache::new(CacheConfig::fermi_l2());
        for &l in &lines {
            c.access(l);
        }
        c.reset_stats();
        for &l in &lines {
            c.access(l);
        }
        prop_assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn memory_roundtrip_arbitrary_pattern(
        vals in proptest::collection::vec(any::<u32>(), WARP_SIZE),
        offsets in proptest::collection::vec(0usize..256, WARP_SIZE),
    ) {
        // Distinct per-lane addresses: base + lane-unique offset.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let buf = dev.alloc(1024).unwrap();
        // Make offsets unique by adding the lane index * 256.
        let addrs: Vec<usize> = offsets
            .iter()
            .enumerate()
            .map(|(l, &o)| buf.addr() + (o + l * 256) % 1024)
            .collect();
        // Deduplicate collisions by lane priority: later lanes win on store,
        // so only assert lanes whose address is not reused by a later lane.
        let access = WarpAccess::from_lanes(addrs.iter().copied().enumerate());
        let mut varr = [0u32; WARP_SIZE];
        varr.copy_from_slice(&vals);

        struct K {
            access: WarpAccess,
            vals: [u32; WARP_SIZE],
        }
        impl gpu_sim::BlockKernel for K {
            fn config(&self) -> gpu_sim::LaunchConfig {
                gpu_sim::LaunchConfig {
                    threads_per_block: 32,
                    regs_per_thread: 4,
                    shared_words: 0,
                }
            }
            fn run_block(&self, ctx: &mut gpu_sim::BlockCtx<'_>) -> Result<(), gpu_sim::GpuError> {
                ctx.global_store(&self.access, &self.vals)?;
                Ok(())
            }
        }
        dev.launch(&K { access, vals: varr }, 1, "store").unwrap();
        let (data, _) = dev.copy_from_device(buf, 1024).unwrap();
        for lane in 0..WARP_SIZE {
            let addr = addrs[lane];
            if addrs[lane + 1..].contains(&addr) {
                continue; // a later lane overwrote this address
            }
            prop_assert_eq!(data[addr - buf.addr()], varr[lane]);
        }
    }

    #[test]
    fn block_cycles_monotone_in_work(
        instr in 0u64..100_000,
        extra in 1u64..10_000,
    ) {
        let tm = gpu_sim::TimingModel::default();
        let spec = DeviceSpec::tesla_c1060();
        let base = gpu_sim::timing::BlockCost {
            warp_instructions: instr,
            ..Default::default()
        };
        let more = gpu_sim::timing::BlockCost {
            warp_instructions: instr + extra,
            ..Default::default()
        };
        prop_assert!(tm.block_cycles(&spec, &more) >= tm.block_cycles(&spec, &base));
    }

    #[test]
    fn makespan_at_least_mean_and_max(blocks in proptest::collection::vec(1.0f64..10_000.0, 1..200)) {
        let tm = gpu_sim::TimingModel::default();
        let spec = DeviceSpec::tesla_c1060();
        let t = tm.launch_cycles(&spec, &blocks, 0) - tm.launch_overhead_cycles;
        let total: f64 = blocks.iter().sum();
        let max = blocks.iter().cloned().fold(0.0, f64::max);
        prop_assert!(t + 1e-9 >= total / spec.sm_count as f64);
        prop_assert!(t + 1e-9 >= max);
    }
}

// ---------------------------------------------------------------------
// Shape-mixing differential tests: the simulator analyses a warp access
// by its shape (run or gather); the lane-by-lane analysis it replaced is
// kept here as the oracle. Every case is rebuilt from one `u64`, printed
// by each assertion, because the proptest shim does not shrink, and is
// built every way the crate offers — a run constructor where the pattern
// has one, `from_lanes`, and `gather` over an address array whose
// inactive lanes hold garbage.
// ---------------------------------------------------------------------

/// Words of device memory the cases address (some shapes overrun it).
const MEM_WORDS: usize = 1 << 16;

/// The oracle: one address per lane under a mask, analysed lane by lane.
#[derive(Clone)]
struct RefAccess {
    mask: u32,
    addr: [usize; WARP_SIZE],
}

impl RefAccess {
    fn active(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..WARP_SIZE)
            .filter(|&l| self.mask & (1 << l) != 0)
            .map(|l| (l, self.addr[l]))
    }

    /// Distinct lines in first-appearance order, by linear scan.
    fn lines(&self, line_words: usize) -> Vec<usize> {
        let mut lines = Vec::new();
        for (_, addr) in self.active() {
            if !lines.contains(&(addr / line_words)) {
                lines.push(addr / line_words);
            }
        }
        lines
    }

    /// Most distinct addresses on one bank (1 when empty): the module
    /// doc's definition, computed the slow way.
    fn conflict_degree(&self, banks: usize) -> u32 {
        let mut per_bank: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (_, addr) in self.active() {
            per_bank.entry(addr % banks).or_default().insert(addr);
        }
        per_bank.values().map(|a| a.len() as u32).max().unwrap_or(1)
    }
}

/// One access of a seeded shape, built every way, and its oracle.
fn shaped_access(seed: u64) -> (Vec<WarpAccess>, RefAccess) {
    let mut rng = TestRng::deterministic(&format!("shape {seed}"));
    let lanes = 1 + rng.below(WARP_SIZE);
    let first = rng.below(WARP_SIZE - lanes + 1);
    let base = rng.below(MEM_WORDS - 2048);
    // `(lane, addr)` in the order the lanes are set; a later pair wins.
    let mut sets: Vec<(usize, usize)> = Vec::new();
    let mut direct = None; // the same access through a run constructor
    match rng.below(12) {
        0 => {
            let aligned = base / LINE_WORDS * LINE_WORDS;
            sets.extend((0..WARP_SIZE).map(|l| (l, aligned + l)));
            direct = Some(WarpAccess::contiguous(aligned));
        }
        1 => {
            sets.extend((first..first + lanes).map(|l| (l, base + l - first)));
            direct = Some(WarpAccess::run(first, lanes, base));
        }
        2 => {
            // A run with holes.
            let mask = (rng.next_u64() as u32) | (1 << rng.below(WARP_SIZE));
            sets.extend(
                (0..WARP_SIZE)
                    .filter(|l| mask & (1 << l) != 0)
                    .map(|l| (l, base + l)),
            );
            direct = Some(WarpAccess::run_masked(mask, base));
        }
        3 => {
            // A run whose lanes are set in a scrambled order.
            sets.extend((first..first + lanes).map(|l| (l, base + l)));
            for i in (1..sets.len()).rev() {
                sets.swap(i, rng.below(i + 1));
            }
        }
        4 => {
            let stride = [0, 2, 4, 32][rng.below(4)];
            sets.extend((first..first + lanes).map(|l| (l, base + l * stride)));
        }
        5 => sets.extend((first..first + lanes).map(|l| (l, base + WARP_SIZE - l))),
        6 => sets.extend((first..first + lanes).map(|l| (l, base + l / 4))),
        7 => {
            // Lanes set twice: to the same address, or off the run.
            sets.extend((first..first + lanes).map(|l| (l, base + l)));
            for _ in 0..1 + rng.below(3) {
                let l = first + rng.below(lanes);
                sets.push((l, base + l + [0, 0, 1, 700][rng.below(4)]));
            }
        }
        8 => sets.push((first, base)),
        9 => {}
        10 => {
            // A random gather inside a few lines.
            sets.extend((0..lanes).map(|_| (rng.below(WARP_SIZE), base + rng.below(512))));
        }
        _ => {
            // A random gather over (and sometimes past) the whole memory.
            sets.extend((0..lanes).map(|_| (rng.below(WARP_SIZE), rng.below(MEM_WORDS + 64))));
        }
    }
    let mut oracle = RefAccess {
        mask: 0,
        addr: [0; WARP_SIZE],
    };
    for &(lane, addr) in &sets {
        oracle.mask |= 1 << lane;
        oracle.addr[lane] = addr;
    }
    // What the inactive lanes of the array hold: anything.
    let mut addrs = oracle.addr;
    for (lane, addr) in addrs.iter_mut().enumerate() {
        if oracle.mask & (1 << lane) == 0 {
            *addr = [usize::MAX, 0, base + lane, rng.next_u64() as usize][rng.below(4)];
        }
    }
    let mut built = vec![
        WarpAccess::from_lanes(sets),
        WarpAccess::gather(oracle.mask, addrs),
    ];
    built.extend(direct);
    (built, oracle)
}

/// One of the equivalent accesses of a seeded shape, and its oracle.
fn one_shaped_access(rng: &mut TestRng) -> (WarpAccess, RefAccess) {
    let (mut built, oracle) = shaped_access(rng.next_u64());
    (built.swap_remove(rng.below(built.len())), oracle)
}

type RefSet = Vec<Option<(usize, u64)>>;

/// The reference cache, sharing no code with `gpu_sim::Cache`: plain
/// `line % sets`, a `(tag, stamp)` list per set, and on a miss the first
/// invalid way, else the lowest stamp.
struct RefCache {
    /// Per set, per way: the resident `(tag, stamp)`. `None`: a disabled
    /// cache.
    sets: Option<Vec<RefSet>>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = (cfg.capacity_bytes / cfg.line_bytes / cfg.ways).max(1);
        Self {
            sets: Some(vec![vec![None; cfg.ways]; sets]),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn disabled() -> Self {
        Self {
            sets: None,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, line: usize) -> bool {
        let Some(sets) = &mut self.sets else {
            self.stats.misses += 1;
            return false;
        };
        self.clock += 1;
        let n = sets.len();
        let set = &mut sets[line % n];
        if let Some(way) = set.iter_mut().flatten().find(|way| way.0 == line) {
            way.1 = self.clock;
            self.stats.hits += 1;
            return true;
        }
        let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
            let stamp = |w: &usize| set[*w].unwrap().1;
            (0..set.len()).min_by_key(stamp).unwrap()
        });
        set[victim] = Some((line, self.clock));
        self.stats.misses += 1;
        false
    }

    fn invalidate(&mut self) {
        for set in self.sets.iter_mut().flatten() {
            set.fill(None);
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Every preset geometry (64, 32, 384, 64, 1024 and 96 sets), plus shapes
/// the presets do not have: few sets, an odd count, one way, one set.
fn cache_geometries() -> Vec<CacheConfig> {
    let shaped = |capacity_bytes, line_bytes, ways| CacheConfig {
        capacity_bytes,
        line_bytes,
        ways,
    };
    vec![
        CacheConfig::fermi_l1_48k(),
        CacheConfig::fermi_l1_16k(),
        CacheConfig::fermi_l2(),
        CacheConfig::gt200_tex(),
        CacheConfig::gt200_tex_l2(),
        CacheConfig::fermi_tex(),
        shaped(4 * 1024, 128, 6),  // 5 sets
        shaped(7 * 3 * 32, 32, 3), // 7 sets
        shaped(13 * 128, 128, 1),  // 13 sets, direct-mapped
        shaped(256, 128, 2),       // one set
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_the_naive_lru(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("cache {seed}"));
        let geometries = cache_geometries();
        let pick = rng.below(geometries.len() + 1);
        let (mut cache, mut oracle, sets) = match geometries.get(pick) {
            Some(&cfg) => (Cache::new(cfg), RefCache::new(cfg), cfg.sets()),
            None => (Cache::disabled(), RefCache::disabled(), 1),
        };
        // Where the stream lives: low lines, or far above `u32::MAX`.
        let origin = [0, 5_000, (1 << 32) - 40, 0xDEAD_BEEF_0000, usize::MAX / 8 - (1 << 20)]
            [rng.below(5)];
        for step in 0..3_000 {
            let line = origin + match rng.below(4) {
                // A working set that fits, lines that fight over a few
                // sets, a sweep, and anywhere.
                0 => rng.below(48),
                1 => rng.below(3) + sets * rng.below(40),
                2 => step,
                _ => rng.below(1 << 20),
            };
            prop_assert_eq!(
                cache.access(line),
                oracle.access(line),
                "seed {seed:#x}, step {step}: line {line:#x} over {sets} sets"
            );
            if rng.below(600) == 0 {
                cache.invalidate();
                oracle.invalidate();
            }
        }
        prop_assert_eq!(cache.stats(), oracle.stats(), "seed {seed:#x}");
    }
}

/// The memory system as it was: lane-by-lane analysis, every per-cache
/// aggregate re-summed after each access, over the naive caches above.
struct RefSystem {
    data: Vec<u32>,
    l1: Vec<RefCache>,
    l2: Option<RefCache>,
    tex: Vec<RefCache>,
    tex_l2: Option<RefCache>,
    stats: MemoryStats,
}

impl RefSystem {
    fn new(spec: &DeviceSpec) -> Self {
        let per_sm = |cfg: Option<CacheConfig>| -> Vec<RefCache> {
            cfg.map(|c| (0..spec.sm_count).map(|_| RefCache::new(c)).collect())
                .unwrap_or_default()
        };
        Self {
            data: vec![0; MEM_WORDS],
            l1: per_sm(spec.l1),
            l2: spec.l2.map(RefCache::new),
            tex: per_sm(spec.tex_cache),
            tex_l2: spec.tex_l2.map(RefCache::new),
            stats: MemoryStats::default(),
        }
    }

    fn check(&self, a: &RefAccess) -> Result<(), GpuError> {
        match a.active().map(|(_, addr)| addr).max() {
            Some(addr) if addr >= self.data.len() => Err(GpuError::BadAccess {
                addr,
                mem_words: self.data.len(),
            }),
            _ => Ok(()),
        }
    }

    fn sync(&mut self) {
        let sum = |caches: &[RefCache]| {
            let mut total = CacheStats::default();
            caches.iter().for_each(|c| total.merge(&c.stats()));
            total
        };
        let one =
            |cache: &Option<RefCache>| cache.as_ref().map(RefCache::stats).unwrap_or_default();
        self.stats.l1 = sum(&self.l1);
        self.stats.tex_cache = sum(&self.tex);
        self.stats.l2 = one(&self.l2);
        self.stats.tex_l2_stats = one(&self.tex_l2);
    }

    fn read(&self, a: &RefAccess) -> [u32; WARP_SIZE] {
        let mut out = [0; WARP_SIZE];
        a.active()
            .for_each(|(lane, addr)| out[lane] = self.data[addr]);
        out
    }

    fn load(&mut self, sm: usize, a: &RefAccess) -> Result<[u32; WARP_SIZE], GpuError> {
        self.check(a)?;
        let lines = a.lines(LINE_WORDS);
        self.stats.load_instructions += 1;
        self.stats.load_transactions += lines.len() as u64;
        for line in lines {
            let l1_hit = self.l1.get_mut(sm).is_some_and(|c| c.access(line));
            if !l1_hit && !self.l2.as_mut().is_some_and(|c| c.access(line)) {
                self.stats.dram_read_bytes += 128;
            }
        }
        self.sync();
        Ok(self.read(a))
    }

    fn store(&mut self, a: &RefAccess, values: &[u32; WARP_SIZE]) -> Result<(), GpuError> {
        self.check(a)?;
        let lines = a.lines(LINE_WORDS);
        self.stats.store_instructions += 1;
        self.stats.store_transactions += lines.len() as u64;
        for line in lines {
            if let Some(l2) = &mut self.l2 {
                l2.access(line);
            }
            self.stats.dram_write_bytes += 128;
        }
        self.sync();
        a.active()
            .for_each(|(lane, addr)| self.data[addr] = values[lane]);
        Ok(())
    }

    fn tex_load(&mut self, sm: usize, a: &RefAccess) -> Result<[u32; WARP_SIZE], GpuError> {
        self.check(a)?;
        let lines = a.lines(TEX_SEGMENT_WORDS);
        self.stats.tex_instructions += 1;
        self.stats.tex_transactions += lines.len() as u64;
        for line in lines {
            if self.tex.get_mut(sm).is_some_and(|c| c.access(line)) {
                continue;
            }
            let second_hit = if let Some(t2) = &mut self.tex_l2 {
                t2.access(line)
            } else if let Some(l2) = &mut self.l2 {
                l2.access(line * TEX_SEGMENT_WORDS / LINE_WORDS)
            } else {
                false
            };
            if !second_hit {
                self.stats.tex_dram_bytes += 32;
            }
        }
        self.sync();
        Ok(self.read(a))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn shaped_analysis_matches_the_lane_walk(seed in any::<u64>()) {
        let (built, oracle) = shaped_access(seed);
        for access in &built {
            prop_assert!(access.iter_active().eq(oracle.active()), "seed {seed:#x}: lanes");
            prop_assert_eq!(access.active_lanes(), oracle.mask.count_ones(), "seed {seed:#x}");
            for line_words in [LINE_WORDS, TEX_SEGMENT_WORDS] {
                let lines: Vec<usize> = access.distinct_lines(line_words).iter().collect();
                prop_assert_eq!(
                    lines,
                    oracle.lines(line_words),
                    "seed {seed:#x}: {line_words}-word lines, order included"
                );
            }
            for banks in [16, 32] {
                prop_assert_eq!(
                    access.bank_conflict_degree(banks),
                    oracle.conflict_degree(banks),
                    "seed {seed:#x}: degree over {banks} banks"
                );
            }
            prop_assert_eq!(
                access.max_addr(),
                oracle.active().map(|(_, a)| a).max(),
                "seed {seed:#x}: bounds"
            );
            // Texture-binding verdict, reported address included, for a
            // binding that cuts the access at either end or holds all of it.
            let mut rng = TestRng::deterministic(&format!("binding {seed}"));
            let tex = TexRef::new(
                gpu_sim::DevicePtr(rng.below(MEM_WORDS)),
                [16, 600, MEM_WORDS][rng.below(3)],
            );
            prop_assert_eq!(
                access.first_outside(tex.span()),
                oracle.active().map(|(_, a)| a).find(|&a| !tex.contains(a)),
                "seed {seed:#x}: binding {tex:?}"
            );
            // Data movement, where the access is inside the memory: every
            // active lane's word, zeros elsewhere, the higher lane winning a
            // store two lanes share.
            if oracle.active().all(|(_, a)| a < MEM_WORDS) {
                let mut mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u64() as u32).collect();
                let mut expect = [0u32; WARP_SIZE];
                oracle.active().for_each(|(lane, a)| expect[lane] = mem[a]);
                prop_assert_eq!(access.load_from(&mem), expect, "seed {seed:#x}: load");
                let values: [u32; WARP_SIZE] = std::array::from_fn(|_| rng.next_u64() as u32);
                let mut stored = mem.clone();
                oracle.active().for_each(|(lane, a)| stored[a] = values[lane]);
                access.store_to(&mut mem, &values);
                prop_assert!(mem == stored, "seed {seed:#x}: store");
            }
        }
    }
}

/// One texture fetch of `access` through `tex`, as a kernel.
struct Fetch {
    tex: TexRef,
    access: WarpAccess,
}

impl gpu_sim::BlockKernel for Fetch {
    fn config(&self) -> gpu_sim::LaunchConfig {
        gpu_sim::LaunchConfig {
            threads_per_block: 32,
            regs_per_thread: 4,
            shared_words: 0,
        }
    }

    fn run_block(&self, ctx: &mut gpu_sim::BlockCtx<'_>) -> Result<(), GpuError> {
        ctx.tex_load(self.tex, &self.access).map(|_| ())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn texture_fetch_verdict_matches_the_lane_walk(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("fetch {seed}"));
        let (access, oracle) = one_shaped_access(&mut rng);
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        prop_assert_eq!(dev.alloc(MEM_WORDS).unwrap().addr(), 0);
        let (base, words) = (rng.below(MEM_WORDS), [16, 600, MEM_WORDS][rng.below(3)]);
        let tex = TexRef::new(gpu_sim::DevicePtr(base), words);
        // The first lane outside the binding is the error, naming the
        // binding's span; inside it, an address past the memory is.
        let binding = base..base + words;
        let outside = oracle.active().map(|(_, a)| a).find(|a| !binding.contains(a));
        let expect = match (outside, oracle.active().map(|(_, a)| a).max()) {
            (Some(addr), _) => Err(GpuError::OutsideBinding { addr, binding }),
            (None, Some(addr)) if addr >= MEM_WORDS => Err(GpuError::BadAccess {
                addr,
                mem_words: MEM_WORDS,
            }),
            _ => Ok(()),
        };
        let got = dev.launch(&Fetch { tex, access }, 1, "fetch").map(|_| ());
        prop_assert_eq!(got, expect, "seed {seed:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memory_system_matches_the_eager_reference(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("system {seed}"));
        // Three SMs; caches shrunk so that lines are evicted and every
        // later hit depends on the order the earlier lines arrived in.
        let mut spec = [
            DeviceSpec::tesla_c1060(),
            DeviceSpec::tesla_c2050(),
            DeviceSpec::tesla_c2050_caches_off(),
        ][rng.below(3)]
        .clone();
        spec.sm_count = 3;
        let caches = [&mut spec.l1, &mut spec.l2, &mut spec.tex_cache, &mut spec.tex_l2];
        for cfg in caches.into_iter().flatten() {
            cfg.capacity_bytes = cfg.capacity_bytes.min(4 * 1024);
        }
        let mut mem = MemorySystem::new(&spec);
        mem.alloc(MEM_WORDS).unwrap();
        let mut oracle = RefSystem::new(&spec);
        let mut snapshot = (mem.stats(), oracle.stats);
        for step in 0..48 {
            let (access, lanes) = one_shaped_access(&mut rng);
            let sm = rng.below(3);
            let at = format!("seed {seed:#x}, step {step}");
            match rng.below(3) {
                0 => {
                    let got = mem.warp_load(sm, &access).map(|(words, _)| words);
                    prop_assert_eq!(got, oracle.load(sm, &lanes), "{at}: load");
                }
                1 => {
                    let values: [u32; WARP_SIZE] = std::array::from_fn(|_| rng.next_u64() as u32);
                    let got = mem.warp_store(sm, &access, &values).map(|_| ());
                    prop_assert_eq!(got, oracle.store(&lanes, &values), "{at}: store");
                }
                _ => {
                    let got = mem.warp_tex_load(sm, &access).map(|(words, _)| words);
                    prop_assert_eq!(got, oracle.tex_load(sm, &lanes), "{at}: texture fetch");
                }
            }
            prop_assert_eq!(mem.stats(), oracle.stats, "{at}: stats");
            prop_assert_eq!(
                mem.stats().since(&snapshot.0),
                oracle.stats.since(&snapshot.1),
                "{at}: stats since the last snapshot"
            );
            if rng.below(8) == 0 {
                snapshot = (mem.stats(), oracle.stats);
            }
        }
        prop_assert_eq!(
            mem.host_read(gpu_sim::DevicePtr(0), MEM_WORDS).unwrap(),
            &oracle.data[..],
            "seed {seed:#x}: stored words"
        );
    }
}
