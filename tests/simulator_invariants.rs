//! Cross-cutting invariants of the simulated device + kernels: properties
//! that must hold for *any* calibration of the timing model, so they stay
//! true if the constants are ever re-tuned.

use cudasw_core::variants::run_intra_variant;
use cudasw_core::{CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, VariantConfig};
use gpu_sim::memory::MemorySystem;
use gpu_sim::{DeviceSpec, WarpAccess};
use sw_align::SwParams;
use sw_db::synth::{database_with_lengths, make_query};

/// Improved-kernel global transactions grow (about) linearly with the
/// database side of the DP table — the boundary rows are the only global
/// traffic, and there are `2·(strips−1)` boundary words per column.
#[test]
fn improved_kernel_traffic_scales_with_columns() {
    let spec = DeviceSpec::tesla_c1060();
    let query = make_query(2048, 1); // two strips at the default shape
    let params = ImprovedParams::default();
    let short = database_with_lengths("s", &[2000], 3);
    let long = database_with_lengths("l", &[4000], 3);
    let (_, t_short) = run_intra_variant(
        &spec,
        short.sequences(),
        &query,
        &SwParams::cudasw_default(),
        params,
        VariantConfig::improved(),
        DeviceKernelConfig::default(),
    )
    .unwrap();
    let (_, t_long) = run_intra_variant(
        &spec,
        long.sequences(),
        &query,
        &SwParams::cudasw_default(),
        params,
        VariantConfig::improved(),
        DeviceKernelConfig::default(),
    )
    .unwrap();
    let ratio = t_long.global_transactions() as f64 / t_short.global_transactions() as f64;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "2x columns should be ~2x boundary traffic, got {ratio:.2}"
    );
}

/// Disabling the Fermi caches can slow a search down but never speed it up.
#[test]
fn caches_off_is_never_faster() {
    let db = database_with_lengths("c", &[100, 200, 400, 800, 1600], 5);
    let query = make_query(160, 2);
    let run = |spec: DeviceSpec| {
        let mut cfg = CudaSwConfig::original();
        cfg.threshold = 300;
        let mut driver = CudaSwDriver::new(spec, cfg);
        driver.search(&query, &db).unwrap()
    };
    let on = run(DeviceSpec::tesla_c2050());
    let off = run(DeviceSpec::tesla_c2050_caches_off());
    assert_eq!(on.scores, off.scores);
    assert!(
        off.kernel_seconds() >= on.kernel_seconds() * 0.999,
        "caches off ({:.6}s) must not beat caches on ({:.6}s)",
        off.kernel_seconds(),
        on.kernel_seconds()
    );
}

/// Lowering the threshold moves sequences (and cells) monotonically from
/// the inter-task to the intra-task side.
#[test]
fn threshold_monotonically_shifts_work() {
    let lengths: Vec<usize> = (1..=40).map(|i| i * 25).collect();
    let db = database_with_lengths("t", &lengths, 7);
    let query = make_query(64, 3);
    let mut prev_intra_cells = 0u64;
    for threshold in [1000usize, 700, 400, 150] {
        let mut cfg = CudaSwConfig::improved();
        cfg.threshold = threshold;
        cfg.improved = ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let r = driver.search(&query, &db).unwrap();
        assert!(
            r.intra.cells >= prev_intra_cells,
            "intra cells must grow as the threshold drops"
        );
        assert_eq!(r.intra.cells + r.inter.cells, db.total_cells(64));
        prev_intra_cells = r.intra.cells;
    }
}

/// The simulator is fully deterministic: identical inputs give identical
/// counters, not just identical scores.
#[test]
fn memory_counters_are_deterministic() {
    let db = database_with_lengths("d", &[64, 128, 256], 9);
    let query = make_query(80, 4);
    let run = || {
        let mut cfg = CudaSwConfig::improved();
        cfg.threshold = 200;
        cfg.improved = ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg);
        let r = driver.search(&query, &db).unwrap();
        (
            r.scores.clone(),
            r.inter.global_transactions,
            r.intra.global_transactions,
            driver.dev.memory_stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3, "cache/memory counters must be bit-identical");
}

/// Cell accounting is exact: every kernel path reports exactly m×n cells.
#[test]
fn cell_accounting_is_exact_for_all_kernels() {
    let db = database_with_lengths("cells", &[33, 77, 131, 650], 11);
    let query = make_query(97, 5); // awkward sizes exercise all tails
    for cfg in [CudaSwConfig::original(), CudaSwConfig::improved()] {
        let mut cfg = cfg;
        cfg.threshold = 100;
        cfg.improved = ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let r = driver.search(&query, &db).unwrap();
        assert_eq!(r.total_cells(), db.total_cells(97));
    }
}

/// **A known divergence, pinned so that fixing it is a deliberate re-pin**
/// (EXPERIMENTS.md "Known divergences" 5, ROADMAP scoreboard (ii)).
/// Fermi's L1 is write-evict: a global store drops the line from the
/// issuing SM's L1, and the next load of it is an L2 hit. The model's
/// `warp_store` goes around L1 and leaves a line an earlier load brought in
/// resident there, so the reload counts as a near hit — which is what the
/// original intra-task kernel's wavefront reloads are made of.
#[test]
fn known_divergence_a_store_leaves_its_line_in_the_issuing_l1() {
    let mut mem = MemorySystem::new(&DeviceSpec::tesla_c2050());
    let line = WarpAccess::contiguous(mem.alloc(32).unwrap().addr());
    let (_, first) = mem.warp_load(0, &line).unwrap();
    assert_eq!((first.near_hits, first.dram_bytes), (0, 128));
    mem.warp_store(0, &line, &[7; 32]).unwrap();
    let (words, reload) = mem.warp_load(0, &line).unwrap();
    assert_eq!(words, [7; 32]);
    assert_eq!(
        (reload.near_hits, reload.l2_hits),
        (1, 0),
        "on hardware: (0, 1) — re-pin the digests of tests/device_opt.rs with this"
    );
}

/// What one launch left: its counters, its scores and every allocated word
/// of device memory.
struct Launched {
    kernel: String,
    stats: gpu_sim::LaunchStats,
    scores: Vec<u32>,
    memory: Vec<u32>,
}

/// One multi-block launch of each kernel on a fresh `spec` device: the
/// original intra-task kernel, the improved one with SaLoBa bins and
/// pipeline fusion, and the inter-task kernel with global boundary planes,
/// with 16-column panels (seams through edge scratch) and shared-only (the
/// short group in one panel).
fn launch_every_kernel(
    spec: &DeviceSpec,
    query: &[u8],
    long: &sw_db::Database,
    group: &sw_db::Database,
    short_group: &sw_db::Database,
) -> Vec<Launched> {
    use cudasw_core::seqstore::{pack_residues, GroupImage, ProfileImage, SeqImage};
    use cudasw_core::{
        residue_balanced_bins, ImprovedIntraKernel, InterTaskKernel, IntraPair, OriginalIntraKernel,
    };
    use gpu_sim::{DevicePtr, GpuDevice};
    use sw_align::PackedProfile;

    let params = SwParams::cudasw_default();
    let packed = PackedProfile::build(&params.matrix, query);
    let finish = |dev: &mut GpuDevice, kernel: &str, stats, scores: Vec<u32>| Launched {
        kernel: kernel.to_string(),
        stats,
        scores,
        memory: dev.copy_from_device(DevicePtr(0), dev.mark()).unwrap().0,
    };
    let stage_pairs = |dev: &mut GpuDevice| -> Vec<IntraPair> {
        long.sequences()
            .iter()
            .map(|seq| {
                let (img, _) = SeqImage::upload(dev, seq).unwrap();
                IntraPair {
                    tex: img.tex,
                    len: img.len,
                    score: img.score,
                }
            })
            .collect()
    };
    let read_scores = |dev: &mut GpuDevice, pairs: &[IntraPair]| -> Vec<u32> {
        let score = |p: &IntraPair| dev.copy_from_device(p.score, 1).unwrap().0[0];
        pairs.iter().map(score).collect()
    };
    let mut out = Vec::new();

    let mut dev = GpuDevice::new(spec.clone());
    let q_words = pack_residues(query);
    let q_ptr = dev.alloc(q_words.len()).unwrap();
    dev.copy_to_device(q_ptr, &q_words).unwrap();
    let pairs = stage_pairs(&mut dev);
    let wavefront = dev
        .alloc(OriginalIntraKernel::wavefront_words(
            pairs.len(),
            query.len(),
        ))
        .unwrap();
    let kernel = OriginalIntraKernel {
        pairs: &pairs,
        query: dev.bind_texture(q_ptr, q_words.len()),
        query_len: query.len(),
        matrix: &params.matrix,
        gaps: params.gaps,
        wavefront,
        threads_per_block: 256,
        step_latency_cycles: spec.global_latency_cycles as u64,
    };
    let stats = dev.launch(&kernel, pairs.len() as u32, "orig").unwrap();
    let scores = read_scores(&mut dev, &pairs);
    out.push(finish(&mut dev, "orig", stats, scores));

    let mut dev = GpuDevice::new(spec.clone());
    let (profile, _) = ProfileImage::upload(&mut dev, &packed).unwrap();
    let pairs = stage_pairs(&mut dev);
    let shape = ImprovedParams {
        threads_per_block: 32,
        tile_height: 4,
    };
    let max_len = pairs.iter().map(|p| p.len).max().unwrap();
    let lengths: Vec<usize> = pairs.iter().map(|p| p.len).collect();
    let bins = residue_balanced_bins(&lengths, (spec.sm_count as usize).min(pairs.len()));
    let kernel = ImprovedIntraKernel {
        pairs: &pairs,
        profile: &profile,
        gaps: params.gaps,
        boundary: dev
            .alloc(ImprovedIntraKernel::boundary_words(pairs.len(), max_len))
            .unwrap(),
        boundary_stride: max_len,
        local_spill: dev
            .alloc(ImprovedIntraKernel::spill_words(pairs.len(), &shape))
            .unwrap(),
        params: shape,
        variant: VariantConfig::improved(),
        boundary_store: ImprovedIntraKernel::boundary_store(
            false,
            false,
            &shape,
            max_len,
            spec.shared_mem_per_sm,
        ),
        fuse_strips: true,
        step_latency_cycles: 30,
        schedule: Some(&bins),
    };
    let stats = dev.launch(&kernel, bins.len() as u32, "improved").unwrap();
    let scores = read_scores(&mut dev, &pairs);
    out.push(finish(&mut dev, "improved", stats, scores));

    let widest = InterTaskKernel::panel_cols(32, spec.shared_mem_per_sm);
    for (panel_cols, db) in [(0, group), (16, group), (widest, short_group)] {
        let mut dev = GpuDevice::new(spec.clone());
        let (pimg, _) = ProfileImage::upload(&mut dev, &packed).unwrap();
        let (gimg, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
        let max_cols = gimg.lengths.iter().copied().max().unwrap();
        let boundary = dev
            .alloc(InterTaskKernel::boundary_words(gimg.width, max_cols))
            .unwrap();
        let edge_words = InterTaskKernel::edge_words(gimg.width, query.len(), panel_cols, max_cols);
        let edge = (edge_words > 0).then(|| dev.alloc(edge_words).unwrap());
        let kernel = InterTaskKernel {
            group: &gimg,
            profile: &pimg,
            gaps: params.gaps,
            boundary,
            max_cols,
            threads_per_block: 32,
            panel_cols,
            edge,
        };
        let name = format!("inter, {panel_cols}-column panels");
        let stats = dev.launch(&kernel, kernel.grid_blocks(), &name).unwrap();
        let scores = dev.copy_from_device(gimg.scores, gimg.width).unwrap().0;
        out.push(finish(&mut dev, &name, stats, scores));
    }
    out
}

/// The subjects of [`launch_every_kernel`] for residue seed `seed`: the
/// lengths never depend on it.
fn table1_databases(seed: u64) -> [sw_db::Database; 3] {
    let long = database_with_lengths("long", &[150, 90, 230, 130, 310, 70], seed);
    let lengths: Vec<usize> = (0..200).map(|i| 3 + (i * 37) % 150).collect();
    let group = database_with_lengths("group", &lengths, seed + 1);
    let short: Vec<usize> = (0..90).map(|i| 3 + (i * 13) % 60).collect();
    let short_group = database_with_lengths("short", &short, seed + 2);
    [long, group, short_group]
}

/// A launch's blocks run on several host threads, the device-wide caches
/// see them in block order, and nothing a launch counts or computes may
/// depend on how the threads interleaved: twenty repeats of every kernel's
/// multi-block launch agree in every `LaunchStats` field, every score and
/// every word of device memory, on both presets. (The digests of
/// `device_opt.rs`, taken from the one-thread simulator, pin the values.)
#[test]
fn repeated_multi_block_launches_are_bit_identical() {
    let query = make_query(200, 29);
    let [long, group, short_group] = table1_databases(17);
    for spec in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_c2050()] {
        let first = launch_every_kernel(&spec, &query, &long, &group, &short_group);
        assert!(first.iter().all(|l| l.stats.blocks > 1));
        // Two strips: the improved kernel moves its boundary through global
        // memory; the short group never leaves shared memory.
        assert!(first[1].stats.memory.load_instructions > 0);
        assert_eq!(first[4].stats.memory.load_instructions, 0);
        for repeat in 1..20 {
            let again = launch_every_kernel(&spec, &query, &long, &group, &short_group);
            for (a, b) in first.iter().zip(&again) {
                let at = format!("{}, {}, repeat {repeat}", spec.name, a.kernel);
                // `Debug` prints every field, each float to the bit.
                assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "{at}");
                assert_eq!(a.scores, b.scores, "{at}: scores");
                assert!(a.memory == b.memory, "{at}: device memory");
            }
        }
    }
}

/// ROADMAP 4(d), narrowed to what holds: every kernel's global addresses
/// depend on the lengths alone, so the same lengths with other residues
/// issue the same global load and store instructions and transactions and
/// update the same cells. The texture counts are not compared: the
/// inter-task and improved kernels gather profile rows by residue, so
/// which segments they fetch, and so what hits, depends on the residues.
#[test]
fn table1_counts_depend_on_lengths_only() {
    let count = |l: &Launched| {
        let m = &l.stats.memory;
        (
            m.load_instructions,
            m.store_instructions,
            m.load_transactions,
            m.store_transactions,
            l.stats.totals.cells,
        )
    };
    for spec in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_c2050()] {
        let runs = [(17, 29), (71, 92)].map(|(seed, query_seed)| {
            let [long, group, short_group] = table1_databases(seed);
            let query = make_query(200, query_seed);
            launch_every_kernel(&spec, &query, &long, &group, &short_group)
        });
        for (a, b) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(count(a), count(b), "{}, {}", spec.name, a.kernel);
            assert_ne!(a.scores, b.scores, "{}: the residues differ", a.kernel);
        }
    }
}
