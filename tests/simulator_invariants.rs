//! Cross-cutting invariants of the simulated device + kernels: properties
//! that must hold for *any* calibration of the timing model, so they stay
//! true if the constants are ever re-tuned.

use cudasw_core::variants::run_intra_variant;
use cudasw_core::{CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, VariantConfig};
use gpu_sim::memory::MemorySystem;
use gpu_sim::{DeviceSpec, WarpAccess};
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
        params,
        VariantConfig::improved(),
        DeviceKernelConfig::default(),
    )
    .unwrap();
    let (_, t_long) = run_intra_variant(
        &spec,
        long.sequences(),
        &query,
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

/// A bigger tile height must not change any score (only the schedule).
#[test]
fn tile_height_is_functionally_invisible_through_the_driver() {
    let db = database_with_lengths("tiles", &[500, 900], 13);
    let query = make_query(333, 6);
    let mut results = Vec::new();
    for tile_height in [4usize, 8] {
        let mut cfg = CudaSwConfig::improved();
        cfg.threshold = 1;
        cfg.improved = ImprovedParams {
            threads_per_block: 64,
            tile_height,
        };
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg);
        results.push(driver.search(&query, &db).unwrap().scores);
    }
    assert_eq!(results[0], results[1]);
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
