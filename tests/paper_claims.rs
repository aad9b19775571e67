//! The paper's quantitative claims, checked against this reproduction at
//! paper scale (via the validated analytic models) and at reduced
//! functional scale. EXPERIMENTS.md discusses each band.

mod obs_assert;

use cudasw_bench::experiments::{fig2, fig3, fig5, fig6, predict, table2};
use cudasw_bench::workloads;
use cudasw_core::model::{
    predict_inter_group, predict_intra_improved, predict_intra_orig, PredictedIntra,
};
use cudasw_core::{
    bin_imbalance, residue_balanced_bins, CudaSwConfig, CudaSwDriver, DeviceKernelConfig,
    ImprovedParams, IntraKernelChoice, VariantConfig,
};
use gpu_sim::{DeviceSpec, TimingModel};
use obs_assert::MetricsAssert;
use sw_db::catalog::PaperDb;
use sw_db::synth::{database_with_lengths, make_query};

/// §II-C: "the inter-task kernel averages approximately 17 GCUPs while the
/// intra-task kernel averages 1.5 GCUPs [...] on the Tesla C1060."
#[test]
fn kernel_level_calibration_bands() {
    let spec = DeviceSpec::tesla_c1060();
    let tm = TimingModel::default();
    let lengths = workloads::paper_scale_lengths(PaperDb::Swissprot);
    let split = lengths.partition_point(|&l| l < 3072);

    let inter = predict_inter_group(&spec, &tm, &lengths[..split], 567, 256);
    assert!(
        (13.0..=25.0).contains(&inter.gcups()),
        "inter-task = {:.1} GCUPs (paper ≈ 17)",
        inter.gcups()
    );

    let long = &lengths[split..];
    let orig = predict_intra_orig(&spec, &tm, long, 567, false);
    assert!(
        (0.8..=4.0).contains(&orig.gcups()),
        "original intra-task = {:.1} GCUPs (paper ≈ 1.5)",
        orig.gcups()
    );

    // §I: "We improve the performance of the intra-task kernel by over 11
    // times" — band: at least 6x in this reproduction.
    let imp = predict_intra_improved(&spec, &tm, long, 567, &ImprovedParams::default(), false);
    let speedup = imp.gcups() / orig.gcups();
    assert!(
        speedup >= 6.0,
        "intra-task speedup {speedup:.1}x (paper > 11x)"
    );
}

/// §II-C: "CUDASW++ achieves a performance of 17 GCUPs on a Tesla C1060.
/// When we increase this threshold to 36,000 [...] the performance drops
/// to 10 GCUPs."
///
/// Partially reproduced (see EXPERIMENTS.md): our scheduler absorbs more
/// of the extreme-straggler barrier than the real driver did, so the
/// all-inter-task configuration lands near the original-kernel default
/// rather than 41% below it. What does hold: the straggler group itself
/// collapses (its GCUPs are far below the device's inter-task rate), and
/// the improved-kernel default strictly beats all-inter-task — i.e. the
/// threshold remains necessary.
#[test]
fn all_inter_task_threshold_costs_performance() {
    let spec = DeviceSpec::tesla_c1060();
    let tm = TimingModel::default();
    let lengths = workloads::paper_scale_lengths(PaperDb::Swissprot);

    // The tail-holding group runs far below the healthy inter-task rate.
    let s = spec.intertask_group_size(256, 30, 0) as usize;
    let tail_start = lengths.len() - (lengths.len() % s).max(s).min(lengths.len());
    let tail_group = predict_inter_group(&spec, &tm, &lengths[tail_start..], 567, 256);
    let healthy = predict_inter_group(&spec, &tm, &lengths[..s], 567, 256);
    assert!(
        tail_group.gcups() < healthy.gcups() * 0.6,
        "straggler group {:.1} GCUPs vs healthy group {:.1}",
        tail_group.gcups(),
        healthy.gcups()
    );

    // And the improved-kernel default threshold beats all-inter-task.
    let improved_default = predict(&spec, &lengths, 567, 3072, PredictedIntra::Improved, false);
    let all_inter = predict(
        &spec,
        &lengths,
        567,
        36_000,
        PredictedIntra::Improved,
        false,
    );
    assert!(
        all_inter.gcups() < improved_default.gcups(),
        "all-inter {:.1} vs improved default {:.1}",
        all_inter.gcups(),
        improved_default.gcups()
    );
}

/// Figure 2: the inter-task kernel collapses to intra-task parity as
/// length variance grows (the paper's curves cross mid-sweep; here the
/// collapse reaches ≈1x at the top of the sweep — EXPERIMENTS.md,
/// "Known divergences").
#[test]
fn figure2_curves_converge() {
    let r = fig2::run(&DeviceSpec::tesla_c1060(), 15_360, &fig2::paper_stds(), 567);
    let Some((ratio_first, ratio_last)) = r.endpoint_ratios() else {
        panic!("empty σ sweep");
    };
    // Bands are the named constants in fig2 so the unit test and this
    // paper-claims mirror can never drift apart.
    assert!(
        ratio_first > fig2::LOW_STD_MIN_GAP,
        "low-σ gap {ratio_first:.2}x"
    );
    assert!(
        ratio_last < fig2::HIGH_STD_PARITY_MAX_RATIO,
        "σ=4000 ratio {ratio_last:.2}x"
    );
}

/// Figure 3: the original kernel's threshold cliff.
#[test]
fn figure3_threshold_cliff() {
    let r = fig3::run(&DeviceSpec::tesla_c1060(), 572);
    assert!(r.worst < r.at_default * 0.7);
}

/// Figure 5 / §IV-A: the improved kernel always wins, gains grow with the
/// intra-task share, and the C1060 gains exceed the C2050 gains.
#[test]
fn figure5_gain_structure() {
    let r = fig5::run(576, false);
    for (dev, g) in &r.gain_at_default {
        assert!(*g > 0.0, "{dev} gain at default = {g:.1}%");
    }
    let max_c2050 = r.gain_max[0].1;
    let max_c1060 = r.gain_max[1].1;
    assert!(
        max_c1060 > max_c2050,
        "C1060 max gain {max_c1060:.1}% should exceed C2050 {max_c2050:.1}%"
    );
    // Paper: max gains 67.0% (C1060) and 39.3% (C2050). Wide bands.
    assert!((20.0..=200.0).contains(&max_c1060));
    assert!((10.0..=150.0).contains(&max_c2050));
}

/// Figure 6: the original kernel's Fermi advantage is the cache.
#[test]
fn figure6_cache_attribution() {
    let r = fig6::run(576);
    assert!(r.c2050_original_share_delta() > r.c2050_improved_share_delta());
    assert!(
        r.c2050_original_share_delta() > 5.0,
        "cache effect too small"
    );
}

/// Table I, measured — not hand-fed: both intra-task kernels run every DP
/// cell through the simulator under the observability recorder, and the
/// transaction counts come out of the metrics registry
/// (`cudasw.gpu_sim.launch.global_transactions`, labelled by kernel).
/// The paper reports ~2000:1 at query 567 and ~40:1 at 5478 (≈50:1
/// overall); the claim pinned here is "at least 40:1".
#[test]
fn table1_transaction_reduction_measured_from_metrics_registry() {
    let spec = DeviceSpec::tesla_c1060();
    let db = workloads::long_tail_db(4, 3500);
    let query = workloads::query(567);

    // Both kernels through the identical driver path: threshold 1 routes
    // every sequence to the intra-task kernel under test.
    let capture_kernel = |intra: IntraKernelChoice| {
        let cfg = CudaSwConfig {
            threshold: 1,
            intra,
            ..CudaSwConfig::improved()
        };
        let ((), run) = obs::capture(|| {
            let mut driver = CudaSwDriver::new(spec.clone(), cfg.clone());
            driver.search(&query, &db).map(|_| ()).unwrap()
        });
        run
    };
    let improved_run = capture_kernel(IntraKernelChoice::Improved(VariantConfig::improved()));
    let original_run = capture_kernel(IntraKernelChoice::Original);

    // Merge the two captured runs; the kernel label keeps them apart.
    let mut merged = improved_run.metrics.clone();
    merged.merge(&original_run.metrics);
    MetricsAssert::new()
        .ratio_ge(
            "cudasw.gpu_sim.launch.global_transactions",
            &[("kernel", "intra_orig")],
            "cudasw.gpu_sim.launch.global_transactions",
            &[("kernel", "intra_improved")],
            40.0,
        )
        // Both kernels computed the identical cell workload — the ratio
        // compares equal work, not different amounts of it.
        .counter_eq(
            "cudasw.gpu_sim.launch.cells",
            &[("kernel", "intra_orig")],
            merged.counter_sum(
                "cudasw.gpu_sim.launch.cells",
                &[("kernel", "intra_improved")],
            ),
            0.0,
        )
        .check(&merged)
        .unwrap();
}

/// Figures 2/3 rest on the threshold controlling the inter/intra workload
/// split. Measured from the registry: the intra-task share of DP cells
/// equals exactly the over-threshold residues x query length, and grows
/// monotonically as the threshold drops.
#[test]
fn workload_split_tracks_threshold_in_the_registry() {
    let lengths: Vec<usize> = vec![
        60, 90, 140, 200, 300, 450, 700, 1000, 1400, 1900, 2500, 3100, 3500,
    ];
    let db = database_with_lengths("split", &lengths, 23);
    let query = make_query(64, 3);
    let mut last_share = -1.0;
    for threshold in [3072usize, 1200, 250] {
        let cfg = CudaSwConfig {
            threshold,
            ..CudaSwConfig::improved()
        };
        let ((), run) = obs::capture(|| {
            let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
            driver.search(&query, &db).map(|_| ()).unwrap()
        });
        let m = &run.metrics;
        let intra = m.counter_sum("cudasw.core.phase.cells", &[("phase", "intra")]);
        let inter = m.counter_sum("cudasw.core.phase.cells", &[("phase", "inter")]);
        let long_residues: usize = lengths.iter().filter(|&&l| l >= threshold).sum();
        assert_eq!(
            intra as usize,
            long_residues * query.len(),
            "threshold {threshold}: intra cells must be exactly the long tail"
        );
        assert_eq!(
            (intra + inter) as u64,
            db.total_cells(query.len()),
            "threshold {threshold}: no cells lost between the phases"
        );
        let share = intra / (intra + inter);
        assert!(
            share > last_share,
            "threshold {threshold}: intra share {share:.3} must grow as the threshold drops"
        );
        last_share = share;
    }
}

/// GCUPs accounting is monotone and consistent: counters only grow,
/// repeating the identical search leaves the aggregate rate unchanged,
/// and the registry-derived rate agrees with the `RunStats` view.
#[test]
fn gcups_accounting_is_monotone_and_consistent() {
    let db = database_with_lengths("gcups", &[40, 80, 120, 200, 320, 500], 41);
    let query = make_query(48, 7);
    let cfg = CudaSwConfig {
        threshold: 150,
        ..CudaSwConfig::improved()
    };
    let ((), run) = obs::capture(|| {
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), cfg);
        let first = driver.search(&query, &db).unwrap();
        let after_first = obs::snapshot_metrics();
        let second = driver.search(&query, &db).unwrap();
        let after_second = obs::snapshot_metrics();

        let rate = |m: &obs::MetricsRegistry| {
            m.counter_sum("cudasw.gpu_sim.launch.cells", &[])
                / m.counter_sum("cudasw.gpu_sim.launch.seconds", &[])
        };
        // Monotone: the second search only adds.
        assert!(rate(&after_first) > 0.0);
        assert!(
            after_second.counter_sum("cudasw.gpu_sim.launch.cells", &[])
                >= 2.0 * after_first.counter_sum("cudasw.gpu_sim.launch.cells", &[])
        );
        // Identical work at an identical simulated rate.
        let (r1, r2) = (rate(&after_first), rate(&after_second));
        assert!((r1 - r2).abs() <= 1e-9 * r1, "{r1} vs {r2}");
        // The RunStats view reports the same per-phase rates the
        // registry implies.
        for result in [&first, &second] {
            for (phase, stats) in [("inter", &result.inter), ("intra", &result.intra)] {
                let cells = result_phase(&after_first, phase, "cells");
                let secs = result_phase(&after_first, phase, "seconds");
                assert!(
                    (stats.gcups() - cells / secs / 1.0e9).abs() <= 1e-9 * stats.gcups(),
                    "{phase} gcups"
                );
            }
        }
    });
    drop(run);
}

fn result_phase(m: &obs::MetricsRegistry, phase: &str, what: &str) -> f64 {
    m.counter_sum(&format!("cudasw.core.phase.{what}"), &[("phase", phase)])
}

// --- §VII future-work optimizations, counted ------------------------
//
// "Performance can be further improved by using the shared memory" /
// overlapping transfers with execution. Each DeviceKernelConfig flag
// must move its own counted metric while leaving scores bit-identical
// (the full 32-combination matrix is pinned in tests/device_opt.rs).

/// §VII: boundary staging must cut the inter-task kernel's global
/// transactions at least this factor — the per-strip-crossing H/F
/// round-trips (4 transactions per panel column) collapse to one
/// 17-word edge exchange per panel.
const SECTION7_STAGING_MIN_CUT: f64 = 4.0;
/// §VII: pipeline fusion and H2D streaming must *hide* latency, never
/// drop it — hidden + exposed re-adds to the unfused/unstreamed total
/// within float-summation noise.
const SECTION7_ACCOUNTING_TOL: f64 = 1e-9;
/// SaLoBa (arXiv:2301.09310): LPT residue balancing must cut block-load
/// imbalance (max/min, or its excess over perfectly-even 1.0) at least
/// 3x versus the naive one-block-per-pair / contiguous assignment.
const SECTION7_BALANCE_MIN_CUT: f64 = 3.0;

/// Run a search on `spec` under the observability recorder; returns the
/// scores plus the captured run for counter assertions.
fn device_search(
    spec: DeviceSpec,
    cfg: CudaSwConfig,
    query: &[u8],
    db: &sw_db::Database,
) -> (Vec<i32>, obs::Obs) {
    let (scores, run) = obs::capture(|| {
        let mut driver = CudaSwDriver::new(spec, cfg);
        driver.search(query, db).map(|r| r.scores).unwrap()
    });
    (scores, run)
}

fn inter_counter(run: &obs::Obs, name: &str) -> f64 {
    run.metrics.counter_sum(name, &[("kernel", "inter_task")])
}

/// §VII shared-memory staging: the strip-boundary H/F traffic of the
/// inter-task kernel moves to shared memory; global transactions drop
/// at least [`SECTION7_STAGING_MIN_CUT`], measured from the registry,
/// with scores bit-identical.
#[test]
fn section7_boundary_staging_cuts_global_transactions() {
    let db = database_with_lengths("s7-staging", &[256; 32], 31);
    let query = make_query(64, 11);
    let cfg = |device| CudaSwConfig {
        inter_threads_per_block: 64,
        device,
        ..CudaSwConfig::improved()
    };
    let (base_scores, base) = device_search(
        DeviceSpec::tesla_c2050(),
        cfg(DeviceKernelConfig::default()),
        &query,
        &db,
    );
    let staged_cfg = DeviceKernelConfig {
        boundary_staging: true,
        ..DeviceKernelConfig::default()
    };
    let (staged_scores, staged) =
        device_search(DeviceSpec::tesla_c2050(), cfg(staged_cfg), &query, &db);
    assert_eq!(base_scores, staged_scores);
    let name = "cudasw.gpu_sim.launch.global_transactions";
    let (g_base, g_staged) = (inter_counter(&base, name), inter_counter(&staged, name));
    assert!(
        g_base >= g_staged * SECTION7_STAGING_MIN_CUT,
        "staging cut only {g_base:.0} -> {g_staged:.0}"
    );
    // The traffic moved to shared memory, it did not vanish: the staged
    // run performs shared-memory work where the baseline did global.
    assert!(
        staged
            .metrics
            .counter_sum("cudasw.gpu_sim.launch.shared_bank_conflicts", &[])
            == 0.0,
        "staging layout must stay conflict-free"
    );
}

/// §VII shared-memory-only panels: when every subject of a group fits
/// one panel, the kernel runs with **zero** global intermediates — the
/// only global transactions left are the score stores (exactly one per
/// launch, counted).
#[test]
fn section7_single_panel_groups_store_scores_only() {
    let db = database_with_lengths("s7-shared", &[64; 32], 37);
    let query = make_query(48, 13);
    let cfg = |device| CudaSwConfig {
        inter_threads_per_block: 64,
        device,
        ..CudaSwConfig::improved()
    };
    let (base_scores, base) = device_search(
        DeviceSpec::tesla_c2050(),
        cfg(DeviceKernelConfig::default()),
        &query,
        &db,
    );
    let shared_cfg = DeviceKernelConfig {
        shared_only: true,
        ..DeviceKernelConfig::default()
    };
    let (shared_scores, shared) =
        device_search(DeviceSpec::tesla_c2050(), cfg(shared_cfg), &query, &db);
    assert_eq!(base_scores, shared_scores);
    let name = "cudasw.gpu_sim.launch.global_transactions";
    let launches = inter_counter(&shared, "cudasw.gpu_sim.launch.calls");
    assert_eq!(
        inter_counter(&shared, name),
        launches,
        "shared-only must leave exactly one score-store transaction per launch"
    );
    assert!(
        inter_counter(&base, name) > launches * SECTION7_STAGING_MIN_CUT,
        "baseline global traffic should dwarf the score stores"
    );
}

/// §VII cross-strip pipeline fusion: removed fill/flush stalls are
/// *counted* as hidden latency (never silently dropped) and the fused
/// intra-task kernel finishes faster on the same work.
#[test]
fn section7_fusion_counts_hidden_latency_and_speeds_up() {
    let db = database_with_lengths("s7-fusion", &[3500, 3300, 3200, 3600], 41);
    // Several query strips (strip height = 32 threads x 4 rows = 128), so
    // there are inter-strip fill/flush stalls for fusion to remove.
    let query = make_query(300, 17);
    let cfg = |device| CudaSwConfig {
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        device,
        ..CudaSwConfig::improved()
    };
    let (base_scores, base) = device_search(
        DeviceSpec::tesla_c1060(),
        cfg(DeviceKernelConfig::default()),
        &query,
        &db,
    );
    let fused_cfg = cfg(DeviceKernelConfig {
        pipeline_fusion: true,
        ..DeviceKernelConfig::default()
    });
    let (fused_scores, fused) = device_search(DeviceSpec::tesla_c1060(), fused_cfg, &query, &db);
    assert_eq!(base_scores, fused_scores);
    let hidden = |run: &obs::Obs| {
        run.metrics.counter_sum(
            "cudasw.gpu_sim.launch.hidden_latency_cycles",
            &[("kernel", "intra_improved")],
        )
    };
    assert_eq!(hidden(&base), 0.0, "unfused pipeline hides nothing");
    assert!(hidden(&fused) > 0.0, "fusion must count its removed stalls");
    let secs = |run: &obs::Obs| {
        run.metrics
            .counter_sum("cudasw.core.phase.seconds", &[("phase", "intra")])
    };
    assert!(
        secs(&fused) < secs(&base),
        "fused {:.6}s vs unfused {:.6}s",
        secs(&fused),
        secs(&base)
    );
}

/// §VII streamed H2D: bytes moved are identical, a measurable part of
/// the copy time overlaps kernel execution, and hidden + exposed
/// re-adds to the synchronous total (latency is hidden, not dropped).
#[test]
fn section7_streamed_h2d_overlaps_without_changing_bytes() {
    let db = database_with_lengths("s7-stream", &[90, 120, 150, 180, 240, 300, 400, 3500], 43);
    let query = make_query(64, 19);
    let cfg = |device| CudaSwConfig {
        threshold: 1000,
        device,
        ..CudaSwConfig::improved()
    };
    let (sync_scores, sync_run) = device_search(
        DeviceSpec::tesla_c2050(),
        cfg(DeviceKernelConfig::default()),
        &query,
        &db,
    );
    let stream_cfg = DeviceKernelConfig {
        streamed_h2d: true,
        ..DeviceKernelConfig::default()
    };
    let (stream_scores, stream_run) =
        device_search(DeviceSpec::tesla_c2050(), cfg(stream_cfg), &query, &db);
    assert_eq!(sync_scores, stream_scores);
    let c = |run: &obs::Obs, name: &str| run.metrics.counter_sum(name, &[]);
    assert_eq!(
        c(&sync_run, "cudasw.gpu_sim.h2d.bytes"),
        c(&stream_run, "cudasw.gpu_sim.h2d.bytes"),
        "streaming must not change what is copied"
    );
    let hidden = c(&stream_run, "cudasw.gpu_sim.h2d.hidden_seconds");
    let exposed = c(&stream_run, "cudasw.gpu_sim.h2d.seconds");
    let sync_total = c(&sync_run, "cudasw.gpu_sim.h2d.seconds");
    assert!(hidden > 0.0, "no copy time was hidden");
    assert!(exposed < sync_total);
    assert!(
        (exposed + hidden - sync_total).abs() <= SECTION7_ACCOUNTING_TOL * sync_total,
        "hidden latency must be counted, not dropped: {exposed} + {hidden} != {sync_total}"
    );
}

/// SaLoBa-style intra-task balance: the LPT residue schedule is at
/// least [`SECTION7_BALANCE_MIN_CUT`] closer to even than a contiguous
/// split, and through the driver it shrinks the intra-task makespan on
/// a heavy-tailed group without touching a single score.
#[test]
fn section7_balanced_intra_cuts_block_imbalance() {
    // Schedule-level claim on a balanceable fat-middle mix: LPT's excess
    // imbalance (above perfectly-even 1.0) is at least 3x smaller than a
    // contiguous split's.
    let even_mix: Vec<usize> = std::iter::once(2000)
        .chain((0..15).map(|i| 700 - 10 * i))
        .collect();
    let bins = 4;
    let lpt = residue_balanced_bins(&even_mix, bins);
    let chunk = even_mix.len() / bins;
    let contiguous: Vec<Vec<usize>> = (0..bins)
        .map(|b| (b * chunk..(b + 1) * chunk).collect())
        .collect();
    let (lpt_imb, contig_imb) = (
        bin_imbalance(&even_mix, &lpt),
        bin_imbalance(&even_mix, &contiguous),
    );
    assert!(
        contig_imb - 1.0 >= SECTION7_BALANCE_MIN_CUT * (lpt_imb - 1.0),
        "LPT {lpt_imb:.2}x vs contiguous {contig_imb:.2}x"
    );

    // Driver-level claim on a heavy tail: one giant pair serializes its
    // block under one-block-per-pair; the balanced schedule cuts the
    // measured block-cycle spread of the single intra-task launch at
    // least 3x, scores bit-identical.
    let lengths = vec![
        2000usize, 130, 190, 160, 150, 140, 135, 180, 170, 165, 155, 145, 138, 148, 158, 168,
    ];
    let mut spec = DeviceSpec::tesla_c1060();
    spec.sm_count = 4;
    let db = database_with_lengths("s7-balance", &lengths, 47);
    let query = make_query(96, 23);
    let cfg = |device| CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        device,
        ..CudaSwConfig::improved()
    };
    let (base_scores, base) = device_search(
        spec.clone(),
        cfg(DeviceKernelConfig::default()),
        &query,
        &db,
    );
    let bal_cfg = DeviceKernelConfig {
        balanced_intra: true,
        ..DeviceKernelConfig::default()
    };
    let (bal_scores, bal) = device_search(spec, cfg(bal_cfg), &query, &db);
    assert_eq!(base_scores, bal_scores);
    // One intra launch per run, so the summed per-launch extremes are the
    // launch's own max/min block cycles.
    let imbalance = |run: &obs::Obs| {
        let labels = [("kernel", "intra_improved")];
        run.metrics
            .counter_sum("cudasw.gpu_sim.launch.block_cycles_max", &labels)
            / run
                .metrics
                .counter_sum("cudasw.gpu_sim.launch.block_cycles_min", &labels)
    };
    let (base_imb, bal_imb) = (imbalance(&base), imbalance(&bal));
    assert!(
        base_imb > 5.0,
        "heavy tail should skew blocks: {base_imb:.2}x"
    );
    assert!(
        bal_imb * SECTION7_BALANCE_MIN_CUT <= base_imb,
        "balanced {bal_imb:.2}x vs one-block-per-pair {base_imb:.2}x"
    );
}

/// Table II: improvement on every database, smallest on TAIR.
#[test]
fn table2_structure() {
    let r = table2::run();
    for db in PaperDb::all() {
        for dev in ["Tesla C1060", "Tesla C2050"] {
            assert!(r.mean_gain(db.name(), dev) > 0.0, "{} on {dev}", db.name());
        }
    }
    let tair = r.mean_gain(PaperDb::Tair.name(), "Tesla C1060");
    let swiss = r.mean_gain(PaperDb::Swissprot.name(), "Tesla C1060");
    assert!(
        tair <= swiss * 1.5,
        "TAIR gain {tair:.3} vs Swissprot {swiss:.3}"
    );
}
