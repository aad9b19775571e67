//! Differential matrix for the §VI / §VII device-kernel optimizations.
//!
//! Every [`DeviceKernelConfig`] combination must compute **bit-identical**
//! scores: the flags move traffic between memory spaces and overlap
//! copies with compute, but the DP arithmetic — and therefore every score
//! and every overflow/degradation verdict — is untouched. This suite pins
//! that across the full 128-combination matrix, with and without injected
//! faults, and pins the exact H2D call/byte accounting of the streamed
//! staged path.

use cudasw_core::{
    CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams, IntraKernelChoice,
    RecoveryPolicy, VariantConfig,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
use sw_align::{sw_score, SwParams};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;

/// Threshold 100 so the mixed database exercises both kernels; short
/// subjects span several 64-column panels, long ones several strips.
fn config(device: DeviceKernelConfig) -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        inter_threads_per_block: 32,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra: IntraKernelChoice::Improved(VariantConfig::improved()),
        device,
        ..CudaSwConfig::improved()
    }
}

/// The scalar `sw_score` of `query` against every subject of `db`.
fn oracle(query: &[u8], db: &Database) -> Vec<i32> {
    let params = SwParams::cudasw_default();
    db.sequences()
        .iter()
        .map(|s| sw_score(&params, query, &s.residues))
        .collect()
}

fn mixed_db() -> Database {
    database_with_lengths(
        "devopt",
        &[5, 17, 33, 64, 80, 96, 99, 150, 200, 400, 700],
        83,
    )
}

/// Every combination scores what the oracle scores, under both intra
/// kernels — and there is one loop: a fault-free `search_resilient` under
/// the default policy is the same walk as `search`, so the whole
/// `SearchResult` agrees, every simulated second to the bit, with nothing
/// in the ledger.
#[test]
fn all_128_combinations_score_bit_identically() {
    let db = mixed_db();
    let query = make_query(50, 19);
    let oracle = oracle(&query, &db);
    let policy = RecoveryPolicy::default();
    let seconds = |r: &cudasw_core::SearchResult| {
        [r.inter.seconds, r.intra.seconds, r.transfer_seconds].map(f64::to_bits)
    };
    for dc in DeviceKernelConfig::all_combinations() {
        for intra in [
            IntraKernelChoice::Original,
            IntraKernelChoice::Improved(VariantConfig::improved()),
        ] {
            let tag = format!("config {}, {intra:?}", dc.label());
            let cfg = CudaSwConfig {
                intra,
                ..config(dc)
            };
            let driver = || CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg.clone());
            // A fresh registry per search: phase seconds are registry deltas.
            let (r, _) = obs::capture(|| driver().search(&query, &db).unwrap());
            assert_eq!(r.scores, oracle, "{tag}");
            assert_eq!(
                r.total_cells(),
                db.total_cells(query.len()),
                "{tag}: optimization must not change the DP work"
            );
            let (resilient, _) =
                obs::capture(|| driver().search_resilient(&query, &db, &policy).unwrap());
            assert_eq!(resilient.result, r, "{tag}");
            assert_eq!(seconds(&resilient.result), seconds(&r), "{tag}");
            assert_eq!(resilient.recovery, Default::default(), "{tag}");
        }
    }
}

#[test]
fn staged_path_matches_unstaged_for_every_combination() {
    let db = mixed_db();
    let queries = [make_query(50, 19), make_query(37, 23)];
    for dc in DeviceKernelConfig::all_combinations() {
        let mut plain = CudaSwDriver::new(DeviceSpec::tesla_c2050(), config(dc));
        let mut staged_drv = CudaSwDriver::new(DeviceSpec::tesla_c2050(), config(dc));
        let staged = staged_drv.stage_database(&db).unwrap();
        for query in &queries {
            let a = plain.search(query, &db).unwrap();
            let b = staged_drv.search_staged(query, &staged).unwrap();
            assert_eq!(a.scores, b.scores, "config {}", dc.label());
        }
    }
}

/// Fault plans × the full flag matrix: scores stay equal to the fault-free
/// oracle and the degradation verdict (did any score come from a non-device
/// path?) is a property of the *plan*, never of the optimization flags.
#[test]
fn fault_matrix_is_invariant_across_the_flag_matrix() {
    let db = mixed_db();
    let query = make_query(50, 19);
    let oracle = oracle(&query, &db);
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "transient-launch",
            FaultPlan::none().with_transient(FaultSite::Launch, 1),
        ),
        (
            "transient-h2d",
            FaultPlan::none().with_transient(FaultSite::HostToDevice, 2),
        ),
        ("oom-rechunk", FaultPlan::none().with_oom(3)),
        (
            "device-loss-fallback",
            FaultPlan::none().with_device_loss(FaultSite::Launch, 1),
        ),
    ];
    for (tag, plan) in &plans {
        let mut verdicts = Vec::new();
        for dc in DeviceKernelConfig::all_combinations() {
            let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), config(dc));
            driver.dev.inject_faults(plan.clone());
            let r = driver
                .search_resilient(&query, &db, &RecoveryPolicy::default())
                .unwrap();
            assert_eq!(r.result.scores, oracle, "plan {tag}, config {}", dc.label());
            verdicts.push(r.recovery.degraded);
        }
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "plan {tag}: degradation verdict varied across flag combinations: {verdicts:?}"
        );
    }
}

/// The original intra-task kernel has no strips to fuse, no strip boundary
/// to move and one block per pair by construction: the four flags that
/// only touch the improved kernel must leave its whole `SearchResult` —
/// scores, counts and the bits of every simulated second — where it was.
#[test]
fn intra_only_flags_leave_the_original_kernel_bit_identical() {
    let db = mixed_db();
    let query = make_query(50, 19);
    let search = |device: DeviceKernelConfig| {
        let cfg = CudaSwConfig {
            intra: IntraKernelChoice::Original,
            ..config(device)
        };
        // A fresh registry per search: phase seconds are registry deltas.
        let (r, _) = obs::capture(|| {
            CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg)
                .search(&query, &db)
                .unwrap()
        });
        r
    };
    let baseline = search(DeviceKernelConfig::default());
    for bits in 1u8..16 {
        let dc = DeviceKernelConfig {
            pipeline_fusion: bits & 1 != 0,
            balanced_intra: bits & 2 != 0,
            coalesced_boundary: bits & 4 != 0,
            shared_boundary: bits & 8 != 0,
            ..DeviceKernelConfig::default()
        };
        assert_eq!(search(dc), baseline, "config {}", dc.label());
    }
}

/// The shared boundary falls back at every length, whatever else is on:
/// on the C2050 at `n_th` 256 it fits up to 5,632 residues. A fit rule
/// that forgets any shared word the block reserves (here the coalescing
/// stage, 5,569–5,632) turns the fallback into a failed launch.
#[test]
fn shared_boundary_falls_back_at_every_length() {
    use cudasw_core::variants::run_intra_variant;

    let params = SwParams::cudasw_default();
    let query = make_query(1030, 43); // two strips at 256 × 4
    let device = DeviceKernelConfig {
        coalesced_boundary: true,
        shared_boundary: true,
        ..DeviceKernelConfig::default()
    };
    for len in [5560, 5600, 5632, 5633] {
        let db = database_with_lengths("fit-edge", &[len], 47);
        let (scores, stats) = run_intra_variant(
            &DeviceSpec::tesla_c2050(),
            db.sequences(),
            &query,
            ImprovedParams::default(),
            VariantConfig::improved(),
            device,
        )
        .unwrap_or_else(|e| panic!("length {len}: {e}"));
        assert_eq!(
            scores[0],
            sw_score(&params, &query, &db.sequences()[0].residues),
            "length {len}"
        );
        // In shared memory nothing of the boundary reaches global memory;
        // past the fit the coalesced global boundary takes over.
        assert_eq!(
            stats.global_transactions() > 100,
            len > 5632,
            "length {len}"
        );
    }
}

/// The streamed staged path: the database uploads exactly once, every
/// query still costs exactly two H2D calls (profile + packed residues),
/// bytes moved are identical to the synchronous path, and a measurable
/// part of the copy time is hidden behind kernel execution.
#[test]
fn streamed_staging_uploads_once_and_hides_copy_time() {
    let db = mixed_db();
    let queries = [make_query(50, 19), make_query(37, 23), make_query(64, 29)];

    let run = |device: DeviceKernelConfig| {
        obs::capture(|| {
            let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), config(device));
            let staged = driver.stage_database(&db).unwrap();
            let mut out = Vec::new();
            for q in &queries {
                out.push(driver.search_staged(q, &staged).unwrap());
            }
            let xfer = driver.dev.transfer_stats();
            (out, xfer)
        })
    };

    let ((sync_results, sync_xfer), sync_run) = run(DeviceKernelConfig::default());
    let ((str_results, str_xfer), str_run) = run(DeviceKernelConfig {
        streamed_h2d: true,
        ..DeviceKernelConfig::default()
    });

    for (a, b) in sync_results.iter().zip(&str_results) {
        assert_eq!(a.scores, b.scores);
    }
    // Same bytes, same call count: streaming changes *when*, not *what*.
    assert_eq!(sync_xfer.h2d_bytes, str_xfer.h2d_bytes);
    let sync_calls = sync_run
        .metrics
        .counter_sum("cudasw.gpu_sim.h2d.calls", &[]);
    let str_calls = str_run.metrics.counter_sum("cudasw.gpu_sim.h2d.calls", &[]);
    assert_eq!(
        sync_calls, str_calls,
        "streaming must not add or drop copies"
    );
    // Two per-query H2D calls on top of the one-time staging uploads.
    let staging_calls = sync_calls as usize - 2 * queries.len();
    assert!(staging_calls > 0);
    // The streamed session hid real copy time; exposed + hidden re-adds
    // to the synchronous totals (same latency+bytes model underneath).
    assert!(str_xfer.h2d_streamed > 0);
    assert!(str_xfer.h2d_hidden_seconds > 0.0);
    assert!(
        str_xfer.h2d_seconds < sync_xfer.h2d_seconds,
        "exposed H2D time must shrink: {} vs {}",
        str_xfer.h2d_seconds,
        sync_xfer.h2d_seconds
    );
    assert!(
        (str_xfer.h2d_seconds + str_xfer.h2d_hidden_seconds - sync_xfer.h2d_seconds).abs() < 1e-12,
        "hidden + exposed must equal the synchronous total"
    );
    let hidden_metric = str_run
        .metrics
        .counter_sum("cudasw.gpu_sim.h2d.hidden_seconds", &[]);
    assert!((hidden_metric - str_xfer.h2d_hidden_seconds).abs() < 1e-12);
}

/// FNV-1a over little-endian words: a dependency-free, stable digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &cudasw_core::SearchResult) {
        for &s in &r.scores {
            self.word(s as u32 as u64);
        }
        for phase in [&r.inter, &r.intra] {
            self.word(u64::from(phase.launches));
            self.word(phase.cells);
            self.word(phase.global_transactions);
            self.word(phase.seconds.to_bits());
        }
        self.word(r.transfer_seconds.to_bits());
    }
}

/// Digest of every simulated number the three driver paths (plain, staged,
/// resilient — fault-free and under OOM) produce over the §VII flag matrix
/// (the first 32 combinations: both §VI boundary flags off). Scores,
/// per-phase launches / cells / global transactions, and the bit patterns
/// of the simulated kernel and transfer seconds all feed it, so any drift
/// in allocation order, copy order, launch shape or float accumulation
/// order on any path changes the constant. Pinned before the launch paths
/// were merged into `cudasw_core::launch`; re-pinned once, when the search
/// loops were merged: `transfer_seconds` of a resilient search with
/// `streamed_h2d` on, 64 of 320 results (table in EXPERIMENTS.md, "PR 24").
const PINNED_SIMULATED_DIGEST: u64 = 0x2c81_34c3_b837_d6e5;

#[test]
fn simulated_counts_are_pinned() {
    let db = mixed_db();
    let queries = [make_query(50, 19), make_query(37, 23)];
    let policy = RecoveryPolicy::default();
    let mut digest = Fnv::new();
    for dc in &DeviceKernelConfig::all_combinations()[..32] {
        for intra in [
            IntraKernelChoice::Original,
            IntraKernelChoice::Improved(VariantConfig::improved()),
        ] {
            let cfg = CudaSwConfig {
                intra,
                ..config(*dc)
            };
            let driver = || CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg.clone());
            // Each path runs in its own capture scope: phase seconds are
            // registry deltas, exact only against a fresh registry.
            let (plain, _) = obs::capture(|| driver().search(&queries[0], &db).unwrap());
            digest.result(&plain);
            let (staged_results, _) = obs::capture(|| {
                let mut d = driver();
                let staged = d.stage_database(&db).unwrap();
                queries
                    .each_ref()
                    .map(|q| d.search_staged(q, &staged).unwrap())
            });
            for r in &staged_results {
                digest.result(r);
            }
            for plan in [FaultPlan::none(), FaultPlan::none().with_oom(3)] {
                let (rr, _) = obs::capture(|| {
                    let mut d = driver();
                    d.dev.inject_faults(plan.clone());
                    d.search_resilient(&queries[0], &db, &policy).unwrap()
                });
                digest.result(&rr.result);
                digest.word(rr.recovery.rechunks);
            }
        }
    }
    assert_eq!(
        digest.0, PINNED_SIMULATED_DIGEST,
        "simulated counts drifted: digest {:#018x}",
        digest.0
    );
}

impl Fnv {
    /// Every number a launch counted: all of `LaunchStats.memory`, the
    /// shared-memory counters, the block-cost totals and the cycle bits.
    fn launch(&mut self, s: &gpu_sim::LaunchStats) {
        let m = &s.memory;
        let t = &s.totals;
        for w in [
            m.load_instructions,
            m.store_instructions,
            m.load_transactions,
            m.store_transactions,
            m.dram_read_bytes,
            m.dram_write_bytes,
            m.tex_instructions,
            m.tex_transactions,
            m.tex_dram_bytes,
            m.tex_l2_stats.hits,
            m.tex_l2_stats.misses,
            m.l1.hits,
            m.l1.misses,
            m.l2.hits,
            m.l2.misses,
            m.tex_cache.hits,
            m.tex_cache.misses,
            s.shared.instructions,
            s.shared.bank_cycles,
            s.shared.conflicted_accesses,
            t.warp_instructions,
            t.near_hits,
            t.l2_hits,
            t.dram_bytes,
            t.shared_cycles,
            t.syncs,
            t.latency_cycles,
            t.hidden_latency_cycles,
            t.cells,
            s.cycles.to_bits(),
            s.seconds.to_bits(),
            s.max_block_cycles.to_bits(),
            s.min_block_cycles.to_bits(),
        ] {
            self.word(w);
        }
    }
}

/// Digest of every counter gpu-sim keeps, kernel by kernel, computed at
/// the commit *before* the simulator's warp-access analysis was rewritten
/// by shape. Where [`PINNED_SIMULATED_DIGEST`] covers the driver paths on
/// one device with single-strip queries, this one covers what a memory
/// model change can move: three devices (16 and 32 banks; texture L2 vs
/// L1/L2 vs no data cache), every intra-task variant over a five-strip
/// query, and the inter-task kernel in the global-boundary, multi-panel
/// and single-panel orders — with all four caches' hit/miss counts, DRAM
/// bytes, bank cycles and the cycle bit patterns hashed.
const PINNED_COUNTER_DIGEST: u64 = 0xb973_07dd_a729_0775;

#[test]
fn every_simulator_counter_is_pinned() {
    use cudasw_core::seqstore::{pack_residues, GroupImage, ProfileImage, SeqImage};
    use cudasw_core::variants::run_intra_variant;
    use cudasw_core::{InterTaskKernel, IntraPair, OriginalIntraKernel};
    use gpu_sim::GpuDevice;
    use sw_align::PackedProfile;

    let params = SwParams::cudasw_default();
    let query = make_query(600, 31); // 5 strips at 32 × 4; its profile overflows the texture caches
    let long = database_with_lengths("wide-long", &[97, 250, 333], 37);
    // Unsorted lengths: per-column lane masks with holes, three blocks.
    let lengths: Vec<usize> = (0..70).map(|i| 3 + (i * 37) % 150).collect();
    let group = database_with_lengths("wide-group", &lengths, 41);
    let max_cols = lengths.iter().copied().max().unwrap();
    let mut digest = Fnv::new();

    for spec in [
        DeviceSpec::tesla_c1060(),
        DeviceSpec::tesla_c2050(),
        DeviceSpec::tesla_c2050_caches_off(),
    ] {
        // Original intra-task kernel, one block per pair.
        let mut dev = GpuDevice::new(spec.clone());
        let q_words = pack_residues(&query);
        let q_ptr = dev.alloc(q_words.len()).unwrap();
        dev.copy_to_device(q_ptr, &q_words).unwrap();
        let pairs: Vec<IntraPair> = long
            .sequences()
            .iter()
            .map(|seq| {
                let (img, _) = SeqImage::upload(&mut dev, seq).unwrap();
                IntraPair {
                    tex: img.tex,
                    len: img.len,
                    score: img.score,
                }
            })
            .collect();
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
        digest.launch(&stats);
        for p in &pairs {
            digest.word(u64::from(dev.copy_from_device(p.score, 1).unwrap().0[0]));
        }

        // Improved intra-task kernel: §III stages, §VI extensions, 8-row tiles.
        let flag = |set: fn(&mut DeviceKernelConfig)| {
            let mut dc = DeviceKernelConfig::default();
            set(&mut dc);
            dc
        };
        let (improved, off) = (VariantConfig::improved(), DeviceKernelConfig::default());
        let variants = [
            (4, improved, off),
            (4, VariantConfig::naive(), off),
            (4, VariantConfig::deep_swap(), off),
            (4, improved, flag(|dc| dc.coalesced_boundary = true)),
            (4, improved, flag(|dc| dc.shared_boundary = true)),
            (4, improved, flag(|dc| dc.pipeline_fusion = true)),
            (8, improved, off),
        ];
        for (tile_height, variant, device) in variants {
            let shape = ImprovedParams {
                threads_per_block: 32,
                tile_height,
            };
            let (scores, stats) =
                run_intra_variant(&spec, long.sequences(), &query, shape, variant, device).unwrap();
            digest.launch(&stats);
            for s in scores {
                digest.word(s as u32 as u64);
            }
        }

        // Inter-task kernel: global boundary planes, 16-column panels
        // (ten seams: `load_edge`/`store_edge` run), widest panels.
        let widest = InterTaskKernel::panel_cols(32, spec.shared_mem_per_sm);
        for panel_cols in [0, 16, widest] {
            let mut dev = GpuDevice::new(spec.clone());
            let packed = PackedProfile::build(&params.matrix, &query);
            let (pimg, _) = ProfileImage::upload(&mut dev, &packed).unwrap();
            let (gimg, _) = GroupImage::upload(&mut dev, group.sequences()).unwrap();
            let boundary = dev
                .alloc(InterTaskKernel::boundary_words(gimg.width, max_cols))
                .unwrap();
            let edge_words =
                InterTaskKernel::edge_words(gimg.width, query.len(), panel_cols, max_cols);
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
            let stats = dev.launch(&kernel, kernel.grid_blocks(), "inter").unwrap();
            digest.launch(&stats);
            let (scores, _) = dev.copy_from_device(gimg.scores, gimg.width).unwrap();
            for s in scores {
                digest.word(u64::from(s));
            }
        }
    }
    assert_eq!(
        digest.0, PINNED_COUNTER_DIGEST,
        "simulator counters drifted: digest {:#018x}",
        digest.0
    );
}
