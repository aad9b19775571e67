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
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::path::Path;
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

fn mixed_db() -> Database {
    database_with_lengths(
        "devopt",
        &[5, 17, 33, 64, 80, 96, 99, 150, 200, 400, 700],
        83,
    )
}

/// Every combination does the same DP work under both intra kernels — and
/// there is one loop: a fault-free `search_resilient` under the default
/// policy is the same walk as `search`, so the whole `SearchResult`
/// agrees, every simulated second to the bit, with nothing in the ledger.
/// That each combination scores what the oracle scores is the conformance
/// harness's (`tests/conformance.rs`, the 128 × 2 matrix on this database).
#[test]
fn all_128_combinations_score_bit_identically() {
    let db = mixed_db();
    let query = make_query(50, 19);
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

/// Fault plans × the full flag matrix: the degradation verdict (did any
/// score come from a non-device path?) is a property of the *plan*, never
/// of the optimization flags. That every such search scores what the oracle
/// scores is the conformance harness's (`tests/conformance.rs`, these plans
/// × all 128 flag sets on this database).
#[test]
fn fault_matrix_is_invariant_across_the_flag_matrix() {
    let db = mixed_db();
    let query = make_query(50, 19);
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
            &params,
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

/// Every simulated number of a run, one `<launch or path> <counter> <value>`
/// line each (a result's scores on one line), compared line by line with a
/// committed file under `tests/snapshots/`. Seconds and cycles are written
/// with `{:?}`, which round-trips every `f64` bit.
#[derive(Default)]
struct Snapshot(String);

impl Snapshot {
    fn line(&mut self, key: &str, counter: &str, value: impl std::fmt::Display) {
        writeln!(self.0, "{key} {counter} {value}").unwrap();
    }

    fn scores<T: ToString>(&mut self, key: &str, scores: impl IntoIterator<Item = T>) {
        let scores: Vec<String> = scores.into_iter().map(|s| s.to_string()).collect();
        self.line(key, "scores", scores.join(" "));
    }

    fn result(&mut self, key: &str, r: &cudasw_core::SearchResult) {
        self.scores(key, &r.scores);
        for (phase, s) in [("inter", &r.inter), ("intra", &r.intra)] {
            self.line(key, &format!("{phase}.launches"), s.launches);
            self.line(key, &format!("{phase}.cells"), s.cells);
            self.line(key, &format!("{phase}.transactions"), s.global_transactions);
            self.line(key, &format!("{phase}.seconds"), format!("{:?}", s.seconds));
        }
        self.line(key, "transfer_seconds", format!("{:?}", r.transfer_seconds));
    }

    /// Every number a launch counted: all of `LaunchStats.memory`, the
    /// shared-memory counters, the block-cost totals and the cycles.
    fn launch(&mut self, key: &str, s: &gpu_sim::LaunchStats) {
        let (m, t) = (&s.memory, &s.totals);
        let counts = [
            ("load_instructions", m.load_instructions),
            ("store_instructions", m.store_instructions),
            ("load_transactions", m.load_transactions),
            ("store_transactions", m.store_transactions),
            ("dram_read_bytes", m.dram_read_bytes),
            ("dram_write_bytes", m.dram_write_bytes),
            ("tex_instructions", m.tex_instructions),
            ("tex_transactions", m.tex_transactions),
            ("tex_dram_bytes", m.tex_dram_bytes),
            ("tex_l2.hits", m.tex_l2_stats.hits),
            ("tex_l2.misses", m.tex_l2_stats.misses),
            ("l1.hits", m.l1.hits),
            ("l1.misses", m.l1.misses),
            ("l2.hits", m.l2.hits),
            ("l2.misses", m.l2.misses),
            ("tex_cache.hits", m.tex_cache.hits),
            ("tex_cache.misses", m.tex_cache.misses),
            ("shared.instructions", s.shared.instructions),
            ("shared.bank_cycles", s.shared.bank_cycles),
            ("shared.conflicted_accesses", s.shared.conflicted_accesses),
            ("block.warp_instructions", t.warp_instructions),
            ("block.near_hits", t.near_hits),
            ("block.l2_hits", t.l2_hits),
            ("block.dram_bytes", t.dram_bytes),
            ("block.shared_cycles", t.shared_cycles),
            ("block.syncs", t.syncs),
            ("block.latency_cycles", t.latency_cycles),
            ("block.hidden_latency_cycles", t.hidden_latency_cycles),
            ("block.cells", t.cells),
        ];
        for (counter, value) in counts {
            self.line(key, counter, value);
        }
        let times = [
            ("cycles", s.cycles),
            ("seconds", s.seconds),
            ("max_block_cycles", s.max_block_cycles),
            ("min_block_cycles", s.min_block_cycles),
        ];
        for (counter, value) in times {
            self.line(key, counter, format!("{value:?}"));
        }
    }

    /// Compare with `tests/snapshots/<name>`. A mismatch names every
    /// `<launch or path> <counter>` whose value differs (or that only one
    /// side has) and writes this snapshot to the test target's scratch
    /// directory, ready to be committed when a count is meant to move.
    fn check(&self, name: &str) {
        let pinned_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(name);
        let pinned = std::fs::read_to_string(&pinned_path).unwrap_or_default();
        if pinned == self.0 {
            return;
        }
        let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&fresh_path, &self.0).unwrap();
        // Key: the first two fields; value: the rest (a scores line).
        let values = |text: &str| -> BTreeMap<String, String> {
            let field = |l: &str| l.match_indices(' ').nth(1).map_or(l.len(), |(at, _)| at);
            (text.lines().map(|l| l.split_at(field(l))))
                .map(|(key, value)| (key.into(), value.trim().into()))
                .collect()
        };
        let (old, new) = (values(&pinned), values(&self.0));
        let show = |v: Option<&String>| v.map_or("-", String::as_str).to_string();
        let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
        let diffs: Vec<String> = (keys.into_iter())
            .filter(|k| old.get(*k) != new.get(*k))
            .map(|k| format!("  {k}: {} -> {}", show(old.get(k)), show(new.get(k))))
            .collect();
        panic!(
            "{} of {} counters differ from {} (fresh snapshot: {}):\n{}",
            diffs.len(),
            new.len(),
            pinned_path.display(),
            fresh_path.display(),
            diffs[..diffs.len().min(40)].join("\n")
        );
    }
}

/// Every simulated number the three driver paths (plain, staged,
/// resilient — fault-free and under OOM) produce over the §VII flag matrix
/// (the first 32 combinations: both §VI boundary flags off): scores,
/// per-phase launches / cells / global transactions and the simulated
/// kernel and transfer seconds, so any drift in allocation order, copy
/// order, launch shape or float accumulation order on any path names the
/// path and the number that moved.
#[test]
fn simulated_counts_are_pinned() {
    let db = mixed_db();
    let queries = [make_query(50, 19), make_query(37, 23)];
    let policy = RecoveryPolicy::default();
    let mut snapshot = Snapshot::default();
    for dc in &DeviceKernelConfig::all_combinations()[..32] {
        for (name, intra) in [
            ("orig", IntraKernelChoice::Original),
            (
                "improved",
                IntraKernelChoice::Improved(VariantConfig::improved()),
            ),
        ] {
            let key = format!("{}/{name}", dc.label());
            let cfg = CudaSwConfig {
                intra,
                ..config(*dc)
            };
            let driver = || CudaSwDriver::new(DeviceSpec::tesla_c2050(), cfg.clone());
            // Each path runs in its own capture scope: phase seconds are
            // registry deltas, exact only against a fresh registry.
            let (plain, _) = obs::capture(|| driver().search(&queries[0], &db).unwrap());
            snapshot.result(&format!("{key}/plain"), &plain);
            let (staged_results, _) = obs::capture(|| {
                let mut d = driver();
                let staged = d.stage_database(&db).unwrap();
                queries
                    .each_ref()
                    .map(|q| d.search_staged(q, &staged).unwrap())
            });
            for (i, r) in staged_results.iter().enumerate() {
                snapshot.result(&format!("{key}/staged.{i}"), r);
            }
            for (path, plan) in [
                ("resilient", FaultPlan::none()),
                ("resilient.oom", FaultPlan::none().with_oom(3)),
            ] {
                let (rr, _) = obs::capture(|| {
                    let mut d = driver();
                    d.dev.inject_faults(plan.clone());
                    d.search_resilient(&queries[0], &db, &policy).unwrap()
                });
                let key = format!("{key}/{path}");
                snapshot.result(&key, &rr.result);
                snapshot.line(&key, "rechunks", rr.recovery.rechunks);
            }
        }
    }
    snapshot.check("simulated_counts.txt");
}

/// Every counter gpu-sim keeps, kernel by kernel. Where
/// [`simulated_counts_are_pinned`] covers the driver paths on one device
/// with single-strip queries, this one covers what a memory model change
/// can move: three devices (16 and 32 banks; texture L2 vs L1/L2 vs no data
/// cache), every intra-task variant over a five-strip query, and the
/// inter-task kernel in the global-boundary, multi-panel and single-panel
/// orders — with all four caches' hit/miss counts, DRAM bytes, bank cycles
/// and the cycles.
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
    let mut snapshot = Snapshot::default();

    for (device, spec) in [
        ("c1060", DeviceSpec::tesla_c1060()),
        ("c2050", DeviceSpec::tesla_c2050()),
        ("c2050-caches-off", DeviceSpec::tesla_c2050_caches_off()),
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
        let key = format!("{device}/orig");
        snapshot.launch(&key, &stats);
        let scores = pairs
            .iter()
            .map(|p| dev.copy_from_device(p.score, 1).unwrap().0[0]);
        snapshot.scores(&key, scores);

        // Improved intra-task kernel: §III stages, §VI extensions, 8-row tiles.
        let flag = |set: fn(&mut DeviceKernelConfig)| {
            let mut dc = DeviceKernelConfig::default();
            set(&mut dc);
            dc
        };
        let (improved, off) = (VariantConfig::improved(), DeviceKernelConfig::default());
        let variants = [
            ("improved", 4, improved, off),
            ("naive", 4, VariantConfig::naive(), off),
            ("deep-swap", 4, VariantConfig::deep_swap(), off),
            (
                "coalesce",
                4,
                improved,
                flag(|dc| dc.coalesced_boundary = true),
            ),
            (
                "shared-boundary",
                4,
                improved,
                flag(|dc| dc.shared_boundary = true),
            ),
            ("fusion", 4, improved, flag(|dc| dc.pipeline_fusion = true)),
            ("improved-t8", 8, improved, off),
        ];
        for (name, tile_height, variant, flags) in variants {
            let shape = ImprovedParams {
                threads_per_block: 32,
                tile_height,
            };
            let (scores, stats) = run_intra_variant(
                &spec,
                long.sequences(),
                &query,
                &params,
                shape,
                variant,
                flags,
            )
            .unwrap();
            let key = format!("{device}/{name}");
            snapshot.launch(&key, &stats);
            snapshot.scores(&key, scores);
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
            let key = format!("{device}/inter-panel{panel_cols}");
            snapshot.launch(&key, &stats);
            snapshot.scores(
                &key,
                dev.copy_from_device(gimg.scores, gimg.width).unwrap().0,
            );
        }
    }
    snapshot.check("simulator_counters.txt");
}
