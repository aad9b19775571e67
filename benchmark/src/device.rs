//! `device_fermi`: the paper's own claim on the simulated clock.
//!
//! `CudaSwDriver::search` runs on a simulated Fermi, alternating the
//! improved and the original intra-task kernel. Everything under `core.`
//! is counted by the simulator and repeats exactly for a seed; the
//! end-to-end numbers of this workload are the simulator's *host* speed
//! (cells it interprets per wall second), the only wall-clock quantity a
//! simulator has. The host SIMD stack only checks scores, untimed.

use crate::metrics::{Measured, Op, Round};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::RunArgs;
use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, SearchResult};
use gpu_sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use sw_align::{Alphabet, SwParams};
use sw_db::catalog::{PaperDb, DEFAULT_THRESHOLD};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::{Database, Sequence};
use sw_simd::QueryEngine;

/// Inter-task groups the database body fills (of `group_size()` each).
pub const BODY_GROUPS: usize = 3;
/// Subjects above the default 3072 inter/intra threshold.
pub const TAIL_SUBJECTS: usize = 7;
/// Their lengths: a seeded one in each seventh of this range, so every
/// seed simulates about the same number of intra-task cells.
pub const TAIL_LEN: (usize, usize) = (3_200, 6_000);
pub const QUERY_LEN: usize = 375;

/// A Fermi trimmed as `repro device-opt` trims it (4 SMs, one block per
/// SM), so a few hundred subjects fill whole inter-task groups.
fn spec() -> DeviceSpec {
    let mut spec = DeviceSpec::tesla_c2050();
    spec.sm_count = 4;
    spec.max_blocks_per_sm = 1;
    spec
}

/// The paper's defaults at the trimmed device's block shape. Index 0 is
/// the improved intra-task kernel, 1 the original.
fn configs() -> [CudaSwConfig; 2] {
    [CudaSwConfig::improved(), CudaSwConfig::original()].map(|c| CudaSwConfig {
        inter_threads_per_block: 32,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        ..c
    })
}

struct Fixture {
    db: Database,
    query: Vec<u8>,
    drivers: [CudaSwDriver; 2],
    synth_s: f64,
}

impl Fixture {
    fn build(seed: u64) -> Self {
        let t0 = Instant::now();
        let drivers = configs().map(|c| CudaSwDriver::new(spec(), c));
        let body_len = BODY_GROUPS * drivers[0].group_size();
        // Swissprot-shaped body below the threshold; draw spares so the
        // few subjects above it can be dropped.
        let mut seqs: Vec<Sequence> = PaperDb::Swissprot
            .generate(body_len + body_len / 8, seed)
            .sequences()
            .iter()
            .filter(|s| s.len() < DEFAULT_THRESHOLD)
            .take(body_len)
            .cloned()
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5441_494C); // "TAIL"
        let step = (TAIL_LEN.1 - TAIL_LEN.0) / TAIL_SUBJECTS;
        let tail: Vec<usize> = (0..TAIL_SUBJECTS)
            .map(|i| TAIL_LEN.0 + i * step + rng.gen_range(0..step))
            .collect();
        seqs.extend_from_slice(database_with_lengths("tail", &tail, seed).sequences());
        Self {
            db: Database::new("device_fermi", Alphabet::Protein, seqs),
            query: make_query(QUERY_LEN, seed),
            drivers,
            synth_s: t0.elapsed().as_secs_f64(),
        }
    }
}

pub fn run(args: &RunArgs) -> Measured {
    let mut m = Measured::default();
    let mut fx = m.setup(|| Fixture::build(args.seed), drop);
    let cells = fx.db.total_cells(QUERY_LEN);

    // Timed phase: improved/original pairs until the time is up.
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut results: Vec<Option<SearchResult>> = Vec::new();
    let timed = Instant::now();
    let mut pair = 0u64;
    while pair == 0 || timed.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pair.is_multiple_of(2);
        let mut round = Round::default();
        let pair_t0 = Instant::now();
        for (kind, driver) in fx.drivers.iter_mut().enumerate() {
            let t0 = Instant::now();
            // A recorder scope per search: the driver reads its simulated
            // seconds back from the thread's sw-obs registry, and sums
            // left there by earlier searches would shift their rounding.
            let (result, _) = obs::capture(|| driver.search(&fx.query, &fx.db));
            let t1 = Instant::now();
            if traced {
                tracer.record("device.search", t0, t1, None, pair * 2 + kind as u64);
            }
            round.ops.push(Op {
                kind: kind as u32,
                traced,
                ms: (t1 - t0).as_secs_f64() * 1.0e3,
                cells,
                ok: result.is_ok(),
            });
            results.push(result.ok());
        }
        round.wall_s = pair_t0.elapsed().as_secs_f64();
        m.rounds.push(round);
        pair += 1;
    }

    // Correctness, outside the timed span: every device score of every
    // search equals the host engine's, and a configuration's simulated
    // result repeats exactly from pair to pair.
    let engine = QueryEngine::new(SwParams::cudasw_default(), &fx.query);
    let expect: Vec<i32> = fx
        .db
        .sequences()
        .iter()
        .map(|s| engine.score(&s.residues))
        .collect();
    let mut firsts: [Option<&SearchResult>; 2] = [None, None];
    for (op, result) in m.ops_mut().zip(&results) {
        op.ok = result
            .as_ref()
            .is_some_and(|r| r.scores == expect && r == *firsts[op.kind as usize].get_or_insert(r));
    }

    let ([Some(improved), Some(original)], true) = (firsts, args.trace) else {
        return m;
    };
    let host_s = |kind: u32| {
        let ms: Vec<f64> = m.ops().filter(|o| o.kind == kind).map(|o| o.ms).collect();
        mean(&ms) / 1.0e3
    };
    let (host_improved, host_original) = (host_s(0), host_s(1));
    let launches = (improved.inter.launches + improved.intra.launches) as f64;
    let values = [
        ("db.synth_s", fx.synth_s),
        ("db.residues", fx.db.total_residues() as f64),
        ("core.sim_gcups", improved.gcups()),
        (
            "core.sim_intra_speedup",
            original.intra.seconds / improved.intra.seconds,
        ),
        ("core.inter_gcups_sim", improved.inter.gcups()),
        ("core.intra_gcups_sim_improved", improved.intra.gcups()),
        ("core.intra_gcups_sim_original", original.intra.gcups()),
        (
            "core.intra_time_frac_improved",
            improved.fraction_time_intra(),
        ),
        (
            "core.intra_time_frac_original",
            original.fraction_time_intra(),
        ),
        (
            "core.inter_global_tx",
            improved.inter.global_transactions as f64,
        ),
        (
            "core.intra_global_tx_improved",
            improved.intra.global_transactions as f64,
        ),
        (
            "core.intra_global_tx_original",
            original.intra.global_transactions as f64,
        ),
        (
            "core.intra_tx_ratio",
            original.intra.global_transactions as f64 / improved.intra.global_transactions as f64,
        ),
        ("core.h2d_s_sim", improved.transfer_seconds),
        ("core.launches", launches),
        ("core.fraction_long", improved.fraction_long),
        ("gpu-sim.host_s_improved", host_improved),
        ("gpu-sim.host_s_original", host_original),
        (
            "gpu-sim.host_ns_per_cell",
            (host_improved + host_original) * 1.0e9 / (2 * cells) as f64,
        ),
        (
            "gpu-sim.host_us_per_launch",
            host_improved * 1.0e6 / launches,
        ),
        (
            "gpu-sim.host_mcups",
            (2 * cells) as f64 / (host_improved + host_original) / 1.0e6,
        ),
    ];
    for (name, value) in values {
        m.set(name, value);
    }
    m.spans = tracer.spans;
    m
}
