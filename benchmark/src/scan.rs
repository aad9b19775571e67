//! `scan_swissprot` and `scan_homolog`: closed-loop batch search of one
//! Swissprot-shaped database on the host SIMD stack.
//!
//! Both call the same code — `QueryEngine::new` then `search_sequences` —
//! on databases of the same size and length distribution. They differ
//! only in alignment strength: random subjects stay in byte mode and
//! take lazy-F's early exit, planted homologs overflow into word-mode
//! reruns and drive the correction loop.

use crate::metrics::{Measured, Op, Round};
use crate::stats::score_crc;
use crate::trace::Tracer;
use crate::{nproc, RunArgs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use sw_align::{sw_score, SwParams};
use sw_db::catalog::PaperDb;
use sw_db::synth::make_query;
use sw_db::{Database, Sequence};
use sw_simd::{search_sequences, AdaptiveStats, Precision, QueryEngine};

/// One scan workload.
pub struct ScanSpec {
    pub name: &'static str,
    /// Query lengths, from the paper's evaluation set.
    pub query_lens: &'static [usize],
    /// Overwrite a share of the subjects with homologs of the queries.
    pub planted: bool,
}

pub const SWISSPROT: ScanSpec = ScanSpec {
    name: "scan_swissprot",
    query_lens: &[144, 375, 729, 1500],
    planted: false,
};

pub const HOMOLOG: ScanSpec = ScanSpec {
    name: "scan_homolog",
    query_lens: &[375, 729],
    planted: true,
};

/// Database sequences (1.4×10⁷ residues). A multi-threaded pool search
/// returns on a 50 ms watchdog tick, so searches must run for hundreds
/// of milliseconds before the kernel, not the tick, sets their time; at
/// this size one pass of the four paper queries is 4×10¹⁰ cells.
pub const DB_SEQS: usize = 40_000;
/// Share of the eligible subjects that receive planted homologs
/// (about 18% of all subjects).
pub const PLANT_FRAC: f64 = 0.33;
/// Shorter subjects are never planted: a region of under 120 residues
/// may not overflow byte mode.
pub const PLANT_MIN_LEN: usize = 240;
/// Per-residue identity of a planted window with its query.
pub const PLANT_IDENTITY: f64 = 0.70;
/// Seeded (query, subject) pairs checked against the scalar oracle.
pub const ORACLE_PAIRS: usize = 200;
/// Subjects in the slice the single-layer probes run on.
pub const PROBE_SUBJECTS: usize = 10_000;
/// Length of the query the single-layer probes use.
const PROBE_QUERY_LEN: usize = 375;
/// Length of the warm-up query: short, but it touches every subject.
const WARMUP_QUERY_LEN: usize = 64;

struct Fixture {
    db: Database,
    queries: Vec<Vec<u8>>,
    planted: usize,
    synth_s: f64,
}

impl Fixture {
    fn build(spec: &ScanSpec, seed: u64, threads: usize) -> Self {
        let t0 = Instant::now();
        let mut db = PaperDb::Swissprot.generate(DB_SEQS, seed);
        let queries: Vec<Vec<u8>> = spec
            .query_lens
            .iter()
            .map(|&len| make_query(len, seed ^ len as u64))
            .collect();
        let mut planted = 0;
        if spec.planted {
            (db, planted) = plant_homologs(&db, &queries, seed);
        }
        let synth_s = t0.elapsed().as_secs_f64();
        // Warm-up: the allocator and the caches see one full scan.
        let warmup = make_query(WARMUP_QUERY_LEN, seed);
        let engine = QueryEngine::new(SwParams::cudasw_default(), &warmup);
        black_box(search_sequences(
            &engine,
            db.sequences(),
            threads,
            Precision::Adaptive,
        ));
        Self {
            db,
            queries,
            planted,
            synth_s,
        }
    }
}

/// Overwrite a seeded share of the subjects (length unchanged) with
/// mutated copies of query windows: the subject is cut into one region
/// per query and each region receives a window of its query, so a
/// planted subject aligns strongly with every query of the workload.
fn plant_homologs(db: &Database, queries: &[Vec<u8>], seed: u64) -> (Database, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x484F_4D4F); // "HOMO"
    let mut seqs: Vec<Sequence> = db.sequences().to_vec();
    let mut planted = 0;
    for s in &mut seqs {
        if s.len() < PLANT_MIN_LEN || rng.gen_range(0.0..1.0) >= PLANT_FRAC {
            continue;
        }
        let region = s.len() / queries.len();
        for (r, q) in queries.iter().enumerate() {
            let width = region.min(q.len());
            let q_at = rng.gen_range(0..=q.len() - width);
            let s_at = r * region + rng.gen_range(0..=region - width);
            for i in 0..width {
                s.residues[s_at + i] = if rng.gen_range(0.0..1.0) < PLANT_IDENTITY {
                    q[q_at + i]
                } else {
                    rng.gen_range(0..20u8) // the standard amino acids
                };
            }
        }
        planted += 1;
    }
    (Database::new(db.name.clone(), db.alphabet, seqs), planted)
}

fn gcups(cells: u64, seconds: f64) -> f64 {
    cells as f64 / seconds / 1.0e9
}

pub fn run(spec: &ScanSpec, args: &RunArgs) -> Measured {
    let mut m = Measured::default();
    let threads = nproc();
    let params = SwParams::cudasw_default();
    let fx = m.setup(|| Fixture::build(spec, args.seed, threads), drop);
    let seqs = fx.db.sequences();
    let residues = fx.db.total_residues();

    // Timed phase: whole passes over the query set until the time is up,
    // so every run times the same mix of queries.
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut stats = AdaptiveStats::default();
    let (mut steals, mut fault_events) = (0u64, 0u64);
    let mut first_scores: Vec<Vec<i32>> = Vec::new();
    let mut crcs: Vec<u32> = Vec::new();
    let timed = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || timed.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pass.is_multiple_of(2);
        let mut round = Round::default();
        let pass_t0 = Instant::now();
        for (qi, query) in fx.queries.iter().enumerate() {
            let t0 = Instant::now();
            let engine = QueryEngine::new(params.clone(), query);
            let t1 = traced.then(Instant::now);
            let r = search_sequences(&engine, seqs, threads, Precision::Adaptive);
            let t2 = Instant::now();
            if let Some(t1) = t1 {
                let request = pass * fx.queries.len() as u64 + qi as u64;
                let root = tracer.record("scan.query", t0, t2, None, request);
                tracer.record("simd.engine.build", t0, t1, Some(root), request);
                tracer.record("simd.pool.search", t1, t2, Some(root), request);
            }
            round.ops.push(Op {
                kind: qi as u32,
                traced,
                ms: (t2 - t0).as_secs_f64() * 1.0e3,
                cells: residues * query.len() as u64,
                ok: true,
            });
            stats.merge(&r.stats);
            steals += r.steals;
            fault_events += u64::from(!r.faults.is_clean());
            crcs.push(score_crc(&r.scores));
            if pass == 0 {
                first_scores.push(r.scores);
            }
        }
        round.wall_s = pass_t0.elapsed().as_secs_f64();
        m.rounds.push(round);
        pass += 1;
    }

    // Correctness, outside the timed span. A query is wrong when its
    // scores differ from the 1-thread pass (checked on the first query)
    // or from the scalar oracle on a seeded sample of pairs; an operation
    // is wrong when its query is, or when a later pass disagrees with the
    // first.
    let mut wrong = vec![false; fx.queries.len()];
    let engine = QueryEngine::new(params.clone(), &fx.queries[0]);
    let one = search_sequences(&engine, seqs, 1, Precision::Adaptive);
    wrong[0] |= one.scores != first_scores[0];
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4F52_4143); // "ORAC"
    let (mut oracle_cells, oracle_t0) = (0u64, Instant::now());
    for _ in 0..ORACLE_PAIRS {
        let q = rng.gen_range(0..fx.queries.len());
        let s = rng.gen_range(0..seqs.len());
        let expect = sw_score(&params, &fx.queries[q], &seqs[s].residues);
        wrong[q] |= first_scores[q][s] != expect;
        oracle_cells += (fx.queries[q].len() * seqs[s].len()) as u64;
    }
    let oracle_s = oracle_t0.elapsed().as_secs_f64();
    // The first pass's checksums lead `crcs`, one per query.
    for (op, crc) in m.ops_mut().zip(&crcs) {
        let q = op.kind as usize;
        op.ok = !wrong[q] && *crc == crcs[q];
    }
    m.gate(fault_events == 0, || {
        format!("{fault_events} searches met a pool fault with no faults injected")
    });

    if !args.trace {
        return m;
    }
    let total_cells: u64 = m.ops().map(|o| o.cells).sum();
    let aligned = (stats.byte_mode + stats.word_fallbacks).max(1);
    m.set("db.synth_s", fx.synth_s);
    m.set("db.residues", residues as f64);
    m.set("db.planted_frac", fx.planted as f64 / seqs.len() as f64);
    m.set("align.oracle_mcups", oracle_cells as f64 / oracle_s / 1.0e6);
    m.set("simd.engine.cells", total_cells as f64);
    m.set(
        "simd.engine.word_rerun_frac",
        stats.word_fallbacks as f64 / aligned as f64,
    );
    m.set(
        "simd.engine.lazy_f_per_kcell",
        (stats.lazy_f_byte + stats.lazy_f_word) as f64 / (total_cells as f64 / 1.0e3),
    );
    m.set("simd.pool.steals", steals as f64);
    m.set("simd.pool.fault_events", fault_events as f64);
    let builds: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "simd.engine.build")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1.0e3)
        .collect();
    m.set("simd.engine.profile_build_us", crate::stats::mean(&builds));

    // Single-layer probes on a length-representative slice: the bare
    // engine on the caller's thread, then the pool at 1 and at n threads.
    let step = (seqs.len() / PROBE_SUBJECTS).max(1);
    let slice: Vec<Sequence> = seqs.iter().step_by(step).cloned().collect();
    let probe_q = spec
        .query_lens
        .iter()
        .position(|&l| l == PROBE_QUERY_LEN)
        .unwrap_or(0);
    let engine = QueryEngine::new(params, &fx.queries[probe_q]);
    let cells =
        slice.iter().map(|s| s.len() as u64).sum::<u64>() * fx.queries[probe_q].len() as u64;
    let t0 = Instant::now();
    let mut probe_stats = AdaptiveStats::default();
    for s in &slice {
        black_box(engine.score_with(&s.residues, Precision::Adaptive, &mut probe_stats));
    }
    let engine_1t = gcups(cells, t0.elapsed().as_secs_f64());
    let pooled = |threads: usize| {
        let t0 = Instant::now();
        black_box(search_sequences(
            &engine,
            &slice,
            threads,
            Precision::Adaptive,
        ));
        gcups(cells, t0.elapsed().as_secs_f64())
    };
    let pool_1t = pooled(1);
    let pool_nt = pooled(threads);
    m.set("simd.engine.gcups_1t", engine_1t);
    m.set("simd.pool.gcups_1t", pool_1t);
    m.set("simd.pool.gcups_nt", pool_nt);
    m.set("simd.pool.tax_1t", pool_1t / engine_1t);
    m.set(
        "simd.pool.scaling_eff",
        pool_nt / (threads as f64 * pool_1t),
    );
    m.spans = tracer.spans;
    m
}
