//! One oracle, one conformance harness: every scoring path of the
//! workspace answers scalar `sw_align::sw_score`, exactly.
//!
//! A [`Scorer`] is one path: the host engine on each backend × precision ×
//! Lazy-F mode, and its grouped byte pass on each backend; the
//! work-stealing pool (a search on each backend, a search and a wave at one
//! and two threads, and a forced chunk panic that quarantines the chunk);
//! each device kernel through the driver (inter-task, the original
//! intra-task kernel, the improved one at six tile shapes and at four
//! thresholds that split the seeded databases between the kernels, and all
//! 128 `DeviceKernelConfig` combinations under both intra-task kernels);
//! both intra-task kernels on the C1060, the improved one through the
//! direct variant runner; the staged, resilient (clean and under four
//! fault plans), checkpoint-resumed and multi-GPU drivers; the resilient
//! driver under the device suite's four fault plans, all 128 flag sets on
//! its mixed database and six pairwise-covering ones on the matrix's rows;
//! and the serving
//! protocol under both drivers — the simulated `run_trace` with a live and
//! with a dead device lane, and the gateway's host lane. A [`Row`] of the
//! corpus is a query, a database and the parameters to score them under, in
//! one of three categories:
//!
//! * **exhaustive** — every pair of sequences of length 1–4 over A, C and W,
//!   on the device paths and the grouped byte pass (the host engine's
//!   exhaustive run is `crates/simd/tests/bounded_exhaustive.rs`);
//! * **adversarial** — true scores either side of the byte hand-off
//!   (239/240/241) and of `i16::MAX` (32,766/32,767/32,768), one of
//!   40,000, lengths 0 and 1, a query shorter than one vector and one longer
//!   than one strip, subjects at the 3,072 threshold, the shared-only panel
//!   and the shared-boundary fit, a gap opened on the improved kernel's
//!   strip boundary, the codes B, Z, X and `*`, `open == extend`, an
//!   all-positive matrix, an open penalty past `i16::MAX`, both penalties
//!   at 2^30 (the largest `GapPenalties::new` admits), no positive overlap,
//!   gap walls and hand-picked pairs;
//! * **seeded** — random queries, databases and gap models, the mixed
//!   database of the device suite, subjects at the device kernels'
//!   strip and tile boundaries under four query lengths and three seeds,
//!   and 64 generated rows, each a matrix class by a gap model.
//!
//! [`conform`] runs every scorer on every row it takes and fails naming the
//! scorer, the row and both scores. It also fails when no scorer ran a
//! row of the category, so an empty corpus cannot pass.

use cudasw_core::variants::run_intra_variant;
use cudasw_core::{
    multi_gpu_search_resilient, CudaSwConfig, CudaSwDriver, DeviceKernelConfig, ImprovedParams,
    InterTaskKernel, IntraKernelChoice, RecoveryPolicy, VariantConfig,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite, GpuError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use sw_align::{encode_protein, sw_score, Alphabet, GapPenalties, ScoringMatrix, SwParams};
use sw_db::catalog::PaperDb;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::{Database, Sequence};
use sw_gateway::{Gateway, GatewayConfig};
use sw_serve::{Outcome, SearchRequest, SearchService, ServeConfig};
use sw_simd::{
    search_sequences, search_wave_protected_with_chunks, AdaptiveStats, BackendKind, HostFaultKind,
    HostFaultPlan, KernelMode, PoolConfig, Precision, QueryEngine,
};

/// The part of the corpus a row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Category {
    Exhaustive,
    Adversarial,
    Seeded,
}

/// One corpus row: a query against a database under `params`.
struct Row {
    category: Category,
    name: String,
    params: SwParams,
    query: Vec<u8>,
    subjects: Database,
    /// Whether the 128-combination matrix takes the row (subject to
    /// [`MATRIX_CELLS`]).
    in_matrix: bool,
}

impl Row {
    fn new(
        category: Category,
        name: impl Into<String>,
        params: &SwParams,
        query: Vec<u8>,
        subjects: Vec<Vec<u8>>,
    ) -> Self {
        let seqs = (subjects.into_iter().enumerate())
            .map(|(i, s)| Sequence::new(format!("s{i}"), s))
            .collect();
        Self {
            category,
            name: name.into(),
            params: params.clone(),
            query,
            subjects: Database::new("row", Alphabet::Protein, seqs),
            in_matrix: true,
        }
    }

    /// What `sw_score` says, in database order.
    fn oracle(&self) -> Vec<i32> {
        (self.subjects.sequences().iter())
            .map(|s| sw_score(&self.params, &self.query, &s.residues))
            .collect()
    }
}

/// One scoring path of the workspace.
trait Scorer {
    /// The path, as a failure names it.
    fn name(&self) -> String;
    /// Whether the path takes `row`.
    fn takes(&self, row: &Row) -> bool;
    /// The score of every subject, in database order.
    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32>;
}

/// Run every scorer on each row of `category` it takes against
/// `sw_score`, and fail if no scorer ran any.
fn conform(category: Category, rows: &[Row]) {
    assert!(!rows.is_empty() && rows.iter().all(|r| r.category == category));
    let oracle: Vec<Vec<i32>> = rows.iter().map(Row::oracle).collect();
    let mut cells = 0;
    for scorer in scorers() {
        for (row, want) in rows
            .iter()
            .zip(&oracle)
            .filter(|(row, _)| scorer.takes(row))
        {
            let (got, _) = obs::capture(|| scorer.scores(&row.params, &row.query, &row.subjects));
            check(&scorer.name(), row, &got, want);
            cells += 1;
        }
    }
    assert!(cells > 0, "no scorer ran a {category:?} row");
}

/// Fail naming the scorer, the row and both scores on the first subject
/// where `got` is not `want`.
fn check(scorer: &str, row: &Row, got: &[i32], want: &[i32]) {
    let n = want.len();
    assert_eq!(
        got.len(),
        n,
        "{scorer} on {}: one score per subject",
        row.name
    );
    if let Some(i) = (0..n).find(|&i| got[i] != want[i]) {
        panic!(
            "{scorer} on {}: subject {i} ({} residues) scored {}, sw_score says {}",
            row.name,
            row.subjects.sequences()[i].len(),
            got[i],
            want[i]
        );
    }
}

/// A device error is a conformance failure of the path it came out of.
fn failed<T>(path: &str, e: GpuError) -> T {
    panic!("{path}: {e}")
}

/// The host engine on one backend × precision × kernel mode.
struct Engine {
    kind: BackendKind,
    precision: Precision,
    mode: KernelMode,
}

impl Scorer for Engine {
    fn name(&self) -> String {
        format!(
            "engine {} / {:?} / {}",
            self.kind, self.precision, self.mode
        )
    }

    fn takes(&self, row: &Row) -> bool {
        row.category != Category::Exhaustive
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        let engine =
            QueryEngine::with_backend_and_mode(params.clone(), query, self.kind, self.mode);
        let mut stats = AdaptiveStats::default();
        (subjects.sequences().iter())
            .map(|s| engine.score_with(&s.residues, self.precision, &mut stats))
            .collect()
    }
}

/// The grouped byte pass on one backend, called directly
/// (`QueryEngine::score_group`), so backends whose pool keeps the striped
/// pass run it too.
struct Grouped(BackendKind);

impl Scorer for Grouped {
    fn name(&self) -> String {
        format!("grouped byte pass on {}", self.0)
    }

    fn takes(&self, _: &Row) -> bool {
        true
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        let engine = QueryEngine::with_backend(params.clone(), query, self.0);
        let group: Vec<&[u8]> = (subjects.sequences().iter())
            .map(|s| &s.residues[..])
            .collect();
        // No cancel token is given, so the group cannot be cancelled.
        let scored = engine.score_group(&group, None).unwrap_or_default();
        scored.into_iter().map(|(score, _)| score).collect()
    }
}

/// The work-stealing pool: `search_sequences` inline at one thread, or a
/// job over one-subject chunks at 2 and 3 workers (3 oversubscribes a
/// 2-core host on purpose), on each backend at 2, as a wave of the query and
/// its reverse, and with its first chunk stalled past a 2 ms watchdog; or
/// one whole-database chunk whose forced panic quarantines every cell to
/// the scalar recompute. Adaptive pool searches take the grouped byte pass
/// wherever the backend does (`Backend::GROUPS`).
enum Pool {
    Inline,
    Search(usize),
    Backend(BackendKind),
    Wave,
    Stall,
    Quarantine,
}

impl Scorer for Pool {
    fn name(&self) -> String {
        match self {
            Pool::Inline => "pool search on 1 thread".into(),
            Pool::Search(threads) => format!("pool search on {threads} workers"),
            Pool::Backend(kind) => format!("pool search on {kind}, 2 workers"),
            Pool::Wave => "pool wave of the query and its reverse, 2 workers".into(),
            Pool::Stall => "pool search with its first chunk stalled, 2 workers".into(),
            Pool::Quarantine => "pool quarantine".into(),
        }
    }

    fn takes(&self, row: &Row) -> bool {
        let chunked = !matches!(self, Pool::Inline | Pool::Quarantine);
        row.category != Category::Exhaustive && !(chunked && row.subjects.len() < 2)
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        let engine = QueryEngine::new(params.clone(), query);
        let (seqs, n) = (subjects.sequences(), subjects.len());
        let one_each: Vec<_> = (0..n).map(|i| i..i + 1).collect();
        // The watchdog's poll ends a multi-worker job no sooner than its
        // first tick, so only the stall drill runs one.
        let cfg = |threads| PoolConfig::new(threads, Precision::Adaptive).with_watchdog(0, 1);
        let run = |engines: &[QueryEngine], cfg: PoolConfig, chunks: &[_]| {
            assert!(
                cfg.threads < 2 || chunks.len() >= 2,
                "{}: one chunk",
                self.name()
            );
            // No cancel token is set, so no search below returns `Err`.
            search_wave_protected_with_chunks(engines, seqs, &cfg, chunks)
                .map_or_else(|_| Vec::new(), |r| r.scores)
        };
        match self {
            Pool::Inline => search_sequences(&engine, seqs, 1, Precision::Adaptive).scores,
            Pool::Search(threads) => run(&[engine], cfg(*threads), &one_each),
            Pool::Backend(kind) => {
                let engine = QueryEngine::with_backend(params.clone(), query, *kind);
                run(&[engine], cfg(2), &one_each)
            }
            Pool::Wave => {
                let reverse: Vec<u8> = query.iter().rev().copied().collect();
                let engines = [engine, QueryEngine::new(params.clone(), &reverse)];
                let mut scores = run(&engines, cfg(2), &one_each);
                let backwards = seqs.iter().map(|s| sw_score(params, &reverse, &s.residues));
                assert!(
                    scores.split_off(n).into_iter().eq(backwards),
                    "{}: the reverse",
                    self.name()
                );
                scores
            }
            Pool::Stall => {
                let plan = HostFaultPlan::none()
                    .with_fault_at((0, 1), HostFaultKind::Stall)
                    .with_stall_ms(10);
                let cfg = PoolConfig::new(2, Precision::Adaptive)
                    .with_fault_plan(plan)
                    .with_watchdog(2, 1);
                run(&[engine], cfg, &one_each)
            }
            Pool::Quarantine => {
                let plan = HostFaultPlan::none().with_fault_at((0, n), HostFaultKind::Panic);
                let cfg = PoolConfig::new(1, Precision::Adaptive).with_fault_plan(plan);
                run(&[engine], cfg, std::slice::from_ref(&(0..n)))
            }
        }
    }
}

/// Thresholds that route the subjects: past every length (all inter-task),
/// 1 (all intra-task but an empty subject), and 3 (short exhaustive
/// subjects inter-task, the rest intra-task).
const INTER: usize = 1 << 20;
const INTRA: usize = 1;
const SPLIT: usize = 3;

/// Rows of more cells than this are left out of the 128-combination
/// matrix, which takes adversarial and seeded rows the size of the device
/// suite's mixed database.
const MATRIX_CELLS: u64 = 150_000;

/// How a device path drives the simulated device.
enum Drive {
    Search,
    Staged,
    Resilient(&'static str, FaultPlan),
    /// Killed (device lost, no CPU fallback) at its second launch, then
    /// resumed from the checkpoint log.
    Resumed,
    /// Two devices, one shard each.
    MultiGpu,
}

/// A device path: one driver entry point over one configuration.
struct Device {
    label: String,
    cfg: CudaSwConfig,
    drive: Drive,
    /// The rows it takes.
    rows: Rows,
}

/// Which rows of the corpus a device path takes.
#[derive(Clone, Copy)]
enum Rows {
    Every,
    /// The 128-combination matrix's: adversarial and seeded rows marked
    /// `in_matrix`, of at most [`MATRIX_CELLS`] cells.
    Matrix,
    /// The device suite's mixed database alone.
    Mixed,
}

/// The name of the seeded row that holds the device suite's mixed database.
const MIXED: &str = "the device suite's mixed database";

/// Six flag sets, as indices of `DeviceKernelConfig::all_combinations`, in
/// which every pair of the seven flags takes all four value pairs.
const PAIRWISE: [usize; 6] = [0, 63, 71, 89, 106, 52];

/// The four fault plans of the device suite's flag-matrix fault test.
fn fault_plans() -> [(&'static str, FaultPlan); 4] {
    [
        (
            "a transient launch fault at launch 1",
            FaultPlan::none().with_transient(FaultSite::Launch, 1),
        ),
        (
            "a transient upload fault at upload 2",
            FaultPlan::none().with_transient(FaultSite::HostToDevice, 2),
        ),
        ("an OOM at allocation 3", FaultPlan::none().with_oom(3)),
        (
            "device loss at launch 1 (CPU fallback)",
            FaultPlan::none().with_device_loss(FaultSite::Launch, 1),
        ),
    ]
}

impl Scorer for Device {
    fn name(&self) -> String {
        let drive = match &self.drive {
            Drive::Search => "search".to_string(),
            Drive::Staged => "staged search".into(),
            Drive::Resilient(plan, _) => format!("resilient search under {plan}"),
            Drive::Resumed => "checkpointed search resumed after a kill".into(),
            Drive::MultiGpu => "two-GPU search".into(),
        };
        format!("{drive}, {}", self.label)
    }

    fn takes(&self, row: &Row) -> bool {
        match self.rows {
            Rows::Every => true,
            Rows::Matrix => {
                row.category != Category::Exhaustive
                    && row.in_matrix
                    && row.subjects.total_cells(row.query.len()) <= MATRIX_CELLS
            }
            Rows::Mixed => row.name == MIXED,
        }
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        static LOGS: AtomicUsize = AtomicUsize::new(0);
        let (spec, name) = (DeviceSpec::tesla_c2050(), self.name());
        let cfg = CudaSwConfig {
            params: params.clone(),
            ..self.cfg.clone()
        };
        let driver = || CudaSwDriver::new(spec.clone(), cfg.clone());
        match &self.drive {
            Drive::Search => driver().search(query, subjects).map(|r| r.scores),
            Drive::Staged => {
                let mut d = driver();
                let staged = d
                    .stage_database(subjects)
                    .unwrap_or_else(|e| failed(&name, e));
                d.search_staged(query, &staged).map(|r| r.scores)
            }
            Drive::Resilient(_, plan) => {
                let mut d = driver();
                d.dev.inject_faults(plan.clone());
                (d.search_resilient(query, subjects, &RecoveryPolicy::default()))
                    .map(|r| r.result.scores)
            }
            Drive::Resumed => {
                let log = std::env::temp_dir().join(format!(
                    "csw-conformance-{}-{}.ckpt",
                    std::process::id(),
                    LOGS.fetch_add(1, Ordering::Relaxed)
                ));
                let policy = RecoveryPolicy {
                    cpu_fallback: false,
                    checkpoint: Some(log.clone()),
                    ..RecoveryPolicy::default()
                };
                let mut d = driver();
                d.dev
                    .inject_faults(FaultPlan::none().with_device_loss(FaultSite::Launch, 1));
                let result = match d.search_resilient(query, subjects, &policy) {
                    Err(GpuError::DeviceLost) => {
                        driver().search_resilient(query, subjects, &policy)
                    }
                    // A search of one launch ends before the kill point.
                    finished => finished,
                };
                std::fs::remove_file(&log).ok();
                result.map(|r| r.result.scores)
            }
            Drive::MultiGpu => {
                let policy = RecoveryPolicy::default();
                multi_gpu_search_resilient(&spec, &cfg, query, subjects, 2, &[], &policy)
                    .map(|r| r.scores)
            }
        }
        .unwrap_or_else(|e| failed(&name, e))
    }
}

/// The serving protocol: `run_trace` over one device lane, live or dead
/// from its first upload (the host then answers), or the gateway with no
/// device lane, so its host lane answers.
struct Serving {
    gateway: bool,
    dead: bool,
}

impl Scorer for Serving {
    fn name(&self) -> String {
        match (self.gateway, self.dead) {
            (true, _) => "gateway host lane".into(),
            (false, false) => "run_trace with a live device lane".into(),
            (false, true) => "run_trace with a dead device lane".into(),
        }
    }

    fn takes(&self, row: &Row) -> bool {
        row.category != Category::Exhaustive
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        let spec = DeviceSpec::tesla_c1060();
        let search = config(
            SPLIT,
            improved(),
            shape(32, 4),
            DeviceKernelConfig::default(),
        );
        let plans = if self.dead {
            vec![FaultPlan::none().with_device_loss(FaultSite::HostToDevice, 0)]
        } else {
            Vec::new()
        };
        let request = SearchRequest {
            id: 0,
            tenant: "conformance".into(),
            query: query.to_vec(),
            params: params.clone(),
            arrival_seconds: 0.0,
            deadline_seconds: 60.0,
        };
        let outcome = if self.gateway {
            let cfg = GatewayConfig {
                devices: 0,
                search,
                drain_grace_seconds: 60.0,
                ..GatewayConfig::default()
            };
            let gateway = Gateway::start(&spec, &cfg, subjects, &plans);
            let outcome = gateway.submit(request).wait();
            gateway.shutdown();
            outcome
        } else {
            let cfg = ServeConfig {
                devices: 1,
                search,
                ..ServeConfig::default()
            };
            let mut service = SearchService::new(&spec, &cfg, subjects, &plans);
            let report =
                (service.run_trace(&[request])).unwrap_or_else(|e| failed(&self.name(), e));
            (report.responses.into_iter().next()).map_or(Outcome::Aborted, Outcome::Served)
        };
        match outcome {
            Outcome::Served(response) => response.scores,
            other => panic!("{}: not served: {other:?}", self.name()),
        }
    }
}

/// The intra-task kernels on the Tesla C1060: the improved one through the
/// direct variant runner at 32 × 4, the original one through the driver
/// with every subject routed to it.
enum Tesla {
    Variant,
    Original,
}

impl Scorer for Tesla {
    fn name(&self) -> String {
        match self {
            Tesla::Variant => {
                "improved intra-task kernel via run_intra_variant on the C1060".into()
            }
            Tesla::Original => "original intra-task kernel on the C1060".into(),
        }
    }

    fn takes(&self, row: &Row) -> bool {
        row.category != Category::Exhaustive
    }

    fn scores(&self, params: &SwParams, query: &[u8], subjects: &Database) -> Vec<i32> {
        let spec = DeviceSpec::tesla_c1060();
        let scored = match self {
            Tesla::Variant => run_intra_variant(
                &spec,
                subjects.sequences(),
                query,
                params,
                shape(32, 4),
                VariantConfig::improved(),
                DeviceKernelConfig::default(),
            )
            .map(|(scores, _)| scores),
            Tesla::Original => {
                let cfg = CudaSwConfig {
                    params: params.clone(),
                    threshold: INTRA,
                    intra: IntraKernelChoice::Original,
                    ..CudaSwConfig::original()
                };
                CudaSwDriver::new(spec, cfg)
                    .search(query, subjects)
                    .map(|r| r.scores)
            }
        };
        scored.unwrap_or_else(|e| failed(&self.name(), e))
    }
}

fn shape(threads_per_block: u32, tile_height: usize) -> ImprovedParams {
    ImprovedParams {
        threads_per_block,
        tile_height,
    }
}

fn improved() -> IntraKernelChoice {
    IntraKernelChoice::Improved(VariantConfig::improved())
}

/// The driver at test launch shapes: `threshold` routes the subjects,
/// `intra` takes the long ones.
fn config(
    threshold: usize,
    intra: IntraKernelChoice,
    improved: ImprovedParams,
    device: DeviceKernelConfig,
) -> CudaSwConfig {
    CudaSwConfig {
        threshold,
        inter_threads_per_block: 32,
        improved,
        intra,
        device,
        ..CudaSwConfig::improved()
    }
}

/// Every scoring path.
fn scorers() -> Vec<Box<dyn Scorer>> {
    let mut out: Vec<Box<dyn Scorer>> = Vec::new();
    for kind in BackendKind::available() {
        for precision in [Precision::Adaptive, Precision::Word] {
            for mode in KernelMode::ALL {
                out.push(Box::new(Engine {
                    kind,
                    precision,
                    mode,
                }));
            }
        }
    }
    for kind in BackendKind::available() {
        out.push(Box::new(Grouped(kind)));
        out.push(Box::new(Pool::Backend(kind)));
    }
    for pool in [
        Pool::Inline,
        Pool::Search(2),
        Pool::Search(3),
        Pool::Wave,
        Pool::Stall,
    ] {
        out.push(Box::new(pool));
    }
    out.push(Box::new(Pool::Quarantine));
    out.push(Box::new(Tesla::Variant));
    out.push(Box::new(Tesla::Original));

    let off = DeviceKernelConfig::default();
    let device = |label: String, cfg, drive, rows| -> Box<dyn Scorer> {
        Box::new(Device {
            label,
            cfg,
            drive,
            rows,
        })
    };
    let inter = config(INTER, improved(), shape(32, 4), off);
    out.push(device(
        "inter-task kernel".into(),
        inter,
        Drive::Search,
        Rows::Every,
    ));
    let original = config(INTRA, IntraKernelChoice::Original, shape(32, 4), off);
    out.push(device(
        "original intra-task kernel".into(),
        original,
        Drive::Search,
        Rows::Every,
    ));
    for n_th in [32, 64, 96] {
        for th in [4, 8] {
            let cfg = config(INTRA, improved(), shape(n_th, th), off);
            let label = format!("improved intra-task kernel at {n_th} × {th}");
            out.push(device(label, cfg, Drive::Search, Rows::Every));
        }
    }
    for threshold in [17, 64, 128, 199] {
        let cfg = config(threshold, improved(), shape(32, 4), off);
        let label = format!("improved intra-task kernel, threshold {threshold}");
        out.push(device(label, cfg, Drive::Search, Rows::Every));
    }
    for (bits, flags) in (0..).zip(DeviceKernelConfig::all_combinations()) {
        for (name, intra) in [
            ("original", IntraKernelChoice::Original),
            ("improved", improved()),
        ] {
            let label = format!(
                "{name} intra-task kernel, threshold 100, flags {}",
                flags.label()
            );
            let cfg = config(100, intra, shape(32, 4), flags);
            out.push(device(label, cfg, Drive::Search, Rows::Matrix));
        }
        let label = format!(
            "improved intra-task kernel, threshold 100, flags {}",
            flags.label()
        );
        let cfg = config(100, improved(), shape(32, 4), flags);
        // Resilient under the device suite's plans: every flag set on its
        // mixed database, the pairwise-covering ones on every matrix row.
        let rows = if PAIRWISE.contains(&bits) {
            Rows::Matrix
        } else {
            Rows::Mixed
        };
        for (plan, faults) in fault_plans() {
            let drive = Drive::Resilient(plan, faults);
            out.push(device(label.clone(), cfg.clone(), drive, rows));
        }
        out.push(device(label, cfg, Drive::Staged, Rows::Matrix));
    }
    for drive in [
        Drive::Staged,
        Drive::Resilient("no fault", FaultPlan::none()),
        Drive::Resilient(
            "a transient launch fault",
            FaultPlan::none().with_transient(FaultSite::Launch, 0),
        ),
        Drive::Resilient("an OOM", FaultPlan::none().with_oom(1)),
        Drive::Resilient(
            "device loss (CPU fallback)",
            FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        ),
        Drive::Resilient(
            "silent corruption (integrity quarantine)",
            FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0),
        ),
        Drive::Resumed,
        Drive::MultiGpu,
    ] {
        let cfg = config(SPLIT, improved(), shape(32, 4), off);
        out.push(device("threshold 3".into(), cfg, drive, Rows::Every));
    }
    for (gateway, dead) in [(false, false), (false, true), (true, false)] {
        out.push(Box::new(Serving { gateway, dead }));
    }
    out
}

const W: u8 = 17;
const C: u8 = 4;

/// `w` tryptophans, then `c` cysteines.
fn wc(w: usize, c: usize) -> Vec<u8> {
    [vec![W; w], vec![C; c]].concat()
}

/// W/W 127 and C/C 100 — each its row's maximum — with 5 on the rest of
/// the diagonal and −4 elsewhere.
fn wide_matrix() -> ScoringMatrix {
    let n = Alphabet::Protein.size();
    let mut scores = vec![-4i8; n * n];
    for a in 0..n {
        scores[a * n + a] = 5;
    }
    scores[W as usize * (n + 1)] = 127;
    scores[C as usize * (n + 1)] = 100;
    ScoringMatrix::from_raw("W127-C100", Alphabet::Protein, n, scores).unwrap()
}

/// `len` residue codes from `0..24`: the ambiguity codes and `*` included.
fn residues(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..24u8)).collect()
}

/// Every query of length 1–4 over A, C and W against all 120 of them.
fn exhaustive_rows() -> Vec<Row> {
    let letters = encode_protein("ACW").unwrap();
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    let mut layer = vec![Vec::new()];
    for _ in 0..4 {
        layer = (layer.iter())
            .flat_map(|s: &Vec<u8>| letters.iter().map(move |&l| [s.as_slice(), &[l]].concat()))
            .collect();
        seqs.extend(layer.iter().cloned());
    }
    assert_eq!(seqs.len(), 120);
    let params = SwParams::cudasw_default();
    let row = |q: &Vec<u8>| {
        let name = format!("{q:?} against every short subject");
        Row::new(Category::Exhaustive, name, &params, q.clone(), seqs.clone())
    };
    seqs.iter().map(row).collect()
}

/// `count` copies of `seq`, each with one residue deleted (even copies) or
/// one repeated (odd ones), at positions spread along it.
fn indels(seq: &[u8], count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let at = 10 + i * (seq.len() - 20) / count;
            let mut s = seq.to_vec();
            if i % 2 == 0 {
                s.remove(at);
            } else {
                s.insert(at, seq[at]);
            }
            s
        })
        .collect()
}

/// The edges each kernel's exactness argument has to survive.
fn adversarial_rows() -> Vec<Row> {
    let a = Category::Adversarial;
    let blosum = SwParams::cudasw_default();
    let with_matrix = |matrix| SwParams {
        matrix,
        gaps: GapPenalties::cudasw_default(),
    };
    let linear = SwParams {
        gaps: GapPenalties::new(2, 2).unwrap(),
        ..SwParams::cudasw_default()
    };
    // An open penalty past `i16::MAX`, which a word lane cannot hold.
    let wide_gaps = SwParams {
        gaps: GapPenalties::new(65_546, 2).unwrap(),
        ..SwParams::cudasw_default()
    };
    // The largest penalties `GapPenalties::new` admits: one step more and
    // a recurrence would wrap its `i32::MIN / 2` sentinel.
    let widest_gaps = SwParams {
        gaps: GapPenalties::new(1 << 30, 1 << 30).unwrap(),
        ..SwParams::cudasw_default()
    };
    let gapped = make_query(200, 23);
    let protein = |s: &str| encode_protein(s).unwrap();
    let random = |lengths: &[usize], seed: u64| -> Vec<Vec<u8>> {
        (lengths.iter().enumerate())
            .map(|(i, &len)| make_query(len, seed + i as u64))
            .collect()
    };
    let panel = InterTaskKernel::panel_cols(32, DeviceSpec::tesla_c2050().shared_mem_per_sm);
    let long = make_query(400, 21);
    let block = "ACDEFGHIKLMNPQRS";
    let mut rows = vec![
        // W/W 11 and C/C 9 are their BLOSUM62 rows' maxima, so `wc(a, b)`
        // scores 11·a + 9·b against `wc(21, 7)` (overflow_at is 240).
        Row::new(
            a,
            "byte hand-off: 239, 240, 241",
            &blosum,
            wc(21, 7),
            vec![wc(16, 7), wc(21, 1), wc(17, 6)],
        ),
        // Under the wide matrix `wc(a, b)` scores 127·a + 100·b.
        Row::new(
            a,
            "word ceiling: 32,766, 32,767, 32,768",
            &with_matrix(wide_matrix()),
            wc(84, 301),
            vec![wc(58, 254), wc(21, 301), wc(84, 221)],
        ),
        Row::new(
            a,
            "a 400-residue self-alignment under +100/-4: 40,000",
            &with_matrix(ScoringMatrix::match_mismatch(Alphabet::Protein, 100, -4)),
            long.clone(),
            vec![long, make_query(300, 22)],
        ),
        Row::new(
            a,
            "an empty query",
            &blosum,
            Vec::new(),
            random(&[1, 5, 40], 1),
        ),
        Row::new(
            a,
            "one residue against empty and one-residue subjects",
            &blosum,
            vec![W],
            [vec![Vec::new(), vec![W], vec![C]], random(&[2, 33], 2)].concat(),
        ),
        Row::new(
            a,
            "a query shorter than one vector",
            &blosum,
            make_query(3, 5),
            random(&[1, 2, 3, 17, 64, 200], 6),
        ),
        Row::new(
            a,
            "a query longer than one strip",
            &blosum,
            make_query(150, 7),
            random(&[60, 129, 200, 333], 8),
        ),
        Row::new(
            a,
            "subjects at the 3,072 threshold",
            &blosum,
            make_query(24, 9),
            random(&[3071, 3072, 3073], 10),
        ),
        Row::new(
            a,
            "subjects up to the shared-only panel",
            &blosum,
            make_query(40, 11),
            random(&[panel - 1, panel], 12),
        ),
        Row::new(
            a,
            "a subject past the shared-only panel",
            &blosum,
            make_query(40, 13),
            random(&[panel + 1], 14),
        ),
        Row::new(
            a,
            "subjects either side of the shared-boundary fit",
            &blosum,
            make_query(24, 15),
            random(&[5632, 5633], 16),
        ),
        Row::new(
            a,
            "the codes B, Z, X and *",
            &blosum,
            protein("MKBZXV*WBZX*LA"),
            vec![
                protein("BZX*"),
                protein("MKBZXV*WAAL"),
                protein("XXXXXXXX"),
                protein("**"),
            ],
        ),
        // A lazily raised H spawns an F chain the early exit once dropped
        // (the case a proptest of the host engine once shrank to).
        Row::new(
            a,
            "open == extend",
            &linear,
            [
                vec![0; 13],
                vec![4, 9, 0, 0, 13, 0, 7, 1, 17, 0, 5],
                vec![0; 9],
            ]
            .concat(),
            vec![vec![4, 12, 7, 17]],
        ),
        // A 15-row gap in the query across row 40, a lane boundary of
        // every striped layout of 320 rows: with open == extend each H the
        // carried F raises sits exactly at the early exit's threshold, and
        // the repair has to run past its untested prefix.
        Row {
            in_matrix: false,
            ..Row::new(
                a,
                "open == extend: an F chain past the repair's prefix",
                &linear,
                [make_query(36, 24), vec![W; 15], make_query(269, 25)].concat(),
                vec![[make_query(36, 24), make_query(269, 25)].concat()],
            )
        },
        // Query row 128 opens the improved kernel's second strip at 32 × 4.
        // A W there that the subject lacks costs one gap opened across the
        // strip boundary, so the F carried over it decides the score.
        Row::new(
            a,
            "a gap opened on the improved kernel's strip boundary",
            &blosum,
            [make_query(128, 26), vec![W], make_query(20, 27)].concat(),
            vec![[make_query(128, 26), make_query(20, 27)].concat()],
        ),
        // Every entry positive: a padded query row or subject column
        // scored the matrix minimum would raise the maximum.
        Row::new(
            a,
            "an all-positive matrix: padding scores 0",
            &with_matrix(ScoringMatrix::match_mismatch(Alphabet::Protein, 3, 1)),
            make_query(21, 31),
            random(&[1, 7, 30, 64], 32),
        ),
        // 65,546 wrapped to an i16 is 10: each subject is the query with a
        // residue deleted or inserted, so a wrapped penalty buys a gap.
        Row::new(
            a,
            "gaps (65,546, 2): an open past i16::MAX",
            &wide_gaps,
            gapped.clone(),
            [vec![gapped.clone()], indels(&gapped, 20)].concat(),
        ),
        Row::new(
            a,
            "gaps (2^30, 2^30): the sentinel's bound",
            &widest_gaps,
            gapped.clone(),
            [vec![gapped.clone()], indels(&gapped, 20)].concat(),
        ),
        // Glycine against tryptophan scores negative: the answer is 0.
        Row::new(
            a,
            "no positive overlap",
            &blosum,
            protein(&"G".repeat(40)),
            [5, 33, 64, 120].map(|n| protein(&"W".repeat(n))).into(),
        ),
        Row::new(
            a,
            "gap walls",
            &blosum,
            protein(&format!("{block}{block}")),
            [1, 3, 9, 27]
                .map(|g| protein(&format!("{block}{}{block}", "W".repeat(g))))
                .into(),
        ),
    ];
    for (q, d) in [
        ("MKVLAW", "MKVLAW"),
        ("ACDEFG", "ACDXXEFG"),
        ("WWWW", "PPPP"),
        ("MSPARKLNQWETYCV", "MSPRKLNQWWETYCV"),
        ("M", "MKVLLLLAW"),
        ("MK", "MKMKMK"),
        ("GGGMKVLAWGGGACDEFGMSPARKL", "PPPMKVLAWPPPACDXXEFGMSPRK"),
    ] {
        let name = format!("{q} against {d}");
        rows.push(Row::new(a, name, &blosum, protein(q), vec![protein(d)]));
    }
    rows
}

/// Seeded random rows — queries, databases and gap models — and the
/// device suite's mixed database, whose threshold-100 split runs both
/// phases of the 128-combination matrix.
fn seeded_rows() -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut rows = Vec::new();
    for i in 0..8 {
        let extend = rng.gen_range(1..4);
        let open = rng.gen_range(extend..16);
        let params = SwParams {
            gaps: GapPenalties::new(open, extend).unwrap(),
            ..SwParams::cudasw_default()
        };
        let qlen = rng.gen_range(1..=120usize);
        let query = residues(&mut rng, qlen);
        let mut subjects = Vec::new();
        for _ in 0..rng.gen_range(1..=8usize) {
            let len = rng.gen_range(1..=150usize);
            subjects.push(residues(&mut rng, len));
        }
        let name = format!("seeded row {i}, gaps ({open}, {extend})");
        rows.push(Row::new(Category::Seeded, name, &params, query, subjects));
    }
    let params = SwParams::cudasw_default();
    let mixed = Row::new(
        Category::Seeded,
        MIXED,
        &params,
        make_query(50, 19),
        Vec::new(),
    );
    let lengths = [5, 17, 33, 64, 80, 96, 99, 150, 200, 400, 700];
    rows.push(Row {
        subjects: database_with_lengths("devopt", &lengths, 83),
        ..mixed
    });
    // Lengths around the device kernels' strip and tile boundaries
    // (multiples of the 32-thread warp, one off either side, primes); the
    // flag matrix already runs the rows above.
    let lengths = [1, 31, 32, 33, 63, 64, 65, 97, 128, 130, 191, 256, 311, 400];
    for seed in [3u64, 11, 29] {
        for qlen in [1usize, 17, 48, 96] {
            let query = make_query(qlen, seed.wrapping_mul(131) + qlen as u64);
            let name = format!("the boundary-length corpus, seed {seed}, query {qlen}");
            let row = Row::new(Category::Seeded, name, &params, query, Vec::new());
            rows.push(Row {
                subjects: database_with_lengths("diff", &lengths, seed),
                in_matrix: false,
                ..row
            });
        }
    }
    rows
}

/// Draws one matrix entry.
type Draw = fn(&mut StdRng) -> i8;

/// A symmetric matrix of one of the six classes the generator draws.
fn drawn_matrix(rng: &mut StdRng, class: usize) -> ScoringMatrix {
    let n = Alphabet::Protein.size();
    let (name, off, diag): (_, Draw, Draw) = match class {
        0 => return ScoringMatrix::blosum62(),
        1 => (
            "random signed",
            |r| r.gen_range(-30..=30),
            |r| r.gen_range(-30..=30),
        ),
        2 => ("±127/−128 extremes", extreme, extreme),
        3 => (
            "dominant diagonal",
            |r| r.gen_range(-8..=2),
            |r| r.gen_range(60..=127),
        ),
        4 => (
            "none positive",
            |r| r.gen_range(-40..=0),
            |r| r.gen_range(-40..=0),
        ),
        _ => (
            "all positive",
            |r| r.gen_range(1..=20),
            |r| r.gen_range(1..=20),
        ),
    };
    let mut scores = vec![0i8; n * n];
    for a in 0..n {
        scores[a * n + a] = diag(rng);
        for b in 0..a {
            let v = off(rng);
            (scores[a * n + b], scores[b * n + a]) = (v, v);
        }
    }
    ScoringMatrix::from_raw(name, Alphabet::Protein, n, scores).unwrap()
}

/// −128 or 127, with a fifth of the draws anywhere between.
fn extreme(rng: &mut StdRng) -> i8 {
    match rng.gen_range(0..5) {
        0 => rng.gen_range(-128..=127),
        1 | 2 => -128,
        _ => 127,
    }
}

/// Log-uniform in `[0, hi]`: `2^u − 1` for `u` uniform in `[0, log2(hi + 1))`.
fn log_uniform(rng: &mut StdRng, hi: i32) -> i32 {
    let top = (f64::from(hi) + 1.0).log2();
    ((2f64.powf(rng.gen_range(0.0..1.0) * top) - 1.0) as i32).min(hi)
}

/// The parameter generator: each row draws a matrix class and a gap model
/// (log-uniform penalties in [0, 2^30], `extend ≤ open`; a third of each
/// class's rows take `extend = 0` and a third `open == extend`) and scores a
/// short random query against one or two random subjects, some past the
/// flag matrix's threshold of 100.
fn generated_rows() -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(0x9e7e);
    (0..64)
        .map(|i| {
            let matrix = drawn_matrix(&mut rng, i % 6);
            let open = log_uniform(&mut rng, 1 << 30);
            let extend = match i / 6 % 3 {
                0 => 0,
                1 => open,
                _ => log_uniform(&mut rng, open),
            };
            let params = SwParams {
                matrix,
                gaps: GapPenalties::new(open, extend).unwrap(),
            };
            let qlen = rng.gen_range(1..=24usize);
            let query = residues(&mut rng, qlen);
            let subjects = (0..rng.gen_range(1..=2))
                .map(|_| {
                    let len = rng.gen_range(1..=110usize);
                    residues(&mut rng, len)
                })
                .collect();
            let name = format!(
                "generated row {i}: {}, gaps ({open}, {extend})",
                params.matrix.name()
            );
            Row::new(Category::Seeded, name, &params, query, subjects)
        })
        .collect()
}

#[test]
fn six_flag_sets_take_every_value_pair_of_every_two_flags() {
    for (f, g) in (0..7).flat_map(|f| (f + 1..7).map(move |g| (f, g))) {
        let pairs: HashSet<_> = PAIRWISE.iter().map(|b| (b >> f & 1, b >> g & 1)).collect();
        assert_eq!(pairs.len(), 4, "flags {f} and {g}");
    }
}

#[test]
fn every_short_pair_on_every_device_path() {
    conform(Category::Exhaustive, &exhaustive_rows());
}

#[test]
fn every_adversarial_row_on_every_path() {
    let rows = adversarial_rows();
    let sorted = |row: &Row| {
        let mut s = row.oracle();
        s.sort_unstable();
        s
    };
    // The rows hold the scores they are built for.
    assert_eq!(sorted(&rows[0]), [239, 240, 241]);
    assert_eq!(sorted(&rows[1]), [32_766, 32_767, 32_768]);
    assert_eq!(sorted(&rows[2])[1], 40_000);
    let (_, rest): (Vec<Row>, Vec<Row>) = rows
        .into_iter()
        .partition(|r| r.name == "no positive overlap" || r.name == "gap walls");
    conform(Category::Adversarial, &rest);
}

/// The adversarial row of one name, run on its own by the test below.
fn adversarial_row(name: &str) -> Row {
    adversarial_rows()
        .into_iter()
        .find(|r| r.name == name)
        .expect("the adversarial corpus has the row")
}

#[test]
fn no_positive_overlap_scores_zero_on_every_path() {
    let row = adversarial_row("no positive overlap");
    assert!(row.oracle().iter().all(|&s| s == 0));
    conform(Category::Adversarial, &[row]);
}

#[test]
fn gap_wall_cases_match_oracle() {
    conform(Category::Adversarial, &[adversarial_row("gap walls")]);
}

/// The seeded rows, split into the boundary-length corpus and the rest.
fn boundary_and_other_seeded_rows() -> (Vec<Row>, Vec<Row>) {
    seeded_rows()
        .into_iter()
        .partition(|r| r.name.starts_with("the boundary-length corpus"))
}

#[test]
fn every_seeded_row_on_every_path() {
    conform(Category::Seeded, &boundary_and_other_seeded_rows().1);
}

#[test]
fn seeded_random_corpus_matches_scalar_oracle() {
    conform(Category::Seeded, &boundary_and_other_seeded_rows().0);
}

#[test]
fn every_generated_row_on_every_path() {
    conform(Category::Seeded, &generated_rows());
}

/// The oracle answers to the definition: the Waterman–Smith–Beyer
/// general-gap recurrence, where a run of `k` gaps costs
/// `GapPenalties::cost(k)`, in `i64`, with no E/F state and no sentinel. It
/// shares no code with `sw_score`'s Gotoh recurrence, only the convention.
/// O(mn(m + n)): it takes the generated rows (six matrix classes by the gap
/// lattice) and every pair of length ≤ 4 over A, C and W.
#[test]
fn sw_score_answers_the_general_gap_definition() {
    let wsb = |params: &SwParams, q: &[u8], d: &[u8]| {
        let g = |k: usize| params.gaps.cost(k);
        let mut h = vec![vec![0i64; d.len() + 1]; q.len() + 1];
        let mut best = 0;
        for i in 1..=q.len() {
            for j in 1..=d.len() {
                let diagonal = h[i - 1][j - 1] + i64::from(params.matrix.score(q[i - 1], d[j - 1]));
                let left = (1..=j).map(|k| h[i][j - k] - g(k)).max().unwrap();
                let up = (1..=i).map(|k| h[i - k][j] - g(k)).max().unwrap();
                h[i][j] = diagonal.max(left).max(up).max(0);
                best = best.max(h[i][j]);
            }
        }
        best
    };
    for row in generated_rows().iter().chain(&exhaustive_rows()) {
        for (s, want) in row.subjects.sequences().iter().zip(row.oracle()) {
            let got = wsb(&row.params, &row.query, &s.residues);
            assert_eq!(
                i64::from(want),
                got,
                "{}: subject {:?}",
                row.name,
                s.residues
            );
        }
    }
    // A gap worth more than 2^20 needs runs too long for the recurrence
    // above: (WY)^(h/2) (CK)^(h/2) against the same with A between the
    // runs, where only W/W, Y/Y, C/C and K/K score (127), so a diagonal
    // holds one run. By the definition the best alignment is one run,
    // h · 127, and joining the runs scores 2h · 127 − g(1) with g(1) = 2^21.
    let n = Alphabet::Protein.size();
    let mut scores = vec![-128i8; n * n];
    for a in [17, 18, 4, 11] {
        scores[a * (n + 1)] = 127;
    }
    let params = SwParams {
        matrix: ScoringMatrix::from_raw("WYCK", Alphabet::Protein, n, scores).unwrap(),
        gaps: GapPenalties::new(1 << 21, 0).unwrap(),
    };
    let h = (1 << 20) / 127 + 2; // the shortest even run worth more than 2^20
    let (run1, run2) = ([17u8, 18].repeat(h / 2), [4u8, 11].repeat(h / 2));
    let query = [run1.clone(), run2.clone()].concat();
    let subject = [run1, vec![0], run2].concat();
    assert_eq!(sw_score(&params, &query, &subject), h as i32 * 127);
}

/// A Swissprot-shaped database in which every fifth subject, where it has
/// 240 residues or more, carries a 70%-identity copy of a window of the
/// query, so a share of the subjects overflow byte mode.
fn planted_swissprot_row() -> Row {
    let mut rng = StdRng::seed_from_u64(0x484F);
    let query = make_query(375, 7);
    let mut seqs = PaperDb::Swissprot.generate(600, 7).sequences().to_vec();
    for s in seqs.iter_mut().step_by(5).filter(|s| s.len() >= 240) {
        let width = s.len().min(query.len()) / 2;
        let (q_at, s_at) = (
            rng.gen_range(0..query.len() - width),
            rng.gen_range(0..s.len() - width),
        );
        for i in 0..width {
            if rng.gen_range(0.0..1.0) < 0.7 {
                s.residues[s_at + i] = query[q_at + i];
            }
        }
    }
    let params = SwParams::cudasw_default();
    let row = Row::new(
        Category::Seeded,
        "a Swissprot-shaped database with planted homologs",
        &params,
        query,
        Vec::new(),
    );
    Row {
        subjects: Database::new("planted", Alphabet::Protein, seqs),
        ..row
    }
}

/// The grouped passes count what the striped pass counts: per pool search
/// on every backend, at one and two threads, `byte_mode` and
/// `word_fallbacks` equal the sums of `score_with` over the same subjects —
/// on the seeded rows, and on a Swissprot-shaped database with planted
/// homologs. The grouped passes run no Lazy-F, so where the pool groups
/// (AVX2 and the portable vectors) `lazy_f_word` reads 0, and elsewhere the
/// striped pass's.
#[test]
fn pooled_searches_count_what_the_striped_pass_counts() {
    let mut rows = seeded_rows();
    rows.push(planted_swissprot_row());
    for row in &rows {
        for kind in BackendKind::available() {
            let engine = QueryEngine::with_backend(row.params.clone(), &row.query, kind);
            let mut striped = AdaptiveStats::default();
            for s in row.subjects.sequences() {
                engine.score_with(&s.residues, Precision::Adaptive, &mut striped);
            }
            for threads in [1, 2] {
                let pooled = search_sequences(
                    &engine,
                    row.subjects.sequences(),
                    threads,
                    Precision::Adaptive,
                )
                .stats;
                let grouped = matches!(kind, BackendKind::Avx2 | BackendKind::Portable);
                assert_eq!(
                    (pooled.byte_mode, pooled.word_fallbacks, pooled.lazy_f_word),
                    (
                        striped.byte_mode,
                        striped.word_fallbacks,
                        if grouped { 0 } else { striped.lazy_f_word }
                    ),
                    "{kind} on {} threads, {}",
                    threads,
                    row.name
                );
            }
            if row.subjects.name == "planted" {
                assert!(
                    striped.word_fallbacks > 20,
                    "{kind}: the homologs must hand off"
                );
            }
        }
    }
}

/// The harness checks itself: a score one off fails, naming the path, the
/// row and both scores.
#[test]
fn a_wrong_score_names_the_path_and_the_row() {
    let row = &adversarial_rows()[0];
    let want = row.oracle();
    let mut got = want.clone();
    got[0] += 1;
    let failure = std::panic::catch_unwind(|| check("a one-off path", row, &got, &want))
        .expect_err("a wrong score must fail");
    let message = failure
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    let expected = format!(
        "a one-off path on {}: subject 0 ({} residues) scored {}, sw_score says {}",
        row.name,
        row.subjects.sequences()[0].len(),
        got[0],
        want[0]
    );
    assert_eq!(message, expected);
}
