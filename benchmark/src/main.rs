//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench run [--seed <n>] [--quick] [--out <file>]
//! bench compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload and prints, as its last line of
//! standard output, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `run` executes
//! that form once per workload and trace mode, each in a process of its
//! own, and collects one document; `compare` judges two such documents
//! by the bounds in `BENCHMARK.json`.

mod compare;
mod device;
mod metrics;
mod run;
mod scan;
mod serve;
mod stats;
mod trace;

use metrics::{metrics_json, Measured, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use sw_simd::{BackendKind, KernelMode};

pub const WORKLOADS: [&str; 5] = [
    scan::SWISSPROT.name,
    scan::HOMOLOG.name,
    serve::STEADY.name,
    serve::SMALL.name,
    "device_fermi",
];

/// Environment overrides of the SIMD dispatch. The benchmark describes
/// the default dispatch, so it refuses to run when either is set.
const DISPATCH_OVERRIDES: [&str; 2] = ["SW_SIMD_BACKEND", "SW_KERNEL_MODE"];

/// What one workload run is given.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Hardware threads: pool width, closed-loop clients, and the ceiling on
/// generator threads in every workload.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `--key value` pairs and bare `--flag`s (value "") of a command line.
pub fn parse_flags(argv: &[String]) -> (BTreeMap<String, String>, Vec<String>) {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = it.next_if(|v| !v.starts_with("--")).cloned();
                flags.insert(key.to_string(), value.unwrap_or_default());
            }
            None => positional.push(arg.clone()),
        }
    }
    (flags, positional)
}

/// A required numeric flag.
pub fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<T, String> {
    let raw = flags.get(key).ok_or(format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot read {raw:?}"))
}

fn measure(workload: &str, args: &RunArgs) -> Option<Measured> {
    Some(match workload {
        w if w == scan::SWISSPROT.name => scan::run(&scan::SWISSPROT, args),
        w if w == scan::HOMOLOG.name => scan::run(&scan::HOMOLOG, args),
        w if w == serve::STEADY.name => serve::run(&serve::STEADY, args),
        w if w == serve::SMALL.name => serve::run(&serve::SMALL, args),
        "device_fermi" => device::run(args),
        _ => return None,
    })
}

/// Measure one workload and print its result line.
fn workload_main(argv: &[String]) -> Result<bool, String> {
    let (flags, _) = parse_flags(argv);
    let workload = flags.get("workload").ok_or("missing --workload")?;
    let seconds: f64 = flag(&flags, "seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let args = RunArgs {
        seed: flag(&flags, "seed")?,
        seconds,
        trace: match flags.get("trace").map(String::as_str) {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    println!(
        "# {workload} seed={} seconds={seconds} trace={} nproc={} backend={} kernel_mode={}",
        args.seed,
        args.trace as u8,
        nproc(),
        BackendKind::detect().name(),
        KernelMode::detect().name(),
    );
    let mut m = measure(workload, &args)
        .ok_or_else(|| format!("unknown workload {workload:?}; one of {WORKLOADS:?}"))?;

    let (catalog, values) = if args.trace {
        let overhead = m.trace_overhead_frac();
        m.set("obs.trace_overhead_frac", overhead);
        m.set("obs.spans", m.spans.len() as f64);
        let path = trace::write_chrome(workload, &m.spans)?;
        println!("# trace: {} ({} spans)", path.display(), m.spans.len());
        for (name, n, ms) in trace::self_ms_by_name(&m.spans) {
            println!("# self time: {name} x{n} {ms:.3} ms");
        }
        let values = PER_LAYER
            .iter()
            .map(|(name, _)| m.layer.get(name).copied().unwrap_or(0.0))
            .collect();
        (PER_LAYER, values)
    } else {
        (END_TO_END, m.end_to_end())
    };
    if let Some((name, _)) = catalog.iter().zip(&values).find(|(_, v)| !v.is_finite()) {
        m.violations.push(format!("{} is not finite", name.0));
    }
    for violation in &m.violations {
        eprintln!("bench: {workload}: {violation}");
    }
    for (i, round) in m.rounds.iter().enumerate() {
        let [gcups, qps, p50, p90] = round.summary();
        println!(
            "# round {i}: {} operations in {:.3} s, {gcups:.4} GCUPS, {qps:.3}/s, p50 {p50:.1} ms, p90 {p90:.1} ms",
            round.ops.len(),
            round.wall_s
        );
    }
    for ((name, unit), v) in catalog.iter().zip(&values) {
        println!("{name} {v} {unit}");
    }
    // Percentiles are taken within a round, so a round's sample count
    // decides which of them mean something.
    let per_round = m
        .rounds
        .iter()
        .map(|r| r.ops.iter().filter(|o| o.ok).count());
    let per_round = per_round.min().unwrap_or(0);
    let tail = stats::highest_supported_percentile(per_round)
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "# {} operations, {per_round} correct in the smallest round; highest percentile with >= {} samples beyond it: {tail}",
        m.attempted(),
        stats::MIN_SAMPLES_BEYOND
    );
    let correct = m.failed() == 0 && m.violations.is_empty();
    let values: Vec<f64> = values
        .iter()
        .map(|v| if v.is_finite() { *v } else { 0.0 })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted(),
        m.failed(),
        metrics_json(catalog, &values)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        _ if DISPATCH_OVERRIDES.iter().any(|v| std::env::var_os(v).is_some()) => Err(format!(
            "refusing to run with {DISPATCH_OVERRIDES:?} set: the numbers must describe the default dispatch"
        )),
        Some("run") => run::main(&argv[1..]),
        _ => workload_main(&argv),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
