//! `bench run`: every workload, untraced then traced, each in a child
//! process of its own (so peak memory and thread-local recorder state
//! are per workload), collected into one document.

use crate::metrics::{Declared, SETUP_REPEATS};
use crate::{device, flag, nproc, parse_flags, scan, serve, WORKLOADS};
use obs::json::{self, Json};
use std::process::Command;
use sw_simd::{BackendKind, KernelMode};

pub const SCHEMA: &str = "cudasw.benchmark/v1";
const DEFAULT_SEED: u64 = 2011;
/// `--quick` measures for a tenth of the declared run length.
const QUICK_DIVISOR: f64 = 10.0;

/// First line of a tool's output, or "unknown" when it cannot run (the
/// driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| json::escape(l.trim())))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fixed sizes of every workload, recorded with each document.
fn constants_json() -> String {
    let serve_json = |s: &serve::ServeSpec| {
        let looping = match s.looping {
            serve::Loop::Open { per_window } => format!(
                "\"open\", \"arrivals_per_window\": {per_window}, \"window_s\": {}",
                serve::WINDOW_S
            ),
            serve::Loop::Closed => "\"closed\"".to_string(),
        };
        format!(
            "{{\"db_seqs\": {}, \"query_len\": [{}, {}], \"loop\": {looping}}}",
            s.db_seqs, s.query_len.0, s.query_len.1
        )
    };
    format!(
        "{{\"setup_repeats\": {SETUP_REPEATS}, \
         \"scan\": {{\"db_seqs\": {}, \"plant_frac\": {}, \"plant_min_len\": {}, \
         \"plant_identity\": {}, \"oracle_pairs\": {}, \"probe_subjects\": {}, \
         \"{}\": {:?}, \"{}\": {:?}}}, \
         \"serve\": {{\"latency_limit_ms\": {}, \"tenants\": {}, \"check_sample\": {}, \
         \"closed_request_pool\": {}, \"max_late_ms_p50\": {}, \"small_search_reps\": {}, \
         \"small_search_query_len\": {}, \"{}\": {}, \"{}\": {}}}, \
         \"device_fermi\": {{\"body_groups\": {}, \"tail_subjects\": {}, \
         \"tail_len\": [{}, {}], \"query_len\": {}}}}}",
        scan::DB_SEQS,
        scan::PLANT_FRAC,
        scan::PLANT_MIN_LEN,
        scan::PLANT_IDENTITY,
        scan::ORACLE_PAIRS,
        scan::PROBE_SUBJECTS,
        scan::SWISSPROT.name,
        scan::SWISSPROT.query_lens,
        scan::HOMOLOG.name,
        scan::HOMOLOG.query_lens,
        serve::LATENCY_LIMIT_MS,
        serve::TENANTS,
        serve::CHECK_SAMPLE,
        serve::CLOSED_REQUEST_POOL,
        serve::MAX_LATE_MS_P50,
        serve::SMALL_SEARCH_REPS,
        serve::SMALL_SEARCH_QUERY_LEN,
        serve::STEADY.name,
        serve_json(&serve::STEADY),
        serve::SMALL.name,
        serve_json(&serve::SMALL),
        device::BODY_GROUPS,
        device::TAIL_SUBJECTS,
        device::TAIL_LEN.0,
        device::TAIL_LEN.1,
        device::QUERY_LEN,
    )
}

/// Run one workload in a child process; returns its result line, parsed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Check one result line against the declared names and units; returns
/// its metrics as a JSON object body.
fn checked(result: &Json, declared: &[(String, String)]) -> Result<String, String> {
    let metrics = result.get("metrics").ok_or("no metrics")?;
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let m = metrics.get(name).ok_or(format!("{name} was not printed"))?;
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite());
        let value = value.ok_or(format!("{name} is not a finite number"))?;
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("{name}: unit is not {unit:?}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(fields.join(", "))
}

fn verdict_json(result: &Json) -> Result<(bool, String), String> {
    let correct = result.get("correct") == Some(&Json::Bool(true));
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no {key}"))
    };
    Ok((
        correct,
        format!(
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
            count("attempted")?,
            count("failed")?
        ),
    ))
}

pub fn main(argv: &[String]) -> Result<bool, String> {
    let (flags, _) = parse_flags(argv);
    let declared = Declared::load(flags.get("benchmark").map_or("BENCHMARK.json", |s| s))?;
    declared.check_catalog()?;
    let quick = flags.contains_key("quick");
    let seed = if flags.contains_key("seed") {
        flag(&flags, "seed")?
    } else {
        DEFAULT_SEED
    };
    let seconds = declared.run_seconds / if quick { QUICK_DIVISOR } else { 1.0 };
    let end_to_end: Vec<(String, String)> = declared
        .end_to_end
        .iter()
        .map(|b| (b.name.clone(), b.unit.clone()))
        .collect();

    let header = format!(
        "{{\"nproc\": {}, \"backend\": \"{}\", \"kernel_mode\": \"{}\", \"git_rev\": \"{}\", \
         \"rustc\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \
         \"constants\": {}}}",
        nproc(),
        BackendKind::detect().name(),
        KernelMode::detect().name(),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        constants_json(),
    );
    println!("header {header}");
    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        println!("{workload}");
        let plain = child(workload, seed, seconds, false)?;
        let traced = child(workload, seed, seconds, true)?;
        let (plain_ok, plain_verdict) = verdict_json(&plain)?;
        let (traced_ok, traced_verdict) = verdict_json(&traced)?;
        all_correct &= plain_ok && traced_ok;
        rows.push(format!(
            "\"{workload}\": {{{plain_verdict}, \"end_to_end\": {{{}}}, \
             \"traced\": {{{traced_verdict}}}, \"per_layer\": {{{}}}}}",
            checked(&plain, &end_to_end).map_err(|e| format!("{workload}: {e}"))?,
            checked(&traced, &declared.per_layer).map_err(|e| format!("{workload}: {e}"))?,
        ));
    }
    let doc = format!(
        "{{\"schema\": \"{SCHEMA}\", \"header\": {header}, \"workloads\": {{{}}}}}\n",
        rows.join(", ")
    );
    json::parse(&doc).map_err(|e| format!("document does not parse: {e}"))?;
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if all_correct {
            "all gates green"
        } else {
            "a correctness gate failed"
        }
    );
    Ok(all_correct)
}
