//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # everything below, in order
//! repro fig2 | fig3 | fig5 | fig6 | fig7
//! repro table1 | table2
//! repro ablation | strips | retune | validation
//! repro chaos [--inject-faults <seed>] [--checkpoint <dir>] [--resume]
//! repro integrity               # silent-corruption detection smoke
//! repro serve                   # batch-scheduling search service replay
//! repro trace <experiment> [--out <file.json>] [--metrics <file.prom>]
//! repro soak [--smoke] [--out <file.json>]
//! repro device-opt [--out <file.json>]
//! ```
//!
//! `--inject-faults <seed>` selects the random fault seed for the chaos
//! run (default 42); different seeds deal different fault schedules, the
//! scores must match the fault-free run for every one of them.
//!
//! `--checkpoint <dir>` makes the chaos run write per-shard
//! chunk-completion logs into `dir`. Without `--resume` the directory is
//! wiped first (a fresh run); with `--resume` existing logs are replayed
//! and only the remaining chunks are recomputed — the replayed-chunk
//! count appears in the result table. Scores are bit-identical either
//! way.
//!
//! `soak` and `device-opt` print only simulated-clock numbers, so their
//! `--out` documents (`BENCH_{soak,device}.json`) are snapshots: no rev,
//! one run per config, checked with `cmp` against the committed file. Each
//! experiment asserts its own claims on every run.
//!
//! Exit code 0 is a pass, 1 a failed gate or an I/O error, 2 a usage error.
//!
//! Serving is reported on the simulated clock only (`serve`, `soak`).
//! Wall-clock speed — the host engine, the pool, serving and the
//! simulator's own — is the repo benchmark's (`benchmark/`:
//! `scan_swissprot`, `scan_homolog`, `serve_steady`, `serve_small`,
//! `device_fermi`); `fig7`'s host series is the one wall-clock number
//! `repro` prints.
//!
//! `device-opt` runs the §VII device-kernel optimization matrix
//! (baseline, each optimization alone, all together) through the
//! simulator on a trimmed Fermi, at full and at smoke scale, and records
//! the counted metric each optimization claims to move, plus a CRC of the
//! scores. Gates, on both runs' measured values: score/byte/cell identity,
//! the ≥ 4× staging transaction cut, fusion hiding stalls the baseline
//! exposes, the streamed-copy accounting identity, balance never worsening
//! skew.
//!
//! `trace` runs any experiment under the observability recorder and dumps
//! its span timeline as a Chrome `trace_event` JSON file — load it in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see the
//! nested search → kernel → transfer spans on the simulated clock. The
//! trace is validated (`obs::chrome::validate_chrome_trace`) before it is
//! written; an invalid one exits 1.
//! `--metrics` additionally writes a Prometheus-style text snapshot of
//! every counter, gauge and histogram the run recorded.
//!
//! Every experiment ends with a one-line run report (launches, cells,
//! simulated kernel seconds, transfer traffic, injected faults) computed
//! from the same metrics registry.
//!
//! Sweep curves are produced by the validated analytic models at paper
//! scale; Table I, the ablation (§III stages and §VI extensions) and the
//! anchors marked "functional" execute every DP cell through the
//! simulator. See DESIGN.md §4–5 and EXPERIMENTS.md.

use std::str::FromStr;
use std::sync::OnceLock;

use cudasw_bench::experiments::{
    ablation, chaos, device_opt, fig2, fig3, fig5, fig6, fig7, integrity, multigpu, retune, serve,
    soak, strips, table1, table2, validation,
};
use cudasw_core::variants::{development_stages, FINAL_KERNEL_STAGE};
use gpu_sim::DeviceSpec;

/// Seed from `--inject-faults <seed>`; read by the chaos experiment.
static FAULT_SEED: OnceLock<u64> = OnceLock::new();

/// Directory from `--checkpoint <dir>`; read by the chaos experiment.
static CHECKPOINT_DIR: OnceLock<String> = OnceLock::new();

/// Set by `--resume`: keep existing checkpoint logs and replay them.
static RESUME: OnceLock<bool> = OnceLock::new();

/// Every experiment, in `repro all` order. The subcommands that take
/// arguments of their own appear here with their no-file entry (CI scale
/// where they have a `--smoke`).
const KNOWN: &[(&str, fn())] = &[
    ("fig2", run_fig2),
    ("fig3", run_fig3),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("table1", run_table1),
    ("table2", run_table2),
    ("ablation", run_ablation),
    ("strips", run_strips),
    ("retune", run_retune),
    ("multigpu", run_multigpu),
    ("validation", run_validation),
    ("chaos", run_chaos),
    ("integrity", run_integrity),
    ("serve", run_serve),
    ("soak", run_soak_smoke),
    ("device-opt", || run_device_opt(Vec::new(), "")),
];

/// A subcommand's entry point: its arguments, and its usage line.
type Subcommand = fn(Vec<String>, &str);

/// The subcommands that take arguments of their own, with their synopsis.
const SUBCOMMANDS: &[(&str, &str, Subcommand)] = &[
    (
        "trace",
        "<experiment> [--out <file.json>] [--metrics <file.prom>]",
        run_trace,
    ),
    ("soak", "[--smoke] [--out <file.json>]", run_soak),
    ("device-opt", "[--out <file.json>]", run_device_opt),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(seed) = take_value(&mut args, "--inject-faults", "an integer seed") {
        FAULT_SEED.set(seed).expect("flag parsed once");
    }
    if let Some(dir) = take_value(&mut args, "--checkpoint", "a directory path") {
        CHECKPOINT_DIR.set(dir).expect("flag parsed once");
    }
    if take_flag(&mut args, "--resume") {
        RESUME.set(true).expect("flag parsed once");
    }
    let cmd = if args.is_empty() {
        "help".to_string()
    } else {
        args.remove(0)
    };
    if let Some((name, synopsis, run)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == cmd) {
        return run(args, &format!("repro {name} {synopsis}"));
    }
    match cmd.as_str() {
        "all" => {
            for (name, f) in KNOWN {
                eprintln!("==> {name}");
                run_with_report(name, *f);
            }
        }
        "help" | "--help" | "-h" => {
            println!(
                "usage: repro <experiment> [--inject-faults <seed>] [--checkpoint <dir>] [--resume]"
            );
            for (name, synopsis, _) in SUBCOMMANDS {
                println!("       repro {name} {synopsis}");
            }
            let names: Vec<&str> = KNOWN.iter().map(|(name, _)| *name).collect();
            let lines: Vec<String> = names.chunks(8).map(|line| line.join(", ")).collect();
            println!("experiments: all, {}", lines.join(",\n             "));
            println!("--inject-faults <seed>: fault seed for the chaos run (default 42)");
            println!("--checkpoint <dir>: write chunk-completion logs there during chaos");
            println!("--resume: replay existing logs in the checkpoint dir instead of wiping it");
        }
        other => run_with_report(other, known(other)),
    }
}

/// Look an experiment up in [`KNOWN`]; an unknown name is a usage error.
fn known(name: &str) -> fn() {
    match KNOWN.iter().find(|(known, _)| *known == name) {
        Some((_, f)) => *f,
        None => usage_error(format!("unknown experiment {name:?}; try `repro help`")),
    }
}

/// Remove `flag` from `args`; `true` when it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}

/// Remove `flag <value>` from `args` and parse the value. A missing or
/// malformed value is a usage error: "`flag` needs `what`".
fn take_value<T: FromStr>(args: &mut Vec<String>, flag: &str, what: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(pos + 1).and_then(|v| v.parse().ok()) else {
        usage_error(format!("{flag} needs {what}"));
    };
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Whatever the flags left behind is a usage error.
fn expect_no_more(rest: &[String], usage: &str) {
    if !rest.is_empty() {
        usage_error(format!("unexpected arguments {rest:?}; usage: {usage}"));
    }
}

/// Exit code 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// A gate or I/O failure: exit code 1.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn write_or_fail(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {path}: {e}"));
    }
}

/// Print `failures` under "`gate` FAILED:" and exit 1, if there are any.
fn fail_if_any(gate: &str, failures: &[String]) {
    if !failures.is_empty() {
        eprintln!("{gate} FAILED:");
        for f in failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

/// Run one experiment under the observability recorder and print its run
/// report (computed from the captured metrics registry, not from any
/// experiment-specific plumbing).
fn run_with_report(name: &str, f: fn()) {
    let ((), run) = obs::capture(f);
    print_run_report(name, &run);
}

fn print_run_report(name: &str, run: &obs::Obs) {
    let m = &run.metrics;
    let launches = m.counter_sum("cudasw.gpu_sim.launch.calls", &[]);
    let cells = m.counter_sum("cudasw.gpu_sim.launch.cells", &[]);
    let kernel_secs = m.counter_sum("cudasw.gpu_sim.launch.seconds", &[]);
    let h2d = m.counter_sum("cudasw.gpu_sim.h2d.bytes", &[]);
    let d2h = m.counter_sum("cudasw.gpu_sim.d2h.bytes", &[]);
    let faults = m.counter_sum("cudasw.gpu_sim.fault.injected", &[]);
    println!(
        "[run report] {name}: {} launches, {cells:.3e} cells, \
         {kernel_secs:.4}s simulated kernel time, {:.1} KiB h2d, {:.1} KiB d2h, \
         {} injected faults",
        launches as u64,
        h2d / 1024.0,
        d2h / 1024.0,
        faults as u64,
    );
}

/// `repro trace <experiment> [--out <file.json>] [--metrics <file.prom>]`
fn run_trace(mut rest: Vec<String>, usage: &str) {
    let out_path =
        take_value(&mut rest, "--out", "a file path").unwrap_or_else(|| "trace.json".to_string());
    let prom_path: Option<String> = take_value(&mut rest, "--metrics", "a file path");
    let Some(name) = rest.first() else {
        usage_error(format!("usage: {usage}"));
    };
    let ((), run) = obs::capture(known(name));
    let trace = obs::chrome::to_chrome_json(&run.trace, run.clock);
    if let Err(e) = obs::chrome::validate_chrome_trace(&trace) {
        fail(format!("{name}'s trace is not a valid Chrome trace: {e}"));
    }
    write_or_fail(&out_path, &trace);
    print_run_report(name, &run);
    println!(
        "wrote {} spans + {} instants ({:.4}s simulated) to {out_path}",
        run.trace.spans.len(),
        run.trace.instants.len(),
        run.clock,
    );
    if let Some(prom_path) = prom_path {
        write_or_fail(&prom_path, &obs::prom::to_prometheus_text(&run.metrics));
        println!("wrote metrics snapshot to {prom_path}");
    }
}

fn run_fig2() {
    // Paper setup: a group of s sequences, query length 567, C1060.
    let spec = DeviceSpec::tesla_c1060();
    let s = spec.intertask_group_size(256, 30, 0) as usize;
    let r = fig2::run(&spec, s, &fig2::paper_stds(), 567);
    r.table().print();
    println!("Paper: inter-task collapses with variance, intra-task does not; the curves cross.\n");
}

fn run_fig3() {
    let spec = DeviceSpec::tesla_c1060();
    let r = fig3::run(&spec, 572);
    r.table().print();
    // Functional anchors at a reduced scale.
    let anchors = fig3::functional_anchors(&spec, 1500, &[3072, 2072, 1272], 572);
    println!("functional anchors (1500-seq Swissprot, query 572):");
    for (t, pct, g) in anchors {
        println!("  threshold {t:>5}: {pct:.2}% intra, {g:.2} GCUPs");
    }
    println!();
}

fn run_fig5() {
    let r = fig5::run(576, false);
    r.table_a().print();
    r.table_b().print();
    r.table_gains().print();
    let (go, gi, so, si) = fig5::functional_anchor(&DeviceSpec::tesla_c1060(), 1500, 2072, 576);
    println!(
        "functional anchor (C1060, threshold 2072): original {go:.2} GCUPs ({so:.0}% intra), improved {gi:.2} GCUPs ({si:.0}% intra)\n"
    );
}

fn run_fig6() {
    let r = fig6::run(576);
    r.table().print();
    println!(
        "C2050 original-kernel intra time share grows {:.1} pp with caches off; improved only {:.1} pp.\n",
        r.c2050_original_share_delta(),
        r.c2050_improved_share_delta()
    );
}

fn run_fig7() {
    let r = fig7::run(3072, 4000);
    r.table().print();
    r.table_gains().print();
}

fn run_table1() {
    // Functional: a scaled long tail (the paper's is ~600 sequences; 12
    // keeps the run in seconds while preserving the per-cell rates).
    let r = table1::run(&DeviceSpec::tesla_c1060(), 12, 4000, &[567, 5478]);
    r.table(&[567, 5478]).print();
    println!(
        "reduction (orig/improved): {:.0}:1 at query 567, {:.0}:1 at query 5478 (paper: ~50:1 overall)\n",
        r.reduction(567),
        r.reduction(5478)
    );
}

fn run_table2() {
    let r = table2::run();
    r.table(&[144, 567, 1000, 3005, 5478]).print();
}

fn run_ablation() {
    let stages = development_stages();
    let (section3, section6) = (
        &stages[..=FINAL_KERNEL_STAGE],
        &stages[FINAL_KERNEL_STAGE..],
    );
    let r = ablation::run(&DeviceSpec::tesla_c1060(), section3, 6, 4000, 567);
    r.table().print();
    println!(
        "total speedup naive → improved: {:.1}x\n",
        r.total_speedup()
    );
    // §VI: a multi-strip query, so there is a strip boundary to move, on
    // the device whose shared memory can hold it.
    let r = ablation::run(&DeviceSpec::tesla_c2050(), section6, 6, 4000, 2200);
    r.table_extensions().print();
}

fn run_strips() {
    let r = strips::run(567);
    r.table().print();
}

fn run_retune() {
    let r = retune::run(&[144, 375, 567, 1000, 2005]);
    r.table().print();
    println!(
        "mean gain from re-tuning: {:+.1} GCUPs (paper: ≈ +4)\n",
        r.mean_gain()
    );
}

fn run_multigpu() {
    let r = multigpu::run(&DeviceSpec::tesla_c1060(), 16_000, 64);
    r.table().print();
}

fn run_validation() {
    let r = validation::run(1200, 144);
    r.table().print();
}

fn run_chaos() {
    let seed = *FAULT_SEED.get().unwrap_or(&42);
    let ckpt = CHECKPOINT_DIR.get().map(std::path::PathBuf::from);
    let resume = *RESUME.get().unwrap_or(&false);
    if let Some(dir) = &ckpt {
        if !resume && dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(dir) {
                fail(format!(
                    "cannot clear checkpoint dir {}: {e}",
                    dir.display()
                ));
            }
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(format!(
                "cannot create checkpoint dir {}: {e}",
                dir.display()
            ));
        }
    }
    let r = chaos::run_with_options(&DeviceSpec::tesla_c1060(), seed, 600, 64, ckpt.as_deref());
    r.table().print();
    assert!(r.scores_match, "chaos run diverged from the fault-free run");
    if resume {
        println!(
            "Resumed from checkpoint logs: {} chunks replayed, scores still byte-for-byte.\n",
            r.replayed_chunks
        );
    } else {
        println!("Faulty run reproduced the fault-free scores byte-for-byte.\n");
    }
}

fn run_integrity() {
    let r = integrity::run(&DeviceSpec::tesla_c1060(), 400, 64);
    r.table().print();
    assert!(
        r.scores_match_oracle,
        "checked run diverged from the oracle"
    );
    assert!(
        r.detected >= 1 && r.quarantined >= 1,
        "corruption went undetected"
    );
    println!("Silent corruption detected, quarantined and recomputed on the host oracle.\n");
}

/// `repro all` entry: the CI-scale chaos soak, no file output.
fn run_soak_smoke() {
    print_soak_result(&soak::run(&DeviceSpec::tesla_c1060(), true));
}

/// `repro soak [--smoke] [--out <file.json>]`
fn run_soak(mut rest: Vec<String>, usage: &str) {
    let smoke = take_flag(&mut rest, "--smoke");
    let out_path: Option<String> = take_value(&mut rest, "--out", "a file path");
    expect_no_more(&rest, usage);
    let (r, run) = obs::capture(|| soak::run(&DeviceSpec::tesla_c1060(), smoke));
    print_soak_result(&r);
    print_run_report("soak", &run);
    if let Some(out_path) = out_path {
        write_or_fail(&out_path, &r.to_json());
        println!("wrote soak result ({}) to {out_path}", soak::SCHEMA);
    }
}

fn print_soak_result(r: &soak::SoakResult) {
    r.table().print();
    println!(
        "Soak held {:.2}% availability through {} injected GPU faults \
         ({} lane death(s), {} revival(s), {} breaker trip(s))\n\
         plus {} host-lane faults ({} chunk quarantine(s));\n\
         every answer matched the fault-free replay bit-for-bit.\n",
        r.availability * 100.0,
        r.injected_faults,
        r.lane_deaths,
        r.lane_revivals,
        r.breaker_opens,
        r.host_injected_faults,
        r.host_quarantines,
    );
}

/// `repro device-opt [--out <file.json>]`: the full and the smoke matrix,
/// each held to the invariant gates on its measured values.
fn run_device_opt(mut rest: Vec<String>, usage: &str) {
    let out_path: Option<String> = take_value(&mut rest, "--out", "a file path");
    expect_no_more(&rest, usage);
    let runs = [device_opt::run(false), device_opt::run(true)];
    let mut failures = Vec::new();
    for r in &runs {
        r.table().print();
        failures.extend(device_opt::invariant_gates(r));
    }
    if let Some(out_path) = out_path {
        write_or_fail(&out_path, &device_opt::to_json(&runs));
        println!(
            "wrote device snapshot ({}) to {out_path}",
            device_opt::SCHEMA
        );
    }
    fail_if_any("device perf gate", &failures);
    println!("device perf gate passed (the invariant gates, full and smoke).");
}

fn run_serve() {
    let spec = DeviceSpec::tesla_c1060();
    let steady = serve::run_steady(&spec, 120, 12);
    steady.table().print();
    let overload = serve::run_overload(&spec, 120, 24);
    overload.table().print();
    println!(
        "Steady load served everything in {} waves at {:.1} queries/s with zero sheds;\n\
         the overload burst shed {:.0}% explicitly instead of queueing without bound.\n",
        steady.waves,
        steady.queries_per_second,
        overload.shed_rate * 100.0
    );
}
