//! End-to-end observability tests: a captured driver search must produce
//! a well-formed Chrome `trace_event` export with the nested
//! search → phase → kernel/transfer span structure (the `repro trace`
//! output format), a loadable Prometheus snapshot, and a metrics registry
//! whose phase accounting agrees with the `RunStats` view the driver
//! returns. The last cases hold the assertion harness these checks are
//! written in (`obs_assert`) to failing when it should, NaN included.

mod obs_assert;

use cudasw_core::intra_improved::{ImprovedParams, VariantConfig};
use cudasw_core::{
    multi_gpu_search_resilient, CudaSwConfig, CudaSwDriver, IntraKernelChoice, RecoveryPolicy,
    SearchResult,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
use obs::{chrome, json, prom, MetricsRegistry, Trace};
use obs_assert::{MetricsAssert, TraceAssert};
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;

/// A database whose lengths straddle the (reduced) threshold so one
/// search exercises both kernels.
fn mixed_db() -> Database {
    database_with_lengths("obs", &[24, 40, 64, 80, 96, 120, 160, 220, 300, 420], 17)
}

fn config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra: IntraKernelChoice::Improved(VariantConfig::improved()),
        ..CudaSwConfig::improved()
    }
}

fn captured_search() -> (SearchResult, obs::Obs) {
    let db = mixed_db();
    let query = make_query(48, 5);
    obs::capture(move || {
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver.search(&query, &db).unwrap()
    })
}

#[test]
fn search_trace_has_nested_phase_kernel_and_transfer_spans() {
    let (_, run) = captured_search();
    TraceAssert::new()
        .has_span("search", 1)
        .has_span("stage_query", 1)
        .has_span("inter_task", 1)
        .has_span("intra_task", 1)
        .span_within("stage_query", "search")
        .span_within("inter_task", "search")
        .span_within("intra_task", "search")
        // Kernel spans nest inside their phase spans...
        .span_within("intra_improved", "intra_task")
        // ...and transfer spans inside the search.
        .span_within("h2d", "search")
        .span_within("d2h", "search")
        .all_closed()
        .check(&run.trace)
        .unwrap();
    // The whole phase tree, in order: the chunk loop a plain search runs
    // on opens no span of its own and records no recovery instant.
    let phases = run.trace.spans_in_cat("phase").map(|s| s.name.as_str());
    let expected = ["search", "stage_query", "inter_task", "intra_task"];
    assert_eq!(phases.collect::<Vec<_>>(), expected);
    assert!(run.trace.instants.is_empty(), "{:?}", run.trace.instants);
    // The inter-task kernel span exists and sits under its phase. (The
    // kernel span and the phase span share the name "inter_task"; check
    // by category to avoid the self-containment degenerate case.)
    let kernel_spans: Vec<_> = run.trace.spans_in_cat("kernel").collect();
    assert!(!kernel_spans.is_empty());
    let phase_names = ["inter_task", "intra_task"];
    for k in &kernel_spans {
        let parent = run
            .trace
            .spans
            .iter()
            .find(|s| Some(s.id) == k.parent)
            .expect("kernel span has a recorded parent");
        assert!(
            phase_names.contains(&parent.name.as_str()),
            "kernel span {:?} nests under {:?}, expected a phase span",
            k.name,
            parent.name
        );
    }
}

/// The one multi-GPU function counts every search a device ran — its own
/// shard in the first pass, and each sub-shard re-dispatched to it — and
/// puts each under that device's trace lane.
#[test]
fn multi_gpu_counts_each_shard_search_under_its_device_lane() {
    let db = mixed_db();
    let query = make_query(48, 5);
    // Device 0 dies on its first launch; device 1 takes its shard over.
    let plans = [FaultPlan::none().with_device_loss(FaultSite::Launch, 0)];
    let (r, run) = obs::capture(|| {
        let spec = DeviceSpec::tesla_c1060();
        let policy = RecoveryPolicy::default();
        multi_gpu_search_resilient(&spec, &config(), &query, &db, 2, &plans, &policy).unwrap()
    });
    assert_eq!(r.recovery.shard_redispatches, 1);
    let searches = |d| {
        run.metrics
            .counter("cudasw.core.shard.searches", &[("device", d)])
    };
    assert_eq!((searches("0"), searches("1")), (1.0, 2.0));
    // Lane 0 is the host, lane 1 + i device i.
    let lanes = |name: &str| -> Vec<u32> { run.trace.spans_named(name).map(|s| s.tid).collect() };
    assert_eq!(lanes("shard"), [1, 2]);
    assert_eq!(lanes("shard_redispatch"), [2]);
    assert_eq!(lanes("search"), [1, 2, 2]);
}

/// Acceptance check: the Chrome-trace JSON export (what
/// `repro trace --out` writes) is schema-valid and structurally nested.
#[test]
fn chrome_trace_export_is_schema_valid() {
    let (_, run) = captured_search();
    let text = chrome::to_chrome_json(&run.trace, run.clock);
    let n = chrome::validate_chrome_trace(&text).expect("schema-valid trace");
    // Metadata (thread names) + every span + every instant.
    assert_eq!(
        n,
        1 + run.trace.spans.len() + run.trace.instants.len(),
        "every recorded event must be exported"
    );

    // Independent structural pass over the parsed JSON: the "X" events
    // must include the search phase enclosing kernel and transfer events
    // on the timeline (ts within [search.ts, search.ts + search.dur]).
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let field = |ev: &json::Json, k: &str| ev.get(k).and_then(|v| v.as_f64()).unwrap();
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    let search = complete
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("search"))
        .expect("search span exported");
    let (s0, s1) = (
        field(search, "ts"),
        field(search, "ts") + field(search, "dur"),
    );
    let enclosed = |name: &str| {
        complete
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .all(|e| field(e, "ts") >= s0 && field(e, "ts") + field(e, "dur") <= s1)
    };
    for name in ["inter_task", "intra_task", "intra_improved", "h2d", "d2h"] {
        assert!(
            enclosed(name),
            "{name} events must lie within the search span"
        );
    }
}

#[test]
fn prometheus_snapshot_renders_the_search_counters() {
    let (_, run) = captured_search();
    let text = prom::to_prometheus_text(&run.metrics);
    for needle in [
        "# TYPE cudasw_core_phase_cells counter",
        "cudasw_core_phase_cells{phase=\"inter\"}",
        "cudasw_core_phase_cells{phase=\"intra\"}",
        "cudasw_gpu_sim_launch_calls",
        "# TYPE cudasw_gpu_sim_launch_duration_seconds histogram",
        "cudasw_gpu_sim_launch_duration_seconds_bucket",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// Phase accounting must not lose work: the per-phase cell counters sum
/// to the simulator's total, and the `RunStats` view the driver returns
/// is exactly the registry's per-phase slice.
#[test]
fn registry_phase_accounting_matches_run_stats_view() {
    let (result, run) = captured_search();
    MetricsAssert::new()
        .parts_sum_to(
            &[
                ("cudasw.core.phase.cells", &[("phase", "inter")]),
                ("cudasw.core.phase.cells", &[("phase", "intra")]),
            ],
            "cudasw.gpu_sim.launch.cells",
            &[],
            0.0,
        )
        .counter_eq(
            "cudasw.core.phase.launches",
            &[],
            (result.inter.launches + result.intra.launches) as f64,
            0.0,
        )
        .check(&run.metrics)
        .unwrap();
    let m = &run.metrics;
    for (phase, stats) in [("inter", &result.inter), ("intra", &result.intra)] {
        let labels = [("phase", phase)];
        assert_eq!(
            m.counter_sum("cudasw.core.phase.cells", &labels) as u64,
            stats.cells,
            "{phase} cells"
        );
        assert_eq!(
            m.counter_sum("cudasw.core.phase.global_transactions", &labels) as u64,
            stats.global_transactions,
            "{phase} transactions"
        );
        assert_eq!(
            m.counter_sum("cudasw.core.phase.seconds", &labels)
                .to_bits(),
            stats.seconds.to_bits(),
            "{phase} seconds reconstruct bit-for-bit"
        );
    }
}

/// Counters are monotone: running a second search on top of the first
/// only grows them, and `diff` isolates exactly the second search.
#[test]
fn counters_are_monotone_across_searches() {
    let db = mixed_db();
    let query = make_query(48, 5);
    let ((), run) = obs::capture(|| {
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c1060(), config());
        driver.search(&query, &db).unwrap();
        let after_first = obs::snapshot_metrics();
        driver.search(&query, &db).unwrap();
        let after_second = obs::snapshot_metrics();
        for (key, first) in after_first.counters() {
            let labels: Vec<(&str, &str)> = key
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let second = after_second.counter(&key.name, &labels);
            assert!(second >= first, "{} shrank: {first} -> {second}", key.name);
        }
        // The second, identical search contributes exactly the same cells.
        let delta = after_second.diff(&after_first);
        assert_eq!(
            delta.counter_sum("cudasw.gpu_sim.launch.cells", &[]),
            after_first.counter_sum("cudasw.gpu_sim.launch.cells", &[]),
        );
    });
    drop(run);
}

#[test]
fn ratio_check_reads_counters_across_label_subsets() {
    let mut r = MetricsRegistry::new();
    r.counter_add("tx", &[("variant", "original"), ("device", "0")], 80.0);
    r.counter_add("tx", &[("variant", "original"), ("device", "1")], 20.0);
    r.counter_add("tx", &[("variant", "improved")], 2.0);
    let ok = MetricsAssert::new().ratio_ge(
        "tx",
        &[("variant", "original")],
        "tx",
        &[("variant", "improved")],
        40.0,
    );
    assert!(ok.check(&r).is_ok());
    let too_high = MetricsAssert::new().ratio_ge(
        "tx",
        &[("variant", "original")],
        "tx",
        &[("variant", "improved")],
        60.0,
    );
    assert!(too_high.check(&r).is_err());
}

#[test]
fn zero_denominator_fails_rather_than_passing() {
    let mut r = MetricsRegistry::new();
    r.counter_add("a", &[], 5.0);
    let res = MetricsAssert::new()
        .ratio_ge("a", &[], "missing", &[], 1.0)
        .check(&r);
    assert!(res.unwrap_err().contains("zero"));
}

#[test]
fn failures_accumulate() {
    let r = MetricsRegistry::new();
    let err = MetricsAssert::new()
        .counter_ge("x", &[], 1.0)
        .counter_ge("y", &[], 2.0)
        .check(&r)
        .unwrap_err();
    assert_eq!(err.lines().count(), 2);
}

#[test]
fn parts_sum_check() {
    let mut r = MetricsRegistry::new();
    r.counter_add("s", &[("phase", "inter")], 3.0);
    r.counter_add("s", &[("phase", "intra")], 7.0);
    r.counter_add("total", &[], 10.0);
    let a = MetricsAssert::new().parts_sum_to(
        &[("s", &[("phase", "inter")]), ("s", &[("phase", "intra")])],
        "total",
        &[],
        1e-9,
    );
    assert!(a.check(&r).is_ok());
}

#[test]
fn trace_shape_checks() {
    let mut t = Trace::default();
    let search = t.begin("search", "phase", 0.0, 0);
    let intra = t.begin("intra_task", "phase", 1.0, 0);
    t.instant("fault", "fault", 1.5, 0, &[]);
    t.end(intra, 2.0, &[]);
    t.end(search, 3.0, &[]);

    assert!(TraceAssert::new()
        .has_span("search", 1)
        .span_within("intra_task", "search")
        .has_instant("fault", 1)
        .all_closed()
        .check(&t)
        .is_ok());
    assert!(TraceAssert::new()
        .span_within("search", "intra_task")
        .check(&t)
        .is_err());
}

/// A registry holding `value` under counter `name`.
fn registry_with(name: &str, value: f64) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.counter_add(name, &[], value);
    r
}

#[test]
fn nan_counter_fails_counter_ge() {
    let r = registry_with("x", f64::NAN);
    let err = MetricsAssert::new()
        .counter_ge("x", &[], 1.0)
        .check(&r)
        .unwrap_err();
    assert!(err.contains("x = NaN"), "{err}");
}

#[test]
fn nan_counter_fails_counter_eq() {
    let r = registry_with("x", f64::NAN);
    let err = MetricsAssert::new()
        .counter_eq("x", &[], 1.0, 0.5)
        .check(&r)
        .unwrap_err();
    assert!(err.contains("x = NaN"), "{err}");
}

#[test]
fn nan_numerator_or_denominator_fails_ratio_ge() {
    for (num, den) in [(f64::NAN, 1.0), (1.0, f64::NAN)] {
        let mut r = registry_with("num", num);
        r.counter_add("den", &[], den);
        let err = MetricsAssert::new()
            .ratio_ge("num", &[], "den", &[], 0.5)
            .check(&r)
            .unwrap_err();
        assert!(err.contains("num / den = NaN"), "{err}");
    }
}

#[test]
fn nan_part_or_whole_fails_parts_sum_to() {
    for (part, whole) in [(f64::NAN, 1.0), (1.0, f64::NAN)] {
        let mut r = registry_with("part", part);
        r.counter_add("whole", &[], whole);
        let err = MetricsAssert::new()
            .parts_sum_to(&[("part", &[])], "whole", &[], 0.5)
            .check(&r)
            .unwrap_err();
        assert!(err.contains("sum(part)"), "{err}");
    }
}
