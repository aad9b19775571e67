//! The metric catalog and the reduction from measured operations to the
//! end-to-end numbers. `BENCHMARK.json` declares the same names and
//! units; `bench run` checks the two against each other.

use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Span;
use obs::json::{self, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// All are wall-clock; simulated-clock numbers live under `core.`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gcups", "GCUPS"),
    ("served_qps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("slo_ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not call reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("db.synth_s", "s"),
    ("db.residues", "count"),
    ("db.planted_frac", "frac"),
    ("align.oracle_mcups", "MCUPS"),
    ("simd.engine.gcups_1t", "GCUPS"),
    ("simd.engine.profile_build_us", "us"),
    ("simd.engine.cells", "count"),
    ("simd.engine.word_rerun_frac", "frac"),
    ("simd.engine.lazy_f_per_kcell", "1/kcell"),
    ("simd.pool.gcups_1t", "GCUPS"),
    ("simd.pool.gcups_nt", "GCUPS"),
    ("simd.pool.scaling_eff", "frac"),
    ("simd.pool.tax_1t", "frac"),
    ("simd.pool.steals", "count"),
    ("simd.pool.fault_events", "count"),
    ("simd.pool.small_search_ms_1t", "ms"),
    ("simd.pool.small_search_ms_nt", "ms"),
    ("gateway.start_ms", "ms"),
    ("gateway.shutdown_ms", "ms"),
    ("gateway.waves", "count"),
    ("gateway.wave_size_mean", "count"),
    ("gateway.tax_ms_p50", "ms"),
    ("gateway.util_est", "frac"),
    ("gateway.gcups", "GCUPS"),
    ("gateway.latency_ms_p99", "ms"),
    ("gateway.deadline_miss_frac", "frac"),
    ("gateway.degraded_frac", "frac"),
    ("gateway.aborted", "count"),
    ("gateway.duplicate_commits", "count"),
    ("serve.admitted", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_tenant_quota", "count"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.threads", "count"),
    ("core.sim_gcups", "GCUPS"),
    ("core.sim_intra_speedup", "ratio"),
    ("core.inter_gcups_sim", "GCUPS"),
    ("core.intra_gcups_sim_improved", "GCUPS"),
    ("core.intra_gcups_sim_original", "GCUPS"),
    ("core.intra_time_frac_improved", "frac"),
    ("core.intra_time_frac_original", "frac"),
    ("core.inter_global_tx", "count"),
    ("core.intra_global_tx_improved", "count"),
    ("core.intra_global_tx_original", "count"),
    ("core.intra_tx_ratio", "ratio"),
    ("core.h2d_s_sim", "s"),
    ("core.launches", "count"),
    ("core.fraction_long", "frac"),
    ("gpu-sim.host_s_improved", "s"),
    ("gpu-sim.host_s_original", "s"),
    ("gpu-sim.host_ns_per_cell", "ns"),
    ("gpu-sim.host_us_per_launch", "us"),
    ("gpu-sim.host_mcups", "MCUPS"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.spans", "count"),
];

/// One timed operation: a query scan, a gateway request or a device
/// search.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operations of one kind do the same work (same query, same device
    /// configuration); tracing overhead is compared within a kind.
    pub kind: u32,
    /// Spans were recorded around this operation.
    pub traced: bool,
    /// Wall milliseconds the caller waited (open loop: from due time).
    pub ms: f64,
    /// DP cells the operation computed.
    pub cells: u64,
    /// The result arrived and every check on it passed.
    pub ok: bool,
}

/// A slice of the timed phase that does the same work as every other
/// slice: one pass over the query set, one improved/original pair, or
/// (serving) the whole run.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: Vec<Op>,
    /// Wall seconds from the round's first operation to its last result.
    pub wall_s: f64,
}

impl Round {
    /// `gcups`, `served_qps`, `latency_ms_p50` and `latency_ms_p90` of
    /// this round's correct operations.
    pub fn summary(&self) -> [f64; 4] {
        let good: Vec<&Op> = self.ops.iter().filter(|o| o.ok).collect();
        let ms = sorted(good.iter().map(|o| o.ms).collect());
        let cells: u64 = good.iter().map(|o| o.cells).sum();
        [
            cells as f64 / self.wall_s / 1.0e9,
            good.len() as f64 / self.wall_s,
            percentile(&ms, 50.0),
            percentile(&ms, 90.0),
        ]
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each repeated set-up.
    pub setups_s: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Latency limit an operation must meet to count in `slo_ok_frac`.
    pub latency_limit_ms: Option<f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Run-level gates that failed (each makes the run incorrect).
    pub violations: Vec<String>,
}

impl Measured {
    /// Build the workload's fixture [`SETUP_REPEATS`] times, timing each
    /// build; all but the last are torn down (untimed) before the next.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> T {
        loop {
            let t0 = Instant::now();
            let fixture = build();
            self.setups_s.push(t0.elapsed().as_secs_f64());
            if self.setups_s.len() == SETUP_REPEATS {
                return fixture;
            }
            teardown(fixture);
        }
    }

    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.rounds.iter().flat_map(|r| &r.ops)
    }

    pub fn ops_mut(&mut self) -> impl Iterator<Item = &mut Op> {
        self.rounds.iter_mut().flat_map(|r| &mut r.ops)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not in the per-layer catalog"
        );
        self.layer.insert(name, value);
    }

    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn attempted(&self) -> usize {
        self.ops().count()
    }

    pub fn failed(&self) -> usize {
        self.ops().filter(|o| !o.ok).count()
    }

    /// The end-to-end metrics, in catalog order. Rates and latency
    /// percentiles are taken per round and reported at the quartile of
    /// the rounds nearer the undisturbed end (upper for a rate, lower for
    /// a latency): the sandbox slows for seconds at a time, interference
    /// only ever slows a round, and the rounds all do the same work.
    pub fn end_to_end(&self) -> Vec<f64> {
        let over_rounds = |i: usize, quartile: f64| {
            percentile(
                &sorted(self.rounds.iter().map(|r| r.summary()[i]).collect()),
                quartile,
            )
        };
        let within = self
            .ops()
            .filter(|o| o.ok && self.latency_limit_ms.is_none_or(|l| o.ms <= l))
            .count();
        vec![
            median(&self.setups_s),
            over_rounds(0, 75.0),
            over_rounds(1, 75.0),
            over_rounds(2, 25.0),
            over_rounds(3, 25.0),
            within as f64 / self.attempted().max(1) as f64,
            peak_rss_mb(),
        ]
    }

    /// Mean traced latency over mean untraced latency, minus one, with
    /// every kind of operation weighted equally.
    pub fn trace_overhead_frac(&self) -> f64 {
        let mut by_kind: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for o in self.ops() {
            let e = by_kind.entry(o.kind).or_default();
            if o.traced { &mut e.0 } else { &mut e.1 }.push(o.ms);
        }
        let (mut traced, mut plain) = (0.0, 0.0);
        for (t, p) in by_kind.values() {
            if !t.is_empty() && !p.is_empty() {
                traced += mean(t);
                plain += mean(p);
            }
        }
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Debug)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("no {key} list"))
        };
        let text_of = |item: &Json, key: &str| {
            let value = item.get(key).and_then(Json::as_str);
            value
                .map(str::to_string)
                .ok_or(format!("an entry lacks {key}"))
        };
        let mut end_to_end = Vec::new();
        for item in list("end_to_end")? {
            end_to_end.push(Bounded {
                name: text_of(item, "name")?,
                unit: text_of(item, "unit")?,
                higher_is_better: match text_of(item, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better: {other:?}")),
                },
                bound: item
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an entry lacks bound")?,
            });
        }
        let mut per_layer = Vec::new();
        for item in list("per_layer")? {
            per_layer.push((text_of(item, "name")?, text_of(item, "unit")?));
        }
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            end_to_end,
            per_layer,
        })
    }

    /// The file declares exactly the workloads and the catalog this
    /// program prints, names and units, in order.
    pub fn check_catalog(&self) -> Result<(), String> {
        let pairs = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let declared: Vec<(String, String)> = self
            .end_to_end
            .iter()
            .map(|b| (b.name.clone(), b.unit.clone()))
            .collect();
        if declared != pairs(END_TO_END) {
            return Err("end_to_end differs from the program's catalog".to_string());
        }
        if self.per_layer != pairs(PER_LAYER) {
            return Err("per_layer differs from the program's catalog".to_string());
        }
        if self.workloads != crate::WORKLOADS {
            return Err("workloads differ from the program's".to_string());
        }
        Ok(())
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for a catalog and its values.
pub fn metrics_json(catalog: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = catalog
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: u32, traced: bool, ms: f64, ok: bool) -> Op {
        Op {
            kind,
            traced,
            ms,
            cells: 1_000_000_000,
            ok,
        }
    }

    #[test]
    fn failed_and_late_operations_miss_the_slo() {
        let m = Measured {
            setups_s: vec![3.0, 1.0, 2.0],
            rounds: vec![Round {
                ops: vec![
                    op(0, false, 10.0, true),
                    op(0, false, 20.0, true),
                    op(0, false, 300.0, true),
                    op(0, false, 5.0, false),
                ],
                wall_s: 2.0,
            }],
            latency_limit_ms: Some(250.0),
            ..Measured::default()
        };
        let e = m.end_to_end();
        assert_eq!(e[0], 2.0); // median set-up
        assert_eq!(e[1], 1.5); // 3 good Gcells over 2 s
        assert_eq!(e[2], 1.5);
        assert_eq!(e[3], 20.0);
        assert_eq!(e[4], 300.0);
        assert_eq!(e[5], 0.5); // 2 of 4 attempted met the limit
        assert_eq!((m.attempted(), m.failed()), (4, 1));
    }

    #[test]
    fn rates_and_percentiles_take_the_undisturbed_quartile_of_rounds() {
        let round = |ms: f64, wall_s: f64| Round {
            ops: vec![op(0, false, ms, true), op(1, false, 2.0 * ms, true)],
            wall_s,
        };
        let m = Measured {
            rounds: vec![
                round(10.0, 1.0),
                round(50.0, 4.0), // disturbed
                round(12.0, 2.0),
                round(11.0, 1.25),
                round(40.0, 4.0), // disturbed
            ],
            ..Measured::default()
        };
        let e = m.end_to_end();
        // 2 Gcells per round over 1, 4, 2, 1.25 and 4 s: rates 2, 0.5, 1,
        // 1.6, 0.5; the upper quartile (rank 4 of 5) is 1.6.
        assert_eq!(e[1], 1.6);
        // Per-round p50 10, 50, 12, 11, 40: lower quartile (rank 2) 11.
        assert_eq!(e[3], 11.0);
        assert_eq!(e[4], 22.0);
    }

    #[test]
    fn overhead_compares_within_a_kind() {
        let m = Measured {
            rounds: vec![Round {
                ops: vec![
                    op(0, true, 11.0, true),
                    op(0, false, 10.0, true),
                    op(1, true, 110.0, true),
                    op(1, false, 100.0, true),
                    op(2, true, 5.0, true), // no untraced partner: ignored
                ],
                wall_s: 1.0,
            }],
            ..Measured::default()
        };
        assert!((m.trace_overhead_frac() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            // The two-clock rule: simulated-clock numbers are per-layer.
            let simulated = n.contains("sim_") || n.ends_with("_sim");
            assert!(!simulated || n.starts_with("core."));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
