//! `bench compare a.json b.json`: judge document `b` against reference
//! `a` by the bounds and directions `BENCHMARK.json` declares.

use crate::metrics::{Bounded, Declared};
use crate::parse_flags;
use obs::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
}

/// `b` against reference `a`: worse (better) when it moved against (in)
/// the metric's good direction by more than `bound` × |a|.
pub fn verdict(metric: &Bounded, a: f64, b: f64) -> Verdict {
    let gain = if metric.higher_is_better {
        b - a
    } else {
        a - b
    };
    let margin = metric.bound * a.abs();
    if gain < -margin {
        Verdict::Worse
    } else if gain > margin {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Header fields that must agree before two documents are comparable.
const SAME_MACHINE: [&str; 5] = ["nproc", "backend", "kernel_mode", "seconds", "quick"];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(crate::run::SCHEMA) => Ok(doc),
        other => Err(format!(
            "{path}: schema {other:?} is not {:?}",
            crate::run::SCHEMA
        )),
    }
}

fn value(doc: &Json, workload: &str, group: &str, name: &str) -> Option<f64> {
    let metric = doc.get("workloads")?.get(workload)?.get(group)?.get(name)?;
    metric.get("value")?.as_f64()
}

pub fn main(argv: &[String]) -> Result<bool, String> {
    let (flags, paths) = parse_flags(argv);
    let [a_path, b_path] = paths.as_slice() else {
        return Err("usage: bench compare <a.json> <b.json> [--benchmark BENCHMARK.json]".into());
    };
    let declared = Declared::load(flags.get("benchmark").map_or("BENCHMARK.json", |s| s))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let header = |doc: &Json, key: &str| doc.get("header").and_then(|h| h.get(key)).cloned();
    for key in SAME_MACHINE {
        if header(&a, key) != header(&b, key) {
            return Err(format!(
                "not comparable: {key} is {:?} in {a_path} and {:?} in {b_path}",
                header(&a, key),
                header(&b, key)
            ));
        }
    }
    let same_seed = header(&a, "seed") == header(&b, "seed");

    let mut any_worse = false;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let pair = (
                value(&a, workload, "end_to_end", &metric.name),
                value(&b, workload, "end_to_end", &metric.name),
            );
            let (Some(x), Some(y)) = pair else {
                return Err(format!(
                    "{workload} {}: missing from a document",
                    metric.name
                ));
            };
            let v = verdict(metric, x, y);
            any_worse |= v == Verdict::Worse;
            println!(
                "{workload:<16} {:<28} {x:>14.4} {y:>14.4} {:>+7.1}%  {}",
                metric.name,
                (y - x) / x.abs() * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        // Simulated-clock numbers are counted, not timed: for one seed
        // they repeat to the bit.
        for (name, _) in declared
            .per_layer
            .iter()
            .filter(|(n, _)| n.starts_with("core."))
        {
            let x = value(&a, workload, "per_layer", name);
            let y = value(&b, workload, "per_layer", name);
            if same_seed && x.map(f64::to_bits) != y.map(f64::to_bits) {
                any_worse = true;
                println!(
                    "{workload:<16} {name:<28} {x:>14?} {y:>14?} {:>8}  worse (not exact)",
                    ""
                );
            }
        }
    }
    println!(
        "{}",
        if any_worse {
            "worse: at least one metric left its bound"
        } else {
            "ok: every metric is within its bound"
        }
    );
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Bounded {
        Bounded {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        let rate = metric(true, 0.08);
        assert_eq!(verdict(&rate, 100.0, 93.0), Verdict::Ok);
        assert_eq!(verdict(&rate, 100.0, 91.9), Verdict::Worse);
        assert_eq!(verdict(&rate, 100.0, 108.1), Verdict::Better);
        let latency = metric(false, 0.10);
        assert_eq!(verdict(&latency, 50.0, 54.9), Verdict::Ok);
        assert_eq!(verdict(&latency, 50.0, 55.1), Verdict::Worse);
        assert_eq!(verdict(&latency, 50.0, 44.9), Verdict::Better);
        // The margin scales with the reference, not with the candidate.
        assert_eq!(verdict(&latency, 50.0, 55.0), Verdict::Ok);
    }

    #[test]
    fn declared_bounds_are_read_from_the_benchmark_file() {
        let d = Declared::parse(
            r#"{"run_seconds": 10, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "gcups", "unit": "GCUPS", "better": "higher", "bound": 0.08},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "core.launches", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(d.workloads, ["w"]);
        assert!(d.end_to_end[0].higher_is_better && !d.end_to_end[1].higher_is_better);
        assert_eq!(d.end_to_end[1].bound, 0.25);
        assert_eq!(
            d.per_layer,
            [("core.launches".to_string(), "count".to_string())]
        );
        assert!(Declared::parse(r#"{"run_seconds": 10}"#).is_err());
    }
}
