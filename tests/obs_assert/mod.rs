//! Assertion harness over captured metrics and traces.
//!
//! Tests phrase paper claims as declarative checks
//! (`ratio_ge("…original…", "…improved…", 40.0)`,
//! `span_within("intra_task", "search")`) and call
//! [`MetricsAssert::check`] / [`TraceAssert::check`] once; every failed
//! check is reported together instead of stopping at the first. A NaN
//! value fails every metric check.
//!
//! Test support, included by `tests/paper_claims.rs` and
//! `tests/observability.rs` with `mod obs_assert;`; each suite uses part
//! of it.
#![allow(dead_code)]

use obs::{MetricsRegistry, Trace};

/// A named counter lookup: counter name plus a label subset it must match.
struct CounterSel {
    /// Counter name.
    name: String,
    /// Label subset (every listed pair must be present).
    labels: Vec<(String, String)>,
}

impl CounterSel {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn value(&self, reg: &MetricsRegistry) -> f64 {
        let labels: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        reg.counter_sum(&self.name, &labels)
    }
}

/// `a >= b`, which is false when either side is NaN. Each metric check
/// fails when this is false, so a NaN fails it; a failure condition
/// written as `a < b` would let NaN pass.
fn at_least(a: f64, b: f64) -> bool {
    a >= b
}

enum MetricCheck {
    Ge(CounterSel, f64),
    EqApprox(CounterSel, f64, f64),
    RatioGe(CounterSel, CounterSel, f64),
    SumEq(Vec<CounterSel>, CounterSel, f64),
}

/// Collects metric checks, then evaluates them all against one registry.
#[derive(Default)]
pub struct MetricsAssert {
    checks: Vec<MetricCheck>,
}

impl MetricsAssert {
    /// An empty assertion set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Require `counter >= min`.
    pub fn counter_ge(mut self, name: &str, labels: &[(&str, &str)], min: f64) -> Self {
        self.checks
            .push(MetricCheck::Ge(CounterSel::new(name, labels), min));
        self
    }

    /// Require `|counter - expected| <= tol`.
    pub fn counter_eq(
        mut self,
        name: &str,
        labels: &[(&str, &str)],
        expected: f64,
        tol: f64,
    ) -> Self {
        self.checks.push(MetricCheck::EqApprox(
            CounterSel::new(name, labels),
            expected,
            tol,
        ));
        self
    }

    /// Require `numerator / denominator >= min` (fails if the denominator
    /// is zero). This is how Table I's "at least N:1 reduction" claims
    /// are written.
    pub fn ratio_ge(
        mut self,
        num_name: &str,
        num_labels: &[(&str, &str)],
        den_name: &str,
        den_labels: &[(&str, &str)],
        min: f64,
    ) -> Self {
        self.checks.push(MetricCheck::RatioGe(
            CounterSel::new(num_name, num_labels),
            CounterSel::new(den_name, den_labels),
            min,
        ));
        self
    }

    /// Require the values of `parts` to sum to the value of `whole`
    /// within `tol` — phase accounting must not lose work.
    pub fn parts_sum_to(
        mut self,
        parts: &[(&str, &[(&str, &str)])],
        whole_name: &str,
        whole_labels: &[(&str, &str)],
        tol: f64,
    ) -> Self {
        self.checks.push(MetricCheck::SumEq(
            parts.iter().map(|(n, l)| CounterSel::new(n, l)).collect(),
            CounterSel::new(whole_name, whole_labels),
            tol,
        ));
        self
    }

    /// Evaluate every check; `Err` lists all failures.
    pub fn check(&self, reg: &MetricsRegistry) -> Result<(), String> {
        let mut failures = Vec::new();
        for check in &self.checks {
            match check {
                MetricCheck::Ge(sel, min) => {
                    let v = sel.value(reg);
                    if !at_least(v, *min) {
                        failures.push(format!("{} = {v}, expected >= {min}", sel.name));
                    }
                }
                MetricCheck::EqApprox(sel, expected, tol) => {
                    let v = sel.value(reg);
                    if !at_least(*tol, (v - expected).abs()) {
                        failures.push(format!("{} = {v}, expected {expected} (±{tol})", sel.name));
                    }
                }
                MetricCheck::RatioGe(num, den, min) => {
                    let n = num.value(reg);
                    let d = den.value(reg);
                    if d == 0.0 {
                        failures.push(format!("{} is zero (ratio undefined)", den.name));
                    } else if !at_least(n / d, *min) {
                        failures.push(format!(
                            "{} / {} = {:.2} ({n} / {d}), expected >= {min}",
                            num.name,
                            den.name,
                            n / d
                        ));
                    }
                }
                MetricCheck::SumEq(parts, whole, tol) => {
                    let sum: f64 = parts.iter().map(|p| p.value(reg)).sum();
                    let w = whole.value(reg);
                    if !at_least(*tol, (sum - w).abs()) {
                        let names: Vec<&str> = parts.iter().map(|p| p.name.as_str()).collect();
                        failures.push(format!(
                            "sum({}) = {sum}, expected {} = {w} (±{tol})",
                            names.join(" + "),
                            whole.name
                        ));
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

enum TraceCheck {
    HasSpan(String, usize),
    Within(String, String),
    HasInstant(String, usize),
    AllClosed,
}

/// Collects trace-shape checks, then evaluates them against one trace.
#[derive(Default)]
pub struct TraceAssert {
    checks: Vec<TraceCheck>,
}

impl TraceAssert {
    /// An empty assertion set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Require at least `min` spans with this name.
    pub fn has_span(mut self, name: &str, min: usize) -> Self {
        self.checks.push(TraceCheck::HasSpan(name.to_string(), min));
        self
    }

    /// Require every span named `inner` to be a descendant of some span
    /// named `outer` — e.g. `phase("intra") ⊂ phase("search")`.
    pub fn span_within(mut self, inner: &str, outer: &str) -> Self {
        self.checks
            .push(TraceCheck::Within(inner.to_string(), outer.to_string()));
        self
    }

    /// Require at least `min` instant events with this name.
    pub fn has_instant(mut self, name: &str, min: usize) -> Self {
        self.checks
            .push(TraceCheck::HasInstant(name.to_string(), min));
        self
    }

    /// Require every span to be closed (no dangling phases).
    pub fn all_closed(mut self) -> Self {
        self.checks.push(TraceCheck::AllClosed);
        self
    }

    /// Evaluate every check; `Err` lists all failures.
    pub fn check(&self, trace: &Trace) -> Result<(), String> {
        let mut failures = Vec::new();
        for check in &self.checks {
            match check {
                TraceCheck::HasSpan(name, min) => {
                    let n = trace.spans_named(name).count();
                    if n < *min {
                        failures.push(format!("{n} spans named {name:?}, expected >= {min}"));
                    }
                }
                TraceCheck::Within(inner, outer) => {
                    let outers: Vec<_> = trace.spans_named(outer).map(|s| s.id).collect();
                    if outers.is_empty() {
                        failures.push(format!("no span named {outer:?} to nest within"));
                        continue;
                    }
                    for s in trace.spans_named(inner) {
                        if !outers.iter().any(|o| trace.is_descendant(s.id, *o)) {
                            failures.push(format!(
                                "span {inner:?} (id {}) is not inside any {outer:?}",
                                s.id.0
                            ));
                        }
                    }
                }
                TraceCheck::HasInstant(name, min) => {
                    let n = trace.instants_named(name).count();
                    if n < *min {
                        failures.push(format!("{n} instants named {name:?}, expected >= {min}"));
                    }
                }
                TraceCheck::AllClosed => {
                    let open: Vec<&str> = trace
                        .spans
                        .iter()
                        .filter(|s| !s.is_closed())
                        .map(|s| s.name.as_str())
                        .collect();
                    if !open.is_empty() {
                        failures.push(format!("spans left open: {}", open.join(", ")));
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}
