//! Labeled metrics: counters, gauges and histograms in one registry.
//!
//! Metric names follow the workspace convention
//! `cudasw.<crate>.<site>.<name>` (e.g.
//! `cudasw.gpu_sim.launch.global_transactions`); labels scope a sample to
//! a device, kernel or driver phase. Values are `f64` — exact for every
//! integer counter this workspace produces (all far below 2^53), and the
//! natural type for simulated seconds.
//!
//! The registry is a value, not a service: it can be [cloned](Clone) as a
//! snapshot, [diffed](MetricsRegistry::diff) against an earlier snapshot
//! to isolate one operation, and [merged](MetricsRegistry::merge) with
//! another registry. Merging is associative and commutative (counters and
//! histograms add, gauges keep the maximum — a high-water mark), which is
//! what makes per-device registries aggregate deterministically in any
//! order; `crates/obs/tests/proptests.rs` pins that property.

use std::collections::BTreeMap;

/// A metric name plus its sorted label set — the registry key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name (`cudasw.<crate>.<site>.<name>`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so equal label sets compare equal.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// True when every pair of `subset` appears among this key's labels.
    pub fn matches(&self, name: &str, subset: &[(&str, &str)]) -> bool {
        self.name == name
            && subset
                .iter()
                .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

/// A fixed-bound histogram (cumulative export, Prometheus-style).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, ascending; an implicit `+Inf`
    /// bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Fold `other` into this histogram. Requires equal bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// This histogram minus an `earlier` snapshot of it.
    fn since(&self, earlier: &Histogram) -> Histogram {
        assert_eq!(self.bounds, earlier.bounds, "histogram bounds must match");
        Histogram {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a - b)
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }
}

/// All metrics of one scope (a thread, a device, a captured run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, f64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter (created at zero on first touch).
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0.0) += delta;
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Observe `value` into a histogram. `bounds` are used only when the
    /// histogram does not exist yet; later observations reuse the
    /// established buckets.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Value of one exact counter (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0.0)
    }

    /// Sum of every counter named `name` whose labels contain all of
    /// `subset` (e.g. all devices of one phase).
    pub fn counter_sum(&self, name: &str, subset: &[(&str, &str)]) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.matches(name, subset))
            .map(|(_, v)| v)
            .sum()
    }

    /// Value of one exact gauge (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.gauges
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0.0)
    }

    /// One exact histogram, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    /// Insert a fully-formed histogram, merging with any existing one
    /// under the same key (checkpoint restore / deserialization path —
    /// a histogram rebuilt from its public fields re-enters the registry
    /// exactly as recorded).
    pub fn histogram_insert(&mut self, name: &str, labels: &[(&str, &str)], histogram: Histogram) {
        match self.histograms.entry(MetricKey::new(name, labels)) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&histogram),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(histogram);
            }
        }
    }

    /// Fold `other` into this registry: counters and histograms add,
    /// gauges keep the maximum (high-water semantics). Associative and
    /// commutative — aggregation order does not matter.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *e = e.max(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// This registry minus an `earlier` snapshot: counters and histograms
    /// subtract, gauges keep their current value. Isolates the metrics of
    /// one operation out of an accumulating registry.
    pub fn diff(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (k, v) in &self.counters {
            let before = earlier.counters.get(k).copied().unwrap_or(0.0);
            if *v != before {
                out.counters.insert(k.clone(), v - before);
            }
        }
        out.gauges = self.gauges.clone();
        for (k, h) in &self.histograms {
            match earlier.histograms.get(k) {
                Some(before) if before.count > 0 => {
                    let d = h.since(before);
                    if d.count > 0 {
                        out.histograms.insert(k.clone(), d);
                    }
                }
                Some(_) | None => {
                    out.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        out
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Iterate counters in key order (exporters).
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate gauges in key order (exporters).
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate histograms in key order (exporters).
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = MetricsRegistry::new();
        r.counter_add("cudasw.t.x.n", &[("phase", "inter")], 2.0);
        r.counter_add("cudasw.t.x.n", &[("phase", "inter")], 3.0);
        r.counter_add("cudasw.t.x.n", &[("phase", "intra")], 7.0);
        assert_eq!(r.counter("cudasw.t.x.n", &[("phase", "inter")]), 5.0);
        assert_eq!(r.counter_sum("cudasw.t.x.n", &[]), 12.0);
        assert_eq!(r.counter_sum("cudasw.t.x.n", &[("phase", "intra")]), 7.0);
    }

    #[test]
    fn label_order_is_canonical() {
        let a = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        let b = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    fn diff_isolates_an_operation() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", &[], 10.0);
        let before = r.clone();
        r.counter_add("c", &[], 4.0);
        r.counter_add("d", &[], 1.0);
        let delta = r.diff(&before);
        assert_eq!(delta.counter("c", &[]), 4.0);
        assert_eq!(delta.counter("d", &[]), 1.0);
    }

    #[test]
    fn merge_adds_counters_and_keeps_gauge_high_water() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", &[], 1.0);
        a.gauge_set("g", &[], 5.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", &[], 2.0);
        b.gauge_set("g", &[], 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 3.0);
        assert_eq!(a.gauge("g", &[]), 5.0);
    }

    #[test]
    fn histogram_insert_roundtrips_and_merges() {
        let mut r = MetricsRegistry::new();
        r.histogram_observe("h", &[], &[1.0, 10.0], 0.5);
        let snapshot = r.histogram("h", &[]).unwrap().clone();
        let mut restored = MetricsRegistry::new();
        restored.histogram_insert("h", &[], snapshot.clone());
        assert_eq!(restored.histogram("h", &[]), Some(&snapshot));
        // Inserting into an existing key merges.
        restored.histogram_insert("h", &[], snapshot.clone());
        assert_eq!(restored.histogram("h", &[]).unwrap().count, 2);
    }

    #[test]
    fn histogram_buckets_are_cumulative_ready() {
        let mut r = MetricsRegistry::new();
        for v in [0.5, 1.5, 100.0] {
            r.histogram_observe("h", &[], &[1.0, 10.0], v);
        }
        let h = r.histogram("h", &[]).unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.sum - 102.0).abs() < 1e-12);
    }
}
