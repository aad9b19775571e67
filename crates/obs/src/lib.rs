//! Observability for the CUDASW++ reproduction: structured tracing and
//! metrics on the *simulated* clock.
//!
//! Everything in this workspace that models GPU work — allocations,
//! transfers, kernel launches, recovery actions — reports into an ambient
//! per-thread [`Obs`] recorder. The recorder owns three things:
//!
//! - a **simulated clock** ([`Obs::now`]), advanced by the modeled
//!   duration of each operation (never wall time, so runs are
//!   deterministic and traces are reproducible bit-for-bit);
//! - a **span timeline** ([`Trace`]) of nested phases / kernels /
//!   transfers, exportable as a Chrome `trace_event` JSON file
//!   ([`chrome::to_chrome_json`]) that Perfetto loads directly;
//! - a **metrics registry** ([`MetricsRegistry`]) of labeled counters,
//!   gauges and histograms under the `cudasw.<crate>.<site>.<name>`
//!   naming convention, exportable as a Prometheus text snapshot
//!   ([`prom::to_prometheus_text`]).
//!
//! Instrumented code calls the free functions ([`counter_add`],
//! [`span`], [`instant`], [`advance`], ...) which write to the current
//! thread's recorder. Tests and the bench CLI wrap a run in [`capture`]
//! to get back everything it recorded:
//!
//! ```
//! let (result, run) = obs::capture(|| {
//!     let _s = obs::span("search", "phase");
//!     obs::counter_add("cudasw.core.phase.cells", &[("phase", "inter")], 128.0);
//!     obs::advance(0.25);
//!     42
//! });
//! assert_eq!(result, 42);
//! assert_eq!(run.metrics.counter_sum("cudasw.core.phase.cells", &[]), 128.0);
//! assert_eq!(run.trace.spans_named("search").count(), 1);
//! assert_eq!(run.clock, 0.25);
//! ```
//!
//! Metric recording is always on (counters are two map writes; the cost
//! is noise next to simulating a kernel). Span recording is on inside
//! [`capture`] and off otherwise, so deeply nested library code does not
//! grow an unbounded span vector when nobody is going to read it.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;

pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use span::{InstantEvent, Span, SpanId, Trace};

use std::cell::RefCell;

/// One thread's recorder state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obs {
    /// Simulated seconds elapsed.
    pub clock: f64,
    /// Recorded metrics.
    pub metrics: MetricsRegistry,
    /// Recorded span timeline (empty unless captured under [`capture`]).
    pub trace: Trace,
    /// Chrome-trace lane for new events: 0 = host, `1 + device_index`
    /// for device work.
    pub tid: u32,
    trace_enabled: bool,
}

thread_local! {
    static CURRENT: RefCell<Obs> = RefCell::new(Obs::default());
}

/// Run `f` with mutable access to the current thread's recorder.
pub fn with<R>(f: impl FnOnce(&mut Obs) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

/// Restores the previous recorder even if `f` panics.
struct Restore(Option<Obs>);

impl Drop for Restore {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Run `f` under a fresh recorder with span recording enabled, and
/// return `f`'s result together with everything it recorded. The
/// previous recorder is restored afterwards (captures nest).
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Obs) {
    let fresh = Obs {
        trace_enabled: true,
        ..Obs::default()
    };
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), fresh));
    let guard = Restore(Some(prev));
    let result = f();
    let mut recorded = CURRENT.with(|c| std::mem::take(&mut *c.borrow_mut()));
    drop(guard);
    // Close anything an early return left open so exports are well formed.
    let now = recorded.clock;
    let open: Vec<SpanId> = recorded
        .trace
        .spans
        .iter()
        .filter(|s| !s.is_closed())
        .map(|s| s.id)
        .collect();
    for id in open {
        recorded.trace.end(id, now, &[]);
    }
    (result, recorded)
}

/// Simulated seconds on the current thread's clock.
pub fn now() -> f64 {
    with(|o| o.clock)
}

/// Advance the simulated clock by `seconds` (a modeled duration:
/// kernel time, transfer time, backoff).
pub fn advance(seconds: f64) {
    with(|o| o.clock += seconds);
}

/// Set the Chrome-trace lane for subsequent events: 0 = host,
/// `1 + device_index` for device work. Returns the previous lane.
pub fn set_lane(tid: u32) -> u32 {
    with(|o| std::mem::replace(&mut o.tid, tid))
}

/// Add `delta` to a counter.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: f64) {
    with(|o| o.metrics.counter_add(name, labels, delta));
}

/// Set a gauge.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    with(|o| o.metrics.gauge_set(name, labels, value));
}

/// Observe into a histogram (see [`MetricsRegistry::histogram_observe`]).
pub fn histogram_observe(name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
    with(|o| o.metrics.histogram_observe(name, labels, bounds, value));
}

/// Wall-clock-safe latency bucket bounds for service latency histograms
/// (`cudasw.serve.latency_seconds` and friends). The range spans 100 µs
/// to 100 s: sub-millisecond resolution for the simulated fast path, and
/// enough headroom that a wall-clock overload tail (queueing under an
/// open-loop storm) lands in a finite bucket instead of being censored
/// into `+Inf`.
pub const LATENCY_SECONDS_BOUNDS: &[f64] = &[
    1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2, 3.0e-2, 1.0e-1, 3.0e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
];

/// Observe an end-to-end latency (seconds) into histogram `name` using
/// the shared [`LATENCY_SECONDS_BOUNDS`] bucketing.
pub fn observe_latency(name: &str, labels: &[(&str, &str)], seconds: f64) {
    histogram_observe(name, labels, LATENCY_SECONDS_BOUNDS, seconds);
}

/// Snapshot the current thread's metrics (for before/after
/// [`MetricsRegistry::diff`]s).
pub fn snapshot_metrics() -> MetricsRegistry {
    with(|o| o.metrics.clone())
}

/// Record a zero-duration event on the timeline (fault hit, retry, ...).
pub fn instant(name: &str, cat: &str, args: &[(&str, &str)]) {
    with(|o| {
        if o.trace_enabled {
            let (now, tid) = (o.clock, o.tid);
            o.trace.instant(name, cat, now, tid, args);
        }
    });
}

/// A span open on the current thread's recorder; ends when dropped, so
/// `?`-style early returns still close it. Use [`SpanGuard::end_with`]
/// to attach result annotations on the happy path.
#[must_use = "the span ends when this guard drops"]
pub struct SpanGuard {
    id: SpanId,
}

impl SpanGuard {
    /// End the span now, attaching `args`.
    pub fn end_with(self, args: &[(&str, &str)]) {
        with(|o| {
            let now = o.clock;
            o.trace.end(self.id, now, args);
        });
        std::mem::forget(self);
    }

    /// The underlying span id ([`SpanId::NONE`] outside [`capture`]).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        with(|o| {
            let now = o.clock;
            o.trace.end(self.id, now, &[]);
        });
    }
}

/// Open a span named `name` in category `cat`. Outside [`capture`] this
/// is free and records nothing.
pub fn span(name: &str, cat: &str) -> SpanGuard {
    let id = with(|o| {
        if o.trace_enabled {
            let (now, tid) = (o.clock, o.tid);
            o.trace.begin(name, cat, now, tid)
        } else {
            SpanId::NONE
        }
    });
    SpanGuard { id }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_isolates_and_restores() {
        counter_add("outside", &[], 1.0);
        let ((), inner) = capture(|| {
            counter_add("inside", &[], 2.0);
            advance(1.5);
        });
        assert_eq!(inner.metrics.counter("inside", &[]), 2.0);
        assert_eq!(inner.metrics.counter("outside", &[]), 0.0);
        assert_eq!(inner.clock, 1.5);
        // The outer recorder is back, untouched by the capture.
        assert!(now() >= 0.0);
        assert!(with(|o| o.metrics.counter("outside", &[]) >= 1.0));
    }

    #[test]
    fn captures_nest() {
        let ((), outer) = capture(|| {
            counter_add("a", &[], 1.0);
            let ((), inner) = capture(|| counter_add("b", &[], 5.0));
            assert_eq!(inner.metrics.counter("b", &[]), 5.0);
            assert_eq!(inner.metrics.counter("a", &[]), 0.0);
            counter_add("a", &[], 1.0);
        });
        assert_eq!(outer.metrics.counter("a", &[]), 2.0);
        assert_eq!(outer.metrics.counter("b", &[]), 0.0);
    }

    #[test]
    fn spans_record_only_under_capture() {
        {
            let g = span("quiet", "phase");
            assert_eq!(g.id(), SpanId::NONE);
        }
        let ((), run) = capture(|| {
            let g = span("loud", "phase");
            advance(1.0);
            g.end_with(&[("k", "v")]);
        });
        assert_eq!(run.trace.spans_named("loud").count(), 1);
        let s = run.trace.spans_named("loud").next().unwrap();
        assert_eq!(s.duration(), 1.0);
        assert_eq!(s.args, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn guard_drop_closes_on_early_return() {
        fn might_fail(fail: bool) -> Result<(), ()> {
            let _g = span("op", "phase");
            advance(0.5);
            if fail {
                return Err(());
            }
            Ok(())
        }
        let (res, run) = capture(|| might_fail(true));
        assert!(res.is_err());
        let s = run.trace.spans_named("op").next().unwrap();
        assert!(s.is_closed());
        assert_eq!(s.duration(), 0.5);
        assert_eq!(run.trace.open_count(), 0);
    }

    #[test]
    fn capture_closes_spans_leaked_past_the_closure() {
        let ((), run) = capture(|| {
            let g = span("leaked", "phase");
            advance(2.0);
            std::mem::forget(g);
        });
        assert!(run.trace.spans_named("leaked").next().unwrap().is_closed());
    }

    #[test]
    fn lane_scopes_events_to_devices() {
        let ((), run) = capture(|| {
            let prev = set_lane(3);
            instant("fault", "fault", &[]);
            set_lane(prev);
        });
        assert_eq!(run.trace.instants[0].tid, 3);
    }
}
