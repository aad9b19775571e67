//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call into a library layer, kept in
//! memory, and written once at exit as a Chrome trace. `sw_obs`'s
//! recorder nests spans on one thread's stack on the simulated clock;
//! requests in flight overlap on the wall clock, so a span here names its
//! parent explicitly and carries the id of the request it belongs to.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One recorded interval, nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one request.
    pub request: u64,
    /// Recording thread (0 = the benchmark's main thread).
    pub tid: u32,
}

/// An in-memory span buffer owned by one thread.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let start_ns = ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: ns(end).max(start_ns),
            parent,
            request,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    /// Append another thread's buffer, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, milliseconds, in first-seen order.
pub fn self_ms_by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64)> {
    let mut out: Vec<(&'static str, usize, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += ns as f64 / 1.0e6;
            }
            None => out.push((s.name, 1, ns as f64 / 1.0e6)),
        }
    }
    out
}

/// Render the spans as a Chrome `trace_event` document (timestamps in
/// microseconds of wall time since the epoch).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut first = true;
    for tid in tids {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let name = if tid == 0 {
            "bench main".to_string()
        } else {
            format!("bench client {tid}")
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\
             \"request\":{},\"self_us\":{:.3}}}}}",
            obs::json::escape(s.name),
            s.start_ns as f64 / 1.0e3,
            (s.end_ns - s.start_ns) as f64 / 1.0e3,
            s.tid,
            s.request,
            self_ns as f64 / 1.0e3,
        );
    }
    out.push_str("]}");
    out
}

/// Validate and write the trace to `benchmark/out/trace_<workload>.json`.
pub fn write_chrome(workload: &str, spans: &[Span]) -> Result<PathBuf, String> {
    let doc = chrome_json(spans);
    obs::chrome::validate_chrome_trace(&doc)?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the previous child
            span(90, 120, Some(0)), // clipped to the parent's end
            span(15, 20, Some(1)),  // grandchild: only its parent pays
        ];
        // Children cover [10, 60) and [90, 100): 60 of the root's 100.
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn absorb_rebases_parents_and_the_trace_validates() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, 0);
        let t = Instant::now();
        let root = main.record("root", t, t, None, 1);
        main.record("leaf", t, t, Some(root), 1);
        let mut client = Tracer::new(epoch, 1);
        let r = client.record("root", t, t, None, 2);
        client.record("leaf", t, t, Some(r), 2);
        main.absorb(client);
        assert_eq!(main.spans[3].parent, Some(2));
        assert_eq!(main.spans[3].tid, 1);
        let doc = chrome_json(&main.spans);
        // Two thread-name records plus four spans.
        assert_eq!(obs::chrome::validate_chrome_trace(&doc), Ok(6));
    }
}
