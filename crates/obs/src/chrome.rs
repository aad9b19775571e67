//! Chrome `trace_event` exporter (Perfetto / `chrome://tracing` loadable).
//!
//! Emits the JSON object form: `{"traceEvents": [...]}` with complete
//! (`"ph": "X"`) events for spans, instant (`"ph": "i"`) events, and
//! thread-name metadata (`"ph": "M"`) records naming each device lane.
//! Timestamps are microseconds of *simulated* time, so the viewer shows
//! the modeled GPU timeline, not host wall clock.

use crate::json::{self, Json};
use crate::span::Trace;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Process id used for every event (single simulated process).
const PID: u32 = 1;

fn push_args(out: &mut String, args: &[(String, String)]) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
    }
    out.push('}');
}

/// Render `trace` as a Chrome `trace_event` JSON document.
///
/// Open spans are exported with the duration they had accumulated by
/// `now` (the clock at export time), so a trace dumped mid-failure still
/// loads.
pub fn to_chrome_json(trace: &Trace, now: f64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    let tids: BTreeSet<u32> = trace
        .spans
        .iter()
        .map(|s| s.tid)
        .chain(trace.instants.iter().map(|i| i.tid))
        .collect();
    for tid in tids {
        sep(&mut out);
        let name = if tid == 0 {
            "host".to_string()
        } else {
            format!("device {}", tid - 1)
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(&name)
        );
    }

    for s in &trace.spans {
        sep(&mut out);
        let end = if s.is_closed() {
            s.end
        } else {
            now.max(s.start)
        };
        let ts = s.start * 1e6;
        let dur = (end - s.start).max(0.0) * 1e6;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":{PID},\"tid\":{},",
            json::escape(&s.name),
            json::escape(&s.cat),
            s.tid
        );
        push_args(&mut out, &s.args);
        out.push('}');
    }

    for i in &trace.instants {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
             \"pid\":{PID},\"tid\":{},",
            json::escape(&i.name),
            json::escape(&i.cat),
            i.at * 1e6,
            i.tid
        );
        push_args(&mut out, &i.args);
        out.push('}');
    }

    out.push_str("]}");
    out
}

/// Validate that `text` is a well-formed Chrome trace document: parses as
/// JSON, has a `traceEvents` array, and every event carries the fields its
/// phase requires (`X` needs `ts`/`dur`, `i` needs `ts`, `M` needs
/// `args`). Returns the number of events checked.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        if !ev.is_obj() {
            return Err(format!("event {i} is not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        let has_num = |key: &str| ev.get(key).and_then(Json::as_f64).is_some();
        let named = ev.get("name").and_then(Json::as_str).is_some();
        if !named {
            return Err(format!("event {i} missing name"));
        }
        match ph {
            "X" => {
                if !(has_num("ts") && has_num("dur") && has_num("pid") && has_num("tid")) {
                    return Err(format!("X event {i} missing ts/dur/pid/tid"));
                }
                if ev.get("dur").and_then(Json::as_f64).unwrap() < 0.0 {
                    return Err(format!("X event {i} has negative dur"));
                }
            }
            "i" => {
                if !(has_num("ts") && has_num("pid") && has_num("tid")) {
                    return Err(format!("i event {i} missing ts/pid/tid"));
                }
            }
            "M" => {
                if !ev.get("args").map(Json::is_obj).unwrap_or(false) {
                    return Err(format!("M event {i} missing args"));
                }
            }
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_nested_spans_and_instants() {
        let mut t = Trace::default();
        let outer = t.begin("search", "phase", 0.0, 1);
        t.instant("fault", "fault", 0.5, 1, &[("kind", "transient")]);
        let inner = t.begin("inter_task", "kernel", 1.0, 1);
        t.end(inner, 2.0, &[("cells", "10")]);
        t.end(outer, 3.0, &[]);

        let doc = to_chrome_json(&t, 3.0);
        let n = validate_chrome_trace(&doc).unwrap();
        // 1 thread metadata + 2 spans + 1 instant.
        assert_eq!(n, 4);

        let parsed = json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(x.len(), 2);
        // Microsecond timestamps.
        let inner_ev = x
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("inter_task"))
            .unwrap();
        assert_eq!(inner_ev.get("ts").unwrap().as_f64(), Some(1e6));
        assert_eq!(inner_ev.get("dur").unwrap().as_f64(), Some(1e6));
    }

    #[test]
    fn open_spans_are_clamped_to_now() {
        let mut t = Trace::default();
        t.begin("hung", "phase", 2.0, 0);
        let doc = to_chrome_json(&t, 5.0);
        validate_chrome_trace(&doc).unwrap();
        let parsed = json::parse(&doc).unwrap();
        let ev = parsed.get("traceEvents").unwrap().as_arr().unwrap()[1].clone();
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(3e6));
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[1, 2").is_err(), "not JSON");
        // Any other document, a `BENCH_*.json` snapshot included.
        for doc in ["{}", r#"{"schema": "cudasw.bench.device/v2", "runs": []}"#] {
            let err = validate_chrome_trace(doc).unwrap_err();
            assert!(err.contains("missing traceEvents array"), "{err}");
        }
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\": [{\"name\":\"a\",\"ph\":\"Z\",\"ts\":0}]}"
        )
        .is_err());
    }
}
