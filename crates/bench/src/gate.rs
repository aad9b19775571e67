//! `repro gate <doc.json>` — what `verify.sh` and CI check a written
//! host trajectory or Chrome trace with, on the parsed JSON rather than by
//! `grep` over its text. The host trajectory must parse (every field of
//! every row present and typed) and hold no entry with missing rows; a
//! document without a `schema` must be a valid Chrome trace. Snapshots of
//! simulated-clock numbers are checked with `cmp` instead.

use crate::experiments::host_trajectory;
use crate::trajectory::Trajectory;
use obs::json::parse;

/// Gate the document `text`. Returns what passed (the schema), or the
/// human-readable failures, each naming the offending field.
pub fn gate(text: &str) -> Result<String, Vec<String>> {
    let doc = parse(text).map_err(|e| vec![format!("not a JSON document: {e}")])?;
    let schema = doc.get("schema").and_then(|s| s.as_str());
    let failures = match schema {
        Some(host_trajectory::SCHEMA) => trajectory(text),
        Some(other) => vec![format!("unknown \"schema\" {other:?}")],
        None => match obs::chrome::validate_chrome_trace(text) {
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("no \"schema\" field and not a Chrome trace: {e}")],
        },
    };
    if failures.is_empty() {
        Ok(schema.unwrap_or("Chrome trace").to_string())
    } else {
        Err(failures)
    }
}

/// Parse the host trajectory; one failure per row an entry lacks.
fn trajectory(text: &str) -> Vec<String> {
    let t = match Trajectory::parse(text) {
        Ok(t) => t,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    if t.entries.is_empty() {
        failures.push("\"entries\" is empty".to_string());
    }
    for e in &t.entries {
        let at = format!(
            "entry {} (config {}, {} host threads)",
            e.rev, e.config, e.host_threads
        );
        failures.extend(e.missing_rows().iter().map(|f| format!("{at}: {f}")));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::host::HostBenchResult;

    const HOST: &str = include_str!("../../../BENCH_host.json");
    const DEVICE: &str = include_str!("../../../BENCH_device.json");

    /// The single failure `doc` is rejected with.
    fn rejection(doc: &str) -> String {
        let failures = gate(doc).expect_err("document must be rejected");
        assert_eq!(failures.len(), 1, "exactly one invariant is broken");
        failures.into_iter().next().unwrap()
    }

    /// `doc` with `from` (present exactly once) replaced by `to`.
    fn with(doc: &str, from: &str, to: &str) -> String {
        assert_eq!(doc.matches(from).count(), 1, "{from:?} must occur once");
        doc.replace(from, to)
    }

    /// The committed host trajectory, its last entry edited.
    fn edited(edit: impl Fn(&mut HostBenchResult)) -> String {
        let mut t = Trajectory::parse(HOST).unwrap();
        edit(t.entries.last_mut().unwrap());
        t.to_json()
    }

    #[test]
    fn every_committed_document_passes() {
        for doc in [HOST, r#"{"traceEvents":[]}"#] {
            assert_eq!(gate(doc).err(), None);
        }
    }

    #[test]
    fn host_trajectory_needs_portable_and_prefix_scan_rows() {
        let no_portable = edited(|e| e.rows.retain(|r| r.backend != "portable"));
        let msg = rejection(&no_portable);
        assert!(msg.contains("\"backend\": \"portable\""), "{msg}");
        let no_scan = edited(|e| e.rows.retain(|r| r.kernel_mode != "prefix-scan"));
        let msg = rejection(&no_scan);
        assert!(msg.contains("\"kernel_mode\": \"prefix-scan\""), "{msg}");
        assert!(msg.contains("swissprot-synth-100000x256"), "{msg}");
    }

    #[test]
    fn a_row_missing_a_field_does_not_parse() {
        let doc = HOST.replace("\"word_fallbacks\"", "\"word_reruns\"");
        assert!(rejection(&doc).contains("\"word_fallbacks\""));
        // Every row field is required, with no default.
        let doc = HOST.replace("\"kernel_mode\"", "\"mode\"");
        assert!(rejection(&doc).contains("\"kernel_mode\""));
        let doc = HOST.replace("\"lazy_f\"", "\"lazy_ops\"");
        assert!(rejection(&doc).contains("\"lazy_f\""));
        // A per-backend value that is not a number is an error naming its
        // key, not a 0.0 that a merge would write back.
        for (from, to, key) in [
            (
                "\"thread_scaling\": {\"avx2\": 1.803",
                "\"thread_scaling\": {\"avx2\": \"fast\"",
                "\"thread_scaling\"",
            ),
            (
                "\"lazy_f_delta\": {\"avx2\": 0.327",
                "\"lazy_f_delta\": {\"avx2\": null",
                "\"lazy_f_delta\"",
            ),
        ] {
            let msg = rejection(&with(HOST, from, to));
            assert!(msg.contains(key) && msg.contains("\"avx2\""), "{msg}");
        }
    }

    #[test]
    fn unknown_documents_are_rejected() {
        assert!(rejection("{}").contains("missing traceEvents array"));
        assert!(rejection("[1, 2").contains("not a JSON document"));
        let empty = r#"{"schema": "cudasw.bench.host/v2", "entries": []}"#;
        assert!(rejection(empty).contains("\"entries\" is empty"));
        // Simulated-clock snapshots are checked with `cmp`, not here.
        assert!(rejection(DEVICE).contains("unknown \"schema\" \"cudasw.bench.device/v2\""));
        for retired in [
            "cudasw.bench.serve/v1",
            "cudasw.bench.host_chaos/v1",
            "cudasw.bench.device/v1",
            "cudasw.bench.soak/v1",
        ] {
            let doc = format!(r#"{{"schema": "{retired}", "all_scores_match": true}}"#);
            let unknown = format!("unknown \"schema\" \"{retired}\"");
            assert!(rejection(&doc).contains(&unknown));
        }
    }
}
