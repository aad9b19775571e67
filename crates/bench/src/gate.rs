//! `repro gate <doc.json> [--baseline <committed.json>]` — what `verify.sh`
//! and CI check a written benchmark document with, on the parsed JSON
//! rather than by `grep` over its text. The document's `schema` picks the
//! checks: a trajectory must parse (every field of every row present and
//! typed) and hold no entry with [`Entry::missing_rows`]; the soak
//! snapshot is checked field by field; a document without a `schema` must
//! be a valid Chrome trace.

use crate::experiments::{device_trajectory, host_trajectory, soak};
use crate::trajectory::{num, Entry, Trajectory};
use obs::json::{parse, Json};

/// Allowed drop of the soak's availability under the committed baseline
/// (half a percentage point).
pub const SOAK_AVAILABILITY_TOLERANCE: f64 = 0.005;

/// What a snapshot field must be.
#[derive(Clone, Copy)]
enum Want {
    True,
    Zero,
    Positive,
}

/// Bit-exact replay, no duplicate answers, a host-lane storm that landed.
const SOAK_FIELDS: [(&str, Want); 3] = [
    ("scores_match_reference", Want::True),
    ("duplicate_answers", Want::Zero),
    ("host_injected_faults", Want::Positive),
];

/// Gate the document `text`. Returns what passed (the schema), or the
/// human-readable failures, each naming the offending field.
pub fn gate(text: &str, baseline: Option<&str>) -> Result<String, Vec<String>> {
    let doc = parse(text).map_err(|e| vec![format!("not a JSON document: {e}")])?;
    let schema = doc.get("schema").and_then(|s| s.as_str());
    let failures = match schema {
        _ if baseline.is_some() && schema != Some(soak::SCHEMA) => {
            vec![format!(
                "--baseline only applies to {} documents",
                soak::SCHEMA
            )]
        }
        Some(host_trajectory::SCHEMA) => trajectory::<host_trajectory::TrajectoryEntry>(text),
        Some(device_trajectory::SCHEMA) => trajectory::<device_trajectory::TrajectoryEntry>(text),
        Some(soak::SCHEMA) => {
            let mut failures = snapshot(&doc, &SOAK_FIELDS);
            failures.extend(availability_drop(&doc, baseline));
            failures
        }
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

/// Parse a trajectory of schema `E`; one failure per row an entry lacks.
fn trajectory<E: Entry>(text: &str) -> Vec<String> {
    let t = match Trajectory::<E>::parse(text) {
        Ok(t) => t,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    if t.entries.is_empty() {
        failures.push("\"entries\" is empty".to_string());
    }
    for e in &t.entries {
        let (config, on) = e.workload();
        let at = format!("entry {} (config {config}, {on})", e.rev());
        failures.extend(e.missing_rows().iter().map(|f| format!("{at}: {f}")));
    }
    failures
}

/// One failure per field of `doc` that is not what `fields` wants.
fn snapshot(doc: &Json, fields: &[(&str, Want)]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(key, want) in fields {
        let value = doc.get(key);
        let number = value.and_then(Json::as_f64);
        let (ok, expected) = match want {
            Want::True => (matches!(value, Some(Json::Bool(true))), "true"),
            Want::Zero => (number == Some(0.0), "0"),
            Want::Positive => (number.is_some_and(|n| n > 0.0), "> 0"),
        };
        if !ok {
            failures.push(match value {
                Some(Json::Num(n)) => format!("\"{key}\" is {n}, expected {expected}"),
                Some(Json::Bool(b)) => format!("\"{key}\" is {b}, expected {expected}"),
                Some(_) => format!("\"{key}\" is not {expected}"),
                None => format!("missing field \"{key}\" (expected {expected})"),
            });
        }
    }
    failures
}

/// The soak's `availability` may not sit more than
/// [`SOAK_AVAILABILITY_TOLERANCE`] under the baseline document's.
fn availability_drop(doc: &Json, baseline: Option<&str>) -> Option<String> {
    let committed = baseline.map(|text| parse(text).and_then(|b| num(&b, "availability")));
    match (num(doc, "availability"), committed) {
        (Err(e), _) => Some(e),
        (Ok(_), Some(Err(e))) => Some(format!("baseline: {e}")),
        (Ok(cur), Some(Ok(base))) if cur + SOAK_AVAILABILITY_TOLERANCE < base => Some(format!(
            "\"availability\" {cur:.4} regressed below the baseline's {base:.4} \
             (allowed drop {SOAK_AVAILABILITY_TOLERANCE})"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &str = include_str!("../../../BENCH_host.json");
    const DEVICE: &str = include_str!("../../../BENCH_device.json");
    const SOAK: &str = include_str!("../../../BENCH_soak.json");

    /// The single failure `doc` is rejected with.
    fn rejection(doc: &str, baseline: Option<&str>) -> String {
        let failures = gate(doc, baseline).expect_err("document must be rejected");
        assert_eq!(failures.len(), 1, "exactly one invariant is broken");
        failures.into_iter().next().unwrap()
    }

    /// `doc` with `from` (present exactly once) replaced by `to`.
    fn with(doc: &str, from: &str, to: &str) -> String {
        assert_eq!(doc.matches(from).count(), 1, "{from:?} must occur once");
        doc.replace(from, to)
    }

    /// `doc` with its top-level scalar field `key` set to `value`.
    fn set(doc: &str, key: &str, value: &str) -> String {
        let start = doc.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let end = start + doc[start..].find([',', '\n']).expect("a value");
        format!("{}{value}{}", &doc[..start], &doc[end..])
    }

    /// The committed trajectory of schema `E`, its last entry edited.
    fn edited<E: Entry>(text: &str, edit: impl Fn(&mut E)) -> String {
        let mut t = Trajectory::<E>::parse(text).unwrap();
        edit(t.entries.last_mut().unwrap());
        t.to_json()
    }

    #[test]
    fn every_committed_document_passes() {
        for (doc, baseline) in [
            (HOST, None),
            (DEVICE, None),
            (SOAK, Some(SOAK)),
            (r#"{"traceEvents":[]}"#, None),
        ] {
            assert_eq!(gate(doc, baseline).err(), None);
        }
    }

    #[test]
    fn host_trajectory_needs_portable_and_prefix_scan_rows() {
        type E = host_trajectory::TrajectoryEntry;
        let no_portable = edited::<E>(HOST, |e| e.rows.retain(|r| r.backend != "portable"));
        let msg = rejection(&no_portable, None);
        assert!(msg.contains("\"backend\": \"portable\""), "{msg}");
        let no_scan = edited::<E>(HOST, |e| e.rows.retain(|r| r.kernel_mode != "prefix-scan"));
        let msg = rejection(&no_scan, None);
        assert!(msg.contains("\"kernel_mode\": \"prefix-scan\""), "{msg}");
        assert!(msg.contains("swissprot-synth-100000x256"), "{msg}");
    }

    #[test]
    fn device_trajectory_needs_the_staging_row() {
        let doc = edited::<device_trajectory::TrajectoryEntry>(DEVICE, |e| {
            e.rows.retain(|r| r.label != "staging")
        });
        let msg = rejection(&doc, None);
        assert!(msg.contains("matrix row \"staging\" missing"), "{msg}");
    }

    #[test]
    fn a_row_missing_a_field_does_not_parse() {
        let doc = DEVICE.replace("\"score_crc\"", "\"crc\"");
        assert!(rejection(&doc, None).contains("\"score_crc\""));
        let doc = HOST.replace("\"word_fallbacks\"", "\"word_reruns\"");
        assert!(rejection(&doc, None).contains("\"word_fallbacks\""));
    }

    #[test]
    fn snapshots_gate_each_field() {
        for (key, broken) in [
            ("host_injected_faults", "0"),
            ("duplicate_answers", "2"),
            ("scores_match_reference", "1"),
        ] {
            let msg = rejection(&set(SOAK, key, broken), None);
            assert!(msg.contains(&format!("\"{key}\" is {broken}")), "{msg}");
        }
        let doc = with(SOAK, "  \"duplicate_answers\": 0,\n", "");
        assert!(rejection(&doc, None).contains("missing field \"duplicate_answers\""));
    }

    #[test]
    fn soak_availability_may_not_drop_under_the_baseline() {
        // 0.006 under the baseline fails, 0.004 under passes, and without
        // a baseline the absolute SLO inside the experiment is the gate.
        let dropped = set(SOAK, "availability", "0.994000");
        let msg = rejection(&dropped, Some(SOAK));
        assert!(msg.contains("\"availability\" 0.9940 regressed"), "{msg}");
        assert_eq!(gate(&dropped, None).err(), None);
        let noise = set(SOAK, "availability", "0.996000");
        assert_eq!(gate(&noise, Some(SOAK)).err(), None);
        assert!(rejection(SOAK, Some("{}")).contains("baseline: missing numeric field"));
    }

    #[test]
    fn unknown_documents_are_rejected() {
        let doc = set(SOAK, "schema", "\"cudasw.bench.soak/v9\"");
        assert!(rejection(&doc, None).contains("unknown \"schema\" \"cudasw.bench.soak/v9\""));
        assert!(rejection("{}", None).contains("missing traceEvents array"));
        assert!(rejection("[1, 2", None).contains("not a JSON document"));
        assert!(rejection(HOST, Some(HOST)).contains("--baseline only applies"));
        let empty = r#"{"schema": "cudasw.bench.host/v2", "entries": []}"#;
        assert!(rejection(empty, None).contains("\"entries\" is empty"));
        for retired in ["cudasw.bench.serve/v1", "cudasw.bench.host_chaos/v1"] {
            let doc = format!(r#"{{"schema": "{retired}", "all_scores_match": true}}"#);
            let unknown = format!("unknown \"schema\" \"{retired}\"");
            assert!(rejection(&doc, None).contains(&unknown));
        }
    }
}
