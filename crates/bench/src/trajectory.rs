//! The one append-only benchmark *trajectory*: the `{schema, entries}`
//! document behind `BENCH_host.json`, the only committed document of
//! wall-clock numbers (simulated-clock ones are `cmp`-checked snapshots
//! that share its JSON writers). One entry per measured run, oldest first;
//! a run **replaces** only the entry with its own key (same git rev,
//! workload config and host thread count — a re-run) and otherwise
//! **appends**; a fresh run is compared against the **latest comparable**
//! committed entry. The entry schema and gates are `host_trajectory`'s.

use crate::experiments::host::HostBenchResult;
use crate::experiments::host_trajectory::SCHEMA;
use obs::json::{escape, parse, Json};

/// The whole append-only document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Entries in file order (oldest first).
    pub entries: Vec<HostBenchResult>,
}

impl Trajectory {
    /// Append a run, replacing only a prior entry with the identical
    /// `(rev, workload)` key (a re-run at the same revision).
    pub fn append(&mut self, entry: HostBenchResult) {
        let same_key = |e: &HostBenchResult| e.rev == entry.rev && e.workload() == entry.workload();
        match self.entries.iter().position(same_key) {
            Some(i) => self.entries[i] = entry,
            None => self.entries.push(entry),
        }
    }

    /// Most recent entry comparable to `new` (same workload config on the
    /// same host thread count, any rev).
    pub fn baseline_for(&self, new: &HostBenchResult) -> Option<&HostBenchResult> {
        let workload = new.workload();
        self.entries.iter().rev().find(|e| e.workload() == workload)
    }

    /// Serialize the document.
    pub fn to_json(&self) -> String {
        document(SCHEMA, "entries", self.entries.iter().map(|e| e.fields()))
    }

    /// Parse a trajectory file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("document has no schema field")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (expected {SCHEMA})"));
        }
        let entries = doc
            .get("entries")
            .and_then(|e| e.as_arr())
            .ok_or_else(|| format!("{SCHEMA} document without entries array"))?;
        Ok(Self {
            entries: entries
                .iter()
                .map(HostBenchResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// A `{"schema": …, "<list>": [{…}, …]}` document: one object per
/// element of `objects`, one field per line in the order given, values
/// already serialized (see [`quoted`], [`rows_array`], [`inline_object`]).
pub fn document(
    schema: &str,
    list: &str,
    objects: impl Iterator<Item = Vec<(&'static str, String)>>,
) -> String {
    let objects: Vec<String> = objects
        .map(|fields| {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("      \"{k}\": {v}"))
                .collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"{list}\": [\n{}\n  ]\n}}\n",
        objects.join(",\n")
    )
}

/// Required numeric field of a JSON object.
pub fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|n| n.as_f64())
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Required string field of a JSON object.
pub fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|s| s.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Required array field of a JSON object, each element parsed by `row`.
pub fn rows<T>(
    v: &Json,
    key: &str,
    row: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let rows = v.get(key).and_then(|a| a.as_arr());
    let rows = rows.ok_or_else(|| format!("missing array field {key:?}"))?;
    rows.iter().map(row).collect()
}

/// `"s"`, escaped: a JSON string value.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A one-line object `{"k": v, "k": v}` of already-serialized values.
pub fn inline_object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k.as_ref())))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The value of an entry's rows field: an array of one row per line.
pub fn rows_array(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|row| format!("        {row}")).collect();
    format!("[\n{}\n      ]", rows.join(",\n"))
}

/// The rev an entry is keyed by: the short `HEAD` hash, suffixed `+dirty`
/// when `git status --porcelain` printed anything. A modified tree is not
/// the code `HEAD` names, so its run must not replace `HEAD`'s entry; as a
/// distinct key it is appended beside it and still compared against it.
pub fn rev_key(head: Option<&str>, porcelain: &str) -> String {
    let head = head.map(str::trim).filter(|h| !h.is_empty());
    let dirty = if porcelain.trim().is_empty() {
        ""
    } else {
        "+dirty"
    };
    format!("{}{dirty}", head.unwrap_or("unknown"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::host::HostRow;

    /// A one-row host entry: a rev, a workload and one number.
    fn entry(rev: &str, config: &str, host_threads: usize, gcups: f64) -> HostBenchResult {
        HostBenchResult {
            rev: rev.to_string(),
            rows: vec![HostRow {
                backend: "portable".to_string(),
                precision: "adaptive".to_string(),
                kernel_mode: "prefix-scan".to_string(),
                threads: 1,
                seconds: 0.5,
                gcups,
                byte_mode: 100,
                word_fallbacks: 0,
                lazy_f: 7,
                steals: 0,
            }],
            cells: 6400,
            db_size: 100,
            query_len: 64,
            config: config.to_string(),
            host_threads,
            thread_scaling: vec![("portable".to_string(), 1.0)],
            lazy_f_delta: vec![("portable".to_string(), 0.5)],
        }
    }

    fn gcups(e: &HostBenchResult) -> f64 {
        e.rows[0].gcups
    }

    #[test]
    fn append_replaces_only_the_identical_key() {
        let mut t = Trajectory::default();
        t.append(entry("aaa", "big", 8, 10.0));
        // Different rev: appended, the old entry survives.
        t.append(entry("bbb", "big", 8, 12.0));
        assert_eq!(t.entries.len(), 2);
        // Same (rev, config, host threads): replaced in place.
        t.append(entry("bbb", "big", 8, 13.0));
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0], entry("aaa", "big", 8, 10.0));
        assert_eq!(gcups(&t.entries[1]), 13.0);
        // A different config or host thread count is a different key even
        // at the same rev.
        t.append(entry("bbb", "smoke", 8, 9.0));
        t.append(entry("bbb", "big", 1, 9.0));
        assert_eq!(t.entries.len(), 4);
        // Replacing an inner entry keeps the file order.
        t.append(entry("aaa", "big", 8, 11.0));
        let revs: Vec<&str> = t.entries.iter().map(|e| e.rev.as_str()).collect();
        assert_eq!(revs, ["aaa", "bbb", "bbb", "bbb"]);
        assert_eq!(gcups(&t.entries[0]), 11.0);
    }

    #[test]
    fn baseline_is_the_latest_entry_with_the_same_workload() {
        let mut t = Trajectory::default();
        t.append(entry("aaa", "big", 8, 10.0));
        t.append(entry("bbb", "big", 8, 12.0));
        t.append(entry("bbb", "smoke", 8, 1.0));
        let rev_of = |new: &HostBenchResult| t.baseline_for(new).map(|e| e.rev.clone());
        assert_eq!(rev_of(&entry("ccc", "big", 8, 0.0)).as_deref(), Some("bbb"));
        // A re-run at a recorded rev is compared against that rev's entry.
        assert_eq!(rev_of(&entry("bbb", "big", 8, 0.0)).as_deref(), Some("bbb"));
        assert_eq!(rev_of(&entry("ccc", "big", 1, 0.0)), None, "other host");
        assert_eq!(rev_of(&entry("ccc", "huge", 8, 0.0)), None, "other config");
    }

    #[test]
    fn a_dirty_tree_run_never_replaces_the_clean_entry() {
        assert_eq!(rev_key(Some("31207fa\n"), ""), "31207fa");
        assert_eq!(rev_key(Some("31207fa\n"), " M ISSUE.md\n"), "31207fa+dirty");
        assert_eq!(rev_key(None, ""), "unknown");
        assert_eq!(rev_key(Some(""), "?? x\n"), "unknown+dirty");

        let mut t = Trajectory::default();
        t.append(entry(&rev_key(Some("31207fa"), ""), "big", 2, 10.0));
        let dirty = entry(&rev_key(Some("31207fa"), " M src/lib.rs"), "big", 2, 15.0);
        // Compared against HEAD's committed entry, appended beside it…
        assert_eq!(t.baseline_for(&dirty).map(gcups), Some(10.0));
        t.append(dirty.clone());
        assert_eq!(t.entries.len(), 2);
        assert_eq!(gcups(&t.entries[0]), 10.0, "the clean entry is untouched");
        // …and only another dirty run at the same HEAD replaces it.
        t.append(entry(&dirty.rev, "big", 2, 16.0));
        assert_eq!(t.entries.len(), 2);
        assert_eq!(gcups(&t.entries[1]), 16.0);
    }

    #[test]
    fn envelope_round_trips_and_rejects_foreign_documents() {
        let mut t = Trajectory::default();
        t.append(entry("aaa", "big", 8, 10.0));
        t.append(entry("bbb", "big", 8, 12.5));
        let json = t.to_json();
        let row = |gcups: &str| {
            format!(
                r#"{{"backend": "portable", "precision": "adaptive", "kernel_mode": "prefix-scan", "threads": 1, "seconds": 0.500000, "gcups": {gcups}, "byte_mode": 100, "word_fallbacks": 0, "lazy_f": 7, "steals": 0}}"#
            )
        };
        let object = |rev: &str, gcups: &str| {
            format!(
                r#"    {{
      "rev": "{rev}",
      "config": "big",
      "db_size": 100,
      "query_len": 64,
      "cells": 6400,
      "host_threads": 8,
      "rows": [
        {}
      ],
      "thread_scaling": {{"portable": 1.000}},
      "lazy_f_delta": {{"portable": 0.500}}
    }}"#,
                row(gcups)
            )
        };
        let expected = format!(
            "{{\n  \"schema\": \"cudasw.bench.host/v2\",\n  \"entries\": [\n{},\n{}\n  ]\n}}\n",
            object("aaa", "10.0000"),
            object("bbb", "12.5000")
        );
        assert_eq!(json, expected);
        assert_eq!(Trajectory::parse(&json).as_ref(), Ok(&t));

        let err = |text: &str| Trajectory::parse(text).unwrap_err();
        assert!(err(r#"{"schema": "other/v1", "entries": []}"#).contains("unknown schema"));
        assert!(err(r#"{"schema": "cudasw.bench.host/v1"}"#).contains("unknown schema"));
        assert!(err(r#"{"entries": []}"#).contains("no schema field"));
        assert!(err(r#"{"schema": "cudasw.bench.host/v2"}"#).contains("without entries array"));
        assert!(
            err(r#"{"schema": "cudasw.bench.host/v2", "entries": [{"rev": "a"}]}"#)
                .contains("\"config\""),
            "a malformed entry names its missing field"
        );
    }

    /// The committed trajectory is a fixed point of `parse → to_json`:
    /// merging a fresh run can never rewrite history it did not measure.
    #[test]
    fn committed_trajectories_round_trip_byte_identically() {
        let text = include_str!("../../../BENCH_host.json");
        let t = Trajectory::parse(text).unwrap_or_else(|e| panic!("BENCH_host.json: {e}"));
        assert!(!t.entries.is_empty(), "BENCH_host.json has no entries");
        assert!(t.to_json() == text, "BENCH_host.json is not a fixed point");
    }
}
