//! The one append-only benchmark *trajectory*: the `{schema, entries}`
//! document behind `BENCH_host.json` and `BENCH_device.json`. The policy
//! lives here and nowhere else: one entry per measured run, oldest first; a
//! run **replaces** only the entry with its own key (same git rev, same
//! workload, same measuring host or device — a re-run) and otherwise
//! **appends**, so the committed file *is* the performance history of the
//! repo; a fresh run is compared against the **latest comparable** committed
//! entry. A schema is an [`Entry`] impl
//! (`experiments::{host,device}_trajectory`).

use obs::json::{escape, parse, Json};

/// One measured run of one benchmark schema.
pub trait Entry: Sized {
    /// JSON schema tag of the trajectory document.
    const SCHEMA: &'static str;

    /// Git revision the run was measured at (see [`rev_key`]).
    fn rev(&self) -> &str;

    /// `(workload config, measuring host or device)`: entries are
    /// comparable when both match; with `rev`, the replace-vs-append key.
    fn workload(&self) -> (&str, String);

    /// The entry's JSON fields in document order, values serialized (see
    /// [`quoted`], [`rows_array`], [`inline_object`]).
    fn fields(&self) -> Vec<(&'static str, String)>;

    /// Parse one element of the `entries` array.
    fn from_json(v: &Json) -> Result<Self, String>;

    /// Upgrade a whole document of an older `schema` into one entry;
    /// `None` when this schema has no such predecessor.
    fn from_legacy(_schema: &str, _doc: &Json) -> Option<Result<Self, String>> {
        None
    }

    /// One failure per row every entry of this schema must hold; what
    /// `repro gate` checks on a written document.
    fn missing_rows(&self) -> Vec<String>;

    /// Failures of the gates a fresh measurement must pass on its own,
    /// `missing_rows` included (they read measured values, not the
    /// document's rounded ones).
    fn standalone_gates(&self) -> Vec<String> {
        self.missing_rows()
    }

    /// Failures of a fresh entry against its committed `baseline`.
    fn regressions(baseline: &Self, new: &Self) -> Vec<String>;
}

/// The whole append-only document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory<E> {
    /// Entries in file order (oldest first).
    pub entries: Vec<E>,
}

impl<E> Default for Trajectory<E> {
    fn default() -> Self {
        Self { entries: vec![] }
    }
}

impl<E: Entry> Trajectory<E> {
    /// Append a run, replacing only a prior entry with the identical
    /// `(rev, workload)` key (a re-run at the same revision).
    pub fn append(&mut self, entry: E) {
        let same_key = |e: &E| e.rev() == entry.rev() && e.workload() == entry.workload();
        match self.entries.iter().position(same_key) {
            Some(i) => self.entries[i] = entry,
            None => self.entries.push(entry),
        }
    }

    /// Most recent entry comparable to `new` (same workload on the same
    /// host or device, any rev).
    pub fn baseline_for(&self, new: &E) -> Option<&E> {
        let workload = new.workload();
        self.entries.iter().rev().find(|e| e.workload() == workload)
    }

    /// Serialize the document.
    pub fn to_json(&self) -> String {
        let entry = |e: &E| {
            let fields = e.fields();
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("      \"{k}\": {v}"))
                .collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        };
        let entries: Vec<String> = self.entries.iter().map(entry).collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"entries\": [\n{}\n  ]\n}}\n",
            E::SCHEMA,
            entries.join(",\n")
        )
    }

    /// Parse a trajectory file of schema `E`, or a legacy document `E`
    /// knows how to upgrade.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("document has no schema field")?;
        if schema != E::SCHEMA {
            return match E::from_legacy(schema, &doc) {
                Some(entry) => Ok(Self {
                    entries: vec![entry?],
                }),
                None => Err(format!(
                    "unknown schema {schema:?} (expected {})",
                    E::SCHEMA
                )),
            };
        }
        let entries = doc
            .get("entries")
            .and_then(|e| e.as_arr())
            .ok_or_else(|| format!("{} document without entries array", E::SCHEMA))?;
        Ok(Self {
            entries: entries.iter().map(E::from_json).collect::<Result<_, _>>()?,
        })
    }
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

    /// The smallest schema: a rev, a workload and one number.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        rev: String,
        config: String,
        host: usize,
        value: f64,
    }

    fn toy(rev: &str, config: &str, host: usize, value: f64) -> Toy {
        Toy {
            rev: rev.to_string(),
            config: config.to_string(),
            host,
            value,
        }
    }

    impl Entry for Toy {
        const SCHEMA: &'static str = "toy/v2";
        fn rev(&self) -> &str {
            &self.rev
        }
        fn workload(&self) -> (&str, String) {
            (&self.config, format!("{} host threads", self.host))
        }
        fn fields(&self) -> Vec<(&'static str, String)> {
            vec![
                ("rev", quoted(&self.rev)),
                ("config", quoted(&self.config)),
                ("host", self.host.to_string()),
                ("value", format!("{:.1}", self.value)),
            ]
        }
        fn from_json(v: &Json) -> Result<Self, String> {
            Ok(toy(
                &text(v, "rev")?,
                &text(v, "config")?,
                num(v, "host")? as usize,
                num(v, "value")?,
            ))
        }
        fn from_legacy(schema: &str, doc: &Json) -> Option<Result<Self, String>> {
            (schema == "toy/v1").then(|| Ok(toy("legacy", "old", 1, num(doc, "value")?)))
        }
        fn missing_rows(&self) -> Vec<String> {
            Vec::new()
        }
        fn regressions(_: &Self, _: &Self) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn append_replaces_only_the_identical_key() {
        let mut t = Trajectory::default();
        t.append(toy("aaa", "big", 8, 10.0));
        // Different rev: appended, the old entry survives.
        t.append(toy("bbb", "big", 8, 12.0));
        assert_eq!(t.entries.len(), 2);
        // Same (rev, config, host): replaced in place.
        t.append(toy("bbb", "big", 8, 13.0));
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0], toy("aaa", "big", 8, 10.0));
        assert_eq!(t.entries[1].value, 13.0);
        // A different config or measuring host is a different key even at
        // the same rev.
        t.append(toy("bbb", "smoke", 8, 9.0));
        t.append(toy("bbb", "big", 1, 9.0));
        assert_eq!(t.entries.len(), 4);
        // Replacing an inner entry keeps the file order.
        t.append(toy("aaa", "big", 8, 11.0));
        let revs: Vec<&str> = t.entries.iter().map(|e| e.rev()).collect();
        assert_eq!(revs, ["aaa", "bbb", "bbb", "bbb"]);
        assert_eq!(t.entries[0].value, 11.0);
    }

    #[test]
    fn baseline_is_the_latest_entry_with_the_same_workload() {
        let mut t = Trajectory::default();
        t.append(toy("aaa", "big", 8, 10.0));
        t.append(toy("bbb", "big", 8, 12.0));
        t.append(toy("bbb", "smoke", 8, 1.0));
        let rev_of = |new: &Toy| t.baseline_for(new).map(|e| e.rev.clone());
        assert_eq!(rev_of(&toy("ccc", "big", 8, 0.0)).as_deref(), Some("bbb"));
        // A re-run at a recorded rev is compared against that rev's entry.
        assert_eq!(rev_of(&toy("bbb", "big", 8, 0.0)).as_deref(), Some("bbb"));
        assert_eq!(rev_of(&toy("ccc", "big", 1, 0.0)), None, "other host");
        assert_eq!(rev_of(&toy("ccc", "huge", 8, 0.0)), None, "other config");
    }

    #[test]
    fn a_dirty_tree_run_never_replaces_the_clean_entry() {
        assert_eq!(rev_key(Some("31207fa\n"), ""), "31207fa");
        assert_eq!(rev_key(Some("31207fa\n"), " M ISSUE.md\n"), "31207fa+dirty");
        assert_eq!(rev_key(None, ""), "unknown");
        assert_eq!(rev_key(Some(""), "?? x\n"), "unknown+dirty");

        let mut t = Trajectory::default();
        t.append(toy(&rev_key(Some("31207fa"), ""), "big", 2, 10.0));
        let dirty = toy(&rev_key(Some("31207fa"), " M src/lib.rs"), "big", 2, 15.0);
        // Compared against HEAD's committed entry, appended beside it…
        assert_eq!(t.baseline_for(&dirty).map(|e| e.value), Some(10.0));
        t.append(dirty.clone());
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0].value, 10.0, "the clean entry is untouched");
        // …and only another dirty run at the same HEAD replaces it.
        t.append(Toy {
            value: 16.0,
            ..dirty
        });
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[1].value, 16.0);
    }

    #[test]
    fn envelope_round_trips_and_rejects_foreign_documents() {
        let mut t = Trajectory::default();
        t.append(toy("aaa", "big", 8, 10.0));
        t.append(toy("bbb", "big", 8, 12.5));
        let json = t.to_json();
        assert_eq!(
            json,
            r#"{
  "schema": "toy/v2",
  "entries": [
    {
      "rev": "aaa",
      "config": "big",
      "host": 8,
      "value": 10.0
    },
    {
      "rev": "bbb",
      "config": "big",
      "host": 8,
      "value": 12.5
    }
  ]
}
"#
        );
        assert_eq!(Trajectory::<Toy>::parse(&json).as_ref(), Ok(&t));

        // A legacy document upgrades to a single entry.
        let legacy = Trajectory::<Toy>::parse(r#"{"schema": "toy/v1", "value": 3}"#);
        assert_eq!(legacy.unwrap().entries, [toy("legacy", "old", 1, 3.0)]);

        let err = |text: &str| Trajectory::<Toy>::parse(text).unwrap_err();
        assert!(err(r#"{"schema": "other/v1", "entries": []}"#).contains("unknown schema"));
        assert!(err(r#"{"entries": []}"#).contains("no schema field"));
        assert!(err(r#"{"schema": "toy/v2"}"#).contains("without entries array"));
        assert!(
            err(r#"{"schema": "toy/v2", "entries": [{"rev": "a"}]}"#).contains("\"config\""),
            "a malformed entry names its missing field"
        );
    }

    /// The committed trajectories are fixed points of `parse → to_json`:
    /// merging a fresh run can never rewrite history it did not measure.
    #[test]
    fn committed_trajectories_round_trip_byte_identically() {
        use crate::experiments::{device_trajectory, host_trajectory};
        fn check<E: Entry>(name: &str, text: &str) {
            let t = Trajectory::<E>::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!t.entries.is_empty(), "{name} has no entries");
            assert!(t.to_json() == text, "{name} is not a fixed point");
        }
        check::<host_trajectory::TrajectoryEntry>(
            "BENCH_host.json",
            include_str!("../../../BENCH_host.json"),
        );
        check::<device_trajectory::TrajectoryEntry>(
            "BENCH_device.json",
            include_str!("../../../BENCH_device.json"),
        );
    }
}
