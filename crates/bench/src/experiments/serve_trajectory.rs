//! The wall-clock serving schema of the perf trajectory
//! (`BENCH_serve.json`, `cudasw.bench.serve/v1`): one entry per measured
//! `repro serve-rt` run, keyed by `(git rev, workload config,
//! host_threads)`. The append-only document, the merge-by-key and the
//! baseline lookup are [`crate::trajectory`]'s; this module is the
//! schema's [`Entry`] impl and its gates. Wall latency depends on the
//! measuring host, which is why `host_threads` is part of the key and
//! why the gates are split:
//!
//! * **shed / deadline-miss regression guard** — always applies: these
//!   rates are dominated by admission policy and scheduling, not raw
//!   host speed, so a fresh run must not exceed the committed baseline
//!   by more than [`RATE_TOLERANCE`] (absolute) per profile.
//! * **latency tail gate** — conditional on the measuring host having
//!   ≥ [`LATENCY_GATE_MIN_THREADS`] hardware threads: a 1-core CI box
//!   time-slices every lane worker over one core, so its tails certify
//!   nothing and must not fake a pass or a failure. Where it applies,
//!   p99 may not grow past `baseline × (1 + `[`LATENCY_TOLERANCE`]`)`
//!   (with a [`LATENCY_FLOOR_MS`] absolute floor under which jitter is
//!   ignored).
//! * **coverage** ([`Entry::missing_rows`]) — every entry holds a row
//!   for each load profile in [`PROFILES`].

use super::serve_rt::{ProfileRow, ServeRtResult, PROFILES, SCHEMA};
use crate::trajectory::{inline_object, num, quoted, rows, rows_array, text, Entry};
use obs::json::Json;

/// Allowed absolute growth of shed rate / deadline-miss rate vs the
/// committed baseline per profile. Far above run-to-run jitter at 10⁵
/// requests; catches policy regressions (a broken breaker flooding the
/// host lane, EDF inversions, quota accounting drift).
pub const RATE_TOLERANCE: f64 = 0.10;

/// Allowed fractional p99 growth where the latency gate applies (2×
/// headroom: wall clocks on shared machines are noisy).
pub const LATENCY_TOLERANCE: f64 = 1.0;

/// p99 deltas under this absolute floor (milliseconds) never fail the
/// latency gate.
pub const LATENCY_FLOOR_MS: f64 = 5.0;

/// Minimum hardware threads before latency tails are gated.
pub const LATENCY_GATE_MIN_THREADS: usize = 4;

/// One measured run in the trajectory.
pub type ServeEntry = ServeRtResult;

impl Entry for ServeEntry {
    const SCHEMA: &'static str = SCHEMA;

    fn rev(&self) -> &str {
        &self.rev
    }

    fn workload(&self) -> (&str, String) {
        (&self.config, format!("{} host threads", self.host_threads))
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let profiles = self.profiles.iter().map(|p| {
            inline_object(&[
                ("profile", quoted(&p.profile)),
                ("requests", p.requests.to_string()),
                ("served", p.served.to_string()),
                ("shed", p.shed.to_string()),
                ("aborted", p.aborted.to_string()),
                ("p50_ms", format!("{:.3}", p.p50_ms)),
                ("p99_ms", format!("{:.3}", p.p99_ms)),
                ("p999_ms", format!("{:.3}", p.p999_ms)),
                ("shed_rate", format!("{:.4}", p.shed_rate)),
                ("deadline_miss_rate", format!("{:.4}", p.deadline_miss_rate)),
                ("queries_per_second", format!("{:.1}", p.queries_per_second)),
                ("gcups", format!("{:.4}", p.gcups)),
                ("wall_seconds", format!("{:.3}", p.wall_seconds)),
                ("waves", p.waves.to_string()),
            ])
        });
        vec![
            ("rev", quoted(&self.rev)),
            ("config", quoted(&self.config)),
            ("host_threads", self.host_threads.to_string()),
            ("devices", self.devices.to_string()),
            ("db_size", self.db_size.to_string()),
            (
                "requests_per_profile",
                self.requests_per_profile.to_string(),
            ),
            ("profiles", rows_array(profiles)),
        ]
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            rev: text(v, "rev")?,
            config: text(v, "config")?,
            host_threads: num(v, "host_threads")? as usize,
            devices: num(v, "devices")? as usize,
            db_size: num(v, "db_size")? as usize,
            requests_per_profile: num(v, "requests_per_profile")? as usize,
            profiles: rows(v, "profiles", profile_from_json)?,
        })
    }

    /// Every entry holds one row per load profile.
    fn missing_rows(&self) -> Vec<String> {
        PROFILES
            .iter()
            .map(|profile| profile.as_str())
            .filter(|name| !self.profiles.iter().any(|p| p.profile == *name))
            .map(|name| format!("no row with \"profile\": \"{name}\""))
            .collect()
    }

    fn regressions(baseline: &Self, new: &Self) -> Vec<String> {
        regressions(baseline, new)
    }
}

fn profile_from_json(v: &Json) -> Result<ProfileRow, String> {
    Ok(ProfileRow {
        profile: text(v, "profile")?,
        requests: num(v, "requests")? as usize,
        served: num(v, "served")? as usize,
        shed: num(v, "shed")? as usize,
        aborted: num(v, "aborted")? as usize,
        p50_ms: num(v, "p50_ms")?,
        p99_ms: num(v, "p99_ms")?,
        p999_ms: num(v, "p999_ms")?,
        shed_rate: num(v, "shed_rate")?,
        deadline_miss_rate: num(v, "deadline_miss_rate")?,
        queries_per_second: num(v, "queries_per_second")?,
        gcups: num(v, "gcups")?,
        wall_seconds: num(v, "wall_seconds")?,
        waves: num(v, "waves")? as u64,
    })
}

/// Compare a fresh entry against its committed baseline: per profile
/// present in both, shed and deadline-miss rates may not grow past the
/// absolute [`RATE_TOLERANCE`]; where the host qualifies
/// (≥ [`LATENCY_GATE_MIN_THREADS`] threads on **both** entries — the key
/// already guarantees equal `host_threads`), p99 may not blow past the
/// committed tail. Returns human-readable failures (empty = pass).
pub fn regressions(baseline: &ServeEntry, new: &ServeEntry) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.profiles {
        let Some(fresh) = new.profiles.iter().find(|p| p.profile == old.profile) else {
            continue;
        };
        if fresh.shed_rate > old.shed_rate + RATE_TOLERANCE {
            failures.push(format!(
                "{}: shed rate {:.3} vs committed {:.3} (allowed ceiling {:.3})",
                fresh.profile,
                fresh.shed_rate,
                old.shed_rate,
                old.shed_rate + RATE_TOLERANCE,
            ));
        }
        if fresh.deadline_miss_rate > old.deadline_miss_rate + RATE_TOLERANCE {
            failures.push(format!(
                "{}: deadline-miss rate {:.3} vs committed {:.3} (allowed ceiling {:.3})",
                fresh.profile,
                fresh.deadline_miss_rate,
                old.deadline_miss_rate,
                old.deadline_miss_rate + RATE_TOLERANCE,
            ));
        }
        if new.host_threads >= LATENCY_GATE_MIN_THREADS {
            let ceiling = (old.p99_ms * (1.0 + LATENCY_TOLERANCE)).max(LATENCY_FLOOR_MS);
            if fresh.p99_ms > ceiling {
                failures.push(format!(
                    "{}: p99 {:.2} ms vs committed {:.2} ms (allowed ceiling {:.2} ms, \
                     {} host threads)",
                    fresh.profile, fresh.p99_ms, old.p99_ms, ceiling, new.host_threads,
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    type ServeTrajectory = crate::trajectory::Trajectory<ServeEntry>;

    fn sample_profile(name: &str, shed_rate: f64, miss_rate: f64, p99_ms: f64) -> ProfileRow {
        let requests = 1000;
        let shed = (requests as f64 * shed_rate) as usize;
        ProfileRow {
            profile: name.to_string(),
            requests,
            served: requests - shed,
            shed,
            aborted: 0,
            p50_ms: p99_ms / 4.0,
            p99_ms,
            p999_ms: p99_ms * 2.0,
            shed_rate,
            deadline_miss_rate: miss_rate,
            queries_per_second: 800.0,
            gcups: 0.05,
            wall_seconds: 1.25,
            waves: 90,
        }
    }

    fn sample_entry(rev: &str, host_threads: usize, overload_shed: f64) -> ServeEntry {
        ServeEntry {
            rev: rev.to_string(),
            config: "rt-mixed10x24-64-r1000".to_string(),
            host_threads,
            devices: 2,
            db_size: 10,
            requests_per_profile: 1000,
            profiles: vec![
                sample_profile("steady", 0.0, 0.0, 12.0),
                sample_profile("bursty", 0.02, 0.01, 30.0),
                sample_profile("overload", overload_shed, 0.05, 80.0),
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut t = ServeTrajectory::default();
        t.append(sample_entry("abc1234", 8, 0.6));
        t.append(sample_entry("def5678", 8, 0.62));
        let parsed = ServeTrajectory::parse(&t.to_json()).expect("valid document");
        assert_eq!(parsed.entries.len(), 2);
        for (a, b) in t.entries.iter().zip(&parsed.entries) {
            assert_eq!(a.rev, b.rev);
            assert_eq!(a.config, b.config);
            assert_eq!(a.host_threads, b.host_threads);
            assert_eq!(a.profiles.len(), b.profiles.len());
            for (x, y) in a.profiles.iter().zip(&b.profiles) {
                assert_eq!(x.profile, y.profile);
                assert_eq!(x.served, y.served);
                assert!((x.shed_rate - y.shed_rate).abs() < 1e-4);
                assert!((x.p99_ms - y.p99_ms).abs() < 1e-3);
                assert_eq!(x.waves, y.waves);
            }
        }
    }

    #[test]
    fn rate_guard_always_bites_latency_gate_is_conditional() {
        let committed = sample_entry("aaa", 1, 0.6);
        // Shed-rate explosion on overload: fails even on a 1-core host.
        let worse = sample_entry("bbb", 1, 0.85);
        let failures = regressions(&committed, &worse);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("overload: shed rate"));
        // Deadline-miss explosion fails too.
        let mut missy = sample_entry("ccc", 1, 0.6);
        missy.profiles[0].deadline_miss_rate = 0.5;
        assert!(regressions(&committed, &missy)
            .iter()
            .any(|f| f.contains("steady: deadline-miss")));
        // A 10x p99 blowup on a 1-core host is NOT gated…
        let mut slow1 = sample_entry("ddd", 1, 0.6);
        for p in &mut slow1.profiles {
            p.p99_ms *= 10.0;
        }
        assert!(regressions(&committed, &slow1).is_empty());
        // …but on an 8-core host it is.
        let committed8 = sample_entry("aaa", 8, 0.6);
        let mut slow8 = sample_entry("ddd", 8, 0.6);
        for p in &mut slow8.profiles {
            p.p99_ms *= 10.0;
        }
        let failures = regressions(&committed8, &slow8);
        assert_eq!(failures.len(), 3, "all three profiles blew their tails");
        assert!(failures.iter().all(|f| f.contains("p99")));
        // Sub-floor jitter never fails: 1 ms → 4 ms is under the floor.
        let mut tiny = sample_entry("aaa", 8, 0.6);
        tiny.profiles[0].p99_ms = 1.0;
        let mut jitter = sample_entry("eee", 8, 0.6);
        jitter.profiles[0].p99_ms = 4.0;
        assert!(regressions(&tiny, &jitter).is_empty());
        // Within-tolerance rate noise passes.
        let noisy = sample_entry("fff", 1, 0.65);
        assert!(regressions(&committed, &noisy).is_empty());
    }
}
