//! The wave machine's protocol under arbitrary event orders, with no
//! threads, channels or lanes: the test plays the driver. It completes
//! parts out of order, lets a lane die between a run and its report
//! (some requests come back without scores, or none do), drains at any
//! point, aborts now and then, and ticks between everything. Whatever the
//! order:
//!
//! * every submitted id gets exactly one response;
//! * a (wave, shard) pair is owed at most once;
//! * no request is served before every part of its wave has reported, and
//!   a served request carries exactly the scores its shards reported.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use sw_align::{ScoringMatrix, SwParams};
use sw_serve::{
    Action, AdmissionConfig, BatchPolicy, Event, Outcome, Part, SearchRequest, WaveMachine,
};

const SHARDS: usize = 3;
const DB_LEN: usize = 8;

/// The score the test's lanes give request `id` against database
/// sequence `j`: distinct per pair, so a misassembled response shows.
fn score(id: u64, j: usize) -> i32 {
    (id * 100 + j as u64) as i32
}

/// Shard-order scores of `id` on round-robin shard `shard`.
fn shard_scores(id: u64, shard: usize) -> Vec<i32> {
    (shard..DB_LEN)
        .step_by(SHARDS)
        .map(|j| score(id, j))
        .collect()
}

fn request(id: u64, now: f64, class: u16) -> SearchRequest {
    let params = if class.is_multiple_of(2) {
        SwParams::cudasw_default()
    } else {
        SwParams {
            matrix: ScoringMatrix::blosum50(),
            ..SwParams::cudasw_default()
        }
    };
    SearchRequest {
        id,
        tenant: format!("tenant-{}", class % 3),
        query: vec![1; 8],
        params,
        arrival_seconds: now,
        deadline_seconds: now + 0.004 * f64::from(1 + class % 4),
    }
}

/// The driver's side of the protocol, with the checks.
#[derive(Default)]
struct Ledger {
    /// Runs and owed parts the machine waits on, with the requests each
    /// must report.
    parts: Vec<(Part, Vec<usize>)>,
    /// Parts issued but not yet reported, per wave.
    outstanding: HashMap<u64, usize>,
    wave_of: HashMap<u64, u64>,
    owed: HashSet<(u64, usize)>,
    responded: HashMap<u64, Outcome>,
}

impl Ledger {
    /// Take every queued action, checking each.
    fn take(&mut self, m: &mut WaveMachine) {
        while let Some(action) = m.next_action() {
            match action {
                Action::Run(part) => {
                    for req in &part.wave.requests {
                        self.wave_of.insert(req.id, part.wave_id);
                    }
                    let requests = part.wave.exec_order.clone();
                    self.issue(part, requests);
                }
                Action::Owe(part, requests) => {
                    prop_assert!(
                        self.owed.insert((part.wave_id, part.shard)),
                        "wave {} shard {} owed twice",
                        part.wave_id,
                        part.shard
                    );
                    prop_assert!(!requests.is_empty());
                    self.issue(part, requests);
                }
                Action::Respond { id, outcome } => {
                    if let Outcome::Served(resp) = &outcome {
                        let wave_id = self.wave_of[&id];
                        prop_assert_eq!(
                            self.outstanding[&wave_id],
                            0,
                            "request {} served before its wave reported",
                            id
                        );
                        let expect: Vec<i32> = (0..DB_LEN).map(|j| score(id, j)).collect();
                        prop_assert_eq!(&resp.scores, &expect, "request {} scores", id);
                    }
                    prop_assert!(
                        self.responded.insert(id, outcome).is_none(),
                        "request {} responded twice",
                        id
                    );
                }
            }
        }
    }

    fn issue(&mut self, part: Part, requests: Vec<usize>) {
        *self.outstanding.entry(part.wave_id).or_default() += 1;
        self.parts.push((part, requests));
    }

    /// Report part `pick` (modulo the parts waiting): requests whose bit
    /// in `served` is set come back with scores, the rest without.
    fn report(&mut self, m: &mut WaveMachine, now: f64, pick: usize, served: u16) {
        if self.parts.is_empty() {
            return;
        }
        let (part, requests) = self.parts.swap_remove(pick % self.parts.len());
        if let Some(n) = self.outstanding.get_mut(&part.wave_id) {
            *n -= 1;
        }
        let mut scores = vec![None; part.wave.requests.len()];
        for (bit, &q) in requests.iter().enumerate() {
            if served & (1 << (bit % 16)) != 0 {
                scores[q] = Some(shard_scores(part.wave.requests[q].id, part.shard));
            }
        }
        let event = if served == 0 {
            Event::ShardDead {
                wave_id: part.wave_id,
                shard: part.shard,
            }
        } else {
            Event::ShardDone {
                wave_id: part.wave_id,
                shard: part.shard,
                scores,
                cells: 1,
                degraded: false,
            }
        };
        m.handle(now, event);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_event_order_answers_each_request_once(
        ops in proptest::collection::vec((0u8..10, any::<u16>(), 0u8..4), 0..120),
        depth in 1usize..4,
        max_wave in 1usize..5,
        queue_capacity in 2usize..8,
    ) {
        let mut m = WaveMachine::new(
            SHARDS,
            DB_LEN,
            depth,
            AdmissionConfig { queue_capacity, tenant_quota: 4 },
            BatchPolicy {
                max_wave,
                max_linger_seconds: 0.002,
                ..BatchPolicy::default()
            },
        );
        let mut ledger = Ledger::default();
        let mut now = 0.0;
        let mut submitted = 0u64;
        for &(op, pick, dt) in &ops {
            now += f64::from(dt) * 1.0e-3;
            match op {
                0 | 1 => {
                    m.handle(now, Event::Submit(request(submitted, now, pick)));
                    submitted += 1;
                }
                2 | 3 => m.handle(now, Event::Tick),
                // A lane finishes a part, in any order.
                4 | 5 => ledger.report(&mut m, now, usize::from(pick), u16::MAX),
                // A lane dies between the run and its report: some or all
                // of the part comes back without scores.
                6 | 7 => ledger.report(&mut m, now, usize::from(pick >> 8), pick & 0xff),
                8 => m.handle(now, Event::Drain),
                _ if pick.is_multiple_of(8) => m.handle(now, Event::Abort),
                _ => m.handle(now, Event::Tick),
            }
            ledger.take(&mut m);
        }
        // Drain, then let every lane finish whatever it holds.
        m.handle(now, Event::Drain);
        let mut rounds = 0;
        while !m.is_idle() || !ledger.parts.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 10_000, "the machine never went idle");
            now += 1.0e-3;
            m.handle(now, Event::Tick);
            ledger.take(&mut m);
            ledger.report(&mut m, now, 0, u16::MAX);
            ledger.take(&mut m);
        }

        let mut ids: Vec<u64> = ledger.responded.keys().copied().collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..submitted).collect::<Vec<_>>(), "one response per id");
        let report = m.into_report();
        prop_assert_eq!(report.offered(), submitted as usize);
        let served = ledger
            .responded
            .values()
            .filter(|o| matches!(o, Outcome::Served(_)))
            .count();
        prop_assert_eq!(report.responses.len(), served);
        prop_assert!(report.makespan_seconds >= 0.0);
    }
}
