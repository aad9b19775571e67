//! The wave protocol, once: a state machine with no threads, channels,
//! clock or lanes inside.
//!
//! [`WaveMachine`] owns the [`AdmissionQueue`], the [`Batcher`] and the
//! waves in flight. A driver feeds it [`Event`]s stamped with its own
//! `now` and carries out the [`Action`]s it queues. Two drivers run it:
//!
//! * [`crate::SearchService::run_trace`], a discrete-event loop on the
//!   simulated clock that carries out every action synchronously on its
//!   [`crate::DeviceLane`]s and the host pool, one wave at a time;
//! * the `sw-gateway` dispatcher, a pump between the machine and its lane
//!   worker threads on the wall clock, with several waves in flight.
//!
//! The protocol:
//!
//! * [`Event::Tick`] sheds queued requests whose deadline passed (when
//!   enabled) and seals waves while fewer than `depth` are in flight; a
//!   sealed wave over `k` shards queues one [`Action::Run`] per shard.
//! * A shard that reports requests without scores ([`Event::ShardDone`]
//!   with `None`s, or [`Event::ShardDead`]) is owed once: [`Action::Owe`]
//!   asks the driver to compute the missing requests somewhere else. A
//!   shard still incomplete after its owed part reports is lost.
//! * When every part of a wave has reported, each request resolves:
//!   served with its full-database scores, or aborted if a shard was lost.
//! * Every submitted id gets exactly one [`Action::Respond`]: served, shed
//!   (admission, illegal gap penalties or query codes outside the matrix,
//!   or a deadline that passed in the queue), or aborted
//!   ([`Event::Abort`], a lost shard, or a submission after
//!   [`Event::Drain`]).

use crate::admission::{AdmissionConfig, AdmissionQueue, ShedReason};
use crate::batch::{BatchPolicy, Batcher, Wave};
use crate::request::SearchRequest;
use cudasw_core::multi_gpu::unshard_scores;
use cudasw_core::RecoveryReport;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use sw_align::GapPenalties;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// Full-database scores, `db.sequences()` order.
    pub scores: Vec<i32>,
    /// `completion − arrival`, on the driver's clock.
    pub latency_seconds: f64,
    /// True when the response missed its deadline (served anyway).
    pub deadline_missed: bool,
    /// True when part of the response was served off its device lane
    /// (CPU fallback, quarantine recompute, or a shard owed to the host
    /// lane).
    pub degraded: bool,
}

/// One shed request.
#[derive(Debug, Clone)]
pub struct Shed {
    /// The request id.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: String,
    /// Why it was refused.
    pub reason: ShedReason,
}

/// The terminal state of a submitted request. Every request resolves to
/// exactly one of these.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered with full-database scores.
    Served(Response),
    /// Refused by admission control, or shed when its deadline passed in
    /// the queue.
    Shed(ShedReason),
    /// Aborted before it completed.
    Aborted,
}

/// Everything a serving run produced.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Answered requests, completion order. The machine records them
    /// without scores, which travel in [`Action::Respond`]; the simulated
    /// service's report carries them.
    pub responses: Vec<Response>,
    /// Shed requests, in the order they were shed.
    pub sheds: Vec<Shed>,
    /// Aborted request ids.
    pub aborted: Vec<u64>,
    /// Waves sealed.
    pub waves: u64,
    /// DP cells the drivers reported.
    pub total_cells: u64,
    /// Seconds from the first arrival to the last served response; 0 when
    /// nothing was served.
    pub makespan_seconds: f64,
    /// Aggregated recovery story across all waves (simulated service).
    pub recovery: RecoveryReport,
    /// Device lanes lost over the run (gateway).
    pub lane_deaths: u64,
    /// Shard parts re-dispatched to the host lane (gateway).
    pub owed_to_host: u64,
    /// True when the drain grace expired and shutdown force-cancelled
    /// in-flight host work (gateway).
    pub forced_cancel: bool,
    /// The dispatcher thread's metrics snapshot (gateway): front-end
    /// counters and the end-to-end latency histogram.
    pub metrics: obs::MetricsRegistry,
}

impl ServeReport {
    /// Requests offered: served + shed + aborted.
    pub fn offered(&self) -> usize {
        self.responses.len() + self.sheds.len() + self.aborted.len()
    }

    /// Aggregate throughput over the makespan, GCUPS.
    pub fn gcups(&self) -> f64 {
        self.per_second(self.total_cells as f64) / 1.0e9
    }

    /// Answered queries per second of makespan.
    pub fn queries_per_second(&self) -> f64 {
        self.per_second(self.responses.len() as f64)
    }

    fn per_second(&self, count: f64) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            count / self.makespan_seconds
        }
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        fraction(self.sheds.len(), self.offered())
    }

    /// Fraction of answered requests that missed their deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        let missed = self.responses.iter().filter(|r| r.deadline_missed).count();
        fraction(missed, self.responses.len())
    }

    /// Fraction of answered requests that were degraded.
    pub fn degraded_rate(&self) -> f64 {
        let degraded = self.responses.iter().filter(|r| r.degraded).count();
        fraction(degraded, self.responses.len())
    }

    /// Latency at percentile `p` ∈ [0, 100] (nearest rank on exact
    /// latencies; 0 when nothing was answered).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.responses.iter().map(|r| r.latency_seconds).collect();
        lat.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What a driver tells the machine.
#[derive(Debug)]
pub enum Event {
    /// A request arrives, its arrival already stamped.
    Submit(SearchRequest),
    /// Shed expired requests (when enabled) and seal waves up to the depth.
    Tick,
    /// A part of shard `shard` of wave `wave_id` finished: shard-order
    /// scores per request, indexed like `wave.requests`, `None` where the
    /// part served nothing.
    ShardDone {
        wave_id: u64,
        shard: usize,
        scores: Vec<Option<Vec<i32>>>,
        /// DP cells the part computed.
        cells: u64,
        /// The part was served off its device lane or degraded by recovery.
        degraded: bool,
    },
    /// A part of shard `shard` of wave `wave_id` could not run at all.
    ShardDead { wave_id: u64, shard: usize },
    /// Close intake: later submissions abort, and the batcher flushes.
    Drain,
    /// Abort every request still queued or in flight.
    Abort,
}

/// One shard of one wave: the unit of work a lane runs.
#[derive(Debug)]
pub struct Part {
    /// The wave's id, unique per machine.
    pub wave_id: u64,
    /// The wave's requests.
    pub wave: Arc<Wave>,
    /// Which round-robin shard of the database.
    pub shard: usize,
}

/// What the machine asks its driver to do.
#[derive(Debug)]
pub enum Action {
    /// Run the part on its shard's own lane, then report
    /// [`Event::ShardDone`] or [`Event::ShardDead`].
    Run(Part),
    /// Compute the part somewhere else for the listed requests (indices
    /// into `wave.requests`, execution order), then report. Queued at
    /// most once per (wave, shard).
    Owe(Part, Vec<usize>),
    /// Resolve request `id`. Queued exactly once per submitted id.
    Respond { id: u64, outcome: Outcome },
}

/// One wave in flight.
struct Inflight {
    wave: Arc<Wave>,
    /// Parts (runs and owed parts) queued but not yet reported.
    running: usize,
    /// `[shard][request]` → shard-order scores.
    parts: Vec<Vec<Option<Vec<i32>>>>,
    /// Shards already owed: once per shard, ever.
    owed: Vec<bool>,
    degraded: bool,
}

/// The sans-IO wave state machine (see the module docs).
pub struct WaveMachine {
    queue: AdmissionQueue,
    batcher: Batcher,
    shed_expired: bool,
    shards: usize,
    db_len: usize,
    depth: usize,
    draining: bool,
    next_wave_id: u64,
    inflight: BTreeMap<u64, Inflight>,
    first_arrival: Option<f64>,
    report: ServeReport,
    actions: VecDeque<Action>,
}

impl WaveMachine {
    /// A machine over `shards` round-robin shards of a `db_len`-sequence
    /// database, sealing a wave only while fewer than `depth` are in
    /// flight. With `shed_expired` a queued request whose deadline passed
    /// is shed instead of served late.
    pub fn new(
        shards: usize,
        db_len: usize,
        depth: usize,
        admission: AdmissionConfig,
        batch: BatchPolicy,
        shed_expired: bool,
    ) -> Self {
        Self {
            queue: AdmissionQueue::new(admission),
            batcher: Batcher::new(batch),
            shed_expired,
            shards,
            db_len,
            depth: depth.max(1),
            draining: false,
            next_wave_id: 0,
            inflight: BTreeMap::new(),
            first_arrival: None,
            report: ServeReport::default(),
            actions: VecDeque::new(),
        }
    }

    /// Take `event` at instant `now`; the actions it causes are queued
    /// behind any not yet taken.
    pub fn handle(&mut self, now: f64, event: Event) {
        match event {
            Event::Submit(req) => self.submit(req),
            Event::Tick => self.tick(now),
            Event::ShardDone {
                wave_id,
                shard,
                scores,
                cells,
                degraded,
            } => self.shard_done(now, wave_id, shard, scores, cells, degraded),
            Event::ShardDead { wave_id, shard } => {
                self.shard_done(now, wave_id, shard, Vec::new(), 0, false)
            }
            Event::Drain => self.draining = true,
            Event::Abort => self.abort_all(),
        }
    }

    /// The oldest queued action.
    pub fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// The earliest instant a [`Event::Tick`] seals a wave without a
    /// drain; `None` when nothing is queued.
    pub fn next_dispatch_at(&self, now: f64) -> Option<f64> {
        self.batcher.next_dispatch_at(&self.queue, now)
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// The run's report so far.
    pub fn into_report(self) -> ServeReport {
        self.report
    }

    fn submit(&mut self, req: SearchRequest) {
        self.first_arrival.get_or_insert(req.arrival_seconds);
        if self.draining {
            self.abort(req.id);
            return;
        }
        let (id, tenant) = (req.id, req.tenant.clone());
        let (gaps, size) = (req.params.gaps, req.params.matrix.size());
        // Refused here, before any lane builds an engine or a profile that
        // would panic.
        let legal_gaps = GapPenalties::new(gaps.open, gaps.extend).is_ok();
        let codes_in_matrix = req.query.iter().all(|&c| usize::from(c) < size);
        let offered = if legal_gaps && codes_in_matrix {
            self.queue.offer(req)
        } else {
            Err(ShedReason::InvalidParams)
        };
        if let Err(reason) = offered {
            self.shed(id, tenant, reason);
        }
    }

    fn tick(&mut self, now: f64) {
        if self.shed_expired {
            for req in self.queue.take_expired(now) {
                self.shed(req.id, req.tenant, ShedReason::DeadlineExpired);
            }
        }
        while self.inflight.len() < self.depth {
            let Some(wave) = self.batcher.next_wave(&mut self.queue, now, self.draining) else {
                break;
            };
            let wave = Arc::new(wave);
            let wave_id = self.next_wave_id;
            self.next_wave_id += 1;
            self.report.waves += 1;
            let n = wave.requests.len();
            self.inflight.insert(
                wave_id,
                Inflight {
                    wave: wave.clone(),
                    running: self.shards,
                    parts: vec![vec![None; n]; self.shards],
                    owed: vec![false; self.shards],
                    degraded: false,
                },
            );
            for shard in 0..self.shards {
                let wave = wave.clone();
                self.actions.push_back(Action::Run(Part {
                    wave_id,
                    wave,
                    shard,
                }));
            }
        }
    }

    fn shard_done(
        &mut self,
        now: f64,
        wave_id: u64,
        shard: usize,
        scores: Vec<Option<Vec<i32>>>,
        cells: u64,
        degraded: bool,
    ) {
        self.report.total_cells += cells;
        // A part of an aborted wave may still report; nothing waits on it.
        let Some(inf) = self.inflight.get_mut(&wave_id) else {
            return;
        };
        inf.running = inf.running.saturating_sub(1);
        inf.degraded |= degraded;
        for (slot, part) in inf.parts[shard].iter_mut().zip(scores) {
            if part.is_some() {
                *slot = part;
            }
        }
        if !inf.owed[shard] {
            let missing: Vec<usize> = (inf.wave.exec_order.iter().copied())
                .filter(|&q| inf.parts[shard][q].is_none())
                .collect();
            if !missing.is_empty() {
                inf.owed[shard] = true;
                inf.running += 1;
                let wave = inf.wave.clone();
                let part = Part {
                    wave_id,
                    wave,
                    shard,
                };
                self.actions.push_back(Action::Owe(part, missing));
            }
        }
        if inf.running == 0 {
            if let Some(inf) = self.inflight.remove(&wave_id) {
                self.finish(now, inf);
            }
        }
    }

    /// Every part of `inf` reported: serve each request whose shards all
    /// came back, abort the rest.
    fn finish(&mut self, now: f64, mut inf: Inflight) {
        for (q, req) in inf.wave.requests.iter().enumerate() {
            let parts: Option<Vec<Vec<i32>>> = inf.parts.iter_mut().map(|p| p[q].take()).collect();
            let Some(parts) = parts else {
                self.abort(req.id);
                continue;
            };
            let mut scores = vec![0i32; self.db_len];
            for (s, part) in parts.iter().enumerate() {
                unshard_scores(&mut scores, s, self.shards, part);
            }
            let latency_seconds = now - req.arrival_seconds;
            obs::observe_latency("cudasw.serve.latency_seconds", &[], latency_seconds);
            obs::counter_add("cudasw.serve.completed", &[], 1.0);
            if let Some(t0) = self.first_arrival {
                self.report.makespan_seconds = (now - t0).max(0.0);
            }
            let response = Response {
                id: req.id,
                tenant: req.tenant.clone(),
                scores: Vec::new(),
                latency_seconds,
                deadline_missed: now > req.deadline_seconds,
                degraded: inf.degraded,
            };
            self.report.responses.push(response.clone());
            self.respond(req.id, Outcome::Served(Response { scores, ..response }));
        }
    }

    fn shed(&mut self, id: u64, tenant: String, reason: ShedReason) {
        obs::counter_add("cudasw.serve.shed", &[("reason", reason.as_str())], 1.0);
        self.report.sheds.push(Shed { id, tenant, reason });
        self.respond(id, Outcome::Shed(reason));
    }

    fn abort(&mut self, id: u64) {
        obs::counter_add("cudasw.serve.aborted", &[], 1.0);
        self.report.aborted.push(id);
        self.respond(id, Outcome::Aborted);
    }

    fn abort_all(&mut self) {
        let queued: Vec<usize> = (0..self.queue.depth()).collect();
        for req in self.queue.take(&queued) {
            self.abort(req.id);
        }
        for inf in std::mem::take(&mut self.inflight).into_values() {
            for req in &inf.wave.requests {
                self.abort(req.id);
            }
        }
    }

    fn respond(&mut self, id: u64, outcome: Outcome) {
        self.actions.push_back(Action::Respond { id, outcome });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_align::SwParams;

    fn req(id: u64) -> SearchRequest {
        SearchRequest {
            id,
            tenant: "t".to_string(),
            query: vec![1; 8],
            params: SwParams::cudasw_default(),
            arrival_seconds: 0.0,
            deadline_seconds: 1.0,
        }
    }

    fn machine(shards: usize) -> WaveMachine {
        WaveMachine::new(
            shards,
            shards,
            1,
            AdmissionConfig::default(),
            BatchPolicy::default(),
            false,
        )
    }

    fn drain_actions(m: &mut WaveMachine) -> Vec<Action> {
        std::iter::from_fn(|| m.next_action()).collect()
    }

    #[test]
    fn a_wave_whose_every_shard_dies_is_owed_once_per_shard_and_aborted() {
        let mut m = machine(3);
        for id in 0..2 {
            m.handle(0.0, Event::Submit(req(id)));
        }
        m.handle(0.0, Event::Drain);
        m.handle(0.0, Event::Tick);
        let (mut owes, mut aborted) = (Vec::new(), Vec::new());
        while let Some(action) = m.next_action() {
            match action {
                Action::Run(Part { wave_id, shard, .. }) => {
                    m.handle(0.0, Event::ShardDead { wave_id, shard })
                }
                Action::Owe(Part { wave_id, shard, .. }, requests) => {
                    assert_eq!(requests, [0, 1]);
                    owes.push(shard);
                    m.handle(0.0, Event::ShardDead { wave_id, shard });
                }
                Action::Respond { id, outcome } => {
                    assert!(matches!(outcome, Outcome::Aborted), "request {id}");
                    aborted.push(id);
                }
            }
        }
        assert_eq!(owes, [0, 1, 2]);
        aborted.sort_unstable();
        assert_eq!(aborted, [0, 1]);
        assert!(m.is_idle());
        let report = m.into_report();
        assert_eq!((report.waves, report.aborted.len()), (1, 2));
        assert!(report.responses.is_empty());
        assert_eq!(report.makespan_seconds, 0.0);
    }

    #[test]
    fn a_drain_with_an_empty_queue_is_idle_and_aborts_later_submissions() {
        let mut m = machine(2);
        m.handle(0.0, Event::Drain);
        m.handle(0.0, Event::Tick);
        assert!(m.is_idle());
        assert!(m.next_action().is_none());
        assert_eq!(m.next_dispatch_at(0.0), None);
        m.handle(0.5, Event::Submit(req(7)));
        m.handle(0.5, Event::Tick);
        let actions = drain_actions(&mut m);
        assert!(matches!(
            actions[..],
            [Action::Respond {
                id: 7,
                outcome: Outcome::Aborted
            }]
        ));
        assert!(m.is_idle());
        assert_eq!(m.into_report().waves, 0);
    }
}
