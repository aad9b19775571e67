//! Per-lane health tracking and circuit breaking.
//!
//! PR 1/PR 4 gave every *query* a recovery ladder; this module gives the
//! *service* cross-query memory about each device lane. A
//! [`HealthTracker`] keeps, per lane, an EWMA fault score fed by wave
//! outcomes and a circuit breaker:
//!
//! ```text
//!             consecutive failures ≥ OPEN_AFTER_CONSECUTIVE
//!             or fault score ≥ OPEN_FAULT_SCORE, or lane death
//!   ┌────────┐ ──────────────────────────────────────────▶ ┌────────┐
//!   │ Closed │                                             │  Open  │
//!   └────────┘ ◀──┐                                        └────────┘
//!        ▲        │ CLOSE_AFTER_PROBES                          │
//!        │        │ probe successes             cooldown_seconds│
//!        │        │                             elapse          ▼
//!        │   ┌──────────┐ ◀───────────────────────────── (next admit)
//!        └── │ HalfOpen │
//!            └──────────┘ ── probe failure ──▶ back to Open
//! ```
//!
//! While a lane's breaker is open the executor stops routing wave work
//! to it (the owed/redispatch machinery covers its shard); after
//! [`HealthPolicy::cooldown_seconds`] of service time the breaker
//! half-opens and the lane earns re-admission with
//! `CLOSE_AFTER_PROBES` clean probe waves. A revived
//! device (see [`gpu_sim`] device-loss recovery) re-enters through
//! half-open too — it must prove itself before the batcher trusts it.
//!
//! The breaker never moves `Closed → Open` without a failure signal in
//! the same observation — pinned by `tests/resilience_props.rs`.
//!
//! All timing here is **service time** (the discrete-event scheduler's
//! clock), passed in as `now`; the tracker never reads the global
//! simulated clock.

/// Clean probe waves a half-open lane must serve to close.
const CLOSE_AFTER_PROBES: u32 = 2;

/// EWMA smoothing factor of the fault score, in (0, 1]; higher weighs
/// recent waves more.
const EWMA_ALPHA: f64 = 0.3;

/// Consecutive failed waves that open the breaker.
const OPEN_AFTER_CONSECUTIVE: u32 = 3;

/// Fault-score level (EWMA of 0/1 wave outcomes) that opens the breaker
/// even without a consecutive run.
const OPEN_FAULT_SCORE: f64 = 0.6;

/// Health and breaker knobs.
#[derive(Debug, Clone)]
pub struct HealthPolicy {
    /// Service seconds an open breaker waits before half-opening.
    pub cooldown_seconds: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            cooldown_seconds: 2.0e-2,
        }
    }
}

/// Circuit-breaker state of one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: waves route here.
    Closed,
    /// Quarantined: no waves until the cooldown elapses.
    Open,
    /// Probing: waves route here, but one failure re-opens and
    /// `CLOSE_AFTER_PROBES` successes close.
    HalfOpen,
}

impl BreakerState {
    /// Metric-label form.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// Health state of one lane.
#[derive(Debug, Clone)]
pub struct LaneHealth {
    /// Breaker state.
    pub state: BreakerState,
    /// EWMA of wave outcomes (0 = clean, 1 = faulted); starts clean.
    pub fault_score: f64,
    /// Failed waves since the last clean one.
    pub consecutive_failures: u32,
    /// Service instant the breaker last opened.
    opened_at: f64,
    /// Clean probes served while half-open.
    probe_successes: u32,
}

impl LaneHealth {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            fault_score: 0.0,
            consecutive_failures: 0,
            opened_at: 0.0,
            probe_successes: 0,
        }
    }
}

/// Cross-query health memory for a farm of lanes.
#[derive(Debug)]
pub struct HealthTracker {
    policy: HealthPolicy,
    lanes: Vec<LaneHealth>,
}

impl HealthTracker {
    /// A tracker for `lanes` lanes, all starting closed and clean.
    pub fn new(lanes: usize, policy: HealthPolicy) -> Self {
        Self {
            policy,
            lanes: (0..lanes).map(|_| LaneHealth::new()).collect(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Health state of lane `s`.
    pub fn lane(&self, s: usize) -> &LaneHealth {
        &self.lanes[s]
    }

    /// Whether lane `s` may receive wave work at service instant `now`.
    /// An open breaker whose cooldown has elapsed half-opens here (the
    /// admission check is the only place the clock can move it).
    pub fn admits(&mut self, s: usize, now: f64) -> bool {
        if self.lanes[s].state == BreakerState::Open
            && now - self.lanes[s].opened_at >= self.policy.cooldown_seconds
        {
            self.transition(s, BreakerState::HalfOpen);
            self.lanes[s].probe_successes = 0;
        }
        self.lanes[s].state != BreakerState::Open
    }

    /// Record one wave served by lane `s`: `faulted` when any fault fired
    /// on the lane's device during the wave (fault-stats delta), clean
    /// otherwise. Drives the EWMA fault score and the breaker.
    pub fn observe_wave(&mut self, s: usize, faulted: bool, now: f64) {
        let lane = &mut self.lanes[s];
        lane.fault_score =
            (1.0 - EWMA_ALPHA) * lane.fault_score + EWMA_ALPHA * f64::from(u8::from(faulted));
        obs::gauge_set(
            "cudasw.serve.health.fault_score",
            &[("lane", &s.to_string())],
            lane.fault_score,
        );
        if faulted {
            lane.consecutive_failures += 1;
            let trip = lane.consecutive_failures >= OPEN_AFTER_CONSECUTIVE
                || lane.fault_score >= OPEN_FAULT_SCORE;
            match lane.state {
                // A half-open lane re-opens on its first failed probe.
                BreakerState::HalfOpen => self.open(s, now),
                BreakerState::Closed if trip => self.open(s, now),
                _ => {}
            }
        } else {
            lane.consecutive_failures = 0;
            if lane.state == BreakerState::HalfOpen {
                lane.probe_successes += 1;
                if lane.probe_successes >= CLOSE_AFTER_PROBES {
                    self.transition(s, BreakerState::Closed);
                }
            }
        }
    }

    /// Record a lane death (device lost mid-wave): opens the breaker
    /// immediately — the cooldown then paces revival probes.
    pub fn observe_death(&mut self, s: usize, now: f64) {
        self.lanes[s].consecutive_failures += 1;
        self.lanes[s].fault_score = 1.0;
        if self.lanes[s].state != BreakerState::Open {
            self.open(s, now);
        } else {
            // Re-arm the cooldown: a failed revival probe starts a new wait.
            self.lanes[s].opened_at = now;
        }
    }

    /// Record a successful device revival on lane `s`: the lane re-enters
    /// through half-open (it must earn `Closed` with clean probes), with
    /// its failure run cleared.
    pub fn note_revival(&mut self, s: usize, _now: f64) {
        self.lanes[s].consecutive_failures = 0;
        self.lanes[s].probe_successes = 0;
        self.transition(s, BreakerState::HalfOpen);
    }

    /// The healthiest admitted lane other than `except` (lowest fault
    /// score, ties to the lowest index): where owed work should go first.
    pub fn preferred(&self, alive: &[bool], except: usize) -> Option<usize> {
        (0..self.lanes.len())
            .filter(|&s| {
                s != except
                    && alive.get(s).copied().unwrap_or(false)
                    && self.lanes[s].state != BreakerState::Open
            })
            .min_by(|&a, &b| {
                self.lanes[a]
                    .fault_score
                    .total_cmp(&self.lanes[b].fault_score)
            })
    }

    fn open(&mut self, s: usize, now: f64) {
        self.lanes[s].opened_at = now;
        self.lanes[s].probe_successes = 0;
        self.transition(s, BreakerState::Open);
    }

    fn transition(&mut self, s: usize, to: BreakerState) {
        if self.lanes[s].state == to {
            return;
        }
        self.lanes[s].state = to;
        let lane = s.to_string();
        obs::counter_add(
            "cudasw.serve.health.breaker_transitions",
            &[("lane", &lane), ("to", to.as_str())],
            1.0,
        );
        obs::gauge_set(
            "cudasw.serve.health.breaker",
            &[("lane", &lane)],
            to.gauge(),
        );
        obs::instant("breaker", "serve", &[("lane", &lane), ("to", to.as_str())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(lanes: usize) -> HealthTracker {
        HealthTracker::new(lanes, HealthPolicy::default())
    }

    #[test]
    fn clean_waves_keep_the_breaker_closed() {
        let mut t = tracker(2);
        for i in 0..50 {
            let now = i as f64;
            assert!(t.admits(0, now));
            t.observe_wave(0, false, now);
        }
        assert_eq!(t.lane(0).state, BreakerState::Closed);
        assert_eq!(t.lane(0).fault_score, 0.0);
    }

    #[test]
    fn consecutive_failures_open_then_cooldown_half_opens() {
        let mut t = tracker(1);
        let p = t.policy().clone();
        for i in 0..OPEN_AFTER_CONSECUTIVE {
            assert!(t.admits(0, 0.0));
            t.observe_wave(0, true, 0.0);
            if i + 1 < OPEN_AFTER_CONSECUTIVE {
                assert_eq!(t.lane(0).state, BreakerState::Closed);
            }
        }
        assert_eq!(t.lane(0).state, BreakerState::Open);
        // Quarantined until the cooldown elapses...
        assert!(!t.admits(0, p.cooldown_seconds / 2.0));
        // ...then half-open probes are admitted.
        assert!(t.admits(0, p.cooldown_seconds));
        assert_eq!(t.lane(0).state, BreakerState::HalfOpen);
        // One failed probe re-opens with a fresh cooldown.
        t.observe_wave(0, true, p.cooldown_seconds);
        assert_eq!(t.lane(0).state, BreakerState::Open);
        assert!(!t.admits(0, p.cooldown_seconds * 1.5));
        // After another cooldown, clean probes earn re-admission.
        let now = p.cooldown_seconds * 2.5;
        assert!(t.admits(0, now));
        for _ in 0..CLOSE_AFTER_PROBES {
            t.observe_wave(0, false, now);
        }
        assert_eq!(t.lane(0).state, BreakerState::Closed);
    }

    #[test]
    fn fault_rate_threshold_opens_without_a_consecutive_run() {
        let mut t = tracker(1);
        // Fail, fail, ok never builds a run of OPEN_AFTER_CONSECUTIVE, but
        // the EWMA climbs past the threshold (0.685 at the fifth wave).
        let mut opened = false;
        for i in 0..20 {
            let now = i as f64 * 1e-3;
            if !t.admits(0, now) {
                opened = true;
                break;
            }
            t.observe_wave(0, i % 3 != 2, now);
            if t.lane(0).state == BreakerState::Open {
                opened = true;
                break;
            }
        }
        assert!(opened, "fault score {:.2}", t.lane(0).fault_score);
        assert!(t.lane(0).consecutive_failures < OPEN_AFTER_CONSECUTIVE);
        assert!(t.lane(0).fault_score >= OPEN_FAULT_SCORE);
    }

    #[test]
    fn death_opens_immediately_and_revival_half_opens() {
        let mut t = tracker(3);
        t.observe_death(1, 5.0);
        assert_eq!(t.lane(1).state, BreakerState::Open);
        assert!(!t.admits(1, 5.0));
        t.note_revival(1, 6.0);
        assert_eq!(t.lane(1).state, BreakerState::HalfOpen);
        assert!(t.admits(1, 6.0));
        // The revived lane still has to earn Closed.
        t.observe_wave(1, false, 6.0);
        assert_eq!(t.lane(1).state, BreakerState::HalfOpen);
        t.observe_wave(1, false, 6.0);
        assert_eq!(t.lane(1).state, BreakerState::Closed);
    }

    #[test]
    fn preferred_picks_the_cleanest_admitted_survivor() {
        let mut t = tracker(3);
        t.observe_wave(1, true, 0.0);
        assert_eq!(t.preferred(&[true, true, true], 0), Some(2));
        // Lane 2 dead (alive=false): fall back to the faulted lane 1.
        assert_eq!(t.preferred(&[true, true, false], 0), Some(1));
        // The open lane is never preferred.
        t.observe_death(1, 0.0);
        assert_eq!(t.preferred(&[true, true, false], 0), None);
    }

    #[test]
    fn breaker_metrics_are_emitted() {
        let ((), run) = obs::capture(|| {
            let mut t = tracker(1);
            for _ in 0..3 {
                t.observe_wave(0, true, 0.0);
            }
            assert_eq!(t.lane(0).state, BreakerState::Open);
        });
        assert_eq!(
            run.metrics.counter_sum(
                "cudasw.serve.health.breaker_transitions",
                &[("lane", "0"), ("to", "open")],
            ),
            1.0
        );
        assert_eq!(
            run.metrics
                .gauge("cudasw.serve.health.breaker", &[("lane", "0")]),
            1.0
        );
    }
}
