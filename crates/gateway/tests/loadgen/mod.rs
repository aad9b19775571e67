//! Seeded open-loop load generation against a live gateway.
//!
//! The generator produces a deterministic arrival *schedule* (gateway-
//! relative instants, queries, deadline slacks) from a seed, and
//! [`drive`] replays that schedule in real time: sleep until each
//! arrival instant, submit, keep the ticket. Arrivals are **open-loop**
//! — the next submission never waits for the previous response — so
//! overload manifests as queueing delay and shed, exactly like the
//! simulated traces in [`sw_serve::TraceConfig`], but on the wall
//! clock.
//!
//! Three profiles shape the arrival process:
//!
//! * [`LoadProfile::Steady`] — Poisson arrivals at the configured mean
//!   rate; the service should keep up.
//! * [`LoadProfile::Bursty`] — alternating hot/cold phases of
//!   [`LoadConfig::burst_period_seconds`]: hot phases run
//!   `burst_factor×` the steady rate, cold phases `1/burst_factor×`.
//!   Stresses the EDF batcher and the admission queue's depth bound.
//! * [`LoadProfile::Overload`] — sustained `overload_factor×` the
//!   steady rate. The open-loop arrivals outrun service capacity; the
//!   gateway must shed (bounded queue, tenant quotas) rather than let
//!   latency grow without bound.
//!
//! Schedules are pure functions of the config (seed included): the
//! determinism proptest pins that equal configs produce byte-identical
//! schedules and different seeds diverge.
//!
//! Test support, included by the gateway suites with `mod loadgen;`; each
//! suite uses part of it. The repository benchmark has its own generator.
#![allow(dead_code)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use sw_align::SwParams;
use sw_db::synth::make_query;
use sw_gateway::{GatewayHandle, Ticket};
use sw_serve::SearchRequest;

/// Arrival-process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProfile {
    /// Poisson arrivals at the steady mean rate.
    Steady,
    /// Alternating hot/cold phases around the steady rate.
    Bursty,
    /// Sustained arrivals past service capacity.
    Overload,
}

impl LoadProfile {
    /// Stable lowercase name (bench configs, reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            LoadProfile::Steady => "steady",
            LoadProfile::Bursty => "bursty",
            LoadProfile::Overload => "overload",
        }
    }
}

/// Configuration of a seeded open-loop load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Arrival-process shape.
    pub profile: LoadProfile,
    /// Number of requests to generate.
    pub requests: usize,
    /// Tenant names to draw from (uniformly).
    pub tenants: Vec<String>,
    /// Mean interarrival gap at the steady rate, wall seconds.
    pub mean_interarrival_seconds: f64,
    /// Hot/cold phase length for [`LoadProfile::Bursty`], seconds.
    pub burst_period_seconds: f64,
    /// Rate multiplier inside a hot phase (and divisor inside a cold
    /// one) for [`LoadProfile::Bursty`].
    pub burst_factor: f64,
    /// Rate multiplier for [`LoadProfile::Overload`].
    pub overload_factor: f64,
    /// Query lengths, drawn uniformly from this inclusive range.
    pub query_len: (usize, usize),
    /// Deadline slack over the arrival instant, drawn uniformly from
    /// this range of seconds.
    pub deadline_slack_seconds: (f64, f64),
    /// Parameter classes to draw from (uniformly); distinct classes
    /// never share a wave.
    pub param_classes: Vec<SwParams>,
    /// RNG seed; equal configs generate identical schedules.
    pub seed: u64,
}

impl LoadConfig {
    /// A small steady run: one tenant, one parameter class.
    pub fn small(requests: usize, seed: u64) -> Self {
        Self {
            profile: LoadProfile::Steady,
            requests,
            tenants: vec!["tenant-a".to_string()],
            mean_interarrival_seconds: 2.0e-3,
            burst_period_seconds: 0.25,
            burst_factor: 4.0,
            overload_factor: 8.0,
            query_len: (24, 64),
            deadline_slack_seconds: (0.5, 1.0),
            param_classes: vec![SwParams::cudasw_default()],
            seed,
        }
    }

    /// The profile's effective mean interarrival at instant `now`.
    fn mean_at(&self, now: f64) -> f64 {
        match self.profile {
            LoadProfile::Steady => self.mean_interarrival_seconds,
            LoadProfile::Overload => self.mean_interarrival_seconds / self.overload_factor.max(1.0),
            LoadProfile::Bursty => {
                let period = self.burst_period_seconds.max(1.0e-6);
                let factor = self.burst_factor.max(1.0);
                // Hot phase first, then cold, alternating.
                if ((now / period) as u64).is_multiple_of(2) {
                    self.mean_interarrival_seconds / factor
                } else {
                    self.mean_interarrival_seconds * factor
                }
            }
        }
    }

    /// Generate the schedule: arrival-sorted requests with ids
    /// `0..requests` and gateway-relative arrival instants. Pure
    /// function of `self`.
    pub fn schedule(&self) -> Vec<SearchRequest> {
        assert!(!self.tenants.is_empty(), "need at least one tenant");
        assert!(!self.param_classes.is_empty(), "need a parameter class");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4C4F_4144); // "LOAD"
        let mut now = 0.0f64;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            // Exponential interarrival at the phase-local rate:
            // -mean · ln(1 - U), U ∈ [0, 1).
            let u: f64 = rng.gen_range(0.0..1.0);
            now += -self.mean_at(now) * (1.0 - u).ln();
            let tenant = self.tenants[rng.gen_range(0..self.tenants.len())].clone();
            let params = self.param_classes[rng.gen_range(0..self.param_classes.len())].clone();
            let (lo, hi) = self.query_len;
            let len = rng.gen_range(lo..=hi);
            let (slo, shi) = self.deadline_slack_seconds;
            let slack = if shi > slo {
                rng.gen_range(slo..shi)
            } else {
                slo
            };
            out.push(SearchRequest {
                id,
                tenant,
                query: make_query(len, self.seed ^ id),
                params,
                arrival_seconds: now,
                deadline_seconds: now + slack,
            });
        }
        out
    }
}

/// Replay `schedule` against the gateway in real time: for each request,
/// sleep until its arrival instant (relative to the first call), submit,
/// collect the ticket. Returns tickets in submission order.
///
/// Open-loop: submission never waits on outcomes. Resolve the tickets
/// (e.g. from another thread, or after the driver returns) to observe
/// responses.
pub fn drive(handle: &GatewayHandle, schedule: &[SearchRequest]) -> Vec<Ticket> {
    let base = handle.now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for req in schedule {
        handle.wait_until(base + req.arrival_seconds);
        tickets.push(handle.submit(req.clone()));
    }
    tickets
}
