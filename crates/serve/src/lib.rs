//! `sw-serve`: a deterministic query-serving subsystem over the
//! resilient CUDASW++ driver.
//!
//! The paper's kernels answer one query; a production deployment answers
//! a *stream*. This crate adds the layer between the two, entirely on
//! the simulated clock so every run is reproducible (the `sw-gateway`
//! crate runs the same queue, batcher, health tracker and lane on wall
//! time):
//!
//! * [`admission`] — a bounded request queue with per-tenant quotas and
//!   explicit shed reasons (backpressure an open-loop arrival stream can
//!   observe);
//! * [`batch`] — the deadline-aware batcher: earliest-deadline-first
//!   waves of parameter-compatible queries, length-sorted for execution
//!   ([`sw_db::sort_by_length`]);
//! * [`lane`] — [`lane::DeviceLane`], the one device lane both serving
//!   stacks run: a shard kept device-resident
//!   ([`cudasw_core::CudaSwDriver::stage_database`]) and the recovery
//!   ladder under it (stage with retry → resident fast path → drop the
//!   handle → `search_resilient` → lane death);
//! * [`machine`] — [`machine::WaveMachine`], the wave protocol both
//!   serving stacks drive: admission, batching, waves over k shards, a
//!   shard owed once when its lane fails, and exactly one response per
//!   request, with no threads, channels, clock or lanes inside;
//! * [`health`] — cross-query lane health: an EWMA fault score,
//!   per-lane circuit breakers (closed → open → half-open → closed) and
//!   dead-lane revival probes;
//! * [`service`] — the discrete-event loop driving the machine over the
//!   lanes (health, shard re-dispatch and host fallback) and replaying
//!   seeded arrival traces ([`request::TraceConfig`]).
//!
//! Metrics (`cudasw.serve.*`): `admitted`, `shed{reason}`, `queue_depth`
//! (gauge), `waves`, `wave_requests`, `completed`, `aborted`,
//! `latency_seconds` (histogram), `db_stagings`, `staging_retries`,
//! `staging_fallbacks`, `staged_faults`, `lane_deaths`, `lane_revivals`,
//! `redispatches`, `cpu_fallback_seqs`, `recovery.degraded{cause}`,
//! `budget_denied_stagings`, `breaker_skips`, `urgent_waves`,
//! `health.fault_score{lane}` / `health.breaker{lane}` (gauges),
//! `health.breaker_transitions{lane,to}`. Spans: `run_trace`, `wave`
//! (category `serve`). See DESIGN.md §11 and §13.
// Crash-only discipline: library code may not panic through `unwrap` /
// `expect` — every fallible path must recover or return a typed error.
// (Unit tests, compiled with `cfg(test)`, are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod batch;
pub mod health;
pub mod lane;
pub mod machine;
pub mod request;
pub mod service;

pub use admission::{AdmissionConfig, AdmissionQueue, ShedReason};
pub use batch::{BatchPolicy, Batcher, Wave};
pub use health::{BreakerState, HealthPolicy, HealthTracker, LaneHealth};
pub use lane::{DeviceLane, LaneServed};
pub use machine::{Action, Event, Outcome, Part, Response, ServeReport, Shed, WaveMachine};
pub use request::{ParamsKey, SearchRequest, TraceConfig};
pub use service::{SearchService, ServeConfig};
