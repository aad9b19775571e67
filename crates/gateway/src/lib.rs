//! `sw-gateway`: wall-clock real-time serving over the `sw-serve` stack.
//!
//! Every sw-serve number before this crate came from the discrete-event
//! simulated clock. The gateway is the other execution mode: the *same*
//! admission queue, EDF batcher, deadline semantics and lane-health
//! breakers, but driven by monotonic wall time with waves executing
//! **concurrently** on real worker threads:
//!
//! * [`gateway`] — the in-process front-end and dispatcher. Tenants
//!   submit through a cloneable [`GatewayHandle`] and get a [`Ticket`]
//!   per request; a dispatcher thread pumps events between
//!   [`sw_serve::WaveMachine`] (the simulated service's wave protocol:
//!   admission, batching, owed shards, exactly-once responses) and the
//!   lane channels; latency is accounted **end-to-end** (front-end
//!   enqueue → response), so tail percentiles include queueing delay
//!   under overload — not just per-wave service time.
//! * [`lane`] — the execution backend: one worker thread per gpu-sim
//!   shard lane, each a loop over [`sw_serve::DeviceLane`] (the one
//!   recovery ladder, here with no deadline budget), plus one host lane
//!   running shard work on the crash-only work-stealing SIMD pool, one
//!   job per wave ([`sw_simd::search_wave_protected`], multi-threaded).
//!   Work owed by dead or breaker-quarantined device lanes is
//!   re-dispatched to the host lane — the wall-clock analogue of the
//!   simulated redispatch ladder.
//!
//! Shutdown is crash-only friendly: [`gateway::Gateway::shutdown`]
//! drains gracefully, and when the drain grace expires it cancels
//! in-flight and queued host chunks through the PR 8
//! [`sw_simd::CancelToken`] path instead of joining indefinitely —
//! every outstanding request still resolves exactly once (as
//! [`Outcome::Aborted`]).
//!
//! Scores are exact integer Smith-Waterman scores on every path, so a
//! gateway response is bit-identical to the simulated service's answer
//! for the same query — the property the both-clock-modes test pins.
//!
//! Metrics (`cudasw.gateway.*`): `submitted`, `lane_deaths`,
//! `owed_to_host`, `breaker_skips`, `duplicate_commits` (always 0),
//! `drain.forced_cancels`; plus the machine's `cudasw.serve.*` front-end
//! counters (`admitted`, `shed{reason}`, `waves`, `completed`, `aborted`)
//! and the end-to-end `cudasw.serve.latency_seconds` histogram on
//! [`obs::LATENCY_SECONDS_BOUNDS`]. Worker-thread metrics (a device
//! lane's `cudasw.serve.*` ladder counters, the pool's `cudasw.simd.*`)
//! stay on the worker's thread-local recorder; the dispatcher snapshot
//! in [`ServeReport::metrics`] covers the front-end view.
// Crash-only discipline: library code may not panic through `unwrap` /
// `expect` — every fallible path must recover or return a typed error.
// (Unit tests, compiled with `cfg(test)`, are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gateway;
pub mod lane;

pub use gateway::{Gateway, GatewayConfig, GatewayHandle, Ticket};
pub use sw_serve::{Outcome, ServeReport};
