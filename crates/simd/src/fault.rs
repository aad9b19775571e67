//! Deterministic host-side fault injection for the SIMD pool.
//!
//! The simulated GPU has had a seeded fault layer since PR 1; this is its
//! host mirror. A [`HostFaultPlan`] decides — as a pure function of the
//! plan seed and a chunk's identity `(start, len)` — whether scoring that
//! chunk panics, stalls, or fails its allocation. Determinism is the
//! whole point: the same plan over the same chunking injects the same
//! faults no matter which worker draws which chunk, which thread count
//! runs, or how stealing interleaves, so chaos tests can assert exact
//! outcomes (scores bit-identical to the fault-free run, zero lost or
//! duplicated sequences).
//!
//! Faults fire **once per chunk identity per run** ([`HostFaultInjector`]
//! keeps the fired set): the recovery path that re-executes a chunk —
//! watchdog re-dispatch after a stall, the split halves after an
//! alloc-fail — must be able to make progress, exactly like the GPU
//! layer's retry discipline.

use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of a pool chunk: `(start index, sequence count)`. Split
/// halves get fresh identities, so re-chunking re-rolls the dice.
pub type ChunkId = (usize, usize);

/// The host fault classes the pool can absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostFaultKind {
    /// The chunk computation panics mid-flight; the pool must quarantine
    /// it and recompute on the scalar oracle.
    Panic,
    /// The worker goes silent (sleeps) without making progress; the
    /// watchdog must re-dispatch the chunk to a survivor.
    Stall,
    /// The chunk's allocation fails; the pool splits a chunk of more than
    /// one sequence in half and requeues both halves, and runs a
    /// one-sequence chunk as it is.
    AllocFail,
}

impl HostFaultKind {
    /// Every kind, in draw order.
    pub const ALL: [HostFaultKind; 3] = [
        HostFaultKind::Panic,
        HostFaultKind::Stall,
        HostFaultKind::AllocFail,
    ];

    /// Stable lowercase name (metrics labels, CLI, chaos tables).
    pub fn name(self) -> &'static str {
        match self {
            HostFaultKind::Panic => "panic",
            HostFaultKind::Stall => "stall",
            HostFaultKind::AllocFail => "alloc-fail",
        }
    }
}

impl std::fmt::Display for HostFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-chunk fault probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostFaultRates {
    /// Probability a chunk's computation panics.
    pub panic: f64,
    /// Probability a chunk's worker stalls before computing.
    pub stall: f64,
    /// Probability a chunk's allocation fails.
    pub alloc_fail: f64,
}

impl HostFaultRates {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// The storm used by chaos tests and the soak: every class is likely
    /// to fire at least once over a few dozen chunks.
    pub fn chaos() -> Self {
        Self {
            panic: 0.10,
            stall: 0.08,
            alloc_fail: 0.10,
        }
    }
}

/// A seeded, chunk-granularity fault schedule for one pool search.
#[derive(Debug, Clone, Default)]
pub struct HostFaultPlan {
    seed: u64,
    rates: HostFaultRates,
    /// How long an injected stall sleeps. Tests keep this a few times the
    /// watchdog's stall threshold so re-dispatch demonstrably wins.
    pub stall_ms: u64,
    forced: Vec<(ChunkId, HostFaultKind)>,
}

impl HostFaultPlan {
    /// The no-fault plan (what plain searches run under).
    pub fn none() -> Self {
        Self::default()
    }

    /// Random faults at `rates`, fully determined by `seed`.
    pub fn random(seed: u64, rates: HostFaultRates) -> Self {
        Self {
            seed,
            rates,
            stall_ms: 60,
            forced: Vec::new(),
        }
    }

    /// Builder: force `kind` onto the chunk with identity `chunk`.
    pub fn with_fault_at(mut self, chunk: ChunkId, kind: HostFaultKind) -> Self {
        self.forced.push((chunk, kind));
        self
    }

    /// Builder: override the injected stall duration.
    pub fn with_stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// True when this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.forced.is_empty()
            && self.rates.panic <= 0.0
            && self.rates.stall <= 0.0
            && self.rates.alloc_fail <= 0.0
    }

    /// The fault (if any) this plan deals to `chunk` — a pure function of
    /// the plan and the chunk identity. Forced faults win; otherwise each
    /// kind draws an independent uniform hash in [`HostFaultKind::ALL`]
    /// order and the first under its rate fires.
    pub fn draw(&self, chunk: ChunkId) -> Option<HostFaultKind> {
        if let Some((_, kind)) = self.forced.iter().find(|(id, _)| *id == chunk) {
            return Some(*kind);
        }
        let rate = |kind: HostFaultKind| match kind {
            HostFaultKind::Panic => self.rates.panic,
            HostFaultKind::Stall => self.rates.stall,
            HostFaultKind::AllocFail => self.rates.alloc_fail,
        };
        HostFaultKind::ALL
            .into_iter()
            .enumerate()
            .find(|&(salt, kind)| unit(self.seed, chunk, salt as u64) < rate(kind))
            .map(|(_, kind)| kind)
    }
}

/// SplitMix64 — the same stateless generator the GPU fault layer uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed on `(seed, chunk, salt)` — stateless, so
/// the schedule is independent of execution order.
fn unit(seed: u64, chunk: ChunkId, salt: u64) -> f64 {
    let mut state = seed
        ^ (chunk.0 as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (chunk.1 as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ salt.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-run injection state: the plan plus the once-per-chunk discipline
/// and fired-fault counters.
#[derive(Debug, Default)]
pub struct HostFaultInjector {
    plan: HostFaultPlan,
    fired: Mutex<HashSet<ChunkId>>,
    panics: AtomicU64,
    stalls: AtomicU64,
    alloc_fails: AtomicU64,
}

impl HostFaultInjector {
    /// Injector for `plan`.
    pub fn new(plan: HostFaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &HostFaultPlan {
        &self.plan
    }

    /// The fault to inject when executing `chunk` now, or `None`. A chunk
    /// identity faults at most once per run, so retries and re-dispatches
    /// of the same chunk run clean.
    pub fn fault_for(&self, chunk: ChunkId) -> Option<HostFaultKind> {
        if self.plan.is_inert() {
            return None;
        }
        let kind = self.plan.draw(chunk)?;
        if !self.fired.lock().insert(chunk) {
            return None;
        }
        match kind {
            HostFaultKind::Panic => &self.panics,
            HostFaultKind::Stall => &self.stalls,
            HostFaultKind::AllocFail => &self.alloc_fails,
        }
        .fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// Faults injected so far, total.
    pub fn injected(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
            + self.alloc_fails.load(Ordering::Relaxed)
    }

    /// Injected panics so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Injected stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Injected alloc failures so far.
    pub fn alloc_fails(&self) -> u64 {
        self.alloc_fails.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let rates = HostFaultRates::chaos();
        let a = HostFaultPlan::random(7, rates);
        let b = HostFaultPlan::random(7, rates);
        let c = HostFaultPlan::random(8, rates);
        let chunks: Vec<ChunkId> = (0..200).map(|i| (i * 16, 16)).collect();
        let fa: Vec<_> = chunks.iter().map(|&ch| a.draw(ch)).collect();
        let fb: Vec<_> = chunks.iter().map(|&ch| b.draw(ch)).collect();
        let fc: Vec<_> = chunks.iter().map(|&ch| c.draw(ch)).collect();
        assert_eq!(fa, fb, "same seed, same schedule");
        assert_ne!(fa, fc, "different seed, different schedule");
        assert!(
            fa.iter().flatten().count() > 0,
            "chaos rates fire over 200 chunks"
        );
    }

    #[test]
    fn every_kind_fires_somewhere_under_chaos_rates() {
        let plan = HostFaultPlan::random(3, HostFaultRates::chaos());
        let mut seen = HashSet::new();
        for i in 0..500 {
            if let Some(kind) = plan.draw((i * 8, 8)) {
                seen.insert(kind);
            }
        }
        for kind in HostFaultKind::ALL {
            assert!(seen.contains(&kind), "{kind} never fired in 500 chunks");
        }
    }

    #[test]
    fn injector_fires_each_chunk_at_most_once() {
        let plan = HostFaultPlan::none().with_fault_at((0, 4), HostFaultKind::Stall);
        let inj = HostFaultInjector::new(plan);
        assert_eq!(inj.fault_for((0, 4)), Some(HostFaultKind::Stall));
        assert_eq!(inj.fault_for((0, 4)), None, "re-dispatch runs clean");
        assert_eq!(inj.stalls(), 1);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn split_halves_reroll_the_draw() {
        let plan = HostFaultPlan::none().with_fault_at((8, 16), HostFaultKind::AllocFail);
        let inj = HostFaultInjector::new(plan);
        assert_eq!(inj.fault_for((8, 16)), Some(HostFaultKind::AllocFail));
        // The split halves (8, 8) and (16, 8) carry fresh identities.
        assert_eq!(inj.fault_for((8, 8)), None);
        assert_eq!(inj.fault_for((16, 8)), None);
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let inj = HostFaultInjector::new(HostFaultPlan::none());
        for i in 0..100 {
            assert_eq!(inj.fault_for((i, 1)), None);
        }
        assert_eq!(inj.injected(), 0);
    }
}
