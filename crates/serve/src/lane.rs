//! One device lane: a resilient driver bound to one database shard, and
//! the recovery ladder both schedulers climb.
//!
//! A [`DeviceLane`] keeps its shard device-resident ([`StagedDatabase`])
//! so a wave of `N` queries stages the database **once** and pays two
//! per-query H2D transfers each. Every rung below the fast path is here
//! and nowhere else:
//!
//! 1. [`DeviceLane::stage`] retries transient staging faults by the
//!    ledger's one retry rule ([`RecoveryReport::retry`]); a denied or
//!    exhausted retry, or an OOM, serves the wave un-staged; only device
//!    loss kills the lane.
//! 2. [`DeviceLane::serve`] tries the resident shard; a recoverable
//!    fault drops the handle and reruns the query through
//!    [`CudaSwDriver::search_resilient`] (retry, backoff, OOM
//!    re-chunking, quarantine) with no CPU fallback — a device that dies
//!    anyway kills the lane, and the scheduler owns what happens to its
//!    shard.
//! 3. [`DeviceLane::serve_foreign`] runs a dead lane's shard on this one.
//!
//! A `budget` is the query's *remaining* seconds; the lane maps it onto
//! the device clock ([`obs::now`]) at the moment a rung starts, so time a
//! failed rung burned is charged. `None` never denies.

use cudasw_core::{CudaSwConfig, CudaSwDriver, RecoveryPolicy, RecoveryReport, StagedDatabase};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_align::SwParams;
use sw_db::Database;

/// One query's shard scores off a lane.
#[derive(Debug, Clone)]
pub struct LaneServed {
    /// Scores in shard order.
    pub scores: Vec<i32>,
    /// Kernel + transfer (+ backoff) seconds on the device clock.
    pub seconds: f64,
    /// DP cells computed.
    pub cells: u64,
    /// What the resilient rung did (empty off the resident fast path).
    pub recovery: RecoveryReport,
}

/// A driver, its shard, the resident handle and the alive flag.
pub struct DeviceLane {
    driver: CudaSwDriver,
    shard: Database,
    staged: Option<StagedDatabase>,
    alive: bool,
    /// The service policy without CPU fallback: a dead device surfaces
    /// so the scheduler can re-dispatch the shard.
    policy: RecoveryPolicy,
}

impl DeviceLane {
    /// A live, un-staged lane over `shard` with `plan` installed.
    pub fn new(
        spec: &DeviceSpec,
        config: &CudaSwConfig,
        shard: Database,
        plan: FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Self {
        let mut driver = CudaSwDriver::new(spec.clone(), config.clone());
        driver.dev.inject_faults(plan);
        driver.dev.set_integrity_checks(policy.integrity_checks);
        driver.dev.set_watchdog_cycles(policy.watchdog_cycles);
        Self {
            driver,
            shard,
            staged: None,
            alive: true,
            policy: RecoveryPolicy {
                cpu_fallback: false,
                ..policy.clone()
            },
        }
    }

    /// False once the device was lost (until a revival probe succeeds).
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// The shard this lane owns.
    pub fn shard(&self) -> &Database {
        &self.shard
    }

    /// Faults the device injected so far (a wave-level delta feeds the
    /// lane's breaker).
    pub fn faults_seen(&self) -> u64 {
        self.driver.dev.fault_stats().total()
    }

    /// Scoring parameters for the searches that follow.
    pub fn set_params(&mut self, params: &SwParams) {
        self.driver.config.params = params.clone();
    }

    /// Declare the lane dead.
    pub fn kill(&mut self) {
        self.alive = false;
        obs::counter_add("cudasw.serve.lane_deaths", &[], 1.0);
    }

    /// One revival probe against a dead lane: on success it is alive
    /// again with no resident handle (the reset wiped device memory).
    pub fn try_revive(&mut self) -> bool {
        let revived = self.driver.dev.try_revive();
        if revived {
            self.alive = true;
            self.staged = None;
            obs::counter_add("cudasw.serve.lane_revivals", &[], 1.0);
        }
        revived
    }

    /// Rung 1: make the shard resident (a no-op when it is). Staging and
    /// backoff seconds are added to `seconds` as they are paid.
    pub fn stage(
        &mut self,
        budget: Option<f64>,
        report: &mut RecoveryReport,
        seconds: &mut f64,
    ) -> Result<(), GpuError> {
        if self.staged.is_some() {
            return Ok(());
        }
        let deadline = budget.map(|b| obs::now() + b);
        let mut attempt = 0u32;
        loop {
            let err = match self.driver.stage_database(&self.shard) {
                Ok(staged) => {
                    *seconds += staged.staging_seconds();
                    self.staged = Some(staged);
                    obs::counter_add("cudasw.serve.db_stagings", &[], 1.0);
                    return Ok(());
                }
                Err(e) => e,
            };
            let denied = report.budget_denied_retries;
            match report.retry(err, &mut attempt, deadline) {
                Ok(backoff) => {
                    *seconds += backoff;
                    obs::counter_add("cudasw.serve.staging_retries", &[], 1.0);
                }
                Err(GpuError::DeviceLost) => {
                    self.kill();
                    return Ok(());
                }
                Err(e) if e.is_recoverable() => {
                    // A denied or exhausted retry, or an OOM: serve
                    // un-staged (per-query searches respect their own
                    // budgets, and search_resilient re-chunks around OOM).
                    if report.budget_denied_retries > denied {
                        obs::counter_add("cudasw.serve.budget_denied_stagings", &[], 1.0);
                    }
                    obs::counter_add("cudasw.serve.staging_fallbacks", &[], 1.0);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Rung 2: `query` against this lane's shard. `Ok(None)` means the
    /// lane died; `Err` is a non-recoverable device error.
    pub fn serve(
        &mut self,
        query: &[u8],
        budget: Option<f64>,
    ) -> Result<Option<LaneServed>, GpuError> {
        if let Some(staged) = self.staged.take() {
            match self.driver.search_staged(query, &staged) {
                Ok(r) => {
                    self.staged = Some(staged);
                    return Ok(Some(LaneServed {
                        seconds: r.kernel_seconds() + r.transfer_seconds,
                        cells: r.total_cells(),
                        scores: r.scores,
                        recovery: RecoveryReport::default(),
                    }));
                }
                // The handle may have been invalidated by recovery
                // machinery; it stays dropped until the next `stage`.
                Err(e) if e.is_recoverable() => {
                    obs::counter_add("cudasw.serve.staged_faults", &[], 1.0);
                }
                Err(e) => return Err(e),
            }
        }
        self.resilient(query, None, budget)
    }

    /// Rung 3: `query` against another lane's `shard`. Drops the
    /// resident handle (`search_resilient` resets the allocator).
    pub fn serve_foreign(
        &mut self,
        query: &[u8],
        shard: &Database,
        budget: Option<f64>,
    ) -> Result<Option<LaneServed>, GpuError> {
        self.staged = None;
        self.resilient(query, Some(shard), budget)
    }

    fn resilient(
        &mut self,
        query: &[u8],
        foreign: Option<&Database>,
        budget: Option<f64>,
    ) -> Result<Option<LaneServed>, GpuError> {
        let policy = RecoveryPolicy {
            deadline_seconds: budget.map(|b| obs::now() + b),
            ..self.policy.clone()
        };
        let shard = foreign.unwrap_or(&self.shard);
        match self.driver.search_resilient(query, shard, &policy) {
            Ok(rr) => Ok(Some(LaneServed {
                seconds: rr.result.kernel_seconds()
                    + rr.result.transfer_seconds
                    + rr.recovery.backoff_seconds,
                cells: rr.result.total_cells(),
                scores: rr.result.scores,
                recovery: rr.recovery,
            })),
            Err(e) if e.is_recoverable() => {
                self.kill();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudasw_core::{ImprovedParams, RecoveryEvent};
    use gpu_sim::FaultSite;
    use sw_align::sw_score;
    use sw_db::synth::{database_with_lengths, make_query};

    fn lane(plan: FaultPlan) -> DeviceLane {
        let config = CudaSwConfig {
            threshold: 100,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            ..CudaSwConfig::improved()
        };
        let shard = database_with_lengths("lane-db", &[20, 45, 80, 120, 300], 71);
        let policy = RecoveryPolicy::default();
        DeviceLane::new(&DeviceSpec::tesla_c1060(), &config, shard, plan, &policy)
    }

    fn oracle(lane: &DeviceLane, query: &[u8]) -> Vec<i32> {
        let params = SwParams::cudasw_default();
        let seqs = lane.shard().sequences();
        seqs.iter()
            .map(|s| sw_score(&params, query, &s.residues))
            .collect()
    }

    fn counter(run: &obs::Obs, name: &str) -> f64 {
        run.metrics.counter(name, &[])
    }

    /// The ledger's first retry backoff.
    const BASE: f64 = 1.0e-3;

    #[test]
    fn the_first_staging_retry_backs_off_the_base_exactly() {
        // Staging's first device operation is an allocation.
        let mut lane = lane(FaultPlan::none().with_transient(FaultSite::Alloc, 0));
        let mut report = RecoveryReport::default();
        let mut seconds = 0.0;
        let ((), run) = obs::capture(|| lane.stage(None, &mut report, &mut seconds).unwrap());

        assert_eq!(report.retries, 1);
        assert_eq!(report.backoff_seconds, BASE);
        assert!(matches!(
            report.events[..],
            [RecoveryEvent::Retry { attempt: 1, .. }]
        ));
        assert_eq!(counter(&run, "cudasw.serve.staging_retries"), 1.0);
        assert_eq!(counter(&run, "cudasw.serve.db_stagings"), 1.0);
        assert!(seconds > BASE, "backoff plus the staging transfer");
        // The ledger and the registry are written in one breath.
        assert_eq!(counter(&run, "cudasw.core.recovery.retries"), 1.0);
        assert_eq!(
            counter(&run, "cudasw.core.recovery.backoff_seconds"),
            report.backoff_seconds
        );
    }

    #[test]
    fn a_resident_fault_drops_the_handle_reruns_resiliently_and_restages() {
        // Staging launches nothing, so launch 0 is the first resident
        // search's first kernel.
        let mut lane = lane(FaultPlan::none().with_transient(FaultSite::Launch, 0));
        let query = make_query(48, 5);
        let expect = oracle(&lane, &query);
        let mut report = RecoveryReport::default();
        let ((), run) = obs::capture(|| {
            lane.stage(None, &mut report, &mut 0.0).unwrap();
            let faulted = lane.serve(&query, None).unwrap().unwrap();
            assert_eq!(faulted.scores, expect);
            // Next wave: the handle is gone, so `stage` uploads again and
            // the query comes off the resident shard.
            lane.stage(None, &mut report, &mut 0.0).unwrap();
            let resident = lane.serve(&query, None).unwrap().unwrap();
            assert_eq!(resident.scores, expect);
            assert!(resident.recovery.events.is_empty());
        });

        assert!(lane.alive());
        assert_eq!(lane.faults_seen(), 1);
        assert_eq!(counter(&run, "cudasw.serve.staged_faults"), 1.0);
        assert_eq!(counter(&run, "cudasw.serve.db_stagings"), 2.0);
        assert_eq!(counter(&run, "cudasw.core.staged.databases"), 2.0);
    }

    #[test]
    fn a_budget_the_first_backoff_overruns_is_denied_and_served_unstaged() {
        let mut lane = lane(FaultPlan::none().with_transient(FaultSite::Alloc, 0));
        let query = make_query(48, 5);
        let expect = oracle(&lane, &query);
        let mut report = RecoveryReport::default();
        let ((), run) = obs::capture(|| {
            lane.stage(Some(BASE / 2.0), &mut report, &mut 0.0).unwrap();
            let served = lane.serve(&query, None).unwrap().unwrap();
            assert_eq!(served.scores, expect);
        });

        assert_eq!((report.retries, report.budget_denied_retries), (0, 1));
        assert!(matches!(
            report.events[..],
            [RecoveryEvent::BudgetDenied { .. }]
        ));
        assert!(lane.alive());
        assert_eq!(counter(&run, "cudasw.serve.budget_denied_stagings"), 1.0);
        assert_eq!(counter(&run, "cudasw.core.recovery.budget_denied"), 1.0);
        assert_eq!(counter(&run, "cudasw.serve.db_stagings"), 0.0);
        assert_eq!(counter(&run, "cudasw.serve.staged_faults"), 0.0);
    }
}
