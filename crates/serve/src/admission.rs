//! Admission control: a bounded queue with per-tenant quotas and
//! explicit backpressure.
//!
//! An open-loop arrival stream does not slow down when the device farm
//! falls behind, so the service must either bound its queue or let
//! latency grow without limit. [`AdmissionQueue`] makes the bound (and
//! per-tenant fairness) explicit: every arrival is either admitted or
//! shed with a [`ShedReason`] the caller can surface to the client.

use crate::request::SearchRequest;
use std::collections::HashMap;

/// Admission-control knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum requests queued at once (waves in flight excluded: a
    /// dispatched request has left the queue).
    pub queue_capacity: usize,
    /// Maximum requests one tenant may have queued at once.
    pub tenant_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            tenant_quota: 64,
        }
    }
}

/// Why a request was shed instead of admitted. Only admission sheds: a
/// request whose deadline passes in the queue is served late and flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue is at [`AdmissionConfig::queue_capacity`].
    QueueFull,
    /// The tenant is at [`AdmissionConfig::tenant_quota`].
    TenantQuota,
    /// The request's gap penalties break `2^30 ≥ open ≥ extend ≥ 0`
    /// ([`sw_align::GapPenalties::new`]), or its query holds a residue
    /// code outside its scoring matrix: no engine can score it.
    InvalidParams,
}

impl ShedReason {
    /// Metric-label form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantQuota => "tenant_quota",
            ShedReason::InvalidParams => "invalid_params",
        }
    }
}

/// The bounded request queue behind the admission controller.
///
/// Emits the `cudasw.serve.admitted` counter and keeps the
/// `cudasw.serve.queue_depth` gauge current; the machine that sheds a
/// request counts it.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    queued: Vec<SearchRequest>,
    per_tenant: HashMap<String, usize>,
}

impl AdmissionQueue {
    /// An empty queue under `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            queued: Vec::new(),
            per_tenant: HashMap::new(),
        }
    }

    /// Requests currently queued.
    pub fn depth(&self) -> usize {
        self.queued.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// The queued requests, admission order.
    pub fn requests(&self) -> &[SearchRequest] {
        &self.queued
    }

    /// Admit `request`, or shed it with a reason.
    pub fn offer(&mut self, request: SearchRequest) -> Result<(), ShedReason> {
        if self.queued.len() >= self.config.queue_capacity {
            return Err(ShedReason::QueueFull);
        }
        let tenant_depth = self.per_tenant.get(&request.tenant).copied().unwrap_or(0);
        if tenant_depth >= self.config.tenant_quota {
            return Err(ShedReason::TenantQuota);
        }
        *self.per_tenant.entry(request.tenant.clone()).or_insert(0) += 1;
        self.queued.push(request);
        obs::counter_add("cudasw.serve.admitted", &[], 1.0);
        self.note_depth();
        Ok(())
    }

    /// Remove and return the queued requests at `indices` (ascending,
    /// deduplicated by the caller — the batcher), preserving the relative
    /// order of what remains.
    pub fn take(&mut self, indices: &[usize]) -> Vec<SearchRequest> {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "ascending indices");
        let mut taken = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            let req = self.queued.remove(i);
            if let Some(n) = self.per_tenant.get_mut(&req.tenant) {
                *n -= 1;
            }
            taken.push(req);
        }
        taken.reverse();
        self.note_depth();
        taken
    }

    fn note_depth(&self) {
        obs::gauge_set("cudasw.serve.queue_depth", &[], self.queued.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_align::SwParams;

    fn req(id: u64, tenant: &str) -> SearchRequest {
        SearchRequest {
            id,
            tenant: tenant.to_string(),
            query: vec![0, 1, 2],
            params: SwParams::cudasw_default(),
            arrival_seconds: id as f64,
            deadline_seconds: id as f64 + 1.0,
        }
    }

    #[test]
    fn queue_capacity_sheds() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            queue_capacity: 2,
            tenant_quota: 10,
        });
        assert!(q.offer(req(0, "a")).is_ok());
        assert!(q.offer(req(1, "b")).is_ok());
        assert_eq!(q.offer(req(2, "c")), Err(ShedReason::QueueFull));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn tenant_quota_sheds_only_the_noisy_tenant() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            queue_capacity: 10,
            tenant_quota: 1,
        });
        assert!(q.offer(req(0, "noisy")).is_ok());
        assert_eq!(q.offer(req(1, "noisy")), Err(ShedReason::TenantQuota));
        assert!(q.offer(req(2, "quiet")).is_ok());
    }

    #[test]
    fn take_removes_by_index() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            queue_capacity: 10,
            tenant_quota: 10,
        });
        for id in 0..5 {
            q.offer(req(id, "t")).unwrap();
        }
        let taken = q.take(&[1, 3]);
        assert_eq!(taken.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(
            q.requests().iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        // Quota was released: two more fit under a quota of 10 anyway,
        // but per-tenant accounting must reflect the removal.
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn quota_frees_after_take() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            queue_capacity: 10,
            tenant_quota: 1,
        });
        q.offer(req(0, "t")).unwrap();
        assert_eq!(q.offer(req(1, "t")), Err(ShedReason::TenantQuota));
        q.take(&[0]);
        assert!(q.offer(req(2, "t")).is_ok());
    }
}
