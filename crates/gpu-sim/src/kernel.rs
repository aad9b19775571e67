//! Kernel execution: the [`BlockKernel`] trait, the per-block context, and
//! the device launch loop.
//!
//! A kernel is run one block at a time (functional execution is
//! sequential; *timing* concurrency is reconstructed by the scheduler in
//! [`crate::timing`]). Blocks are assigned to SMs round-robin, so per-SM
//! caches see a realistic interleaving.
//!
//! Kernels are written warp-collectively: they build a [`WarpAccess`] per
//! memory instruction and call the typed accessors on [`BlockCtx`]. The
//! context tracks every cost counter the timing model consumes.

use crate::device::DeviceSpec;
use crate::error::{FaultSite, GpuError};
use crate::fault::{
    fault_error, FaultInjector, FaultKind, FaultPlan, FaultStats, HANG_CYCLE_MULTIPLIER,
};
use crate::memory::{DevicePtr, MemoryStats, MemorySystem};
use crate::shared::SharedMem;
use crate::stats::LaunchStats;
use crate::texture::TexRef;
use crate::timing::{BlockCost, TimingModel};
use crate::warp::{WarpAccess, WARP_SIZE};
use crate::xfer::{crc32_words, TransferModel, TransferStats};

/// Static launch resources of a kernel (its "PTX header").
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Shared memory words per block.
    pub shared_words: u32,
}

/// A kernel executable on the simulated device.
pub trait BlockKernel {
    /// Launch resources.
    fn config(&self) -> LaunchConfig;

    /// Execute one block. All device effects go through `ctx`.
    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError>;
}

/// Execution context for one block.
pub struct BlockCtx<'a> {
    /// Index of this block in the grid.
    pub block_idx: u32,
    /// Threads per block.
    pub block_dim: u32,
    sm: usize,
    mem: &'a mut MemorySystem,
    shared: SharedMem,
    cost: BlockCost,
}

impl<'a> BlockCtx<'a> {
    /// Number of warps in the block.
    pub fn warp_count(&self) -> u32 {
        self.block_dim.div_ceil(WARP_SIZE as u32)
    }

    /// SM this block was scheduled on.
    pub fn sm(&self) -> usize {
        self.sm
    }

    /// Warp-collective global load. Costs one warp instruction plus the
    /// coalesced transactions.
    pub fn global_load(&mut self, access: &WarpAccess) -> Result<[u32; WARP_SIZE], GpuError> {
        let (vals, cost) = self.mem.warp_load(self.sm, access)?;
        self.cost.warp_instructions += 1;
        self.cost.near_hits += cost.near_hits as u64;
        self.cost.l2_hits += cost.l2_hits as u64;
        self.cost.dram_bytes += cost.dram_bytes as u64;
        Ok(vals)
    }

    /// Warp-collective global store.
    pub fn global_store(
        &mut self,
        access: &WarpAccess,
        values: &[u32; WARP_SIZE],
    ) -> Result<(), GpuError> {
        let cost = self.mem.warp_store(self.sm, access, values)?;
        self.cost.warp_instructions += 1;
        self.cost.near_hits += cost.near_hits as u64;
        self.cost.l2_hits += cost.l2_hits as u64;
        self.cost.dram_bytes += cost.dram_bytes as u64;
        Ok(())
    }

    /// Warp-collective texture fetch. Addresses are absolute (use
    /// [`TexRef::addr`]) and must stay inside the binding.
    pub fn tex_load(
        &mut self,
        tex: TexRef,
        access: &WarpAccess,
    ) -> Result<[u32; WARP_SIZE], GpuError> {
        if let Some(addr) = access.first_outside(tex.span()) {
            return Err(GpuError::OutsideBinding {
                addr,
                binding: tex.span(),
            });
        }
        let (vals, cost) = self.mem.warp_tex_load(self.sm, access)?;
        self.cost.warp_instructions += 1;
        self.cost.near_hits += cost.near_hits as u64;
        self.cost.l2_hits += cost.l2_hits as u64;
        self.cost.dram_bytes += cost.dram_bytes as u64;
        Ok(vals)
    }

    /// Warp-collective shared-memory load.
    pub fn shared_load(&mut self, access: &WarpAccess) -> [u32; WARP_SIZE] {
        let (vals, cycles) = self.shared.warp_load(access);
        self.cost.warp_instructions += 1;
        self.cost.shared_cycles += cycles as u64;
        vals
    }

    /// Warp-collective shared-memory store.
    pub fn shared_store(&mut self, access: &WarpAccess, values: &[u32; WARP_SIZE]) {
        let cycles = self.shared.warp_store(access, values);
        self.cost.warp_instructions += 1;
        self.cost.shared_cycles += cycles as u64;
    }

    /// Block-wide barrier.
    pub fn syncthreads(&mut self) {
        self.cost.syncs += 1;
    }

    /// Charge `n` arithmetic warp instructions.
    #[inline]
    pub fn charge(&mut self, warp_instructions: u64) {
        self.cost.warp_instructions += warp_instructions;
    }

    /// Report an unhideable serial-latency chain (pipeline fill/flush,
    /// dependent global round-trip).
    #[inline]
    pub fn add_latency(&mut self, cycles: u64) {
        self.cost.latency_cycles += cycles;
    }

    /// Report a serial-latency chain this kernel *hid* behind concurrent
    /// work (cross-strip pipeline fusion, §VII): counted in
    /// [`BlockCost::hidden_latency_cycles`], never charged as time — the
    /// removed stall stays an assertable quantity.
    #[inline]
    pub fn hide_latency(&mut self, cycles: u64) {
        self.cost.hidden_latency_cycles += cycles;
    }

    /// Record `n` DP cell updates.
    #[inline]
    pub fn count_cells(&mut self, n: u64) {
        self.cost.cells += n;
    }

    /// Single-lane global load (convenience for scalar bookkeeping reads;
    /// costs a full warp instruction + 1 transaction, like a divergent
    /// access would).
    pub fn read_word(&mut self, ptr: DevicePtr) -> Result<u32, GpuError> {
        Ok(self.global_load(&WarpAccess::run(0, 1, ptr.addr()))?[0])
    }

    /// Single-lane global store.
    pub fn write_word(&mut self, ptr: DevicePtr, value: u32) -> Result<(), GpuError> {
        let mut vals = [0u32; WARP_SIZE];
        vals[0] = value;
        self.global_store(&WarpAccess::run(0, 1, ptr.addr()), &vals)
    }

    /// Counters accumulated so far (mainly for tests).
    pub fn cost(&self) -> &BlockCost {
        &self.cost
    }
}

/// Histogram buckets for simulated launch durations (seconds). Kernel
/// launches in this workspace span sub-microsecond probe launches to
/// multi-second full-database sweeps.
const LAUNCH_SECONDS_BOUNDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Record an injected fault on the ambient observability recorder: a
/// labeled counter plus an instant event on the trace timeline.
fn note_fault(site: FaultSite, kind: FaultKind) {
    let site = site.to_string();
    let kind = kind.to_string();
    let labels = [("site", site.as_str()), ("kind", kind.as_str())];
    obs::counter_add("cudasw.gpu_sim.fault.injected", &labels, 1.0);
    obs::instant("fault", "fault", &labels);
}

/// Record per-launch metrics (labeled by kernel name) on the ambient
/// recorder.
fn note_launch(stats: &LaunchStats) {
    let labels = [("kernel", stats.kernel.as_str())];
    obs::counter_add("cudasw.gpu_sim.launch.calls", &labels, 1.0);
    obs::counter_add("cudasw.gpu_sim.launch.cells", &labels, stats.cells() as f64);
    obs::counter_add("cudasw.gpu_sim.launch.cycles", &labels, stats.cycles);
    obs::counter_add("cudasw.gpu_sim.launch.seconds", &labels, stats.seconds);
    obs::counter_add(
        "cudasw.gpu_sim.launch.global_transactions",
        &labels,
        stats.global_transactions() as f64,
    );
    obs::counter_add(
        "cudasw.gpu_sim.launch.dram_bytes",
        &labels,
        stats.totals.dram_bytes as f64,
    );
    obs::counter_add(
        "cudasw.gpu_sim.launch.shared_bank_conflicts",
        &labels,
        stats.shared.conflicted_accesses as f64,
    );
    obs::counter_add(
        "cudasw.gpu_sim.launch.hidden_latency_cycles",
        &labels,
        stats.totals.hidden_latency_cycles as f64,
    );
    // Per-launch extremes, summed: exact for single-launch captures (the
    // workload-balance gates), an aggregate spread proxy otherwise.
    obs::counter_add(
        "cudasw.gpu_sim.launch.block_cycles_max",
        &labels,
        stats.max_block_cycles,
    );
    obs::counter_add(
        "cudasw.gpu_sim.launch.block_cycles_min",
        &labels,
        stats.min_block_cycles,
    );
    obs::histogram_observe(
        "cudasw.gpu_sim.launch.duration_seconds",
        &[],
        LAUNCH_SECONDS_BOUNDS,
        stats.seconds,
    );
}

/// State of an open streamed-H2D session (the §VII streamed copy): the
/// DMA setup latency is paid once per session and copy time is hidden
/// behind deposited kernel-execution credit.
#[derive(Debug, Clone, Copy, Default)]
struct H2dStream {
    /// Kernel-execution seconds still available to hide copy time behind.
    credit: f64,
    /// Whether the one-per-session DMA setup latency was already paid.
    setup_paid: bool,
}

/// A simulated GPU: spec + memory system + timing model.
pub struct GpuDevice {
    /// Device description.
    pub spec: DeviceSpec,
    /// Cost model.
    pub timing: TimingModel,
    mem: MemorySystem,
    xfer_model: TransferModel,
    xfer_stats: TransferStats,
    fault: FaultInjector,
    watchdog_cycles: Option<u64>,
    integrity_checks: bool,
    h2d_stream: Option<H2dStream>,
}

impl GpuDevice {
    /// Bring up a device from its spec with the default timing model.
    pub fn new(spec: DeviceSpec) -> Self {
        let mem = MemorySystem::new(&spec);
        let xfer_model = TransferModel::new(&spec);
        Self {
            spec,
            timing: TimingModel::default(),
            mem,
            xfer_model,
            xfer_stats: TransferStats::default(),
            fault: FaultInjector::default(),
            watchdog_cycles: None,
            integrity_checks: false,
            h2d_stream: None,
        }
    }

    /// Open a streamed-H2D session: until [`GpuDevice::end_h2d_stream`]
    /// (or an allocator reset), host→device copies are queued on a copy
    /// stream — the DMA setup latency is paid once per session, and copy
    /// time is hidden behind kernel-execution credit deposited with
    /// [`GpuDevice::add_h2d_overlap_credit`]. Bytes moved are unchanged;
    /// only the exposed copy seconds (and therefore the critical path)
    /// shrink, with the hidden portion counted in
    /// [`TransferStats::h2d_hidden_seconds`]. Faults and integrity checks
    /// behave exactly as on synchronous copies.
    pub fn begin_h2d_stream(&mut self) {
        self.h2d_stream = Some(H2dStream::default());
    }

    /// Deposit `seconds` of concurrent kernel execution into the open
    /// stream session; subsequent copies may hide up to that much copy
    /// time behind it. No-op when no session is open.
    pub fn add_h2d_overlap_credit(&mut self, seconds: f64) {
        if let Some(stream) = self.h2d_stream.as_mut() {
            stream.credit += seconds.max(0.0);
        }
    }

    /// Kernel-execution seconds the open stream session has not yet spent
    /// hiding copies (0 when no session is open) — with
    /// [`GpuDevice::set_h2d_overlap_credit`], what a checkpointed search
    /// carries across a chunk it replays instead of running.
    pub fn h2d_overlap_credit(&self) -> f64 {
        self.h2d_stream.map_or(0.0, |stream| stream.credit)
    }

    /// Overwrite the open session's unspent credit. No-op when no session
    /// is open.
    pub fn set_h2d_overlap_credit(&mut self, seconds: f64) {
        if let Some(stream) = self.h2d_stream.as_mut() {
            stream.credit = seconds.max(0.0);
        }
    }

    /// Close the streamed-H2D session (idempotent). Copies go back to
    /// synchronous accounting.
    pub fn end_h2d_stream(&mut self) {
        self.h2d_stream = None;
    }

    /// Whether a streamed-H2D session is currently open.
    pub fn h2d_stream_open(&self) -> bool {
        self.h2d_stream.is_some()
    }

    /// Install a fault schedule (see [`crate::fault`]). Any memory
    /// pressure the plan carries clamps usable device memory immediately.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if let Some(words) = plan.memory_pressure_words() {
            self.mem.limit_capacity(words);
        }
        self.fault.install(plan);
    }

    /// Set (or clear) the per-launch watchdog budget: a launch whose
    /// simulated cycles exceed the budget is killed with
    /// [`GpuError::LaunchTimeout`] instead of completing. `None` (the
    /// default) waits forever, hangs included.
    pub fn set_watchdog_cycles(&mut self, budget: Option<u64>) {
        self.watchdog_cycles = budget;
    }

    /// Arm (or disarm) end-to-end transfer integrity checks: every copy's
    /// payload is CRC-checksummed on the sending side and verified on the
    /// receiving side, so silent in-flight corruption
    /// ([`FaultKind::SilentCorruption`]) surfaces as
    /// [`GpuError::ChecksumMismatch`] instead of flowing into results.
    /// Off by default (matching a stock CUDA deployment).
    pub fn set_integrity_checks(&mut self, enabled: bool) {
        self.integrity_checks = enabled;
    }

    /// Whether end-to-end transfer integrity checks are armed.
    pub fn integrity_checks(&self) -> bool {
        self.integrity_checks
    }

    /// Counters of injected faults and observed operations.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats()
    }

    /// True once the device has died ([`GpuError::DeviceLost`]); every
    /// further operation fails.
    pub fn is_lost(&self) -> bool {
        self.fault.is_dead()
    }

    /// One revival probe against a lost device: succeeds only when the
    /// installed plan schedules a recovery
    /// ([`FaultPlan::with_device_loss_recovery`]) and the scheduled probe
    /// failures have been paid. On success every allocation is dropped
    /// (the reset wiped device memory, so the allocator epoch bumps and
    /// stale staged handles invalidate themselves) and the device serves
    /// operations again. A no-op `false` on a live device or a plan with
    /// no scheduled recovery.
    pub fn try_revive(&mut self) -> bool {
        if self.fault.try_revive() {
            self.h2d_stream = None;
            self.mem.free_all();
            obs::counter_add("cudasw.gpu_sim.device.revived", &[], 1.0);
            obs::instant("device_revived", "fault", &[]);
            true
        } else {
            false
        }
    }

    /// Allocate device memory (128-byte aligned).
    pub fn alloc(&mut self, words: usize) -> Result<DevicePtr, GpuError> {
        if let Some(kind) = self.fault.next_op(FaultSite::Alloc) {
            note_fault(FaultSite::Alloc, kind);
            return Err(fault_error(kind, FaultSite::Alloc, 0, words));
        }
        let ptr = self.mem.alloc(words)?;
        obs::counter_add("cudasw.gpu_sim.alloc.calls", &[], 1.0);
        obs::counter_add("cudasw.gpu_sim.alloc.words", &[], words as f64);
        obs::gauge_set(
            "cudasw.gpu_sim.mem.allocated_words",
            &[],
            self.mem.allocated_words() as f64,
        );
        Ok(ptr)
    }

    /// Free every allocation. Also closes any open streamed-H2D session
    /// (the allocations its copies targeted are gone).
    pub fn free_all(&mut self) {
        self.h2d_stream = None;
        self.mem.free_all();
    }

    /// Allocator reset count; see [`MemorySystem`](crate::memory::MemorySystem::epoch).
    pub fn alloc_epoch(&self) -> u64 {
        self.mem.epoch()
    }

    /// Allocator watermark for stack-style scratch reuse.
    pub fn mark(&self) -> usize {
        self.mem.mark()
    }

    /// Release every allocation made after `mark`.
    pub fn free_to(&mut self, mark: usize) {
        self.mem.free_to(mark);
    }

    /// Copy host data to the device; returns simulated transfer seconds.
    ///
    /// An injected transfer fault fails the copy *before* any device
    /// memory changes (a corrupted payload is detected and discarded in
    /// flight), so a retry starts from clean state. The one exception is
    /// [`FaultKind::SilentCorruption`]: the copy "succeeds" with a flipped
    /// payload bit — caught only when integrity checks are armed
    /// ([`GpuDevice::set_integrity_checks`]), in which case the device
    /// contents are re-checksummed against the source and the copy fails
    /// with [`GpuError::ChecksumMismatch`].
    pub fn copy_to_device(&mut self, ptr: DevicePtr, words: &[u32]) -> Result<f64, GpuError> {
        let sp = obs::span("h2d", "transfer");
        let mut silent = false;
        if let Some(kind) = self.fault.next_op(FaultSite::HostToDevice) {
            note_fault(FaultSite::HostToDevice, kind);
            if kind == FaultKind::SilentCorruption {
                silent = true;
            } else {
                self.xfer_stats.record_h2d_fault();
                return Err(fault_error(
                    kind,
                    FaultSite::HostToDevice,
                    ptr.addr(),
                    words.len(),
                ));
            }
        }
        let corrupted;
        let payload: &[u32] = if silent {
            // One bit of the middle word flips in flight; the bus reports
            // success (ECC missed it).
            let mut p = words.to_vec();
            if let Some(w) = p.get_mut(words.len() / 2) {
                *w ^= 1;
            }
            corrupted = p;
            &corrupted
        } else {
            words
        };
        self.mem.host_write(ptr, payload)?;
        if self.integrity_checks {
            self.xfer_stats.record_integrity_check();
            obs::counter_add("cudasw.gpu_sim.integrity.checked", &[("site", "h2d")], 1.0);
            let landed = crc32_words(self.mem.host_read(ptr, words.len())?);
            if landed != crc32_words(words) {
                self.xfer_stats.record_integrity_mismatch();
                self.xfer_stats.record_h2d_fault();
                obs::counter_add(
                    "cudasw.gpu_sim.integrity.mismatches",
                    &[("site", "h2d")],
                    1.0,
                );
                obs::instant("checksum_mismatch", "integrity", &[("site", "h2d")]);
                return Err(GpuError::ChecksumMismatch {
                    site: FaultSite::HostToDevice,
                    addr: ptr.addr(),
                });
            }
        }
        let bytes = words.len() * 4;
        let full = self.xfer_model.transfer_seconds(bytes);
        let secs = match self.h2d_stream.as_mut() {
            Some(stream) => {
                // Streamed copy: the per-transfer DMA setup is paid once
                // per session, and the wire time is hidden behind any
                // deposited kernel-execution credit.
                let body = full - self.xfer_model.latency_seconds;
                let setup = if stream.setup_paid {
                    0.0
                } else {
                    self.xfer_model.latency_seconds
                };
                stream.setup_paid = true;
                let hidden_body = body.min(stream.credit);
                stream.credit -= hidden_body;
                let exposed = setup + (body - hidden_body);
                let hidden = full - exposed;
                self.xfer_stats.record_h2d_streamed(hidden);
                obs::counter_add("cudasw.gpu_sim.h2d.streamed_calls", &[], 1.0);
                obs::counter_add("cudasw.gpu_sim.h2d.hidden_seconds", &[], hidden);
                exposed
            }
            None => full,
        };
        self.xfer_stats.record_h2d(bytes, secs);
        obs::counter_add("cudasw.gpu_sim.h2d.calls", &[], 1.0);
        obs::counter_add("cudasw.gpu_sim.h2d.bytes", &[], bytes as f64);
        obs::counter_add("cudasw.gpu_sim.h2d.seconds", &[], secs);
        obs::advance(secs);
        sp.end_with(&[("bytes", &bytes.to_string())]);
        Ok(secs)
    }

    /// Copy device data back to the host; returns data + simulated seconds.
    ///
    /// An injected transfer fault discards the payload (ECC detected the
    /// corruption in flight) — no partially-corrupt data is ever
    /// observable; the device-side contents are untouched, so a retry is
    /// safe. [`FaultKind::SilentCorruption`] instead flips a payload bit
    /// and reports success; with integrity checks armed the received
    /// payload is verified against a device-side checksum (modelling an
    /// on-device checksum kernel) and the copy fails with
    /// [`GpuError::ChecksumMismatch`].
    pub fn copy_from_device(
        &mut self,
        ptr: DevicePtr,
        words: usize,
    ) -> Result<(Vec<u32>, f64), GpuError> {
        let sp = obs::span("d2h", "transfer");
        let mut silent = false;
        if let Some(kind) = self.fault.next_op(FaultSite::DeviceToHost) {
            note_fault(FaultSite::DeviceToHost, kind);
            if kind == FaultKind::SilentCorruption {
                silent = true;
            } else {
                self.xfer_stats.record_d2h_fault();
                return Err(fault_error(
                    kind,
                    FaultSite::DeviceToHost,
                    ptr.addr(),
                    words,
                ));
            }
        }
        let mut data = self.mem.host_read(ptr, words)?.to_vec();
        // Checksum of the device-side truth, taken before the bus.
        let device_crc = self.integrity_checks.then(|| crc32_words(&data));
        if silent {
            if let Some(w) = data.get_mut(words / 2) {
                *w ^= 1;
            }
        }
        if let Some(expected) = device_crc {
            self.xfer_stats.record_integrity_check();
            obs::counter_add("cudasw.gpu_sim.integrity.checked", &[("site", "d2h")], 1.0);
            if crc32_words(&data) != expected {
                self.xfer_stats.record_integrity_mismatch();
                self.xfer_stats.record_d2h_fault();
                obs::counter_add(
                    "cudasw.gpu_sim.integrity.mismatches",
                    &[("site", "d2h")],
                    1.0,
                );
                obs::instant("checksum_mismatch", "integrity", &[("site", "d2h")]);
                return Err(GpuError::ChecksumMismatch {
                    site: FaultSite::DeviceToHost,
                    addr: ptr.addr(),
                });
            }
        }
        let bytes = words * 4;
        let secs = self.xfer_model.transfer_seconds(bytes);
        self.xfer_stats.record_d2h(bytes, secs);
        obs::counter_add("cudasw.gpu_sim.d2h.calls", &[], 1.0);
        obs::counter_add("cudasw.gpu_sim.d2h.bytes", &[], bytes as f64);
        obs::counter_add("cudasw.gpu_sim.d2h.seconds", &[], secs);
        obs::advance(secs);
        sp.end_with(&[("bytes", &bytes.to_string())]);
        Ok((data, secs))
    }

    /// Bind `words` words at `ptr` as a texture.
    pub fn bind_texture(&mut self, ptr: DevicePtr, words: usize) -> TexRef {
        TexRef::new(ptr, words)
    }

    /// Host↔device traffic accumulated so far.
    pub fn transfer_stats(&self) -> TransferStats {
        self.xfer_stats
    }

    /// Cumulative memory counters (per-launch deltas are in
    /// [`LaunchStats::memory`]).
    pub fn memory_stats(&self) -> MemoryStats {
        self.mem.stats()
    }

    /// Launch `blocks` blocks of `kernel`.
    pub fn launch(
        &mut self,
        kernel: &dyn BlockKernel,
        blocks: u32,
        name: &str,
    ) -> Result<LaunchStats, GpuError> {
        let sp = obs::span(name, "kernel");

        // Fault injection first: a dead or faulting device fails the
        // launch before any host-side validation would.
        let mut hang = false;
        if let Some(kind) = self.fault.next_op(FaultSite::Launch) {
            note_fault(FaultSite::Launch, kind);
            if kind == FaultKind::Hang {
                hang = true;
            } else {
                return Err(fault_error(kind, FaultSite::Launch, 0, 0));
            }
        }

        let cfg = kernel.config();
        if blocks == 0 {
            return Err(GpuError::InvalidLaunch {
                reason: "zero blocks".to_string(),
            });
        }
        if cfg.threads_per_block == 0 || cfg.threads_per_block > self.spec.max_threads_per_block {
            return Err(GpuError::InvalidLaunch {
                reason: format!(
                    "block of {} threads not supported (max {})",
                    cfg.threads_per_block, self.spec.max_threads_per_block
                ),
            });
        }
        if cfg.shared_words * 4 > self.spec.shared_mem_per_sm {
            return Err(GpuError::InvalidLaunch {
                reason: format!(
                    "block needs {} B shared, SM has {}",
                    cfg.shared_words * 4,
                    self.spec.shared_mem_per_sm
                ),
            });
        }

        let mem_before = self.mem.stats();
        let mut totals = BlockCost::default();
        let mut shared_totals = crate::shared::SharedStats::default();
        let mut block_cycles = Vec::with_capacity(blocks as usize);
        let mut max_block = 0f64;
        let mut min_block = f64::INFINITY;

        for block_idx in 0..blocks {
            let sm = (block_idx % self.spec.sm_count) as usize;
            let mut ctx = BlockCtx {
                block_idx,
                block_dim: cfg.threads_per_block,
                sm,
                mem: &mut self.mem,
                shared: SharedMem::new(cfg.shared_words as usize, self.spec.shared_banks),
                cost: BlockCost::default(),
            };
            kernel.run_block(&mut ctx)?;
            let cycles = self.timing.block_cycles(&self.spec, &ctx.cost);
            totals.merge(&ctx.cost);
            let s = ctx.shared.stats();
            shared_totals.instructions += s.instructions;
            shared_totals.bank_cycles += s.bank_cycles;
            shared_totals.conflicted_accesses += s.conflicted_accesses;
            block_cycles.push(cycles);
            max_block = max_block.max(cycles);
            min_block = min_block.min(cycles);
        }

        let mut cycles = self
            .timing
            .launch_cycles(&self.spec, &block_cycles, totals.dram_bytes);
        if hang {
            cycles *= HANG_CYCLE_MULTIPLIER;
        }
        if let Some(budget) = self.watchdog_cycles {
            if cycles > budget as f64 {
                obs::instant("watchdog_timeout", "fault", &[("kernel", name)]);
                return Err(GpuError::LaunchTimeout {
                    budget_cycles: budget,
                    observed_cycles: cycles as u64,
                });
            }
        }
        let seconds = self.spec.cycles_to_seconds(cycles);
        let stats = LaunchStats {
            kernel: name.to_string(),
            blocks,
            block_dim: cfg.threads_per_block,
            totals,
            memory: self.mem.stats().since(&mem_before),
            shared: shared_totals,
            cycles,
            seconds,
            max_block_cycles: max_block,
            min_block_cycles: if min_block.is_finite() {
                min_block
            } else {
                0.0
            },
        };
        note_launch(&stats);
        obs::advance(seconds);
        sp.end_with(&[
            ("cells", &stats.cells().to_string()),
            (
                "global_transactions",
                &stats.global_transactions().to_string(),
            ),
        ]);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel where every thread writes `block_idx * block_dim + tid`
    /// into an output array — the CUDA "hello world".
    struct IotaKernel {
        out: DevicePtr,
        threads: u32,
    }

    impl BlockKernel for IotaKernel {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: self.threads,
                regs_per_thread: 8,
                shared_words: 0,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            let base = (ctx.block_idx * ctx.block_dim) as usize;
            for w in 0..ctx.warp_count() {
                let t0 = w as usize * WARP_SIZE;
                let lanes = WARP_SIZE.min(ctx.block_dim as usize - t0);
                let access = WarpAccess::run(0, lanes, self.out.addr() + base + t0);
                let mut vals = [0u32; WARP_SIZE];
                for (lane, val) in vals.iter_mut().enumerate().take(lanes) {
                    *val = (base + t0 + lane) as u32;
                }
                ctx.charge(2); // index arithmetic
                ctx.global_store(&access, &vals)?;
            }
            Ok(())
        }
    }

    #[test]
    fn iota_kernel_functional() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(256).unwrap();
        let k = IotaKernel { out, threads: 64 };
        let stats = dev.launch(&k, 4, "iota").unwrap();
        let (data, _) = dev.copy_from_device(out, 256).unwrap();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
        assert_eq!(stats.blocks, 4);
        assert!(stats.seconds > 0.0);
        // 4 blocks × 2 warps × 1 perfectly-coalesced store.
        assert_eq!(stats.memory.store_transactions, 8);
    }

    #[test]
    fn zero_blocks_rejected() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(32).unwrap();
        let k = IotaKernel { out, threads: 32 };
        assert!(matches!(
            dev.launch(&k, 0, "iota"),
            Err(GpuError::InvalidLaunch { .. })
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(32).unwrap();
        let k = IotaKernel { out, threads: 2048 };
        assert!(dev.launch(&k, 1, "iota").is_err());
    }

    /// A kernel using shared memory to reverse a warp's values.
    struct SharedReverse {
        buf: DevicePtr,
    }

    impl BlockKernel for SharedReverse {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: 32,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            let load = WarpAccess::contiguous(self.buf.addr());
            let vals = ctx.global_load(&load)?;
            let st = WarpAccess::from_lanes((0..WARP_SIZE).map(|l| (l, 31 - l)));
            ctx.shared_store(&st, &vals);
            ctx.syncthreads();
            let ld = WarpAccess::contiguous(0);
            let rev = ctx.shared_load(&ld);
            ctx.global_store(&load, &rev)?;
            Ok(())
        }
    }

    #[test]
    fn shared_memory_kernel_functional() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let buf = dev.alloc(32).unwrap();
        let input: Vec<u32> = (0..32).collect();
        dev.copy_to_device(buf, &input).unwrap();
        let stats = dev.launch(&SharedReverse { buf }, 1, "rev").unwrap();
        let (data, _) = dev.copy_from_device(buf, 32).unwrap();
        let expected: Vec<u32> = (0..32).rev().collect();
        assert_eq!(data, expected);
        assert_eq!(stats.totals.syncs, 1);
        assert_eq!(stats.shared.instructions, 2);
    }

    /// One texture fetch of `access` through `tex`.
    struct Fetch {
        tex: TexRef,
        access: WarpAccess,
    }

    impl BlockKernel for Fetch {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: 0,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            ctx.tex_load(self.tex, &self.access).map(|_| ())
        }
    }

    #[test]
    fn fetch_outside_the_binding_names_its_span() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let buf = dev.alloc(8192).unwrap();
        let tex = dev.bind_texture(buf.offset(4096), 94);
        let base = tex.base().addr();
        let mut fetch = |first: usize| {
            let access = WarpAccess::run(0, 8, first);
            dev.launch(&Fetch { tex, access }, 1, "fetch")
        };
        fetch(base + 86).unwrap();
        // Eight words from 90: the first one past the 94 bound is reported.
        let over = fetch(base + 90).unwrap_err();
        let binding = base..base + 94;
        assert_eq!(
            over,
            GpuError::OutsideBinding {
                addr: base + 94,
                binding: binding.clone()
            }
        );
        assert_eq!(
            over.to_string(),
            format!(
                "texture fetch outside its binding: word {} not in [{base}, {})",
                base + 94,
                base + 94
            )
        );
        // Below the binding but inside device memory: the same error (a
        // "word >= size" message would state something false here).
        let under = fetch(base - 3).unwrap_err();
        assert_eq!(
            under,
            GpuError::OutsideBinding {
                addr: base - 3,
                binding
            }
        );
        assert!(!under.is_transient() && !under.is_recoverable());
    }

    #[test]
    fn launch_stats_memory_is_per_launch_delta() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        let s1 = dev.launch(&k, 1, "a").unwrap();
        let s2 = dev.launch(&k, 1, "b").unwrap();
        assert_eq!(s1.memory.store_transactions, s2.memory.store_transactions);
    }

    #[test]
    fn transient_launch_fault_then_retry_succeeds() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(crate::fault::FaultPlan::none().with_transient(FaultSite::Launch, 0));
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        let err = dev.launch(&k, 1, "iota").unwrap_err();
        assert!(err.is_transient(), "{err}");
        // The identical retry succeeds and produces correct results.
        dev.launch(&k, 1, "iota").unwrap();
        let (data, _) = dev.copy_from_device(out, 64).unwrap();
        assert_eq!(data, (0..64).collect::<Vec<u32>>());
        assert_eq!(dev.fault_stats().transients, 1);
    }

    #[test]
    fn hang_without_watchdog_completes_slowly() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        let clean = dev.launch(&k, 1, "iota").unwrap();
        dev.inject_faults(crate::fault::FaultPlan::none().with_hang(1));
        let hung = dev.launch(&k, 1, "iota").unwrap();
        assert!(hung.cycles > clean.cycles * (HANG_CYCLE_MULTIPLIER * 0.5));
    }

    #[test]
    fn hang_with_watchdog_times_out_and_retry_succeeds() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        // Budget: 10x a clean launch — generous for real work, far below
        // the hang inflation.
        let clean = dev.launch(&k, 1, "iota").unwrap();
        dev.set_watchdog_cycles(Some((clean.cycles * 10.0) as u64 + 1));
        dev.inject_faults(crate::fault::FaultPlan::none().with_hang(1));
        let err = dev.launch(&k, 1, "iota").unwrap_err();
        assert!(
            matches!(err, GpuError::LaunchTimeout { .. }),
            "expected timeout, got {err}"
        );
        dev.launch(&k, 1, "iota").unwrap();
    }

    #[test]
    fn corrupted_d2h_discards_data_and_retry_succeeds() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(
            crate::fault::FaultPlan::none().with_corruption(FaultSite::DeviceToHost, 0),
        );
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        dev.launch(&k, 1, "iota").unwrap();
        let err = dev.copy_from_device(out, 64).unwrap_err();
        assert!(matches!(err, GpuError::CorruptionDetected { .. }), "{err}");
        assert_eq!(dev.transfer_stats().d2h_faults, 1);
        // Device memory was untouched; the retry reads the true values.
        let (data, _) = dev.copy_from_device(out, 64).unwrap();
        assert_eq!(data, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn silent_corruption_flows_into_data_when_unchecked() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(
            crate::fault::FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0),
        );
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        dev.launch(&k, 1, "iota").unwrap();
        // The copy "succeeds" — and exactly one bit is wrong.
        let (data, _) = dev.copy_from_device(out, 64).unwrap();
        let expected: Vec<u32> = (0..64).collect();
        assert_ne!(data, expected);
        assert_eq!(data[32], expected[32] ^ 1);
        assert_eq!(dev.fault_stats().silent_corruptions, 1);
        assert_eq!(dev.transfer_stats().d2h_faults, 0, "nothing was detected");
        // A fresh read returns the device-side truth.
        let (clean, _) = dev.copy_from_device(out, 64).unwrap();
        assert_eq!(clean, expected);
    }

    #[test]
    fn integrity_checks_catch_silent_d2h_corruption() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.set_integrity_checks(true);
        dev.inject_faults(
            crate::fault::FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0),
        );
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        dev.launch(&k, 1, "iota").unwrap();
        let err = dev.copy_from_device(out, 64).unwrap_err();
        assert!(
            matches!(
                err,
                GpuError::ChecksumMismatch {
                    site: FaultSite::DeviceToHost,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.is_transient());
        assert_eq!(dev.transfer_stats().integrity_mismatches, 1);
        assert_eq!(dev.transfer_stats().d2h_faults, 1);
        // Device memory is intact; the retry reads the truth.
        let (data, _) = dev.copy_from_device(out, 64).unwrap();
        assert_eq!(data, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn integrity_checks_catch_silent_h2d_corruption() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.set_integrity_checks(true);
        dev.inject_faults(
            crate::fault::FaultPlan::none().with_silent_corruption(FaultSite::HostToDevice, 0),
        );
        let buf = dev.alloc(32).unwrap();
        let input: Vec<u32> = (100..132).collect();
        let err = dev.copy_to_device(buf, &input).unwrap_err();
        assert!(
            matches!(
                err,
                GpuError::ChecksumMismatch {
                    site: FaultSite::HostToDevice,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(dev.transfer_stats().h2d_faults, 1);
        // The retry lands the true payload.
        dev.copy_to_device(buf, &input).unwrap();
        let (data, _) = dev.copy_from_device(buf, 32).unwrap();
        assert_eq!(data, input);
        assert_eq!(dev.transfer_stats().integrity_mismatches, 1);
        assert!(dev.transfer_stats().integrity_checked >= 3);
    }

    #[test]
    fn integrity_checks_are_silent_on_clean_transfers() {
        let ((), run) = obs::capture(|| {
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
            dev.set_integrity_checks(true);
            assert!(dev.integrity_checks());
            let buf = dev.alloc(16).unwrap();
            dev.copy_to_device(buf, &[7u32; 16]).unwrap();
            let (data, _) = dev.copy_from_device(buf, 16).unwrap();
            assert_eq!(data, vec![7u32; 16]);
            assert_eq!(dev.transfer_stats().integrity_checked, 2);
            assert_eq!(dev.transfer_stats().integrity_mismatches, 0);
        });
        let m = &run.metrics;
        assert_eq!(m.counter_sum("cudasw.gpu_sim.integrity.checked", &[]), 2.0);
        assert_eq!(
            m.counter_sum("cudasw.gpu_sim.integrity.mismatches", &[]),
            0.0
        );
    }

    #[test]
    fn device_loss_fails_everything_afterwards() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(crate::fault::FaultPlan::none().with_device_loss(FaultSite::Launch, 0));
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        assert!(matches!(
            dev.launch(&k, 1, "iota"),
            Err(GpuError::DeviceLost)
        ));
        assert!(dev.is_lost());
        assert!(matches!(dev.alloc(1), Err(GpuError::DeviceLost)));
        assert!(matches!(
            dev.copy_to_device(out, &[0; 4]),
            Err(GpuError::DeviceLost)
        ));
        assert!(matches!(
            dev.copy_from_device(out, 4),
            Err(GpuError::DeviceLost)
        ));
    }

    #[test]
    fn scheduled_revival_brings_the_device_back_with_a_fresh_epoch() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(crate::fault::FaultPlan::none().with_device_loss_recovery(
            FaultSite::Launch,
            0,
            1,
        ));
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        assert!(matches!(
            dev.launch(&k, 1, "iota"),
            Err(GpuError::DeviceLost)
        ));
        assert!(dev.is_lost());
        let epoch_before = dev.alloc_epoch();

        assert!(!dev.try_revive(), "first probe is scheduled to fail");
        assert!(dev.is_lost());
        assert!(dev.try_revive(), "second probe succeeds");
        assert!(!dev.is_lost());
        assert!(
            dev.alloc_epoch() > epoch_before,
            "revival wipes memory, so pre-loss handles go stale"
        );
        assert_eq!(dev.fault_stats().revivals, 1);

        // The revived device runs normally.
        let out = dev.alloc(64).unwrap();
        let k = IotaKernel { out, threads: 64 };
        dev.launch(&k, 1, "iota").unwrap();
        let (data, _) = dev.copy_from_device(out, 4).unwrap();
        assert_eq!(data, vec![0, 1, 2, 3]);
        assert!(!dev.try_revive(), "revive on a live device is a no-op");
    }

    #[test]
    fn injected_oom_and_memory_pressure() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.inject_faults(
            crate::fault::FaultPlan::none()
                .with_oom(0)
                .with_memory_pressure(1024),
        );
        // The scheduled OOM hits the first allocation...
        assert!(matches!(dev.alloc(64), Err(GpuError::OutOfMemory { .. })));
        // ...then the capacity clamp governs: 1024 words fit, more do not.
        let _ = dev.alloc(512).unwrap();
        let _ = dev.alloc(600).unwrap_err();
    }

    #[test]
    fn device_ops_report_to_the_ambient_recorder() {
        let ((), run) = obs::capture(|| {
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
            dev.inject_faults(crate::fault::FaultPlan::none().with_transient(FaultSite::Launch, 0));
            let out = dev.alloc(256).unwrap();
            let input = vec![0u32; 256];
            dev.copy_to_device(out, &input).unwrap();
            let k = IotaKernel { out, threads: 64 };
            let _ = dev.launch(&k, 4, "iota").unwrap_err(); // injected transient
            let stats = dev.launch(&k, 4, "iota").unwrap();
            dev.copy_from_device(out, 256).unwrap();
            assert_eq!(
                run_metrics_probe(),
                stats.global_transactions(),
                "registry matches LaunchStats"
            );
        });
        let m = &run.metrics;
        assert_eq!(m.counter("cudasw.gpu_sim.alloc.calls", &[]), 1.0);
        assert_eq!(
            m.counter("cudasw.gpu_sim.launch.calls", &[("kernel", "iota")]),
            1.0
        );
        assert_eq!(
            m.counter_sum("cudasw.gpu_sim.fault.injected", &[("site", "launch")]),
            1.0
        );
        assert!(m.counter("cudasw.gpu_sim.h2d.bytes", &[]) == 1024.0);
        assert!(m.counter("cudasw.gpu_sim.d2h.bytes", &[]) == 1024.0);
        // Clock advanced by transfer + kernel time; spans recorded it.
        assert!(run.clock > 0.0);
        assert_eq!(run.trace.spans_named("iota").count(), 2);
        assert_eq!(run.trace.instants_named("fault").count(), 1);
        assert_eq!(run.trace.open_count(), 0);
        let h = m
            .histogram("cudasw.gpu_sim.launch.duration_seconds", &[])
            .unwrap();
        assert_eq!(h.count, 1);
    }

    fn run_metrics_probe() -> u64 {
        obs::snapshot_metrics().counter_sum("cudasw.gpu_sim.launch.global_transactions", &[]) as u64
    }

    #[test]
    fn transfers_cost_simulated_time() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let buf = dev.alloc(1 << 20).unwrap();
        let data = vec![0u32; 1 << 20];
        let secs = dev.copy_to_device(buf, &data).unwrap();
        assert!(secs > 0.0);
        assert_eq!(dev.transfer_stats().h2d_bytes, 4 << 20);
    }

    #[test]
    fn streamed_h2d_moves_the_same_bytes_in_less_exposed_time() {
        let data = vec![7u32; 1 << 18];
        // Synchronous reference.
        let mut sync_dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let buf = sync_dev.alloc(data.len()).unwrap();
        let sync_secs = sync_dev.copy_to_device(buf, &data).unwrap();
        let sync_secs2 = sync_dev.copy_to_device(buf, &data).unwrap();

        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let buf = dev.alloc(data.len()).unwrap();
        dev.begin_h2d_stream();
        assert!(dev.h2d_stream_open());
        // First copy: setup paid, no credit yet — same cost as sync.
        let first = dev.copy_to_device(buf, &data).unwrap();
        assert!((first - sync_secs).abs() < 1e-12);
        // With generous credit the second copy exposes ~zero time.
        dev.add_h2d_overlap_credit(10.0);
        let second = dev.copy_to_device(buf, &data).unwrap();
        assert!(second < sync_secs2 * 1e-6, "copy must hide: {second}");
        dev.end_h2d_stream();
        assert!(!dev.h2d_stream_open());

        let stats = dev.transfer_stats();
        // Bytes moved are identical to the synchronous run.
        assert_eq!(stats.h2d_bytes, sync_dev.transfer_stats().h2d_bytes);
        assert_eq!(stats.h2d_streamed, 2);
        let hidden = stats.h2d_hidden_seconds;
        assert!(
            (first + second + hidden - sync_secs - sync_secs2).abs() < 1e-12,
            "exposed + hidden must equal the synchronous total"
        );
        // Payload landed intact.
        let (back, _) = dev.copy_from_device(buf, 4).unwrap();
        assert_eq!(back, vec![7u32; 4]);
    }

    #[test]
    fn partial_credit_hides_only_that_much() {
        let data = vec![1u32; 1 << 18];
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let buf = dev.alloc(data.len()).unwrap();
        let full = dev.copy_to_device(buf, &data).unwrap(); // sync reference
        dev.begin_h2d_stream();
        let _ = dev.copy_to_device(buf, &data).unwrap(); // pays setup
        let body = full - 10.0e-6;
        dev.add_h2d_overlap_credit(body / 2.0);
        assert_eq!(dev.h2d_overlap_credit(), body / 2.0);
        let exposed = dev.copy_to_device(buf, &data).unwrap();
        assert!((exposed - body / 2.0).abs() < 1e-12, "{exposed} vs {body}");
        // Spent to the last bit; put back as recorded, the next copy costs
        // the same; outside a session there is nothing to put back.
        assert_eq!(dev.h2d_overlap_credit(), 0.0);
        dev.set_h2d_overlap_credit(body / 2.0);
        let again = dev.copy_to_device(buf, &data).unwrap();
        assert_eq!(again.to_bits(), exposed.to_bits());
        dev.end_h2d_stream();
        dev.set_h2d_overlap_credit(1.0);
        assert_eq!(dev.h2d_overlap_credit(), 0.0);
    }

    #[test]
    fn allocator_reset_closes_the_stream() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.begin_h2d_stream();
        dev.free_all();
        assert!(!dev.h2d_stream_open());
    }
}
