//! Kernel execution: the [`BlockKernel`] trait, the per-block context, and
//! the device launch loop.
//!
//! Kernels are written warp-collectively: they build a [`WarpAccess`] per
//! memory instruction and call the typed accessors on [`BlockCtx`]. The
//! context tracks every cost counter the timing model consumes; *timing*
//! concurrency is reconstructed from those counters by [`crate::timing`].
//!
//! **Execution model.** Block `b` of a launch runs on SM `b mod sm_count`,
//! as in one serial run. The blocks run on `min(host threads, SMs, blocks)`
//! workers ([`GpuDevice::with_host_workers`] sets the first term), the
//! launching thread one of them (a one-core host runs every block there).
//! A worker owns whole SMs — those `≡ w (mod workers)` — with their L1 and
//! texture caches, and runs their blocks in index order, so each of those
//! caches sees exactly what it sees serially. The device-wide caches (the
//! data L2, GT200's texture L2) see every block, so
//! they take their accesses in block order: the oldest unfinished block
//! applies its own at once; a later block logs them (a byte or two each)
//! and replays the log the moment it becomes the oldest. A block retires —
//! handing the level to the next — only as the oldest, and its `l2_hits`,
//! `dram_bytes` and cycles, and the launch's totals, are summed in block
//! order. No counter moves from the serial simulator's.
//!
//! Global memory is shared by every worker as relaxed atomic words, so no
//! data race is possible, under CUDA's rule: no block touches a word
//! another block of the same launch wrote. Every build checks the rule: a
//! retiring block's read and written words are checked against the earlier
//! blocks', and a kernel that breaks it fails with
//! [`GpuError::CrossBlockAccess`] whatever the interleaving. A failed
//! launch returns its lowest failing block's error, or re-raises its
//! panic; what the later blocks did to memory and caches is then, as on
//! CUDA, unspecified.

use crate::device::DeviceSpec;
use crate::error::{FaultSite, GpuError};
use crate::fault::{
    fault_error, FaultInjector, FaultKind, FaultPlan, FaultStats, HANG_CYCLE_MULTIPLIER,
};
use crate::memory::{
    AccessCost, BlockMem, DeviceCaches, DevicePtr, LaunchParts, Level2, MemoryStats, MemorySystem,
    Reach, Settled, SmCaches, Touched,
};
use crate::shared::{SharedMem, SharedStats};
use crate::stats::LaunchStats;
use crate::texture::TexRef;
use crate::timing::{BlockCost, TimingModel};
use crate::warp::{WarpAccess, WARP_SIZE};
use crate::xfer::{crc32_words, TransferModel, TransferStats};
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

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

/// A kernel executable on the simulated device. `Sync` because the blocks
/// of one launch run on several host threads at once.
pub trait BlockKernel: Sync {
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
    mem: BlockMem<'a>,
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

    /// Charge one memory instruction and what its lines cost so far.
    fn account(&mut self, cost: AccessCost) {
        self.cost.warp_instructions += 1;
        self.cost.near_hits += cost.near_hits as u64;
        self.cost.l2_hits += cost.l2_hits as u64;
        self.cost.dram_bytes += cost.dram_bytes as u64;
    }

    /// Warp-collective global load. Costs one warp instruction plus the
    /// coalesced transactions.
    pub fn global_load(&mut self, access: &WarpAccess) -> Result<[u32; WARP_SIZE], GpuError> {
        let mut vals = [0; WARP_SIZE];
        let cost = self.mem.load(access, &mut vals)?;
        self.account(cost);
        Ok(vals)
    }

    /// Warp-collective global store.
    pub fn global_store(
        &mut self,
        access: &WarpAccess,
        values: &[u32; WARP_SIZE],
    ) -> Result<(), GpuError> {
        let cost = self.mem.store(access, values)?;
        self.account(cost);
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
        let mut vals = [0; WARP_SIZE];
        let cost = self.mem.tex_load(access, &mut vals)?;
        self.account(cost);
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
}

/// Host threads a launch may use: the host's parallelism, read once.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Lock `mutex`, whether or not a panicking holder poisoned it. A block's
/// own panic never poisons one: it is caught inside the worker, whose port
/// keeps the guard until the block is done with. A poisoned lock therefore
/// means the simulator itself panicked, and that panic reaches the caller
/// (see [`StopOnUnwind`]) whatever the other workers then see.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What only the oldest unfinished block of a launch may touch.
struct Oldest<'m> {
    caches: &'m mut DeviceCaches,
    /// The words every retired block touched.
    touched: Touched,
}

/// The hand-off of the device-wide level from block to block, in index
/// order. Aligned so that no worker's own writes share a host cache line
/// with `next`, which a logging block reads on every access it logs.
#[repr(align(128))]
struct Turn<'m> {
    oldest: Mutex<Oldest<'m>>,
    /// The oldest block that has not retired. Stored (`Release`) after the
    /// retiring block drops its guard; the block that loads (`Acquire`) its
    /// own index then takes the lock, which orders the caches' state.
    next: AtomicU32,
    /// The lowest block that failed (`u32::MAX`: none has).
    stop: AtomicU32,
    /// Signalled whenever `next` or `stop` moves.
    moved: Condvar,
    moved_lock: Mutex<()>,
    /// Replayed log chunks, empty.
    pool: Mutex<Vec<Vec<u8>>>,
}

impl Turn<'_> {
    fn notify(&self) {
        drop(lock(&self.moved_lock));
        self.moved.notify_all();
    }

    fn fail(&self, block: u32) {
        self.stop.fetch_min(block, Ordering::AcqRel);
        self.notify();
    }
}

/// A block's device-wide accesses, kept while an earlier block runs.
///
/// Each access is one LEB128 number: the kind in the low two bits and,
/// above them, the zigzagged distance from the previous line of the same
/// kind (lines are word addresses over at least eight, so the distance
/// fits). Kernels walk their arrays in short steps, so an access takes one
/// or two bytes. Bytes go into fixed-size chunks, which go back to the
/// launch's pool once replayed: the log never copies itself to grow, and
/// the launch holds about as many chunks as its longest log at any moment.
struct AccessLog<'t> {
    /// Filled chunks, the last one being filled.
    chunks: Vec<Vec<u8>>,
    /// Empty chunks, for any block's log.
    pool: &'t Mutex<Vec<Vec<u8>>>,
    /// The previous line of each kind.
    last: [usize; 3],
}

/// Bytes per log chunk.
const LOG_CHUNK: usize = 16 * 1024;

impl<'t> AccessLog<'t> {
    fn new(pool: &'t Mutex<Vec<Vec<u8>>>) -> Self {
        Self {
            chunks: Vec::new(),
            pool,
            last: [0; 3],
        }
    }

    fn push(&mut self, reach: Reach, line: usize) {
        let kind = reach as usize;
        let step = line.wrapping_sub(self.last[kind]) as i64;
        self.last[kind] = line;
        let mut v = (((step << 1) ^ (step >> 63)) as u64) << 2 | kind as u64;
        let chunk = match self.chunks.last_mut() {
            // Ten bytes hold any number.
            Some(chunk) if chunk.len() + 10 <= LOG_CHUNK => chunk,
            _ => {
                let fresh = lock(self.pool)
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(LOG_CHUNK));
                self.chunks.push(fresh);
                let last = self.chunks.len() - 1;
                &mut self.chunks[last]
            }
        };
        while v >= 0x80 {
            chunk.push(v as u8 | 0x80);
            v >>= 7;
        }
        chunk.push(v as u8);
    }

    /// Hand every access to `apply`, in order; the log is empty afterwards.
    fn replay(&mut self, mut apply: impl FnMut(Reach, usize)) {
        let mut last = [0usize; 3];
        let mut bytes = self.chunks.iter().flatten().copied();
        'accesses: loop {
            let (mut v, mut shift) = (0u64, 0);
            loop {
                let Some(byte) = bytes.next() else {
                    break 'accesses;
                };
                v |= u64::from(byte & 0x7f) << shift;
                shift += 7;
                if byte < 0x80 {
                    break;
                }
            }
            let (kind, zigzag) = ((v & 3) as usize, v >> 2);
            let step = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
            last[kind] = last[kind].wrapping_add(step as usize);
            apply([Reach::Load, Reach::Store, Reach::Tex][kind], last[kind]);
        }
        self.last = [0; 3];
        lock(self.pool).extend(self.chunks.drain(..).map(|mut chunk| {
            chunk.clear();
            chunk
        }));
    }
}

/// Why a block did not retire.
enum Unretired {
    /// A lower block failed first; this one's effects do not count.
    Abandoned,
    /// It touched a word another block wrote, or wrote one another block
    /// touched: the lowest such word.
    Clash(usize),
}

/// One block's way to the device-wide level: straight through while it is
/// the oldest unfinished block, into its log before, replayed in order the
/// moment it becomes the oldest.
struct Port<'t, 'm> {
    turn: &'t Turn<'m>,
    block: u32,
    held: Option<MutexGuard<'t, Oldest<'m>>>,
    log: AccessLog<'t>,
    settled: Settled,
}

impl<'t, 'm> Port<'t, 'm> {
    /// Become the oldest block: apply the log, then go straight through.
    fn take_turn(&mut self) {
        let mut oldest = lock(&self.turn.oldest);
        let settled = &mut self.settled;
        self.log
            .replay(|reach, line| settled.add(reach, oldest.caches.apply(reach, line)));
        self.held = Some(oldest);
    }

    /// Wait to be the oldest block, apply what is left, check the words it
    /// touched against those of the blocks before it, and hand the level
    /// to the next block.
    fn retire(&mut self, touched: &mut Touched) -> Result<Settled, Unretired> {
        if self.held.is_none() {
            let mut moved = lock(&self.turn.moved_lock);
            while self.turn.next.load(Ordering::Acquire) != self.block {
                if self.turn.stop.load(Ordering::Acquire) < self.block {
                    return Err(Unretired::Abandoned);
                }
                moved = self
                    .turn
                    .moved
                    .wait(moved)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(moved);
            self.take_turn();
        }
        let Some(mut oldest) = self.held.take() else {
            return Err(Unretired::Abandoned);
        };
        if let Some(addr) = touched.retire_into(&mut oldest.touched) {
            return Err(Unretired::Clash(addr));
        }
        drop(oldest);
        self.turn.next.store(self.block + 1, Ordering::Release);
        self.turn.notify();
        Ok(std::mem::take(&mut self.settled))
    }
}

impl Level2 for Port<'_, '_> {
    #[inline]
    fn reach(&mut self, reach: Reach, line: usize) -> Option<bool> {
        if self.held.is_none() && self.turn.next.load(Ordering::Acquire) == self.block {
            self.take_turn();
        }
        if let Some(oldest) = &mut self.held {
            return Some(oldest.caches.apply(reach, line));
        }
        self.log.push(reach, line);
        None
    }
}

/// Stops a launch's other workers, which might otherwise wait for a turn
/// that never comes, when the simulator itself panics in a worker (a
/// block's own panic is caught and handed to the caller instead).
struct StopOnUnwind<'t, 'm>(&'t Turn<'m>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.fail(0);
        }
    }
}

/// What a retired block counted.
struct Retired {
    block: u32,
    cost: BlockCost,
    shared: SharedStats,
    mem: MemoryStats,
}

/// How a block failed: its error, or the payload it panicked with.
enum Failure {
    Error(GpuError),
    Panic(Box<dyn Any + Send>),
}

/// What one worker did: its retired blocks, and its failed one if any.
#[derive(Default)]
struct WorkerOut {
    retired: Vec<Retired>,
    failed: Option<(u32, Failure)>,
}

/// The fixed inputs of every worker of one launch.
struct Grid<'k, 't, 'm> {
    kernel: &'k dyn BlockKernel,
    cfg: LaunchConfig,
    blocks: u32,
    sm_count: usize,
    workers: usize,
    shared_banks: u32,
    data: &'m [AtomicU32],
    reaches: [bool; 3],
    turn: &'t Turn<'m>,
}

impl Grid<'_, '_, '_> {
    /// Run worker `w`'s blocks — those of the SMs `sm ≡ w (mod workers)`,
    /// whose caches are `caches[sm / workers]` — in index order, up to the
    /// first failure of the launch.
    fn work(&self, w: usize, mut caches: Vec<&mut SmCaches>) -> WorkerOut {
        let _stop = StopOnUnwind(self.turn);
        let mut out = WorkerOut::default();
        let mut touched = Touched::new(self.data.len());
        let mine = (0..self.blocks).filter(|b| (*b as usize % self.sm_count) % self.workers == w);
        for block in mine {
            if block > self.turn.stop.load(Ordering::Acquire) {
                break;
            }
            let sm = block as usize % self.sm_count;
            let caches = &mut *caches[sm / self.workers];
            let mut port = Port {
                turn: self.turn,
                block,
                held: None,
                log: AccessLog::new(&self.turn.pool),
                settled: Settled::default(),
            };
            let mut ctx = BlockCtx {
                block_idx: block,
                block_dim: self.cfg.threads_per_block,
                sm,
                mem: BlockMem {
                    data: self.data,
                    tex_since: caches.tex_clock(),
                    caches,
                    level: &mut port,
                    reaches: self.reaches,
                    touched: Some(&mut touched),
                    stats: MemoryStats::default(),
                },
                shared: SharedMem::new(self.cfg.shared_words as usize, self.shared_banks),
                cost: BlockCost::default(),
            };
            let ran = panic::catch_unwind(AssertUnwindSafe(|| self.kernel.run_block(&mut ctx)));
            let BlockCtx {
                mut cost,
                shared,
                mem: BlockMem { mut stats, .. },
                ..
            } = ctx;
            let failure = match ran {
                Ok(Ok(())) => match port.retire(&mut touched) {
                    Ok(settled) => {
                        cost.l2_hits += settled.l2_hits;
                        cost.dram_bytes += settled.dram_read_bytes + settled.tex_dram_bytes;
                        stats.dram_read_bytes += settled.dram_read_bytes;
                        stats.tex_dram_bytes += settled.tex_dram_bytes;
                        out.retired.push(Retired {
                            block,
                            cost,
                            shared: shared.stats(),
                            mem: stats,
                        });
                        continue;
                    }
                    Err(Unretired::Abandoned) => break,
                    Err(Unretired::Clash(addr)) => {
                        Failure::Error(GpuError::CrossBlockAccess { addr, block })
                    }
                },
                Ok(Err(e)) => Failure::Error(e),
                Err(payload) => Failure::Panic(payload),
            };
            drop(port);
            self.turn.fail(block);
            out.failed = Some((block, failure));
            break;
        }
        out
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
    /// Host threads a launch may use (`None`: the host's parallelism).
    host_workers: Option<usize>,
}

impl From<&DeviceSpec> for GpuDevice {
    fn from(spec: &DeviceSpec) -> Self {
        Self::new(spec.clone())
    }
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
            host_workers: None,
        }
    }

    /// Run each launch's blocks on `min(n, SMs, blocks)` host threads (at
    /// least one) instead of `min(host threads, SMs, blocks)`. Every count
    /// gives the same counts and results (the module's execution model), so
    /// this lets a test run a worker count its host does not have.
    pub fn with_host_workers(mut self, n: usize) -> Self {
        self.host_workers = Some(n);
        self
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
            let landed = crc32_words(&self.mem.host_read(ptr, words.len())?);
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
        let mut data = self.mem.host_read(ptr, words)?;
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
        let shared_bytes = u64::from(cfg.shared_words) * 4;
        if shared_bytes > u64::from(self.spec.shared_mem_per_sm) {
            return Err(GpuError::InvalidLaunch {
                reason: format!(
                    "block needs {shared_bytes} B shared, SM has {}",
                    self.spec.shared_mem_per_sm
                ),
            });
        }

        let mem_before = self.mem.stats();
        let retired = self.run_blocks(kernel, cfg, blocks)?;
        let mut totals = BlockCost::default();
        let mut shared_totals = SharedStats::default();
        let mut block_cycles = Vec::with_capacity(blocks as usize);
        let mut max_block = 0f64;
        let mut min_block = f64::INFINITY;
        for block in &retired {
            self.mem.absorb(&block.mem);
            let cycles = self.timing.block_cycles(&self.spec, &block.cost);
            totals.merge(&block.cost);
            shared_totals.instructions += block.shared.instructions;
            shared_totals.bank_cycles += block.shared.bank_cycles;
            shared_totals.conflicted_accesses += block.shared.conflicted_accesses;
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

    /// Run every block of a launch as the module's execution model says
    /// and return what each counted, in block order — or the lowest failing
    /// block's error, or re-raise its panic.
    fn run_blocks(
        &mut self,
        kernel: &dyn BlockKernel,
        cfg: LaunchConfig,
        blocks: u32,
    ) -> Result<Vec<Retired>, GpuError> {
        let sm_count = self.spec.sm_count.max(1) as usize;
        let workers = (self.host_workers.unwrap_or_else(host_threads))
            .min(sm_count)
            .min(blocks as usize)
            .max(1);
        let LaunchParts { data, sms, device } = self.mem.launch_parts();
        let reaches = device.reaches();
        let turn = Turn {
            oldest: Mutex::new(Oldest {
                caches: device,
                touched: Touched::new(data.len()),
            }),
            next: AtomicU32::new(0),
            stop: AtomicU32::new(u32::MAX),
            moved: Condvar::new(),
            moved_lock: Mutex::new(()),
            pool: Mutex::new(Vec::new()),
        };
        let grid = Grid {
            kernel,
            cfg,
            blocks,
            sm_count,
            workers,
            shared_banks: self.spec.shared_banks,
            data,
            reaches,
            turn: &turn,
        };
        let mut owned: Vec<Vec<&mut SmCaches>> = (0..workers).map(|_| Vec::new()).collect();
        for (sm, caches) in sms.iter_mut().enumerate() {
            owned[sm % workers].push(caches);
        }
        let grid = &grid;
        let mut outs = thread::scope(|scope| {
            let mut owned = owned.into_iter().enumerate();
            let mine = owned.next();
            let others: Vec<_> = owned
                .map(|(w, caches)| scope.spawn(move || grid.work(w, caches)))
                .collect();
            let mut outs = vec![mine.map_or_else(WorkerOut::default, |(w, c)| grid.work(w, c))];
            for other in others {
                // A worker catches its blocks' panics, so a join error is
                // the simulator's own: pass it on as it is.
                outs.push(other.join().unwrap_or_else(|p| panic::resume_unwind(p)));
            }
            outs
        });
        let failed = outs
            .iter_mut()
            .filter_map(|out| out.failed.take())
            .min_by_key(|(block, _)| *block);
        let mut retired: Vec<Retired> = outs.into_iter().flat_map(|out| out.retired).collect();
        retired.sort_unstable_by_key(|r| r.block);
        match failed {
            None => Ok(retired),
            Some((_, Failure::Error(e))) => {
                for block in &retired {
                    self.mem.absorb(&block.mem);
                }
                Err(e)
            }
            Some((_, Failure::Panic(payload))) => panic::resume_unwind(payload),
        }
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

    /// Block `block` (of four, one word each) writes its word; every
    /// block reads word `read_of(block)`, if any.
    struct Neighbours {
        out: DevicePtr,
        read_of: fn(u32) -> Option<u32>,
    }

    impl BlockKernel for Neighbours {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: 0,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            ctx.write_word(self.out.offset(ctx.block_idx as usize), ctx.block_idx)?;
            if let Some(other) = (self.read_of)(ctx.block_idx) {
                ctx.read_word(self.out.offset(other as usize))?;
            }
            Ok(())
        }
    }

    /// Worker counts every launch is run at by the tests that pin launches
    /// (14 is the C2050's SM count).
    const WORKERS: [usize; 5] = [1, 2, 3, 5, 14];

    #[test]
    fn touching_a_word_another_block_wrote_fails_the_launch() {
        for workers in WORKERS {
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050()).with_host_workers(workers);
            let out = dev.alloc(64).unwrap();
            // Each block reads back its own word: legal.
            let own = Neighbours { out, read_of: Some };
            dev.launch(&own, 4, "own").unwrap();
            // Block 2 reads block 1's word, whichever of the two ran first.
            let later = Neighbours {
                out,
                read_of: |b| (b == 2).then_some(1),
            };
            // Block 1 reads block 2's word: the same clash, found on block 2.
            let earlier = Neighbours {
                out,
                read_of: |b| (b == 1).then_some(2),
            };
            for kernel in [&later, &earlier] {
                for _ in 0..20 {
                    let err = dev.launch(kernel, 4, "clash").unwrap_err();
                    let addr = out.addr() + if std::ptr::eq(kernel, &later) { 1 } else { 2 };
                    let want = GpuError::CrossBlockAccess { addr, block: 2 };
                    assert_eq!(err, want, "{workers} workers");
                    assert!(!err.is_recoverable(), "{err}");
                }
            }
        }
    }

    /// Block `block` (of four, one 32-byte segment each) writes its word if
    /// `writes`; every block fetches word `read_of(block)` through the
    /// texture twice, if any.
    struct TexNeighbours {
        tex: TexRef,
        writes: bool,
        read_of: fn(u32) -> Option<u32>,
    }

    impl BlockKernel for TexNeighbours {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: 0,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            let word = |block: u32| self.tex.base().offset(8 * block as usize);
            if self.writes {
                ctx.write_word(word(ctx.block_idx), ctx.block_idx)?;
            }
            if let Some(other) = (self.read_of)(ctx.block_idx) {
                let access = WarpAccess::run(0, 1, word(other).addr());
                ctx.tex_load(self.tex, &access)?;
                ctx.tex_load(self.tex, &access)?;
            }
            Ok(())
        }
    }

    #[test]
    fn fetching_a_word_another_block_wrote_fails_the_launch() {
        for workers in WORKERS {
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050()).with_host_workers(workers);
            let buf = dev.alloc(64).unwrap();
            let tex = dev.bind_texture(buf, 32);
            let clash = GpuError::CrossBlockAccess {
                addr: buf.addr() + 8,
                block: 2,
            };
            let fetch = |writes| TexNeighbours {
                tex,
                writes,
                read_of: |b| (b == 2).then_some(1),
            };
            let launch = |dev: &mut GpuDevice, writes| dev.launch(&fetch(writes), 4, "clash");
            assert_eq!(
                launch(&mut dev, true).unwrap_err(),
                clash,
                "{workers} workers"
            );
            // Block 2's SM caches the segment in a launch where nobody writes
            // it; in the next one block 1 does, and the hit is still a clash.
            launch(&mut dev, false).unwrap();
            assert_eq!(
                launch(&mut dev, true).unwrap_err(),
                clash,
                "{workers} workers"
            );
        }
    }

    /// Fails (block 1 with an error, block 2 by panicking) or runs
    /// cleanly, per block.
    struct Failing {
        panics: bool,
    }

    impl BlockKernel for Failing {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: 0,
            }
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            match ctx.block_idx {
                1 if !self.panics => Err(GpuError::BadAccess {
                    addr: 1,
                    mem_words: 0,
                }),
                2 => panic!("block 2 gives up"),
                b if b > 2 && !self.panics => Err(GpuError::BadAccess {
                    addr: b as usize,
                    mem_words: 0,
                }),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn a_failed_launch_reports_its_lowest_failing_block() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        for _ in 0..20 {
            let err = dev
                .launch(&Failing { panics: false }, 9, "fail")
                .unwrap_err();
            assert_eq!(
                err,
                GpuError::BadAccess {
                    addr: 1,
                    mem_words: 0
                }
            );
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(&Failing { panics: true }, 9, "panic")
        }))
        .unwrap_err();
        assert_eq!(panicked.downcast_ref::<&str>(), Some(&"block 2 gives up"));
        // The device is usable afterwards.
        let out = dev.alloc(256).unwrap();
        dev.launch(&IotaKernel { out, threads: 64 }, 4, "iota")
            .unwrap();
    }

    #[test]
    fn the_access_log_replays_what_it_logged() {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let pool = Mutex::new(Vec::new());
        let mut log = AccessLog::new(&pool);
        for round in 0..3 {
            // Strided streams interleaved with jumps anywhere.
            let mut streams = [(0usize, 1usize), (900, 4), (40, 0), (1 << 58, 3)];
            let mut logged = Vec::new();
            for _ in 0..20_000 {
                let r = next();
                let reach = [Reach::Load, Reach::Store, Reach::Tex][(r % 3) as usize];
                let line = if r % 11 == 0 {
                    (r >> 8) as usize
                } else {
                    let (at, stride) = &mut streams[(r >> 4) as usize % 4];
                    *at = at.wrapping_add(*stride);
                    *at
                };
                log.push(reach, line);
                logged.push((reach, line));
            }
            let mut replayed = Vec::new();
            log.replay(|reach, line| replayed.push((reach, line)));
            assert_eq!(replayed, logged, "round {round}");
            assert!(log.chunks.is_empty() && !lock(&pool).is_empty());
        }
        // One short-stepping walk per kind: a byte an access.
        for step in 0..30_000usize {
            let reach = [Reach::Load, Reach::Store, Reach::Tex][step % 3];
            log.push(reach, step / 3 * (step % 3 + 1));
        }
        assert_eq!(log.chunks.iter().map(Vec::len).sum::<usize>(), 30_000);
        log.replay(|_, _| {});
    }

    /// Asks for `words` words of shared memory per block.
    struct SharedHungry {
        words: u32,
    }

    impl BlockKernel for SharedHungry {
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                threads_per_block: 32,
                regs_per_thread: 8,
                shared_words: self.words,
            }
        }

        fn run_block(&self, _: &mut BlockCtx<'_>) -> Result<(), GpuError> {
            Ok(())
        }
    }

    #[test]
    fn public_arithmetic_is_checked() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        dev.alloc(64).unwrap();
        assert!(matches!(
            dev.alloc(usize::MAX),
            Err(GpuError::OutOfMemory { .. })
        ));
        let end = DevicePtr(usize::MAX);
        assert!(matches!(
            dev.copy_to_device(end, &[1, 2]),
            Err(GpuError::BadAccess { .. })
        ));
        assert!(matches!(
            dev.copy_from_device(end, 2),
            Err(GpuError::BadAccess { .. })
        ));
        assert!(matches!(
            dev.launch(&SharedHungry { words: 1 << 30 }, 1, "hungry"),
            Err(GpuError::InvalidLaunch { .. })
        ));
    }

    #[test]
    fn allocator_reset_closes_the_stream() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        dev.begin_h2d_stream();
        dev.free_all();
        assert!(!dev.h2d_stream_open());
    }
}
