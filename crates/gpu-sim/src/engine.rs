//! The discrete-event simulation engine.
//!
//! Each SM issues at most one warp instruction per cycle, picking the
//! ready warp with the earliest readiness (a greedy loose-round-robin
//! scheduler). Memory instructions walk the L1-sector → L2-bank → DRAM
//! hierarchy, mutating cache state at issue time and blocking the warp
//! until the slowest transaction returns, so latency hiding across warps
//! emerges naturally. SMs advance in global time order through a binary
//! heap, which keeps the shared L2/DRAM state causally consistent.
//!
//! The engine is event-driven end to end: SMs expose their earliest wake
//! time through per-SM lazily-cleaned heaps ([`SmState`]), the runner's
//! global heap orders SMs by that time, and each step jumps the SM's
//! issue clock straight to the event instead of polling idle cycles.
//! [`EngineMetrics`] counts the events, issues and skipped cycles so the
//! bench harness can assert the engine's conservation laws (every
//! dispatched warp retires; every retired CTA is polled for exactly one
//! replacement; issues equal retired instructions).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::{Cache, CacheStats, ReadOutcome, SetProfile, WriteOutcome};
use crate::coalesce::coalesce_lines_into;
use crate::config::GpuConfig;
use crate::error::SimError;
use crate::kernel::{CacheOp, CtaContext, KernelSpec, MemAccess, Op};
use crate::memory::{Level, MemorySystem};
use crate::occupancy::occupancy;
use crate::program::{Cursor, ProgramBuilder};
use crate::sched::{CtaScheduler, HardwareLike};
use crate::sm::{ResidentCta, SmState, WarpState};
use crate::stats::{CtaPlacement, RunStats};
use crate::trace::{AccessEvent, TraceSink};
use crate::work::WorkModel;

/// Cycles between a CTA retiring and the GigaThread engine dispatching a
/// replacement into the freed slot.
const DISPATCH_LATENCY: u64 = 25;
/// Default deterministic seed for the hardware-like scheduler.
const DEFAULT_SEED: u64 = 0xC1A0_0017;

cta_obs::counters! {
    /// Engine-internal event accounting for one run. Purely observational:
    /// the counters never feed back into simulated behavior, so metered and
    /// unmetered runs produce identical [`RunStats`].
    ///
    /// The fields obey conservation laws the harness checks in CI:
    /// `issues == RunStats::instructions`, `warp_retires ==
    /// warps_dispatched`, and `dispatch_polls == cta_retires ==
    /// placements.len()` (every freed CTA slot is polled exactly once).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineMetrics {
        /// SM wake events processed (one per engine step).
        pub events: u64,
        /// Warp instructions issued.
        pub issues: u64,
        /// Idle cycles the issue clocks jumped over instead of polling:
        /// `Σ (event_time - sm_clock)` at issue, the cycles a cycle-stepped
        /// engine would have spun through.
        pub cycles_skipped: u64,
        /// Warps that entered an SM with a non-empty program.
        pub warps_dispatched: u64,
        /// Warps that ran their program to completion.
        pub warp_retires: u64,
        /// CTAs retired (equals the number of placements reported).
        pub cta_retires: u64,
        /// GigaThread dispatch polls consumed from freed CTA slots.
        pub dispatch_polls: u64,
        /// Deterministic work-model counters: the algorithmic work behind the
        /// wall time (coalescer paths, tag-scan chunks, victim scans, heap
        /// ops). See [`WorkModel`]. A section of its own: `record_obs`
        /// exports it under `work/…`, and `counters()` leaves it out.
        pub work: WorkModel => "work/",
    }
}

impl EngineMetrics {
    /// Checks the engine's conservation laws against the finished run,
    /// returning the first violated law as `Err(description)`.
    ///
    /// # Errors
    ///
    /// A static description of the violated law — which would indicate an
    /// engine bug (lost warp, double-counted issue, leaked CTA slot).
    pub fn check_conservation(&self, stats: &RunStats) -> Result<(), &'static str> {
        if self.issues != stats.instructions {
            return Err("issues != instructions");
        }
        if self.warp_retires != self.warps_dispatched {
            return Err("warp_retires != warps_dispatched");
        }
        if self.cta_retires != stats.placements.len() as u64 {
            return Err("cta_retires != placements");
        }
        if self.dispatch_polls != self.cta_retires {
            return Err("dispatch_polls != cta_retires");
        }
        self.work.check_conservation()
    }
}

/// Configures and runs one kernel launch on one simulated GPU.
///
/// # Examples
///
/// ```
/// use gpu_sim::{arch, Simulation, LaunchConfig, KernelSpec, CtaContext, Program, Op, MemAccess};
///
/// struct Stream;
/// impl KernelSpec for Stream {
///     fn name(&self) -> String { "stream".into() }
///     fn launch(&self) -> LaunchConfig { LaunchConfig::new(64u32, 64u32) }
///     fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
///         let base = (ctx.cta * 2 + warp as u64) * 128;
///         vec![Op::Load(MemAccess::coalesced(0, base, 32, 4))]
///     }
/// }
///
/// let stats = Simulation::new(arch::gtx980(), &Stream).run()?;
/// assert!(stats.cycles > 0);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
pub struct Simulation<'k> {
    cfg: GpuConfig,
    kernel: &'k dyn KernelSpec,
    scheduler: Box<dyn CtaScheduler + 'k>,
    /// Enable per-set L1 profiling for the next run (set transiently by
    /// [`Simulation::run_profiled`]).
    profile_l1: bool,
}

impl<'k> std::fmt::Debug for Simulation<'k> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("gpu", &self.cfg.name)
            .field("kernel", &self.kernel.name())
            .field("scheduler", &self.scheduler.label())
            .finish()
    }
}

impl<'k> Simulation<'k> {
    /// Creates a simulation of `kernel` on `cfg` with the default
    /// hardware-like CTA scheduler.
    pub fn new(cfg: GpuConfig, kernel: &'k dyn KernelSpec) -> Self {
        Simulation {
            cfg,
            kernel,
            scheduler: Box::new(HardwareLike::new(DEFAULT_SEED)),
            profile_l1: false,
        }
    }

    /// Replaces the CTA-scheduler model (builder style).
    pub fn with_scheduler(mut self, scheduler: Box<dyn CtaScheduler + 'k>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Runs the kernel to completion.
    ///
    /// # Errors
    ///
    /// Propagates configuration/launch validation failures and runtime
    /// [`SimError`]s (barrier deadlock, scheduler starvation).
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        self.run_impl(None).map(|(stats, _, _)| stats)
    }

    /// Runs the kernel, forwarding every global-memory access to `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> Result<RunStats, SimError> {
        self.run_impl(Some(sink)).map(|(stats, _, _)| stats)
    }

    /// Runs the kernel and additionally returns the engine's event
    /// accounting. The stats are identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_metered(&mut self) -> Result<(RunStats, EngineMetrics), SimError> {
        self.run_impl(None)
            .map(|(stats, metrics, _)| (stats, metrics))
    }

    /// [`run_traced`](Self::run_traced) plus engine event accounting.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced_metered(
        &mut self,
        sink: &mut dyn TraceSink,
    ) -> Result<(RunStats, EngineMetrics), SimError> {
        self.run_impl(Some(sink))
            .map(|(stats, metrics, _)| (stats, metrics))
    }

    /// [`run_metered`](Self::run_metered) with per-set L1 profiling
    /// enabled, additionally returning the device-wide [`SetProfile`]
    /// (counters summed, installed-tag footprints unioned across every
    /// SM's sector arrays). The [`RunStats`] are identical to an
    /// unprofiled run — profiling observes, it never steers.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_profiled(&mut self) -> Result<(RunStats, EngineMetrics, SetProfile), SimError> {
        self.profile_l1 = true;
        let out = self.run_impl(None);
        self.profile_l1 = false;
        out.map(|(stats, metrics, profile)| {
            (
                stats,
                metrics,
                profile.expect("profiled run yields a profile"),
            )
        })
    }

    fn run_impl<'s>(
        &'s mut self,
        sink: Option<&'s mut dyn TraceSink>,
    ) -> Result<(RunStats, EngineMetrics, Option<SetProfile>), SimError> {
        self.cfg.validate()?;
        let launch = self.kernel.launch();
        launch.validate()?;
        let occ = occupancy(&self.cfg, &launch)?;
        let mut runner = Runner {
            cfg: &self.cfg,
            kernel: self.kernel,
            scheduler: &mut *self.scheduler,
            warps_per_cta: launch.warps_per_cta(self.cfg.warp_size),
            max_ctas: occ.ctas_per_sm,
            sms: Vec::new(),
            mem: MemorySystem::new(&self.cfg),
            sink,
            instructions: 0,
            horizon: 0,
            placements: Vec::new(),
            line_buf: Vec::with_capacity(64),
            program_pool: Vec::new(),
            metrics: EngineMetrics::default(),
            profile_l1: self.profile_l1,
        };
        runner.run(launch.num_ctas())
    }
}

/// What a memory op does, after cache-operator resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Load,
    Store,
    Atomic,
}

struct Runner<'a> {
    cfg: &'a GpuConfig,
    kernel: &'a dyn KernelSpec,
    scheduler: &'a mut (dyn CtaScheduler + 'a),
    warps_per_cta: u32,
    max_ctas: u32,
    sms: Vec<SmState>,
    mem: MemorySystem,
    sink: Option<&'a mut dyn TraceSink>,
    instructions: u64,
    horizon: u64,
    placements: Vec<CtaPlacement>,
    /// Scratch for the coalescer: one buffer reused by every memory
    /// instruction of the run instead of a fresh `Vec` per access.
    line_buf: Vec<u64>,
    /// Retired warps' inline program buffers, recycled into the next
    /// dispatch via [`ProgramBuilder::with_buffer`].
    program_pool: Vec<Vec<Op>>,
    metrics: EngineMetrics,
    /// Enable per-set profiling on every L1 sector array at construction.
    profile_l1: bool,
}

impl<'a> Runner<'a> {
    fn run(
        &mut self,
        total_ctas: u64,
    ) -> Result<(RunStats, EngineMetrics, Option<SetProfile>), SimError> {
        self.scheduler.reset(total_ctas);
        self.sms = (0..self.cfg.num_sms)
            .map(|i| SmState::new(i, self.cfg, self.max_ctas, self.warps_per_cta))
            .collect();
        if self.profile_l1 {
            for sm in &mut self.sms {
                sm.enable_l1_set_profile();
            }
        }

        // Initial fill: one CTA per SM per round, like the GigaThread
        // engine's first-turnaround round-robin sweep.
        loop {
            let mut dispatched_any = false;
            for sm in 0..self.cfg.num_sms {
                if self.try_dispatch(sm, 0) {
                    dispatched_any = true;
                }
            }
            if !dispatched_any {
                break;
            }
        }

        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for sm in &mut self.sms {
            if let Some(t) = sm.next_event() {
                let id = sm.id;
                heap.push(Reverse((t, id)));
                self.metrics.work.sm_heap_pushes += 1;
            }
        }

        while let Some(Reverse((t, sm_id))) = heap.pop() {
            let mut t_event = match self.sms[sm_id].next_event() {
                None => continue, // stale entry; SM went idle
                Some(actual) if actual > t => {
                    heap.push(Reverse((actual, sm_id)));
                    self.metrics.work.sm_heap_pushes += 1;
                    continue;
                }
                Some(actual) => actual,
            };
            // Step the popped SM for as long as it stays strictly ahead
            // of every queued SM in the heap's `(time, sm)` order — a
            // run of back-to-back events on one SM (the common case at
            // high occupancy) costs one heap pop, not one per event.
            loop {
                self.metrics.events += 1;
                self.step(sm_id, t_event)?;
                let Some(next) = self.sms[sm_id].next_event() else {
                    break;
                };
                if let Some(&Reverse(top)) = heap.peek() {
                    if (next, sm_id) >= top {
                        heap.push(Reverse((next, sm_id)));
                        self.metrics.work.sm_heap_pushes += 1;
                        break;
                    }
                }
                t_event = next;
            }
        }

        if self.scheduler.remaining() > 0 {
            return Err(SimError::SchedulerStarved {
                remaining: self.scheduler.remaining(),
            });
        }

        let stats = self.finish();
        for sm in &self.sms {
            self.metrics.work.ready_heap_pushes += sm.heap_pushes;
            for c in &sm.l1_sectors {
                self.metrics.work.l1.absorb(&c.work());
            }
        }
        self.metrics.work.l2.absorb(&self.mem.l2_work());
        let profile = if self.profile_l1 {
            let mut merged: Option<SetProfile> = None;
            for sm in &self.sms {
                if let Some(p) = sm.l1_set_profile() {
                    match &mut merged {
                        Some(m) => m.absorb(&p),
                        None => merged = Some(p),
                    }
                }
            }
            merged
        } else {
            None
        };
        Ok((stats, self.metrics, profile))
    }

    /// Attempts to dispatch one CTA into the lowest free slot of `sm_id`.
    fn try_dispatch(&mut self, sm_id: usize, now: u64) -> bool {
        let Some(slot) = self.sms[sm_id].free_slot() else {
            return false;
        };
        let Some(cta) = self.scheduler.next_for_sm(sm_id, now) else {
            return false;
        };
        let ctx = CtaContext {
            cta,
            sm_id,
            slot,
            arrival: self.sms[sm_id].dispatch_count,
            num_sms: self.cfg.num_sms,
        };
        let wpc = self.warps_per_cta;
        let mut live = 0u32;
        for w in 0..wpc {
            let buf = self.program_pool.pop().unwrap_or_default();
            let mut builder = ProgramBuilder::with_buffer(buf);
            self.kernel.warp_program_build(&ctx, w, &mut builder);
            let (program, spare) = builder.finish();
            if let Some(buf) = spare {
                self.program_pool.push(buf);
            }
            if program.is_empty() {
                program.recycle(&mut self.program_pool);
                continue;
            }
            live += 1;
            let idx = (slot * wpc + w) as usize;
            self.sms[sm_id].warps[idx] = Some(WarpState {
                cta_slot: slot,
                warp: w,
                program,
                pc: 0,
                cursor: Cursor::default(),
                ready_at: now,
                at_barrier: false,
            });
            self.sms[sm_id].wake(now, idx as u32);
        }
        self.metrics.warps_dispatched += live as u64;
        let sm = &mut self.sms[sm_id];
        sm.dispatch_count += 1;
        sm.ctas[slot as usize] = Some(ResidentCta {
            cta,
            warps_total: wpc,
            warps_done: wpc - live,
            barrier_count: 0,
            dispatched: now,
        });
        sm.account_warps(now, live as i64);
        if live == 0 {
            // Fully-throttled agent: retires immediately.
            self.retire_cta(sm_id, slot, now);
        }
        true
    }

    fn retire_cta(&mut self, sm_id: usize, slot: u32, now: u64) {
        let sm = &mut self.sms[sm_id];
        let resident = sm.ctas[slot as usize]
            .take()
            .expect("retiring a resident CTA");
        self.placements.push(CtaPlacement {
            cta: resident.cta,
            sm_id,
            slot,
            dispatched: resident.dispatched,
            retired: now,
        });
        self.horizon = self.horizon.max(now);
        self.metrics.cta_retires += 1;
        sm.heap_pushes += 1;
        sm.pending_dispatch.push(Reverse(now + DISPATCH_LATENCY));
    }

    /// Releases the barrier of the CTA in `slot` if every live warp has
    /// arrived.
    fn maybe_release_barrier(&mut self, sm_id: usize, slot: u32, now: u64) {
        let wpc = self.warps_per_cta;
        let sm = &mut self.sms[sm_id];
        let Some(cta) = sm.ctas[slot as usize].as_mut() else {
            return;
        };
        if cta.barrier_count == 0 || cta.barrier_count + cta.warps_done < cta.warps_total {
            return;
        }
        cta.barrier_count = 0;
        let mut finished: Vec<usize> = Vec::new();
        for w in 0..wpc {
            let idx = (slot * wpc + w) as usize;
            let Some(ws) = sm.warps[idx].as_mut() else {
                continue;
            };
            if !ws.at_barrier {
                continue;
            }
            ws.at_barrier = false;
            ws.ready_at = now + 1;
            if ws.pc >= ws.program.len() {
                finished.push(idx);
            } else {
                sm.heap_pushes += 1;
                sm.ready.push(Reverse((now + 1, idx as u32)));
            }
        }
        for idx in finished {
            self.retire_warp(sm_id, idx, now + 1);
        }
    }

    fn retire_warp(&mut self, sm_id: usize, warp_idx: usize, now: u64) {
        let sm = &mut self.sms[sm_id];
        let ws = sm.warps[warp_idx].take().expect("retiring a live warp");
        sm.account_warps(now, -1);
        self.horizon = self.horizon.max(now);
        self.metrics.warp_retires += 1;
        let slot = ws.cta_slot;
        ws.program.recycle(&mut self.program_pool);
        let done = {
            let cta = sm.ctas[slot as usize]
                .as_mut()
                .expect("warp belongs to a resident CTA");
            cta.warps_done += 1;
            cta.warps_done == cta.warps_total
        };
        if done {
            self.retire_cta(sm_id, slot, now);
        } else {
            self.maybe_release_barrier(sm_id, slot, now);
        }
    }

    /// One engine step for `sm_id` at its next event time `t_event`
    /// (the caller just computed it via [`SmState::next_event`]; passing
    /// it in avoids recomputing the heap minimum).
    fn step(&mut self, sm_id: usize, t_event: u64) -> Result<(), SimError> {
        // Dispatch polls that have come due. Drain order within one event
        // cannot matter: every due poll dispatches at the same clamped
        // time, and the scheduler hands out CTAs per-SM in sequence.
        while let Some(&Reverse(due)) = self.sms[sm_id].pending_dispatch.peek() {
            if due > t_event {
                break;
            }
            self.sms[sm_id].pending_dispatch.pop();
            self.metrics.dispatch_polls += 1;
            self.try_dispatch(sm_id, due.max(t_event));
        }

        let next = self.sms[sm_id].next_issuable();
        // Every path below invalidates the peeked wake entry — the warp
        // issues (new `ready_at`), parks at a barrier, or retires — so
        // popping it now saves the stale-entry check it would otherwise
        // cost on the next heap cleaning.
        if next.is_some() {
            self.sms[sm_id].ready.pop();
        }
        let Some((ready, warp_idx)) = next else {
            // Only barrier-parked warps remain: with uniform per-CTA
            // programs this cannot happen, so it indicates a malformed
            // kernel.
            if let Some(slot) = self.sms[sm_id]
                .ctas
                .iter()
                .position(|c| c.as_ref().is_some_and(|c| c.barrier_count > 0))
            {
                let cta = self.sms[sm_id].ctas[slot]
                    .as_ref()
                    .expect("checked above")
                    .cta;
                return Err(SimError::BarrierDeadlock { cta, sm_id });
            }
            return Ok(());
        };

        // A warp whose program is exhausted retires at its readiness time
        // (covers loads still in flight) without consuming an issue slot.
        {
            let ws = self.sms[sm_id].warps[warp_idx]
                .as_ref()
                .expect("issuable warp");
            if ws.pc >= ws.program.len() {
                self.retire_warp(sm_id, warp_idx, ready);
                return Ok(());
            }
        }

        let t = ready.max(self.sms[sm_id].clock);
        self.metrics.cycles_skipped += t - self.sms[sm_id].clock;
        self.sms[sm_id].clock = t + 1;
        self.instructions += 1;
        self.metrics.issues += 1;
        self.horizon = self.horizon.max(t + 1);

        // Split-borrow the SM so the warp, the L1 sectors and the shared
        // memory system can be used together.
        let sm = &mut self.sms[sm_id];
        let SmState {
            warps,
            l1_sectors,
            lsu_free,
            bypassed_reads,
            ..
        } = sm;
        let ws = warps[warp_idx].as_mut().expect("issuable warp");
        let slot = ws.cta_slot;
        let sector = (slot as usize) % l1_sectors.len();
        let op = ws.program.op_at(ws.cursor);
        ws.cursor = ws.program.advance(ws.cursor);
        ws.pc += 1;

        enum Outcome {
            Ready(u64),
            Barrier,
        }
        let outcome = match op {
            Op::Compute(c) => Outcome::Ready(t + 1 + *c as u64),
            Op::Barrier => Outcome::Barrier,
            Op::Load(a) | Op::Store(a) | Op::Atomic(a) => {
                let kind = match op {
                    Op::Load(_) => AccessKind::Load,
                    Op::Store(_) => AccessKind::Store,
                    _ => AccessKind::Atomic,
                };
                let (latency, served) = resolve_access(
                    self.cfg,
                    l1_sectors,
                    &mut self.mem,
                    lsu_free,
                    bypassed_reads,
                    a,
                    kind,
                    sector,
                    t,
                    &mut self.line_buf,
                    &mut self.metrics.work,
                );
                if let Some(sink) = self.sink.as_deref_mut() {
                    let cta = sm.ctas[slot as usize].as_ref().expect("resident").cta;
                    sink.record(&AccessEvent {
                        time: t,
                        sm_id,
                        slot,
                        cta,
                        warp: ws.warp,
                        tag: a.tag,
                        is_write: kind == AccessKind::Store,
                        is_atomic: kind == AccessKind::Atomic,
                        bytes_per_lane: a.bytes_per_lane,
                        addrs: &a.addrs,
                        latency,
                        served_by: served,
                    });
                }
                Outcome::Ready(t + latency)
            }
        };

        match outcome {
            Outcome::Ready(ready_at) => {
                ws.ready_at = ready_at;
                self.horizon = self.horizon.max(ready_at);
                sm.heap_pushes += 1;
                sm.ready.push(Reverse((ready_at, warp_idx as u32)));
            }
            Outcome::Barrier => {
                ws.at_barrier = true;
                ws.ready_at = t + 1;
                let cta = sm.ctas[slot as usize].as_mut().expect("resident");
                cta.barrier_count += 1;
                self.maybe_release_barrier(sm_id, slot, t);
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> RunStats {
        let cycles = self.horizon.max(1);
        let mut l1 = CacheStats::default();
        let mut occ_integral = 0u64;
        let mut ctas_per_sm = Vec::with_capacity(self.sms.len());
        let mut per_sm_l1 = Vec::with_capacity(self.sms.len());
        let mut l1_bypass_per_sm = Vec::with_capacity(self.sms.len());
        for sm in &mut self.sms {
            sm.account_warps(cycles, 0);
            occ_integral += sm.occ_integral;
            let sm_l1 = sm.l1_stats();
            l1.absorb(&sm_l1);
            per_sm_l1.push(sm_l1);
            l1_bypass_per_sm.push(sm.bypassed_reads);
            ctas_per_sm.push(sm.dispatch_count);
        }
        let achieved_occupancy = occ_integral as f64
            / (cycles as f64 * self.cfg.warp_slots as f64 * self.cfg.num_sms as f64);
        self.placements
            .sort_by_key(|p| (p.dispatched, p.sm_id, p.slot));
        RunStats {
            kernel: self.kernel.name(),
            gpu: self.cfg.name.clone(),
            cycles,
            instructions: self.instructions,
            l1,
            per_sm_l1,
            l1_bypass_per_sm,
            l2: self.mem.l2_cache_stats(),
            memory: self.mem.stats,
            achieved_occupancy,
            ctas_per_sm,
            max_ctas_per_sm: self.max_ctas,
            placements: std::mem::take(&mut self.placements),
        }
    }
}

/// Claims the next load/store-unit slot at or after `t`: the LSU replays
/// the transactions of one warp access at one line per cycle.
fn lsu_slot(lsu_free: &mut u64, t: u64) -> u64 {
    let slot = t.max(*lsu_free);
    *lsu_free = slot + 1;
    slot
}

/// Resolves one warp-wide memory access against the hierarchy, returning
/// `(warp-visible latency, deepest serving level)`.
///
/// `line_buf` is caller-owned coalescer scratch, reused across every
/// access of the run.
#[allow(clippy::too_many_arguments)]
fn resolve_access(
    cfg: &GpuConfig,
    l1_sectors: &mut [Cache],
    mem: &mut MemorySystem,
    lsu_free: &mut u64,
    bypassed_reads: &mut u64,
    access: &MemAccess,
    kind: AccessKind,
    sector: usize,
    t: u64,
    line_buf: &mut Vec<u64>,
    work: &mut WorkModel,
) -> (u64, Level) {
    match kind {
        AccessKind::Store => {
            // Write-evict at L1 (when cached there), then forward the
            // touched L2 lines down. Stores retire through the write
            // buffer without blocking the warp.
            if cfg.l1_enabled && access.cache_op == CacheOp::CacheAll {
                work.note_shape(coalesce_lines_into(access, cfg.l1.line_bytes, line_buf));
                let l1 = &mut l1_sectors[sector];
                for &line in line_buf.iter() {
                    match l1.write(line, t) {
                        WriteOutcome::AllocateMiss { .. } => {
                            // Write-allocate fetch-on-write: the claimed
                            // way is in flight (`fill_done == u64::MAX`)
                            // until this fill lands, exactly like a load
                            // miss; without it a later read of the line
                            // would wait forever on the reservation.
                            let chunks = cfg.l2_txns_per_l1_miss() as u64;
                            let slot = lsu_slot(lsu_free, t);
                            let mut fill = slot;
                            for c in 0..chunks {
                                let chunk = line + c * cfg.l2.line_bytes as u64;
                                let (d, _) = mem.read_line(chunk, slot);
                                fill = fill.max(d);
                            }
                            l1.fill(line, fill);
                        }
                        WriteOutcome::Absorbed | WriteOutcome::Forwarded { .. } => {}
                    }
                }
            }
            work.note_shape(coalesce_lines_into(access, cfg.l2.line_bytes, line_buf));
            for &line in line_buf.iter() {
                let slot = lsu_slot(lsu_free, t);
                mem.write_line(line, slot);
            }
            (1, Level::L2)
        }
        AccessKind::Atomic => {
            work.note_shape(coalesce_lines_into(access, cfg.l2.line_bytes, line_buf));
            let mut done = t + 1;
            let mut level = Level::L2;
            for &line in line_buf.iter() {
                let slot = lsu_slot(lsu_free, t);
                let (d, l) = mem.atomic_line(line, slot);
                done = done.max(d);
                level = level.max(l);
            }
            (done - t, level)
        }
        AccessKind::Load => {
            let bypass = access.cache_op == CacheOp::BypassL1 || !cfg.l1_enabled;
            let (latency, level) = if bypass {
                work.note_shape(coalesce_lines_into(access, cfg.l2.line_bytes, line_buf));
                *bypassed_reads += line_buf.len() as u64;
                let mut done = t;
                let mut level = Level::L2;
                for &line in line_buf.iter() {
                    let slot = lsu_slot(lsu_free, t);
                    let (d, l) = mem.read_line(line, slot);
                    done = done.max(d);
                    level = level.max(l);
                }
                (done - t, level)
            } else {
                work.note_shape(coalesce_lines_into(access, cfg.l1.line_bytes, line_buf));
                let l1 = &mut l1_sectors[sector];
                let mut done = t + cfg.timings.l1_hit as u64;
                let mut level = Level::L1;
                let mut stall = 0u64;
                for &line in line_buf.iter() {
                    let slot = lsu_slot(lsu_free, t);
                    match l1.read(line, slot) {
                        ReadOutcome::Hit => {
                            done = done.max(slot + cfg.timings.l1_hit as u64);
                        }
                        ReadOutcome::HitReserved { ready_at } => {
                            done = done.max(ready_at);
                            level = level.max(Level::L2);
                        }
                        ReadOutcome::Miss { mshr_wait, .. } => {
                            // Fetch the whole L1 line in L2-line chunks
                            // (one 128B L1 miss = four 32B L2 transactions).
                            // Requests enter the L2 at their LSU slot time;
                            // an MSHR structural stall delays the warp's
                            // data return instead (replay model).
                            let chunks = cfg.l2_txns_per_l1_miss() as u64;
                            let mut fill = slot;
                            for c in 0..chunks {
                                let chunk = line + c * cfg.l2.line_bytes as u64;
                                let (d, l) = mem.read_line(chunk, slot);
                                fill = fill.max(d);
                                level = level.max(l);
                            }
                            stall = stall.max(mshr_wait);
                            l1.fill(line, fill);
                            done = done.max(fill);
                        }
                    }
                }
                (done - t + stall, level)
            };
            if access.cache_op == CacheOp::PrefetchL1 {
                // Fire-and-forget: the fill proceeds, the warp does not wait.
                (1, level)
            } else {
                (latency, level)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::dim::Dim3;
    use crate::kernel::{LaunchConfig, Program};
    use crate::sched::StrictRoundRobin;
    use crate::trace::VecSink;

    /// Every CTA's single warp loads the same shared line, then its own.
    struct SharedLine;
    impl KernelSpec for SharedLine {
        fn name(&self) -> String {
            "shared-line".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(60u32, 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(1, 0x10_0000 + ctx.cta * 128, 32, 4)),
            ]
        }
    }

    #[test]
    fn carved_arrays_without_whole_sets_are_an_error() {
        // 1 KiB is 32 ways of 32 B lines, but each of the GTX980's two
        // 512 B L1 sector arrays holds zero sets.
        let mut cfg = arch::gtx980();
        cfg.l1.size_bytes = 1024;
        cfg.l1.associativity = 32;
        cfg.l1
            .validate("L1")
            .expect("the whole array holds one set");
        assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));
        let err = Simulation::new(cfg, &SharedLine).run().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let mut sim = Simulation::new(arch::gtx570(), &SharedLine);
        let stats = sim.run().unwrap();
        assert_eq!(stats.placements.len(), 60);
        assert_eq!(stats.instructions, 120);
        assert!(stats.cycles > arch::gtx570().timings.dram as u64);
        // Every CTA dispatched exactly once across SMs.
        let total: u64 = stats.ctas_per_sm.iter().sum();
        assert_eq!(total, 60);
        // The shared line gives L1 or L2 reuse: far fewer DRAM reads than
        // total line touches.
        assert!(stats.memory.dram_reads < 4 * 60 + 8);
    }

    #[test]
    fn metered_run_obeys_conservation_laws() {
        let mut sim = Simulation::new(arch::gtx570(), &SharedLine);
        let (stats, metrics) = sim.run_metered().unwrap();
        metrics.check_conservation(&stats).unwrap();
        assert_eq!(metrics.issues, stats.instructions);
        assert_eq!(metrics.warps_dispatched, 60);
        assert_eq!(metrics.cta_retires, 60);
        // Memory-bound single-warp CTAs leave long idle gaps the engine
        // must jump over rather than poll through.
        assert!(metrics.cycles_skipped > 0);
        assert!(metrics.events >= metrics.issues + metrics.warp_retires);
        // Metered and plain runs simulate identically.
        let plain = Simulation::new(arch::gtx570(), &SharedLine).run().unwrap();
        assert_eq!(plain, stats);
    }

    #[test]
    fn strict_rr_places_cta_modulo_sm() {
        let cfg = arch::gtx570();
        let mut sim = Simulation::new(cfg.clone(), &SharedLine)
            .with_scheduler(Box::new(StrictRoundRobin::new()));
        let stats = sim.run().unwrap();
        for cta in 0..15u64 {
            assert_eq!(stats.sm_of(cta), Some(cta as usize % cfg.num_sms));
        }
    }

    #[test]
    fn trace_sink_sees_all_accesses() {
        let mut sink = VecSink::new();
        let mut sim = Simulation::new(arch::gtx980(), &SharedLine);
        let stats = sim.run_traced(&mut sink).unwrap();
        assert_eq!(sink.events.len() as u64, stats.instructions);
        assert!(sink.events.iter().all(|e| !e.is_write));
        assert!(sink.events.iter().any(|e| e.tag == 1));
    }

    /// A two-warp CTA with a barrier between two loads.
    struct WithBarrier;
    impl KernelSpec for WithBarrier {
        fn name(&self) -> String {
            "with-barrier".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(8u32, 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            vec![
                Op::Load(MemAccess::coalesced(
                    0,
                    (ctx.cta * 2 + warp as u64) * 128,
                    32,
                    4,
                )),
                Op::Barrier,
                Op::Compute(10),
                Op::Barrier,
                Op::Store(MemAccess::coalesced(
                    1,
                    0x20_0000 + (ctx.cta * 2 + warp as u64) * 128,
                    32,
                    4,
                )),
            ]
        }
    }

    #[test]
    fn barriers_release_and_kernel_finishes() {
        let stats = Simulation::new(arch::tesla_k40(), &WithBarrier)
            .run()
            .unwrap();
        assert_eq!(stats.placements.len(), 8);
        assert!(stats.memory.l2_write_txns > 0);
    }

    /// Warps disagree on barrier count. Real hardware releases a barrier
    /// once all *live* (non-exited) threads arrive, so this still
    /// completes; the engine follows that semantics.
    struct UnevenBarriers;
    impl KernelSpec for UnevenBarriers {
        fn name(&self) -> String {
            "uneven-barriers".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(1u32, 64u32)
        }
        fn warp_program(&self, _ctx: &CtaContext, warp: u32) -> Program {
            if warp == 0 {
                vec![Op::Barrier, Op::Compute(1), Op::Barrier]
            } else {
                vec![Op::Barrier]
            }
        }
    }

    #[test]
    fn uneven_barriers_release_after_warp_exit() {
        let stats = Simulation::new(arch::gtx570(), &UnevenBarriers)
            .run()
            .unwrap();
        assert_eq!(stats.placements.len(), 1);
    }

    /// Temporal reuse: the second turnaround of CTAs on an SM hits in L1.
    struct TwoTurnarounds;
    impl KernelSpec for TwoTurnarounds {
        fn name(&self) -> String {
            "two-turnarounds".into()
        }
        fn launch(&self) -> LaunchConfig {
            // Fermi: 8 CTA slots/SM, 15 SMs -> 240 CTAs = 2 turnarounds.
            LaunchConfig::new(240u32, 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            // Every CTA on the same SM reads the same per-SM line.
            vec![Op::Load(MemAccess::scalar(0, ctx.sm_id as u64 * 4096, 4))]
        }
    }

    #[test]
    fn temporal_inter_cta_reuse_hits_l1() {
        let stats = Simulation::new(arch::gtx570(), &TwoTurnarounds)
            .run()
            .unwrap();
        // 240 loads; at most ~15 compulsory misses (one per SM) plus a few
        // hit-reserved. Everything else must be an L1 hit.
        assert!(stats.l1.read_hits + stats.l1.read_reserved >= 240 - 16);
        assert!(stats.l1_hit_rate() > 0.9);
    }

    #[test]
    fn bypass_loads_skip_l1() {
        struct Bypass;
        impl KernelSpec for Bypass {
            fn name(&self) -> String {
                "bypass".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(4u32, 32u32)
            }
            fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
                vec![Op::Load(
                    MemAccess::coalesced(0, ctx.cta * 128, 32, 4).with_cache_op(CacheOp::BypassL1),
                )]
            }
        }
        let stats = Simulation::new(arch::gtx570(), &Bypass).run().unwrap();
        assert_eq!(stats.l1.reads, 0);
        assert!(stats.memory.l2_read_txns > 0);
    }

    #[test]
    fn disabled_l1_serves_from_l2() {
        let cfg = arch::gtx570().with_l1_disabled();
        let stats = Simulation::new(cfg, &SharedLine).run().unwrap();
        assert_eq!(stats.l1.reads, 0);
        assert!(stats.memory.l2_read_txns >= 120);
    }

    #[test]
    fn empty_programs_retire_immediately() {
        struct Empty;
        impl KernelSpec for Empty {
            fn name(&self) -> String {
                "empty".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(32u32, 32u32)
            }
            fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
                Vec::new()
            }
        }
        let stats = Simulation::new(arch::gtx570(), &Empty).run().unwrap();
        assert_eq!(stats.placements.len(), 32);
        assert_eq!(stats.instructions, 0);
    }

    #[test]
    fn achieved_occupancy_in_unit_range() {
        let stats = Simulation::new(arch::gtx1080(), &WithBarrier)
            .run()
            .unwrap();
        assert!(stats.achieved_occupancy > 0.0);
        assert!(stats.achieved_occupancy <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || Simulation::new(arch::gtx980(), &SharedLine).run().unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.placements, b.placements);
    }

    /// All CTAs read one shared line; on a sectored L1 the two CTA-slot
    /// sectors each take their own miss (no cross-sector reuse,
    /// paper §5.2-(6)-(2)).
    struct OneLine;
    impl KernelSpec for OneLine {
        fn name(&self) -> String {
            "one-line".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(32u32, 32u32)
        }
        fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
            vec![Op::Load(MemAccess::scalar(0, 0, 4)), Op::Compute(500)]
        }
    }

    #[test]
    fn sectored_l1_blocks_cross_sector_reuse() {
        // Maxwell: 2 sectors. Per SM, both sectors must miss once, so
        // misses ~= 2 per SM; on single-sector Fermi, ~1 per SM.
        let m = Simulation::new(arch::gtx980(), &OneLine).run().unwrap();
        let f = Simulation::new(arch::gtx570(), &OneLine).run().unwrap();
        let m_sms = m
            .placements
            .iter()
            .map(|p| p.sm_id)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        let f_sms = f
            .placements
            .iter()
            .map(|p| p.sm_id)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        assert!(
            m.l1.read_misses >= 2 * m_sms,
            "Maxwell misses {} for {} SMs",
            m.l1.read_misses,
            m_sms
        );
        assert!(
            f.l1.read_misses <= f_sms + 2,
            "Fermi misses {} for {} SMs",
            f.l1.read_misses,
            f_sms
        );
    }

    #[test]
    fn prefetch_is_nonblocking_and_fills_l1() {
        struct PrefetchThenLoad;
        impl KernelSpec for PrefetchThenLoad {
            fn name(&self) -> String {
                "prefetch-then-load".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(1u32, 32u32)
            }
            fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
                vec![
                    Op::Load(MemAccess::coalesced(0, 0, 32, 4).with_cache_op(CacheOp::PrefetchL1)),
                    Op::Compute(2000), // plenty of time for the fill
                    Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                ]
            }
        }
        let cfg = arch::gtx570();
        let mut sink = VecSink::new();
        let stats = Simulation::new(cfg.clone(), &PrefetchThenLoad)
            .run_traced(&mut sink)
            .unwrap();
        // The prefetch itself reports latency 1 (fire-and-forget).
        assert_eq!(sink.events[0].latency, 1);
        // The demand load afterwards hits in L1.
        assert!(
            sink.events[1].latency <= cfg.timings.l1_hit as u64 + 2,
            "demand load latency {}",
            sink.events[1].latency
        );
        assert!(stats.l1.read_hits >= 1);
    }

    #[test]
    fn grid_smaller_than_gpu() {
        struct Tiny;
        impl KernelSpec for Tiny {
            fn name(&self) -> String {
                "tiny".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(Dim3::linear(2), 32u32)
            }
            fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
                vec![Op::Load(MemAccess::scalar(0, ctx.cta * 64, 4))]
            }
        }
        let stats = Simulation::new(arch::gtx1080(), &Tiny).run().unwrap();
        assert_eq!(stats.placements.len(), 2);
    }

    /// Segment-delivered programs execute identically to owned ones: a
    /// kernel that hands the engine a shared `Arc<[Op]>` must produce the
    /// same stats as one generating the same ops per warp.
    struct SharedProgram(std::sync::Arc<[Op]>);
    impl KernelSpec for SharedProgram {
        fn name(&self) -> String {
            "shared-line".into() // same name: stats must be identical
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(60u32, 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            SharedLine.warp_program(ctx, warp)
        }
        fn warp_program_arc(&self, ctx: &CtaContext, _warp: u32) -> Option<std::sync::Arc<[Op]>> {
            // Only CTA 0's program is position-independent here; deliver
            // it shared and let every other CTA fall back to generation.
            (ctx.cta == 0).then(|| self.0.clone())
        }
    }

    #[test]
    fn shared_segments_match_owned_programs() {
        let cta0: std::sync::Arc<[Op]> = vec![
            Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
            Op::Load(MemAccess::coalesced(1, 0x10_0000, 32, 4)),
        ]
        .into();
        let owned = Simulation::new(arch::gtx570(), &SharedLine).run().unwrap();
        let shared = Simulation::new(arch::gtx570(), &SharedProgram(cta0))
            .run()
            .unwrap();
        assert_eq!(owned, shared);
    }
}
