//! Agent-based clustering (paper §4.2.4-(2), Listing 5, Figure 10), plus
//! its complementary optimizations: CTA throttling (§4.3-(I)) and CTA
//! prefetching over the reshaped order (§4.3-(III)).
//!
//! Instead of tricking the GigaThread engine, this transform circumvents
//! it: the new kernel launches `SMs x MAX_AGENTS` persistent CTAs
//! ("agents"). Each agent reads the physical SM id it landed on (`%smid`
//! — [`CtaContext::sm_id`] in the simulator), binds that SM's cluster,
//! determines its agent id — from the hardware warp slot on static-binding
//! architectures (Fermi/Kepler), or by a global atomic ticket plus
//! shared-memory broadcast on dynamic-binding ones (Maxwell/Pascal, which
//! costs real cycles) — and then serially executes every task `(w, i)` of
//! its cluster with `w ≡ agent_id (mod ACTIVE_AGENTS)`.
//!
//! Spatial inter-CTA locality is exploited between concurrently-running
//! agents of one SM; temporal locality between an agent's consecutive
//! tasks.

use crate::error::ClusterError;
use crate::partition::Partition;
use crate::protocol::{counter_addr, BindingMode, ProtocolSpec, BROADCAST_COST, COUNTER_TAG};
use gpu_sim::{
    occupancy, ArchGen, CacheOp, CtaContext, GpuConfig, KernelSpec, LaunchConfig, MemAccess, Op,
    Program, ProgramBuilder,
};
use std::sync::Arc;

/// Collects the first `depth` L1-cacheable loads of `ops` as
/// non-blocking `PrefetchL1` copies (the reshaped-order prefetch body,
/// §4.3-(III)).
fn collect_prefetches(ops: &[Op], depth: usize, out: &mut Vec<Op>) {
    out.extend(
        ops.iter()
            .filter_map(|op| match op {
                Op::Load(a) if a.cache_op == CacheOp::CacheAll => {
                    Some(Op::Load(a.clone().with_cache_op(CacheOp::PrefetchL1)))
                }
                _ => None,
            })
            .take(depth),
    );
}

/// One task's inner program: replayed from the inner kernel's shared
/// program cache, or generated.
enum TaskOps {
    Replayed(Arc<[Op]>),
    Generated(Program),
}

impl TaskOps {
    fn ops(&self) -> &[Op] {
        match self {
            TaskOps::Replayed(ops) => ops,
            TaskOps::Generated(ops) => ops,
        }
    }

    /// Appends the task to `out` with `prefetches` spliced in before its
    /// last op (bare, for an empty task). Replayed ops stay zero-copy
    /// segments.
    fn push_into(self, out: &mut ProgramBuilder, prefetches: &mut Vec<Op>) {
        let len = self.ops().len();
        let at = if prefetches.is_empty() {
            len
        } else {
            len.saturating_sub(1)
        };
        match self {
            TaskOps::Replayed(ops) => {
                out.push_shared_range(&ops, 0, at);
                prefetches.drain(..).for_each(|p| out.push(p));
                out.push_shared_range(&ops, at, len);
            }
            TaskOps::Generated(mut ops) => {
                ops.splice(at..at, prefetches.drain(..));
                ops.into_iter().for_each(|op| out.push(op));
            }
        }
    }
}

/// A kernel transformed by agent-based clustering.
///
/// # Examples
///
/// ```
/// use cta_clustering::AgentKernel;
/// use gpu_kernels::{MatrixMul, Workload};
/// use gpu_sim::{arch, Simulation};
///
/// let cfg = arch::tesla_k40();
/// let mm = MatrixMul::new(4, 4, 2);
/// let agents = AgentKernel::build(mm, &cfg)?; // Y-partition comes from the builder
/// let stats = Simulation::new(cfg, &agents).run()?;
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AgentKernel<K> {
    inner: K,
    partition: Partition,
    arch: ArchGen,
    num_sms: usize,
    max_agents: u32,
    active_agents: u32,
    prefetch_depth: usize,
}

impl<K: KernelSpec> AgentKernel<K> {
    /// Builds the transform against `cfg` with an explicit partition.
    /// `MAX_AGENTS` is the occupancy bound of the kernel on one SM, and
    /// all agents start active.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ClusterSmMismatch`] unless the partition
    /// has exactly one cluster per SM, and propagates occupancy errors
    /// for unschedulable kernels.
    pub fn with_partition(
        inner: K,
        cfg: &GpuConfig,
        partition: Partition,
    ) -> Result<Self, ClusterError> {
        if partition.num_clusters() != cfg.num_sms as u64 {
            return Err(ClusterError::ClusterSmMismatch {
                clusters: partition.num_clusters(),
                sms: cfg.num_sms,
            });
        }
        if partition.grid() != inner.launch().grid {
            return Err(ClusterError::InvalidPartition(
                "partition grid does not match the kernel grid".into(),
            ));
        }
        let occ = occupancy(cfg, &inner.launch())?;
        Ok(AgentKernel {
            inner,
            partition,
            arch: cfg.arch,
            num_sms: cfg.num_sms,
            max_agents: occ.ctas_per_sm,
            active_agents: occ.ctas_per_sm,
            prefetch_depth: 0,
        })
    }

    /// Builds the transform with the default Y-partition (row-major
    /// indexing) into one cluster per SM.
    ///
    /// # Errors
    ///
    /// Same as [`with_partition`](Self::with_partition).
    pub fn build(inner: K, cfg: &GpuConfig) -> Result<Self, ClusterError> {
        let partition = Partition::y(inner.launch().grid, cfg.num_sms as u64)?;
        Self::with_partition(inner, cfg, partition)
    }

    /// CTA throttling (§4.3-(I)): activates only `active` of the
    /// `MAX_AGENTS` agents per SM. The grid stays at
    /// `SMs x MAX_AGENTS` — surplus agents retire immediately — because
    /// shrinking the grid would let the unbalanced hardware scheduler
    /// starve some SM's cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidThrottle`] unless
    /// `1 <= active <= MAX_AGENTS`.
    pub fn with_active_agents(mut self, active: u32) -> Result<Self, ClusterError> {
        if active == 0 || active > self.max_agents {
            return Err(ClusterError::InvalidThrottle {
                active,
                max: self.max_agents,
            });
        }
        self.active_agents = active;
        Ok(self)
    }

    /// CTA prefetching over the reshaped order (§4.3-(III)): while
    /// executing task `w`, issue non-blocking L1 prefetches for the first
    /// `depth` loads of the agent's *next* task.
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Caps `MAX_AGENTS` below the occupancy bound — the compile-time
    /// `MAX_AGENTS` knob of §4.1, exposed as a DSE axis. The grid
    /// shrinks to `SMs x min(cap, occupancy bound)` and `ACTIVE_AGENTS`
    /// is clamped into the new range.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidThrottle`] when `cap` is zero.
    pub fn with_max_agents(mut self, cap: u32) -> Result<Self, ClusterError> {
        if cap == 0 {
            return Err(ClusterError::InvalidThrottle {
                active: 0,
                max: self.max_agents,
            });
        }
        self.max_agents = self.max_agents.min(cap);
        self.active_agents = self.active_agents.min(self.max_agents);
        Ok(self)
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// `MAX_AGENTS`: occupancy-bounded agents per SM.
    pub fn max_agents(&self) -> u32 {
        self.max_agents
    }

    /// `ACTIVE_AGENTS`: agents that execute tasks after throttling.
    pub fn active_agents(&self) -> u32 {
        self.active_agents
    }

    /// The architecture generation the transform was built against.
    pub fn arch(&self) -> ArchGen {
        self.arch
    }

    /// Tasks (original CTA ids) agent `agent_id` of SM `sm_id` executes,
    /// in order.
    pub fn tasks_of(&self, sm_id: usize, agent_id: u64) -> Vec<u64> {
        let i = sm_id as u64;
        if i >= self.partition.num_clusters() || agent_id >= self.active_agents as u64 {
            return Vec::new();
        }
        let jobs = self.partition.cluster_size(i);
        (agent_id..jobs)
            .step_by(self.active_agents as usize)
            .map(|w| self.partition.invert(w, i))
            .collect()
    }

    /// Architecture-level description of this launch's agent protocol,
    /// for the concurrency verifier (see [`crate::protocol`]).
    pub fn protocol(&self) -> ProtocolSpec {
        ProtocolSpec {
            binding: BindingMode::of(self.arch),
            num_sms: self.num_sms,
            max_agents: self.max_agents,
            active_agents: self.active_agents,
            cluster_sizes: (0..self.partition.num_clusters())
                .map(|i| self.partition.cluster_size(i))
                .collect(),
        }
    }

    /// The agent id a CTA derives at run time: hardware warp-slot based
    /// on static-binding architectures, atomic-ticket based otherwise.
    fn agent_id(&self, ctx: &CtaContext) -> u64 {
        if self.arch.static_warp_slot_binding() {
            ctx.slot as u64
        } else {
            ctx.arrival % self.max_agents as u64
        }
    }

    /// The agent program (Listing 5): the binding prologue, then every
    /// task of the agent's cluster stride, each with the next task's
    /// leading loads prefetched (§4.3-(III)). With `replay`, task
    /// programs the inner kernel serves through
    /// [`KernelSpec::warp_program_arc`] splice in as shared segments (the
    /// engine's path); without it every task is generated, so a static
    /// walk never fills the inner kernel's program cache.
    fn emit(&self, ctx: &CtaContext, warp: u32, out: &mut ProgramBuilder, replay: bool) {
        let agent_id = self.agent_id(ctx);
        let throttled = agent_id >= self.active_agents as u64;
        if self.arch.static_warp_slot_binding() {
            if throttled {
                return; // surplus static agent: empty program
            }
        } else {
            // SM-based binding overhead (Maxwell/Pascal path): thread 0
            // bids on a global atomic, everyone waits on the broadcast.
            if warp == 0 {
                out.push(Op::Atomic(MemAccess::scalar(
                    COUNTER_TAG,
                    counter_addr(ctx.sm_id),
                    4,
                )));
            }
            out.push(Op::Compute(BROADCAST_COST));
            out.push(Op::Barrier);
            if throttled {
                // `if (agent_id >= ACTIVE_AGENTS) return;` after the
                // prologue, so the CTA's barrier stays matched.
                return;
            }
        }
        let task = |cta| {
            let task_ctx = CtaContext { cta, ..*ctx };
            match replay
                .then(|| self.inner.warp_program_arc(&task_ctx, warp))
                .flatten()
            {
                Some(ops) => TaskOps::Replayed(ops),
                None => TaskOps::Generated(self.inner.warp_program(&task_ctx, warp)),
            }
        };
        let tasks = self.tasks_of(ctx.sm_id, agent_id);
        let mut prefetches = Vec::new();
        for (k, &v) in tasks.iter().enumerate() {
            if self.prefetch_depth > 0 {
                if let Some(&next) = tasks.get(k + 1) {
                    collect_prefetches(task(next).ops(), self.prefetch_depth, &mut prefetches);
                }
            }
            task(v).push_into(out, &mut prefetches);
        }
    }
}

impl<K: KernelSpec> KernelSpec for AgentKernel<K> {
    fn name(&self) -> String {
        format!(
            "CLU[{}]x{}/{}",
            self.inner.name(),
            self.active_agents,
            self.max_agents
        )
    }

    fn launch(&self) -> LaunchConfig {
        // Grid = SM * MAX_AGENTS linear CTAs; block and per-CTA resources
        // inherited from the original kernel.
        let inner = self.inner.launch();
        LaunchConfig::new(self.num_sms as u32 * self.max_agents, inner.block)
            .with_regs(inner.regs_per_thread)
            .with_smem(inner.smem_per_cta)
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let mut out = ProgramBuilder::default();
        self.emit(ctx, warp, &mut out, false);
        out.into_ops()
    }

    fn warp_program_build(&self, ctx: &CtaContext, warp: u32, out: &mut ProgramBuilder) {
        self.emit(ctx, warp, out, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, Dim3, Simulation};

    /// Probe kernel whose single load encodes the executing original CTA.
    #[derive(Debug, Clone)]
    struct Probe {
        grid: Dim3,
    }

    impl KernelSpec for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(self.grid, 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![Op::Load(MemAccess::scalar(0, ctx.cta * 4, 4))]
        }
    }

    #[test]
    fn grid_is_sms_times_max_agents() {
        let cfg = arch::gtx570(); // 15 SMs, 8 CTA slots
        let probe = Probe {
            grid: Dim3::linear(480),
        };
        let a = AgentKernel::build(probe, &cfg).unwrap();
        assert_eq!(a.max_agents(), 8);
        assert_eq!(a.launch().num_ctas(), 15 * 8);
    }

    #[test]
    fn tasks_cover_the_original_grid_exactly_once() {
        let cfg = arch::gtx570();
        let probe = Probe {
            grid: Dim3::plane(16, 10),
        };
        let a = AgentKernel::build(probe, &cfg).unwrap();
        let mut all: Vec<u64> = Vec::new();
        for sm in 0..cfg.num_sms {
            for agent in 0..a.active_agents() as u64 {
                all.extend(a.tasks_of(sm, agent));
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..160).collect::<Vec<_>>());
    }

    #[test]
    fn throttling_redistributes_not_drops() {
        let cfg = arch::tesla_k40();
        let probe = Probe {
            grid: Dim3::plane(8, 8),
        };
        let a = AgentKernel::build(probe, &cfg)
            .unwrap()
            .with_active_agents(2)
            .unwrap();
        let mut all: Vec<u64> = Vec::new();
        for sm in 0..cfg.num_sms {
            for agent in 0..16 {
                all.extend(a.tasks_of(sm, agent));
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        // Agents beyond the throttle run nothing.
        assert!(a.tasks_of(0, 2).is_empty());
    }

    #[test]
    fn invalid_throttle_rejected() {
        let cfg = arch::gtx570();
        let probe = Probe {
            grid: Dim3::linear(64),
        };
        let a = AgentKernel::build(probe, &cfg).unwrap();
        assert!(matches!(
            a.clone().with_active_agents(0),
            Err(ClusterError::InvalidThrottle { .. })
        ));
        assert!(a.with_active_agents(9).is_err());
    }

    #[test]
    fn cluster_count_must_match_sms() {
        let cfg = arch::gtx570();
        let probe = Probe {
            grid: Dim3::linear(64),
        };
        let partition = Partition::y(Dim3::linear(64), 10).unwrap();
        assert!(matches!(
            AgentKernel::with_partition(probe, &cfg, partition),
            Err(ClusterError::ClusterSmMismatch {
                clusters: 10,
                sms: 15
            })
        ));
    }

    #[test]
    fn every_original_cta_executes_exactly_once_end_to_end() {
        // Run through the full simulator and verify, via the trace, that
        // the agent kernel touches the same address set as the original.
        let cfg = arch::gtx980(); // dynamic binding path
        let probe = Probe {
            grid: Dim3::plane(10, 8),
        };
        let a = AgentKernel::build(probe.clone(), &cfg).unwrap();

        let mut sink = gpu_sim::VecSink::new();
        Simulation::new(cfg.clone(), &a)
            .run_traced(&mut sink)
            .unwrap();
        let mut touched: Vec<u64> = sink
            .events
            .iter()
            .filter(|e| e.tag == 0)
            .map(|e| e.addrs[0] / 4)
            .collect();
        touched.sort_unstable();
        assert_eq!(touched, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_binding_pays_atomic_overhead() {
        let cfg_maxwell = arch::gtx980();
        let cfg_kepler = arch::tesla_k40();
        let probe = Probe {
            grid: Dim3::linear(128),
        };
        let am = AgentKernel::build(probe.clone(), &cfg_maxwell).unwrap();
        let ak = AgentKernel::build(probe, &cfg_kepler).unwrap();
        let sm_stats = Simulation::new(cfg_maxwell, &am).run().unwrap();
        let k_stats = Simulation::new(cfg_kepler, &ak).run().unwrap();
        assert!(
            sm_stats.memory.l2_atomic_txns > 0,
            "Maxwell agents bid via atomics"
        );
        assert_eq!(
            k_stats.memory.l2_atomic_txns, 0,
            "Kepler agents read warp slots"
        );
    }

    /// Probe that serves its programs as shared slices (the cross-variant
    /// program-cache path), with multi-op bodies so prefetch splicing has
    /// interior structure to preserve.
    #[derive(Debug, Clone)]
    struct ArcProbe {
        grid: Dim3,
    }

    impl KernelSpec for ArcProbe {
        fn name(&self) -> String {
            "arc-probe".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(self.grid, 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            vec![
                Op::Load(MemAccess::scalar(0, (ctx.cta * 2 + warp as u64) * 4, 4)),
                Op::Compute(3),
                Op::Load(MemAccess::scalar(1, 0x1000 + ctx.cta * 4, 4)),
            ]
        }
        fn warp_program_arc(&self, ctx: &CtaContext, warp: u32) -> Option<std::sync::Arc<[Op]>> {
            Some(self.warp_program(ctx, warp).into())
        }
    }

    /// The one generator must emit the same op sequence whether it
    /// replays cached task programs (`warp_program_build`) or generates
    /// them (`warp_program`) — across static (Kepler) and dynamic
    /// (Maxwell) binding, prefetch off/on, throttled and active agents,
    /// and inner kernels with and without shared programs.
    #[test]
    fn builder_path_matches_generated_program() {
        let grid = Dim3::plane(8, 8);
        for cfg in [arch::tesla_k40(), arch::gtx980()] {
            for depth in [0usize, 1, 2] {
                let kernels: Vec<Box<dyn KernelSpec>> = vec![
                    Box::new(
                        AgentKernel::build(ArcProbe { grid }, &cfg)
                            .unwrap()
                            .with_active_agents(2)
                            .unwrap()
                            .with_prefetch(depth),
                    ),
                    Box::new(
                        AgentKernel::build(Probe { grid }, &cfg)
                            .unwrap()
                            .with_active_agents(2)
                            .unwrap()
                            .with_prefetch(depth),
                    ),
                ];
                for a in &kernels {
                    // Slot/arrival 0 and 1: active agents; 3: throttled on
                    // both binding modes (active_agents = 2).
                    for id in [0u64, 1, 3] {
                        let ctx = CtaContext {
                            cta: id,
                            sm_id: 2,
                            slot: id as u32,
                            arrival: id,
                            num_sms: cfg.num_sms,
                        };
                        for warp in 0..2 {
                            let mut b = ProgramBuilder::default();
                            a.warp_program_build(&ctx, warp, &mut b);
                            assert_eq!(
                                b.into_ops(),
                                a.warp_program(&ctx, warp),
                                "kernel {} ctx {id} warp {warp} depth {depth}",
                                a.name(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_inserts_nonblocking_loads() {
        let cfg = arch::tesla_k40();
        let probe = Probe {
            grid: Dim3::linear(128),
        };
        let a = AgentKernel::build(probe, &cfg).unwrap().with_prefetch(1);
        let ctx = CtaContext {
            cta: 0,
            sm_id: 0,
            slot: 0,
            arrival: 0,
            num_sms: cfg.num_sms,
        };
        let prog = a.warp_program(&ctx, 0);
        let prefetches = prog
            .iter()
            .filter(|op| matches!(op, Op::Load(a) if a.cache_op == CacheOp::PrefetchL1))
            .count();
        // One prefetch per task except the last.
        let tasks = a.tasks_of(0, 0).len();
        assert_eq!(prefetches, tasks - 1);
    }
}
