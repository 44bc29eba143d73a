//! The inter-CTA locality-aware optimization framework (paper §4.4,
//! Figure 11).
//!
//! The framework estimates a kernel's locality source with coarse probes,
//! decides whether its inter-CTA locality is exploitable, and assembles
//! the matching transform stack:
//!
//! * exploitable (algorithm / cache-line) → agent-based clustering along
//!   the better partition axis, plus CTA throttling and bypassing of
//!   streaming arrays;
//! * unexploitable (data / write / streaming) → clustering used only to
//!   *reshape the CTA order*, enabling cross-CTA prefetching.

use crate::agent::AgentKernel;
use crate::bypass::BypassKernel;
use crate::error::ClusterError;
use crate::partition::Partition;
use locality::{
    Category, CategoryProfiler, ReuseProfiler, ReuseSummary, Signature, TagReuseProfiler,
};

use gpu_sim::{occupancy, AccessEvent, ArrayTag, GpuConfig, KernelSpec, Simulation, TraceSink};

/// Clamps a requested `ACTIVE_AGENTS` into the valid throttle range
/// `1..=max_agents`.
///
/// This is the single source of truth for how out-of-range throttle
/// requests are repaired: [`Framework::apply`] clamps plans through it
/// instead of trusting callers, and the `cta-analyzer` `CL026` lint
/// reports exactly the values this function would change. Keeping both
/// sides on one function guarantees the static verdict and the runtime
/// behaviour agree.
pub fn clamp_active_agents(active: u32, max_agents: u32) -> u32 {
    active.clamp(1, max_agents.max(1))
}

/// The partition axis selected by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// X-partitioning (column-major indexing).
    X,
    /// Y-partitioning (row-major indexing).
    Y,
}

impl Axis {
    /// Builds the corresponding partition for `grid` into `clusters`.
    pub fn partition(self, grid: gpu_sim::Dim3, clusters: u64) -> Result<Partition, ClusterError> {
        match self {
            Axis::X => Partition::x(grid, clusters),
            Axis::Y => Partition::y(grid, clusters),
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Axis::X => "X-P",
            Axis::Y => "Y-P",
        })
    }
}

/// Everything the probes learned about a kernel.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Detected locality-source category (Figure 4).
    pub category: Category,
    /// Raw signature metrics behind the categorization.
    pub signature: Signature,
    /// Word-granularity reuse summary (Figure 3 shares).
    pub reuse: ReuseSummary,
    /// The partition axis whose redirection probe reduced L2 traffic
    /// most.
    pub axis: Axis,
    /// Array tags whose accesses showed no reuse (bypass candidates).
    pub streaming_tags: Vec<ArrayTag>,
    /// L2 transactions of the baseline probe (denominator for later
    /// comparisons).
    pub baseline_l2: u64,
}

/// Cross-CTA prefetch depth of plans over unexploitable locality: the
/// `PFH+TOT` variant prefetches this many loads of each agent's next
/// task.
pub const PREFETCH_DEPTH: usize = 2;

/// The optimization decision (Figure 5 / Figure 11 output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Detected category.
    pub category: Category,
    /// Chosen partition axis.
    pub axis: Axis,
    /// Whether clustering targets locality (exploitable) or merely
    /// reshapes order (unexploitable).
    pub exploit_locality: bool,
    /// Active agents per SM (`None` = all of `MAX_AGENTS`).
    pub active_agents: Option<u32>,
    /// Arrays to bypass around the L1.
    pub bypass: Vec<ArrayTag>,
    /// Cross-CTA prefetch depth (0 = off).
    pub prefetch: usize,
}

impl Plan {
    /// Figure 5's decision table: a plan over exploitable locality
    /// clusters for it and bypasses the `streaming` arrays around the
    /// L1; any other plan only reshapes the CTA order, bypasses nothing
    /// and prefetches [`PREFETCH_DEPTH`] loads ahead.
    pub fn for_category(
        category: Category,
        axis: Axis,
        active_agents: Option<u32>,
        streaming: Vec<ArrayTag>,
    ) -> Plan {
        let exploit = category.exploitable();
        Plan {
            category,
            axis,
            exploit_locality: exploit,
            active_agents,
            bypass: if exploit { streaming } else { Vec::new() },
            prefetch: if exploit { 0 } else { PREFETCH_DEPTH },
        }
    }
}

/// Fan-out sink feeding several profilers from one traced run.
struct ProbeSinks {
    category: CategoryProfiler,
    reuse: ReuseProfiler,
    tags: TagReuseProfiler,
}

impl TraceSink for ProbeSinks {
    fn record(&mut self, e: &AccessEvent<'_>) {
        self.category.record(e);
        self.reuse.record(e);
        self.tags.record(e);
    }
}

/// The automatic optimization framework, bound to a target GPU.
#[derive(Debug, Clone)]
pub struct Framework {
    cfg: GpuConfig,
    /// Candidate throttling degrees tried by [`tune_throttle`]
    /// (clamped to `MAX_AGENTS`).
    throttle_candidates: Vec<u32>,
}

impl Framework {
    /// Creates a framework targeting `cfg`.
    pub fn new(cfg: GpuConfig) -> Self {
        Framework {
            cfg,
            throttle_candidates: vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32],
        }
    }

    /// The target GPU.
    pub fn gpu(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The occupancy-derived `MAX_AGENTS` bound for `kernel` on this
    /// GPU — the upper limit every `ACTIVE_AGENTS` request is validated
    /// against.
    ///
    /// # Errors
    ///
    /// Propagates occupancy errors for unschedulable kernels.
    pub fn max_agents_for<K>(&self, kernel: &K) -> Result<u32, ClusterError>
    where
        K: KernelSpec + ?Sized,
    {
        Ok(occupancy(&self.cfg, &kernel.launch())?.ctas_per_sm)
    }

    /// Runs the categorization probes on `kernel` (Figure 11, blue
    /// stages): one traced baseline run plus one redirection probe per
    /// axis.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures as [`ClusterError::Sim`].
    pub fn analyze<K>(&self, kernel: &K) -> Result<Analysis, ClusterError>
    where
        K: KernelSpec + Clone,
    {
        let mut sinks = ProbeSinks {
            category: CategoryProfiler::new(),
            reuse: ReuseProfiler::new(),
            tags: TagReuseProfiler::new(),
        };
        let baseline = Simulation::new(self.cfg.clone(), kernel).run_traced(&mut sinks)?;

        // Axis probe: impose each clustering order and compare L2
        // traffic. Agent-based probes are used because they impose the
        // order reliably under any scheduler; the paper's cheaper
        // redirection probe needs reduced problem sizes and an RR-friendly
        // moment to be trustworthy. (Reduced problem sizes remain the
        // caller's concern; the probes run the kernel as given.)
        let m = self.cfg.num_sms as u64;
        let grid = kernel.launch().grid;
        let mut best = (Axis::Y, u64::MAX);
        for axis in [Axis::Y, Axis::X] {
            let partition = axis.partition(grid, m)?;
            let probe = AgentKernel::with_partition(kernel.clone(), &self.cfg, partition)?;
            let stats = Simulation::new(self.cfg.clone(), &probe).run()?;
            if stats.l2_transactions() < best.1 {
                best = (axis, stats.l2_transactions());
            }
        }

        let streaming_tags: Vec<ArrayTag> = sinks.tags.streaming_tags();

        let category = sinks.category.classify();
        if let Some(obs) = cta_obs::maybe_global() {
            let name = kernel.name();
            obs.counter("framework/classified", &format!("{name}/{category:?}"), 1);
            obs.counter("framework/axis", &format!("{name}/{:?}", best.0), 1);
            sinks.reuse.record_obs(obs, &name);
        }

        Ok(Analysis {
            category,
            signature: sinks.category.signature(),
            reuse: sinks.reuse.summary(),
            axis: best.0,
            streaming_tags,
            baseline_l2: baseline.l2_transactions(),
        })
    }

    /// Runs only the bypass probe of the Figure 11 flow: one traced
    /// baseline with the per-tag reuse profiler, returning the streaming
    /// arrays worth routing around the L1. Exactly the
    /// [`Analysis::streaming_tags`] field [`analyze`](Self::analyze)
    /// would produce (the tag profiler observes the same deterministic
    /// stream), at one simulation instead of three and one sink instead
    /// of three — for callers like the benchmark harness that derive the
    /// axis and category elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures as [`ClusterError::Sim`].
    pub fn streaming_tags<K>(&self, kernel: &K) -> Result<Vec<ArrayTag>, ClusterError>
    where
        K: KernelSpec,
    {
        let mut tags = TagReuseProfiler::new();
        Simulation::new(self.cfg.clone(), kernel).run_traced(&mut tags)?;
        Ok(tags.streaming_tags())
    }

    /// [`streaming_tags`](Self::streaming_tags) computed by statically
    /// walking the warp programs ([`locality::static_trace`]) instead of
    /// simulating them.
    ///
    /// Produces the *same* tag set as the traced probe: the selection
    /// reads only each tag's total word accesses and reuse count, and
    /// both totals are order-independent functions of the access
    /// multiset (`reuses = accesses - distinct words`). The timing
    /// model never changes which accesses execute, so enumerating the
    /// warp programs feeds the profiler the same multiset the engine's
    /// trace would — at program-generation cost, with no cache or
    /// latency simulation. `probe_equivalence` pins the equality
    /// per-app; the figure byte-diffs pin it matrix-wide.
    ///
    /// Only valid for kernels without prefetch ops (the static trace
    /// skips `PrefetchL1` loads, the engine traces them): the harness
    /// probes the *baseline* kernel, which has none.
    pub fn streaming_tags_static<K>(&self, kernel: &K) -> Vec<ArrayTag>
    where
        K: KernelSpec + ?Sized,
    {
        let mut tags = TagReuseProfiler::new();
        locality::static_trace(kernel, &self.cfg, &mut tags);
        tags.streaming_tags()
    }

    /// Derives the optimization plan from an analysis (Figure 5). The
    /// throttle is left open (`None`): tuned separately or seeded from
    /// Table 2.
    pub fn plan(&self, analysis: &Analysis) -> Plan {
        Plan::for_category(
            analysis.category,
            analysis.axis,
            None,
            analysis.streaming_tags.clone(),
        )
    }

    /// Sweeps throttling degrees for the planned agent kernel and
    /// returns the cycle-optimal `ACTIVE_AGENTS` (the paper's dynamic
    /// CTA-voting stand-in).
    ///
    /// # Errors
    ///
    /// Propagates construction and simulation failures.
    pub fn tune_throttle<K>(&self, kernel: &K, plan: &Plan) -> Result<u32, ClusterError>
    where
        K: KernelSpec + Clone,
    {
        let partition = plan
            .axis
            .partition(kernel.launch().grid, self.cfg.num_sms as u64)?;
        let base = AgentKernel::with_partition(kernel.clone(), &self.cfg, partition)?;
        let max = base.max_agents();
        let mut best = (max, u64::MAX);
        let mut candidates: Vec<u32> = self
            .throttle_candidates
            .iter()
            .copied()
            .filter(|&c| c <= max)
            .collect();
        if !candidates.contains(&max) {
            candidates.push(max);
        }
        for active in candidates {
            let throttled = base.clone().with_active_agents(active)?;
            let stats = Simulation::new(self.cfg.clone(), &throttled).run()?;
            if stats.cycles < best.1 {
                best = (active, stats.cycles);
            }
        }
        Ok(best.0)
    }

    /// Assembles the transformed kernel according to `plan`.
    ///
    /// An out-of-range `plan.active_agents` is not trusted: it is
    /// repaired through [`clamp_active_agents`] against the
    /// occupancy-derived `MAX_AGENTS` (the same rule the `cta-analyzer`
    /// `CL026` lint reports on), so a plan tuned for one architecture
    /// degrades gracefully instead of failing on another.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (cluster/SM mismatch, occupancy).
    pub fn apply<K>(&self, kernel: K, plan: &Plan) -> Result<Box<dyn KernelSpec>, ClusterError>
    where
        K: KernelSpec + Clone + 'static,
    {
        let partition = plan
            .axis
            .partition(kernel.launch().grid, self.cfg.num_sms as u64)?;
        let bypassed = BypassKernel::new(kernel, plan.bypass.clone());
        let mut agents = AgentKernel::with_partition(bypassed, &self.cfg, partition)?;
        if let Some(active) = plan.active_agents {
            let clamped = clamp_active_agents(active, agents.max_agents());
            agents = agents.with_active_agents(clamped)?;
        }
        if plan.prefetch > 0 {
            agents = agents.with_prefetch(plan.prefetch);
        }
        Ok(Box::new(agents))
    }

    /// One-shot pipeline: analyze, plan, tune throttling, apply.
    ///
    /// # Errors
    ///
    /// Propagates any probe or construction failure.
    pub fn optimize<K>(&self, kernel: K) -> Result<(Box<dyn KernelSpec>, Plan), ClusterError>
    where
        K: KernelSpec + Clone + 'static,
    {
        let analysis = self.analyze(&kernel)?;
        let mut plan = self.plan(&analysis);
        if plan.exploit_locality {
            plan.active_agents = Some(self.tune_throttle(&kernel, &plan)?);
        }
        let transformed = self.apply(kernel, &plan)?;
        Ok((transformed, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Op, Program};

    /// Algorithm-flavoured probe: all CTAs of a grid row share a table.
    #[derive(Debug, Clone)]
    struct RowShared;

    impl KernelSpec for RowShared {
        fn name(&self) -> String {
            "row-shared".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::plane(8, 16), 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            let (bx, by, _) = self.launch().grid.coords_row_major(ctx.cta);
            vec![
                // Shared across the row (indexed by `by`).
                Op::Load(MemAccess::coalesced(0, by as u64 * 512, 32, 4)),
                Op::Load(MemAccess::coalesced(0, by as u64 * 512 + 128, 32, 4)),
                // Private stream.
                Op::Load(MemAccess::coalesced(
                    1,
                    (1 << 32) + (ctx.cta * 2 + warp as u64) * 128 * 8 + bx as u64,
                    32,
                    4,
                )),
            ]
        }
    }

    /// Pure streaming probe.
    #[derive(Debug, Clone)]
    struct Stream;

    impl KernelSpec for Stream {
        fn name(&self) -> String {
            "stream".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(64), 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            let base = (ctx.cta * 2 + warp as u64) * 128;
            vec![
                Op::Load(MemAccess::coalesced(0, base, 32, 4)),
                Op::Store(MemAccess::coalesced(1, (1 << 33) + base, 32, 4)),
            ]
        }
    }

    #[test]
    fn detects_algorithm_and_picks_y_axis() {
        let fw = Framework::new(arch::gtx570());
        let analysis = fw.analyze(&RowShared).unwrap();
        assert_eq!(analysis.category, Category::Algorithm);
        assert_eq!(analysis.axis, Axis::Y);
        assert!(analysis.streaming_tags.contains(&1));
        assert!(!analysis.streaming_tags.contains(&0));
        let plan = fw.plan(&analysis);
        assert!(plan.exploit_locality);
        assert_eq!(plan.prefetch, 0);
    }

    #[test]
    fn streaming_gets_prefetch_plan() {
        let fw = Framework::new(arch::gtx980());
        let analysis = fw.analyze(&Stream).unwrap();
        assert_eq!(analysis.category, Category::Streaming);
        let plan = fw.plan(&analysis);
        assert!(!plan.exploit_locality);
        assert_eq!(plan.prefetch, 2);
        assert!(plan.bypass.is_empty());
    }

    #[test]
    fn probe_equivalence() {
        // The static walk must select exactly the tags the traced probe
        // selects — the harness's bypass variant depends on the equality.
        for cfg in [arch::gtx570(), arch::gtx980()] {
            let fw = Framework::new(cfg);
            for (name, dynamic, stat) in [
                (
                    "row-shared",
                    fw.streaming_tags(&RowShared).unwrap(),
                    fw.streaming_tags_static(&RowShared),
                ),
                (
                    "stream",
                    fw.streaming_tags(&Stream).unwrap(),
                    fw.streaming_tags_static(&Stream),
                ),
            ] {
                assert_eq!(dynamic, stat, "{name} on {}", fw.gpu().name);
            }
        }
    }

    #[test]
    fn apply_builds_runnable_kernel() {
        let fw = Framework::new(arch::tesla_k40());
        let (optimized, plan) = fw.optimize(RowShared).unwrap();
        assert!(plan.exploit_locality);
        let stats = Simulation::new(arch::tesla_k40(), &optimized)
            .run()
            .unwrap();
        // All original work executed: same number of shared+private loads.
        assert!(stats.instructions > 0);
    }

    #[test]
    fn apply_clamps_out_of_range_throttle() {
        let fw = Framework::new(arch::gtx570());
        let max = fw.max_agents_for(&RowShared).unwrap();
        let analysis = fw.analyze(&RowShared).unwrap();
        let mut plan = fw.plan(&analysis);
        // A plan tuned on a bigger GPU must degrade gracefully, not fail.
        plan.active_agents = Some(max + 100);
        let k = fw.apply(RowShared, &plan).unwrap();
        assert!(k.name().contains(&format!("x{max}/{max}")));
        // Zero is repaired up to one active agent.
        plan.active_agents = Some(0);
        let k = fw.apply(RowShared, &plan).unwrap();
        assert!(k.name().contains(&format!("x1/{max}")));
    }

    #[test]
    fn clamp_matches_analyzer_rule() {
        assert_eq!(clamp_active_agents(0, 8), 1);
        assert_eq!(clamp_active_agents(5, 8), 5);
        assert_eq!(clamp_active_agents(9, 8), 8);
        assert_eq!(clamp_active_agents(3, 0), 1);
    }

    #[test]
    fn tune_throttle_returns_valid_degree() {
        let fw = Framework::new(arch::gtx570());
        let analysis = fw.analyze(&RowShared).unwrap();
        let plan = fw.plan(&analysis);
        let best = fw.tune_throttle(&RowShared, &plan).unwrap();
        assert!(best >= 1);
        assert!(best <= 8);
    }
}
