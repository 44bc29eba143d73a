//! Shared harness machinery: the optimization variants of Figure 12/13
//! and the code that runs a workload under each of them.
//!
//! The evaluation of one app decomposes into simulations described by
//! [`SimRequest`]s. [`AppPlan`] owns everything a request needs (kernel
//! handle, configured GPU, hinted partition, agent template);
//! [`AppPlan::evaluate`] runs the requests in the Figure 12 order and
//! assembles the [`AppEvaluation`], and [`AppPlan::run_metered`] is the
//! one way to run a request. [`crate::par`] runs one evaluation per app
//! on worker threads.

use cta_clustering::{
    AgentKernel, Axis, BypassKernel, ClusterError, Framework, Partition, RedirectionKernel,
    PREFETCH_DEPTH,
};
use gpu_kernels::{PartitionHint, Workload};
use gpu_sim::{
    ArrayTag, CtaContext, GpuConfig, KernelSpec, LaunchConfig, Op, Program, RunStats, Simulation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Cross-variant program cache: one [`Arc<[Op]>`] per `(cta, warp)` of
/// the original grid, filled on first request and replayed zero-copy by
/// every variant of both evaluation phases. Suite programs depend only
/// on the CTA id and warp index (pinned by
/// `suite_programs_are_context_independent`), so a single canonical
/// context serves all SMs, slots, and arrival orders.
#[derive(Debug)]
struct ProgramCache {
    warps_per_cta: u32,
    slots: Box<[OnceLock<Arc<[Op]>>]>,
    hits: AtomicU64,
    fills: AtomicU64,
}

impl ProgramCache {
    fn new(launch: &LaunchConfig, warp_size: u32) -> ProgramCache {
        let wpc = launch.warps_per_cta(warp_size.max(1));
        let n = (launch.num_ctas() as usize).saturating_mul(wpc as usize);
        ProgramCache {
            warps_per_cta: wpc,
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            fills: AtomicU64::new(0),
        }
    }

    /// The cached program of `(ctx.cta, warp)`, generating it under the
    /// canonical context on first touch. Out-of-range requests (a warp
    /// size smaller than the sizing default, probing past the grid)
    /// return `None` and fall back to direct generation.
    fn get_or_fill(&self, w: &dyn Workload, ctx: &CtaContext, warp: u32) -> Option<Arc<[Op]>> {
        if warp >= self.warps_per_cta {
            return None;
        }
        let idx = (ctx.cta as usize).checked_mul(self.warps_per_cta as usize)? + warp as usize;
        let slot = self.slots.get(idx)?;
        let mut filled = false;
        let arc = slot.get_or_init(|| {
            filled = true;
            let canonical = CtaContext {
                sm_id: 0,
                slot: 0,
                arrival: 0,
                ..*ctx
            };
            w.warp_program(&canonical, warp).into()
        });
        // `get_or_init` runs the closure on exactly one thread per slot,
        // so fills == distinct programs and hits == calls - fills: both
        // are functions of the request set alone, independent of thread
        // count or scheduling — safe for the deterministic JSONL export.
        if filled {
            self.fills.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(Arc::clone(arc))
    }
}

/// Warp width the cache is sized with when no GPU is in scope (every
/// Table 1 preset uses 32). A run with a narrower warp only loses cache
/// coverage (`get_or_fill` bails out), never correctness.
const DEFAULT_WARP_SIZE: u32 = 32;

/// A cloneable handle to a boxed workload, so the clustering transforms
/// (which need `Clone`) can wrap suite entries. Backed by `Arc` so the
/// handle can cross thread boundaries in the parallel harness.
///
/// The handle also owns the per-app `ProgramCache`: every clone — and
/// therefore every transform wrapping one — serves warp programs from
/// the same shared arena through [`KernelSpec::warp_program_arc`].
#[derive(Clone)]
pub struct SharedKernel {
    inner: Arc<dyn Workload>,
    cache: Arc<ProgramCache>,
}

impl SharedKernel {
    /// Wraps a suite workload, sizing the program cache for the default
    /// warp width.
    pub fn new(w: Box<dyn Workload>) -> Self {
        let inner: Arc<dyn Workload> = Arc::from(w);
        let cache = Arc::new(ProgramCache::new(&inner.launch(), DEFAULT_WARP_SIZE));
        SharedKernel { inner, cache }
    }

    /// The workload's Table 2 metadata.
    pub fn info(&self) -> gpu_kernels::WorkloadInfo {
        self.inner.info()
    }

    /// `(hits, fills)` of the program cache so far.
    pub fn cache_counters(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.fills.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for SharedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedKernel({})", self.inner.name())
    }
}

impl KernelSpec for SharedKernel {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn launch(&self) -> LaunchConfig {
        self.inner.launch()
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        self.inner.warp_program(ctx, warp)
    }
    fn warp_program_arc(&self, ctx: &CtaContext, warp: u32) -> Option<Arc<[Op]>> {
        self.cache.get_or_fill(&*self.inner, ctx, warp)
    }
}

/// The evaluated configurations, matching the series of Figures 12/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `BSL` — unmodified kernel under the default scheduler.
    Baseline,
    /// `RD` — redirection-based clustering.
    Redirection,
    /// `CLU` — agent-based clustering, all agents active.
    Clustering,
    /// `CLU+TOT` — agent-based clustering at the optimal throttling
    /// degree (selected by sweep, as the paper's dynamic voting does).
    ClusteringThrottled,
    /// `CLU+TOT+BPS` — adds L1 bypassing of streaming arrays.
    ClusteringThrottledBypass,
    /// `PFH+TOT` — clustering used only to reshape the CTA order,
    /// plus cross-CTA prefetching (the path for apps without
    /// exploitable inter-CTA locality).
    PrefetchThrottled,
}

impl Variant {
    /// The paper's series label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "BSL",
            Variant::Redirection => "RD",
            Variant::Clustering => "CLU",
            Variant::ClusteringThrottled => "CLU+TOT",
            Variant::ClusteringThrottledBypass => "CLU+TOT+BPS",
            Variant::PrefetchThrottled => "PFH+TOT",
        }
    }

    /// All variants in figure order.
    pub const ALL: [Variant; 6] = [
        Variant::Baseline,
        Variant::Redirection,
        Variant::Clustering,
        Variant::ClusteringThrottled,
        Variant::ClusteringThrottledBypass,
        Variant::PrefetchThrottled,
    ];
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The partition axis a Table 2 hint names.
pub fn hinted_axis(hint: PartitionHint) -> Axis {
    match hint {
        PartitionHint::X => Axis::X,
        PartitionHint::Y => Axis::Y,
    }
}

/// The partition the workload's Table 2 hint selects.
pub fn hinted_partition(kernel: &SharedKernel, cfg: &GpuConfig) -> Partition {
    hinted_axis(kernel.info().partition)
        .partition(kernel.launch().grid, cfg.num_sms as u64)
        .expect("suite grids are partitionable")
}

/// One simulation of an app's evaluation. Requests carry no references
/// into their plan, so a `(plan, request)` pair is self-contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimRequest {
    /// The unmodified kernel.
    Baseline,
    /// Redirection-based clustering.
    Redirection,
    /// Agent-based clustering, all agents active.
    Clustering,
    /// Agent-based clustering throttled to `n` active agents.
    Throttled(u32),
    /// Throttled clustering plus L1 bypassing, at `n` active agents.
    Bypass(u32),
    /// Throttled clustering plus cross-CTA prefetching, at `n` agents.
    Prefetch(u32),
}

impl SimRequest {
    /// Short telemetry label: `BSL`, `RD`, `CLU`, `TOT{n}`, `BPS{n}`,
    /// `PFH{n}`. Throttle degrees are part of the label so every job of
    /// a sweep gets its own span and metric scope.
    pub fn label(&self) -> String {
        match self {
            SimRequest::Baseline => "BSL".into(),
            SimRequest::Redirection => "RD".into(),
            SimRequest::Clustering => "CLU".into(),
            SimRequest::Throttled(n) => format!("TOT{n}"),
            SimRequest::Bypass(n) => format!("BPS{n}"),
            SimRequest::Prefetch(n) => format!("PFH{n}"),
        }
    }
}

/// One workload's prepared evaluation: the configured GPU, the hinted
/// partition (computed once), the agent-kernel template, and the
/// throttling candidate set. Every [`SimRequest`] runs off this shared,
/// immutable state.
#[derive(Debug, Clone)]
pub struct AppPlan {
    /// Table 2 metadata of the workload.
    pub info: gpu_kernels::WorkloadInfo,
    /// The GPU configuration (already `prefer_l1`-adjusted).
    pub cfg: GpuConfig,
    kernel: SharedKernel,
    partition: Partition,
    agents: AgentKernel<SharedKernel>,
    /// Upper bound on concurrently resident agents per SM.
    pub max_agents: u32,
    /// Deduplicated, sorted throttling degrees the sweep will try.
    pub candidates: Vec<u32>,
}

impl AppPlan {
    /// Prepares `workload` for evaluation on `base_cfg`.
    ///
    /// The GPU is configured `cudaFuncCachePreferL1`-style on the
    /// configurable architectures (uniformly, including the baseline).
    /// The Table 2 partition hint is resolved exactly once here; every
    /// transform reuses it.
    pub fn new(base_cfg: &GpuConfig, workload: Box<dyn Workload>) -> AppPlan {
        let kernel = SharedKernel::new(workload);
        let cfg = base_cfg.prefer_l1(kernel.launch().smem_per_cta);
        AppPlan::build(cfg, kernel, None)
    }

    /// Prepares `workload` for evaluation on *exactly* `cfg` — no
    /// `prefer_l1` adjustment — with `MAX_AGENTS` capped below the
    /// occupancy bound (the DSE sweep's `max_agents` axis; `None` keeps
    /// the occupancy bound). This is the DSE entry point: a sweep that
    /// varies L1 geometry must see the geometry it asked for, not the
    /// preset's preference heuristic.
    pub fn with_config_capped(
        cfg: GpuConfig,
        workload: Box<dyn Workload>,
        max_agents_cap: Option<u32>,
    ) -> AppPlan {
        AppPlan::build(cfg, SharedKernel::new(workload), max_agents_cap)
    }

    fn build(cfg: GpuConfig, kernel: SharedKernel, max_agents_cap: Option<u32>) -> AppPlan {
        let info = kernel.info();
        let partition = hinted_partition(&kernel, &cfg);
        let mut agents = AgentKernel::with_partition(kernel.clone(), &cfg, partition.clone())
            .expect("agent transform");
        if let Some(cap) = max_agents_cap {
            agents = agents.with_max_agents(cap).expect("nonzero MAX_AGENTS cap");
        }
        let max_agents = agents.max_agents();
        // Sweep candidates: a small set always containing Table 2's
        // published optimum, mirroring how the paper selected "Opt
        // Agents" empirically.
        let mut candidates = vec![1u32, 2, 4, info.opt_agents_for(cfg.arch), max_agents];
        candidates.retain(|&c| c >= 1 && c <= max_agents);
        candidates.sort_unstable();
        candidates.dedup();
        AppPlan {
            info,
            cfg,
            kernel,
            partition,
            agents,
            max_agents,
            candidates,
        }
    }

    /// The requests whose inputs are known up front: everything except
    /// the two variants that depend on the sweep's winner.
    pub fn phase_a(&self) -> Vec<SimRequest> {
        let mut reqs = vec![
            SimRequest::Baseline,
            SimRequest::Redirection,
            SimRequest::Clustering,
        ];
        reqs.extend(self.candidates.iter().map(|&c| SimRequest::Throttled(c)));
        reqs
    }

    /// The requests that need the sweep-selected throttling degree.
    pub fn phase_b(&self, chosen_agents: u32) -> Vec<SimRequest> {
        vec![
            SimRequest::Bypass(chosen_agents),
            SimRequest::Prefetch(chosen_agents),
        ]
    }

    /// Runs one request to completion and returns its stats with the
    /// engine's event accounting. Pure with respect to the plan: the
    /// same request always yields the same result.
    ///
    /// With `CLUSTER_OBS` off this is exactly `Simulation::run_metered`
    /// — the differential test pins that figures are byte-identical
    /// either way. With it on, the run executes inside a telemetry span
    /// named by its scope (`{gpu}/{app}/{label}`, e.g. `GTX570/MM/CLU`),
    /// is traced through a [`locality::ObsSink`] (trace sinks observe the
    /// access stream, they cannot steer the simulation), and its
    /// [`RunStats`] and engine counters are recorded under that scope.
    ///
    /// # Errors
    ///
    /// Propagates transform-construction failures (invalid throttle
    /// degree, bypass transform) and simulator failures as
    /// [`ClusterError`] instead of panicking, so a bad request surfaces
    /// as a report-able error at the harness boundary.
    pub fn run_metered(
        &self,
        req: SimRequest,
    ) -> Result<(RunStats, gpu_sim::EngineMetrics), ClusterError> {
        let Some(obs) = cta_obs::maybe_global() else {
            return self.with_kernel(req, |kernel| {
                Simulation::new(self.cfg.clone(), kernel).run_metered()
            });
        };
        let scope = format!("{}/{}/{}", self.cfg.name, self.info.abbr, req.label());
        let _job = obs.span(scope.clone());
        let (stats, metrics) = self.with_kernel(req, |kernel| {
            let mut sim = Simulation::new(self.cfg.clone(), kernel);
            // Cluster attribution: the baseline knows which cluster a
            // CTA's data *would* belong to from the hinted partition;
            // clustered variants bind one cluster per SM (agents adopt
            // the cluster of the SM they land on), so there the SM id is
            // the cluster id.
            if matches!(req, SimRequest::Baseline) {
                let partition = self.partition.clone();
                let mut sink =
                    locality::ObsSink::new(&scope, move |cta, _sm| partition.assign(cta).0 as u32);
                let out = sim.run_traced_metered(&mut sink)?;
                sink.finish(obs);
                Ok(out)
            } else {
                let mut sink = locality::ObsSink::new(&scope, |_cta, sm| sm as u32);
                let out = sim.run_traced_metered(&mut sink)?;
                sink.finish(obs);
                Ok(out)
            }
        })?;
        stats.record_obs(obs, &scope);
        metrics.record_obs(obs, "engine/", &scope);
        debug_assert_eq!(metrics.check_conservation(&stats), Ok(()), "{scope}");
        Ok((stats, metrics))
    }

    /// Hands the transformed kernel a request calls for to `f` without
    /// simulating — the static analyzer's cost model walks variant
    /// kernels through this.
    ///
    /// # Errors
    ///
    /// Propagates transform-construction failures.
    pub fn with_variant_kernel<R>(
        &self,
        req: SimRequest,
        f: impl FnOnce(&dyn KernelSpec) -> R,
    ) -> Result<R, ClusterError> {
        self.with_kernel(req, |kernel| Ok(f(kernel)))
    }

    /// `(hits, fills)` of this plan's program cache so far.
    pub fn cache_counters(&self) -> (u64, u64) {
        self.kernel.cache_counters()
    }

    /// Builds the transformed kernel a request calls for and hands it to
    /// `f` — the one place the request → kernel mapping lives.
    fn with_kernel<R>(
        &self,
        req: SimRequest,
        f: impl FnOnce(&dyn KernelSpec) -> Result<R, gpu_sim::SimError>,
    ) -> Result<R, ClusterError> {
        Ok(match req {
            SimRequest::Baseline => f(&self.kernel)?,
            SimRequest::Redirection => {
                let rd = RedirectionKernel::new(self.kernel.clone(), self.partition.clone());
                f(&rd)?
            }
            SimRequest::Clustering => f(&self.agents)?,
            SimRequest::Throttled(active) => {
                let throttled = self.agents.clone().with_active_agents(active)?;
                f(&throttled)?
            }
            SimRequest::Bypass(active) => {
                // Bypassing: streaming tags from the framework's probe.
                // The narrow probe suffices — the partition (axis) is the
                // plan's own, so the full analyze() axis sweep would be
                // three discarded simulations per request. The static
                // walk returns the identical tag set at program-
                // generation cost instead of a full traced simulation.
                let fw = Framework::new(self.cfg.clone());
                let tags: Vec<ArrayTag> = fw.streaming_tags_static(&self.kernel);
                let bypassed = AgentKernel::with_partition(
                    BypassKernel::new(self.kernel.clone(), tags),
                    &self.cfg,
                    self.partition.clone(),
                )?
                .with_active_agents(active)?;
                f(&bypassed)?
            }
            SimRequest::Prefetch(active) => {
                let prefetching = self
                    .agents
                    .clone()
                    .with_active_agents(active)?
                    .with_prefetch(PREFETCH_DEPTH);
                f(&prefetching)?
            }
        })
    }

    /// Picks the winning throttling degree from phase-A results
    /// (`stats` must be in [`AppPlan::phase_a`] order). Returns the
    /// degree and its index into `stats`. Strict `<` keeps the earliest
    /// candidate on ties, matching the original serial sweep.
    pub fn select_throttle(&self, stats: &[RunStats]) -> (u32, usize) {
        let sweep_base = 3; // Baseline, Redirection, Clustering precede the sweep.
        let mut best: Option<(u32, usize)> = None;
        for (i, &active) in self.candidates.iter().enumerate() {
            let idx = sweep_base + i;
            if best
                .as_ref()
                .is_none_or(|&(_, b)| stats[idx].cycles < stats[b].cycles)
            {
                best = Some((active, idx));
            }
        }
        best.expect("nonempty sweep")
    }

    /// Evaluates the app under every variant: runs phase A through
    /// `run`, selects the throttle, then runs phase B at it. This is the
    /// one place the Figure 12 request order lives; drivers differ only
    /// in how `run` executes a request.
    ///
    /// # Errors
    ///
    /// Propagates the first failure of `run`.
    pub fn evaluate(
        &self,
        mut run: impl FnMut(SimRequest) -> Result<RunStats, ClusterError>,
    ) -> Result<AppEvaluation, ClusterError> {
        let phase_a: Vec<RunStats> = self
            .phase_a()
            .into_iter()
            .map(&mut run)
            .collect::<Result<_, _>>()?;
        let (chosen_agents, best_idx) = self.select_throttle(&phase_a);
        let phase_b: Vec<RunStats> = self
            .phase_b(chosen_agents)
            .into_iter()
            .map(&mut run)
            .collect::<Result<_, _>>()?;
        // Every run of the app is done, so the program-cache totals are
        // final — the one point where exporting them is thread-count
        // deterministic.
        if let Some(obs) = cta_obs::maybe_global() {
            let scope = format!("{}/{}", self.cfg.name, self.info.abbr);
            let (hits, fills) = self.cache_counters();
            obs.counter("harness/program_cache_hits", &scope, hits);
            obs.counter("harness/program_cache_fills", &scope, fills);
        }
        let tot_stats = phase_a[best_idx].clone();
        let mut a = phase_a.into_iter();
        let mut b = phase_b.into_iter();
        let runs = vec![
            (Variant::Baseline, a.next().expect("baseline stats")),
            (Variant::Redirection, a.next().expect("RD stats")),
            (Variant::Clustering, a.next().expect("CLU stats")),
            (Variant::ClusteringThrottled, tot_stats),
            (
                Variant::ClusteringThrottledBypass,
                b.next().expect("BPS stats"),
            ),
            (Variant::PrefetchThrottled, b.next().expect("PFH stats")),
        ];
        Ok(AppEvaluation {
            info: self.info,
            runs,
            chosen_agents,
        })
    }
}

/// Results of one workload under every variant on one GPU.
#[derive(Debug, Clone)]
pub struct AppEvaluation {
    /// Table 2 metadata of the workload.
    pub info: gpu_kernels::WorkloadInfo,
    /// Per-variant stats, in [`Variant::ALL`] order.
    pub runs: Vec<(Variant, RunStats)>,
    /// The throttling degree the sweep selected.
    pub chosen_agents: u32,
}

impl AppEvaluation {
    /// Stats of one variant.
    pub fn stats(&self, v: Variant) -> &RunStats {
        &self
            .runs
            .iter()
            .find(|(rv, _)| *rv == v)
            .expect("variant present")
            .1
    }

    /// Speedup of `v` over baseline.
    pub fn speedup(&self, v: Variant) -> f64 {
        self.stats(v).speedup_vs(self.stats(Variant::Baseline))
    }

    /// Normalized L2 transactions of `v` (baseline = 1.0).
    pub fn l2_norm(&self, v: Variant) -> f64 {
        self.stats(v).l2_txns_vs(self.stats(Variant::Baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch;

    #[test]
    fn evaluate_small_app_produces_all_variants() {
        let w = gpu_kernels::suite::by_abbr("NW", gpu_sim::ArchGen::Fermi).unwrap();
        let plan = AppPlan::new(&arch::gtx570(), w);
        let eval = plan
            .evaluate(|req| plan.run_metered(req).map(|(stats, _)| stats))
            .expect("NW evaluation");
        assert_eq!(eval.runs.len(), 6);
        assert!(eval.speedup(Variant::Baseline) == 1.0);
        assert!(eval.chosen_agents >= 1);
        for v in Variant::ALL {
            assert!(eval.stats(v).cycles > 0, "{v}");
        }
    }

    #[test]
    fn variant_labels_match_paper() {
        let labels: Vec<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            vec!["BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT"]
        );
    }

    #[test]
    fn shared_kernel_handle_is_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedKernel>();
        assert_send_sync::<AppPlan>();
        assert_send_sync::<SimRequest>();
    }

    /// The program cache's safety precondition: a suite workload's warp
    /// programs may depend on the CTA id and warp index only, never on
    /// where or when the CTA was placed. The cache generates each
    /// program once under a canonical `(sm_id=0, slot=0, arrival=0)`
    /// context and replays it for every placement.
    #[test]
    fn suite_programs_are_context_independent() {
        for arch in [gpu_sim::ArchGen::Fermi, gpu_sim::ArchGen::Maxwell] {
            for w in gpu_kernels::suite::table2_suite(arch) {
                let launch = w.launch();
                let wpc = launch.warps_per_cta(32);
                let num_sms = 15;
                // A spread of CTAs including the last one.
                let ctas = [0, 1, launch.num_ctas() / 2, launch.num_ctas() - 1];
                for &cta in &ctas {
                    for warp in 0..wpc {
                        let canonical = CtaContext {
                            cta,
                            sm_id: 0,
                            slot: 0,
                            arrival: 0,
                            num_sms,
                        };
                        let perturbed = CtaContext {
                            cta,
                            sm_id: 7,
                            slot: 3,
                            arrival: 1234,
                            num_sms,
                        };
                        assert_eq!(
                            w.warp_program(&canonical, warp),
                            w.warp_program(&perturbed, warp),
                            "{} cta {cta} warp {warp}",
                            w.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn program_cache_replays_generated_programs() {
        let w = gpu_kernels::suite::by_abbr("NW", gpu_sim::ArchGen::Fermi).unwrap();
        let kernel = SharedKernel::new(w);
        let launch = kernel.launch();
        let wpc = launch.warps_per_cta(32);
        let ctx = |cta| CtaContext {
            cta,
            sm_id: 2,
            slot: 1,
            arrival: 99,
            num_sms: 15,
        };
        // First pass fills, second pass hits; both match direct generation.
        for pass in 0..2 {
            for cta in 0..launch.num_ctas() {
                for warp in 0..wpc {
                    let arc = kernel
                        .warp_program_arc(&ctx(cta), warp)
                        .expect("cache covers the grid");
                    assert_eq!(
                        arc.as_ref(),
                        kernel.warp_program(&ctx(cta), warp).as_slice(),
                        "pass {pass} cta {cta} warp {warp}"
                    );
                }
            }
        }
        let total = launch.num_ctas() * wpc as u64;
        assert_eq!(kernel.cache_counters(), (total, total));
        // Clones (as the transforms wrap them) share the same cache.
        let clone = kernel.clone();
        let _ = clone.warp_program_arc(&ctx(0), 0);
        assert_eq!(kernel.cache_counters(), (total + 1, total));
        // Out-of-range warp indices decline rather than alias a slot.
        assert!(kernel.warp_program_arc(&ctx(0), wpc).is_none());
    }

    #[test]
    fn plan_decomposition_matches_monolithic_order() {
        let w = gpu_kernels::suite::by_abbr("NW", gpu_sim::ArchGen::Fermi).unwrap();
        let plan = AppPlan::new(&arch::gtx570(), w);
        let phase_a = plan.phase_a();
        assert_eq!(
            &phase_a[..3],
            &[
                SimRequest::Baseline,
                SimRequest::Redirection,
                SimRequest::Clustering
            ]
        );
        assert_eq!(phase_a.len(), 3 + plan.candidates.len());
        // Candidates stay sorted and in range, including Table 2's optimum.
        assert!(plan.candidates.windows(2).all(|w| w[0] < w[1]));
        assert!(plan
            .candidates
            .iter()
            .all(|&c| c >= 1 && c <= plan.max_agents));
        let opt = plan.info.opt_agents_for(plan.cfg.arch).min(plan.max_agents);
        assert!(plan.candidates.contains(&opt));
        assert_eq!(
            plan.phase_b(2),
            vec![SimRequest::Bypass(2), SimRequest::Prefetch(2)]
        );
    }
}
