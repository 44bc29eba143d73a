//! Design-space exploration over cache geometry × set indexing ×
//! scheduler policy × `MAX_AGENTS` × clustering degree, pruned by the
//! `CL2xx` cost model and the `CL3xx` set-conflict model.
//!
//! The sweep simulates every point of a declarative configuration grid
//! and reports the per-app Pareto front over `(cycles, L2 transactions)`.
//! Before simulating, it consults the static models and prunes points
//! inside a proven equivalence class: one representative is simulated
//! and its metrics are copied to the rest, so the pruned sweep's output
//! (and therefore its Pareto front) is *identical* to the unpruned one
//! by construction; CI byte-compares the two fronts to keep the proofs
//! honest. Three proof rules build the classes:
//!
//! 1. **Geometry-dead stream** (`CL2xx`): with a write-evict L1, stores
//!    never allocate, so L1 content is driven by reads alone; if every
//!    read names a distinct line, every read is a compulsory miss at
//!    *any* capacity/associativity/indexing (no reuse to retain, no
//!    same-line concurrency to reserve-hit on), so the whole
//!    `(size, assoc, index)` sub-grid of an `(app, MAX_AGENTS, agents,
//!    sched)` group is one class.
//! 2. **Indexing-dead point** (`CL302`): when the decoder-computed
//!    per-set footprints fit the ways under *both* the hashed and the
//!    modulo decoder, neither configuration ever evicts, so the two
//!    indexing twins of a `(size, assoc)` geometry have identical run
//!    statistics.
//! 3. **Interval-pinned geometry** (`CL3xx`): a conflict-free point
//!    (every per-set footprint fits its ways under the point's own
//!    decoder) never evicts, so hits and misses depend only on the
//!    line-level stream — which the group shares — and the tightened
//!    interval collapses to the same `[lo, hi]` for every such point.
//!    All conflict-free points of a group mutually (weakly) dominate on
//!    the model metric and provably tie on the simulated one, so one
//!    representative serves them all.

use crate::runner::{AppPlan, SimRequest};
use cta_clustering::ClusterError;
use gpu_sim::sched::{CtaScheduler, HardwareLike, Randomized, StrictRoundRobin};
use gpu_sim::{GpuConfig, IndexFn, RunStats, Simulation, WritePolicy};
use locality::AccessSummary;
use std::collections::HashMap;

/// Seed of the `hw` scheduler axis — the engine's default scheduler
/// seed, so `sched = hw` reproduces `AppPlan::run_metered` exactly.
const HW_SEED: u64 = 0xC1A0_0017;

/// One scheduler-policy axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedAxis {
    /// Deterministic strict round-robin dispatch.
    Strict,
    /// The hardware-like greedy model (engine default seed).
    Hardware,
    /// Uniformly randomized dispatch (fixed seed: still deterministic).
    Random,
}

impl SchedAxis {
    /// Stable label used in config files and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedAxis::Strict => "strict",
            SchedAxis::Hardware => "hw",
            SchedAxis::Random => "rand",
        }
    }

    fn parse(s: &str) -> Result<SchedAxis, ClusterError> {
        match s {
            "strict" => Ok(SchedAxis::Strict),
            "hw" => Ok(SchedAxis::Hardware),
            "rand" => Ok(SchedAxis::Random),
            other => Err(ClusterError::harness(format!(
                "unknown scheduler {other:?}; expected strict, hw or rand"
            ))),
        }
    }

    fn instantiate(&self) -> Box<dyn CtaScheduler> {
        match self {
            SchedAxis::Strict => Box::new(StrictRoundRobin::new()),
            SchedAxis::Hardware => Box::new(HardwareLike::new(HW_SEED)),
            SchedAxis::Random => Box::new(Randomized::new(HW_SEED)),
        }
    }
}

/// One clustering-degree axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentsAxis {
    /// Untransformed baseline kernel.
    Baseline,
    /// Clustered, throttled to the app's Table 2 optimum (clamped to
    /// `MAX_AGENTS`).
    Opt,
    /// Clustered, throttled to a fixed degree (clamped to `MAX_AGENTS`).
    Fixed(u32),
}

impl AgentsAxis {
    /// Stable label used in config files and JSON output.
    pub fn label(&self) -> String {
        match self {
            AgentsAxis::Baseline => "0".to_string(),
            AgentsAxis::Opt => "opt".to_string(),
            AgentsAxis::Fixed(n) => n.to_string(),
        }
    }

    fn parse(s: &str) -> Result<AgentsAxis, ClusterError> {
        if s == "opt" {
            return Ok(AgentsAxis::Opt);
        }
        let n: u32 = s
            .parse()
            .map_err(|e| ClusterError::harness(format!("agents value {s:?}: {e}")))?;
        Ok(if n == 0 {
            AgentsAxis::Baseline
        } else {
            AgentsAxis::Fixed(n)
        })
    }

    /// Resolves the axis to a [`SimRequest`] for one prepared plan.
    fn request(&self, plan: &AppPlan) -> SimRequest {
        match self {
            AgentsAxis::Baseline => SimRequest::Baseline,
            AgentsAxis::Opt => {
                let opt = plan.info.opt_agents_for(plan.cfg.arch);
                SimRequest::Throttled(opt.clamp(1, plan.max_agents))
            }
            AgentsAxis::Fixed(n) => SimRequest::Throttled((*n).clamp(1, plan.max_agents)),
        }
    }
}

fn parse_index_fn(s: &str) -> Result<IndexFn, ClusterError> {
    match s {
        "hashed" => Ok(IndexFn::Hashed),
        "modulo" => Ok(IndexFn::Modulo),
        other => Err(ClusterError::harness(format!(
            "unknown l1_index {other:?}; expected hashed or modulo"
        ))),
    }
}

/// One `MAX_AGENTS` axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaxAgentsAxis {
    /// The occupancy bound of the kernel on one SM (the default the
    /// evaluation harness uses).
    Occupancy,
    /// `MAX_AGENTS` capped at a fixed value (never raised above the
    /// occupancy bound).
    Cap(u32),
}

impl MaxAgentsAxis {
    /// Stable label used in config files and JSON output.
    pub fn label(&self) -> String {
        match self {
            MaxAgentsAxis::Occupancy => "occ".to_string(),
            MaxAgentsAxis::Cap(n) => n.to_string(),
        }
    }

    fn parse(s: &str) -> Result<MaxAgentsAxis, ClusterError> {
        if s == "occ" {
            return Ok(MaxAgentsAxis::Occupancy);
        }
        let n: u32 = s
            .parse()
            .map_err(|e| ClusterError::harness(format!("max_agents value {s:?}: {e}")))?;
        if n == 0 {
            return Err(ClusterError::harness(
                "max_agents cap must be at least 1 (or `occ`)",
            ));
        }
        Ok(MaxAgentsAxis::Cap(n))
    }

    fn cap(&self) -> Option<u32> {
        match self {
            MaxAgentsAxis::Occupancy => None,
            MaxAgentsAxis::Cap(n) => Some(*n),
        }
    }
}

/// The declarative sweep grid.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base architecture preset name (e.g. `"GTX570"`).
    pub arch: String,
    /// Table 2 app abbreviations.
    pub apps: Vec<String>,
    /// L1 capacities, in KiB.
    pub l1_size_kb: Vec<u32>,
    /// L1 way counts.
    pub l1_assoc: Vec<u32>,
    /// L1 set-index functions (defaults to hashed only).
    pub l1_index: Vec<IndexFn>,
    /// `MAX_AGENTS` caps (defaults to the occupancy bound only).
    pub max_agents: Vec<MaxAgentsAxis>,
    /// Scheduler policies.
    pub sched: Vec<SchedAxis>,
    /// Clustering degrees.
    pub agents: Vec<AgentsAxis>,
}

impl SweepSpec {
    /// The built-in reduced grid CI smokes: Fermi, two apps, 4 × 2 × 2
    /// geometries (the two large capacities give the conflict-free and
    /// indexing-dead rules real points to prove), two `MAX_AGENTS` caps,
    /// two schedulers, baseline + opt clustering = 256 points.
    pub fn reduced() -> SweepSpec {
        SweepSpec {
            arch: "GTX570".to_string(),
            apps: vec!["NW".to_string(), "BS".to_string()],
            l1_size_kb: vec![16, 48, 1024, 2048],
            l1_assoc: vec![2, 8],
            l1_index: vec![IndexFn::Hashed, IndexFn::Modulo],
            max_agents: vec![MaxAgentsAxis::Occupancy, MaxAgentsAxis::Cap(2)],
            sched: vec![SchedAxis::Strict, SchedAxis::Hardware],
            agents: vec![AgentsAxis::Baseline, AgentsAxis::Opt],
        }
    }

    /// Parses a `key = v1, v2, ...` config file. Blank lines and `#`
    /// comments are ignored; every key appears at most once. `l1_index`
    /// (default `hashed`) and `max_agents` (default `occ`) are optional;
    /// every other key is required.
    ///
    /// ```text
    /// arch       = GTX570
    /// apps       = NW, BS, HS
    /// l1_size_kb = 16, 32, 48
    /// l1_assoc   = 2, 4
    /// l1_index   = hashed, modulo
    /// max_agents = occ, 2
    /// sched      = strict, hw
    /// agents     = 0, opt
    /// ```
    ///
    /// # Errors
    ///
    /// Malformed lines, unknown keys, duplicate keys, missing required
    /// keys.
    pub fn parse(text: &str) -> Result<SweepSpec, ClusterError> {
        let mut arch: Option<String> = None;
        let mut apps: Option<Vec<String>> = None;
        let mut sizes: Option<Vec<u32>> = None;
        let mut assocs: Option<Vec<u32>> = None;
        let mut indexes: Option<Vec<IndexFn>> = None;
        let mut maxes: Option<Vec<MaxAgentsAxis>> = None;
        let mut scheds: Option<Vec<SchedAxis>> = None;
        let mut agents: Option<Vec<AgentsAxis>> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let (key, value) = line.split_once('=').ok_or_else(|| {
                ClusterError::harness(format!("line {lineno}: expected `key = values`"))
            })?;
            let values: Vec<&str> = value.split(',').map(str::trim).collect();
            if values.iter().any(|v| v.is_empty()) {
                return Err(ClusterError::harness(format!(
                    "line {lineno}: empty value in list"
                )));
            }
            fn set<T>(
                slot: &mut Option<T>,
                parsed: T,
                key: &str,
                lineno: usize,
            ) -> Result<(), ClusterError> {
                if slot.is_some() {
                    return Err(ClusterError::harness(format!(
                        "line {lineno}: duplicate key {key:?}"
                    )));
                }
                *slot = Some(parsed);
                Ok(())
            }
            let numbers = |what: &str| {
                values
                    .iter()
                    .map(|v| {
                        v.parse::<u32>().map_err(|e| {
                            ClusterError::harness(format!("line {lineno}: {what} {v:?}: {e}"))
                        })
                    })
                    .collect::<Result<Vec<u32>, _>>()
            };
            match key.trim() {
                "arch" => set(&mut arch, value.trim().to_string(), "arch", lineno)?,
                "apps" => set(
                    &mut apps,
                    values.iter().map(|s| s.to_string()).collect(),
                    "apps",
                    lineno,
                )?,
                "l1_size_kb" => set(&mut sizes, numbers("l1_size_kb")?, "l1_size_kb", lineno)?,
                "l1_assoc" => set(&mut assocs, numbers("l1_assoc")?, "l1_assoc", lineno)?,
                "l1_index" => set(
                    &mut indexes,
                    values
                        .iter()
                        .map(|s| parse_index_fn(s))
                        .collect::<Result<Vec<_>, _>>()?,
                    "l1_index",
                    lineno,
                )?,
                "max_agents" => set(
                    &mut maxes,
                    values
                        .iter()
                        .map(|s| MaxAgentsAxis::parse(s))
                        .collect::<Result<Vec<_>, _>>()?,
                    "max_agents",
                    lineno,
                )?,
                "sched" => set(
                    &mut scheds,
                    values
                        .iter()
                        .map(|s| SchedAxis::parse(s))
                        .collect::<Result<Vec<_>, _>>()?,
                    "sched",
                    lineno,
                )?,
                "agents" => set(
                    &mut agents,
                    values
                        .iter()
                        .map(|s| AgentsAxis::parse(s))
                        .collect::<Result<Vec<_>, _>>()?,
                    "agents",
                    lineno,
                )?,
                other => {
                    return Err(ClusterError::harness(format!(
                        "line {lineno}: unknown key {other:?}"
                    )))
                }
            }
        }
        let require = |name: &str| ClusterError::harness(format!("missing key {name:?}"));
        Ok(SweepSpec {
            arch: arch.ok_or_else(|| require("arch"))?,
            apps: apps.ok_or_else(|| require("apps"))?,
            l1_size_kb: sizes.ok_or_else(|| require("l1_size_kb"))?,
            l1_assoc: assocs.ok_or_else(|| require("l1_assoc"))?,
            l1_index: indexes.unwrap_or_else(|| vec![IndexFn::Hashed]),
            max_agents: maxes.unwrap_or_else(|| vec![MaxAgentsAxis::Occupancy]),
            sched: scheds.ok_or_else(|| require("sched"))?,
            agents: agents.ok_or_else(|| require("agents"))?,
        })
    }

    /// Total grid size.
    pub fn num_points(&self) -> usize {
        self.apps.len()
            * self.l1_size_kb.len()
            * self.l1_assoc.len()
            * self.l1_index.len()
            * self.max_agents.len()
            * self.sched.len()
            * self.agents.len()
    }

    /// Resolves the preset by (case-insensitive) name.
    fn base_config(&self) -> Result<GpuConfig, ClusterError> {
        gpu_sim::arch::all_presets()
            .into_iter()
            .find(|c| c.name.eq_ignore_ascii_case(&self.arch))
            .ok_or_else(|| ClusterError::harness(format!("unknown arch preset {:?}", self.arch)))
    }
}

/// The simulated metrics of one point (identical whether the point was
/// simulated or copied from its equivalence-class representative).
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Elapsed kernel cycles.
    pub cycles: u64,
    /// Total L2 transactions.
    pub l2_txns: u64,
    /// Measured L1 read hit rate.
    pub l1_hit_rate: f64,
    /// Achieved occupancy.
    pub occupancy: f64,
}

impl PointMetrics {
    fn of(stats: &RunStats) -> PointMetrics {
        PointMetrics {
            cycles: stats.cycles,
            l2_txns: stats.l2_transactions(),
            l1_hit_rate: stats.l1.read_hit_rate(),
            occupancy: stats.achieved_occupancy,
        }
    }

    /// Pareto dominance on the minimized objectives `(cycles, l2_txns)`.
    pub fn dominates(&self, other: &PointMetrics) -> bool {
        self.cycles <= other.cycles
            && self.l2_txns <= other.l2_txns
            && (self.cycles < other.cycles || self.l2_txns < other.l2_txns)
    }
}

/// One evaluated sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// App abbreviation.
    pub app: String,
    /// L1 capacity in KiB.
    pub l1_size_kb: u32,
    /// L1 way count.
    pub l1_assoc: u32,
    /// Set-index function label (`"hashed"` or `"modulo"`).
    pub l1_index: &'static str,
    /// `MAX_AGENTS` axis label (`"occ"` or a number).
    pub max_agents: String,
    /// Scheduler label.
    pub sched: &'static str,
    /// Agents-axis label (`"0"`, `"opt"`, or a number).
    pub agents: String,
    /// The resolved request label (`"BSL"` or `"TOT{n}"`).
    pub request: String,
    /// Static hit-rate interval at this geometry.
    pub model_lo: f64,
    /// Static hit-rate interval at this geometry.
    pub model_hi: f64,
    /// Whether the metrics were copied from the class representative
    /// instead of simulated.
    pub pruned: bool,
    /// Simulated (or copied) metrics.
    pub metrics: PointMetrics,
}

/// Aggregate sweep outcome.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every grid point, in deterministic enumeration order.
    pub points: Vec<SweepPoint>,
    /// Points actually simulated.
    pub simulated: u64,
    /// Points copied from a geometry-class representative (the cold
    /// stream rule or the conflict-free interval rule).
    pub pruned_geometry: u64,
    /// Points copied from their indexing twin (the CL302 rule).
    pub pruned_indexing: u64,
}

impl SweepOutcome {
    /// Points whose metrics were copied from a class representative,
    /// over every rule.
    pub fn pruned(&self) -> u64 {
        self.pruned_geometry + self.pruned_indexing
    }

    /// Fraction of points not simulated.
    pub fn prune_rate(&self) -> f64 {
        let total = self.simulated + self.pruned();
        if total > 0 {
            self.pruned() as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Per-app Pareto fronts over `(cycles, l2_txns)`, apps in spec
    /// order, each front sorted by ascending cycles then configuration
    /// labels — fully deterministic, so two runs (pruned or not) of the
    /// same grid produce byte-identical front JSON.
    pub fn fronts(&self) -> Vec<(String, Vec<&SweepPoint>)> {
        let mut apps: Vec<String> = Vec::new();
        for p in &self.points {
            if !apps.contains(&p.app) {
                apps.push(p.app.clone());
            }
        }
        apps.into_iter()
            .map(|app| {
                let candidates: Vec<&SweepPoint> =
                    self.points.iter().filter(|p| p.app == app).collect();
                let mut front: Vec<&SweepPoint> = candidates
                    .iter()
                    .filter(|p| !candidates.iter().any(|q| q.metrics.dominates(&p.metrics)))
                    .copied()
                    .collect();
                front.sort_by(|a, b| {
                    (
                        a.metrics.cycles,
                        a.metrics.l2_txns,
                        a.l1_size_kb,
                        a.l1_assoc,
                    )
                        .cmp(&(
                            b.metrics.cycles,
                            b.metrics.l2_txns,
                            b.l1_size_kb,
                            b.l1_assoc,
                        ))
                        .then_with(|| a.l1_index.cmp(b.l1_index))
                        .then_with(|| a.max_agents.cmp(&b.max_agents))
                        .then_with(|| a.sched.cmp(b.sched))
                        .then_with(|| a.agents.cmp(&b.agents))
                });
                (app, front)
            })
            .collect()
    }
}

/// Builds the concrete [`GpuConfig`] of one geometry point.
///
/// # Errors
///
/// Propagates `GpuConfig::validate` for inconsistent geometry requests
/// (capacity not divisible into whole sets, etc.).
pub fn geometry_config(
    base: &GpuConfig,
    size_kb: u32,
    assoc: u32,
    index: IndexFn,
) -> Result<GpuConfig, ClusterError> {
    let mut cfg = base.clone();
    cfg.l1.size_bytes = size_kb * 1024;
    cfg.l1.associativity = assoc;
    cfg.l1.index_fn = index;
    cfg.name = format!("{}-L1-{size_kb}KB-{assoc}w-{}", base.name, index.label());
    cfg.validate().map_err(|e| {
        ClusterError::harness(format!(
            "geometry {size_kb}KB/{assoc}-way/{}: {e}",
            index.label()
        ))
    })?;
    Ok(cfg)
}

/// Whether the cost model proves L1 `(size, associativity, indexing)`
/// to be dead axes for this access stream: write-evict L1 and either no
/// cacheable reads at all or a fully cold read stream (every read is a
/// compulsory miss under any decoder).
pub fn geometry_is_dead_axis(summary: &AccessSummary, cfg: &GpuConfig) -> bool {
    cfg.l1.write_policy == WritePolicy::WriteEvict
        && (summary.reads() == 0 || summary.all_reads_cold(cfg.l1.write_policy))
}

/// Runs the sweep. When `prune` is set, equivalence classes proven by
/// the cost model (cold streams) or the set-conflict model
/// (indexing-dead twins, conflict-free geometries) simulate only one
/// representative.
///
/// # Errors
///
/// Propagates preset/geometry/transform/simulation failures.
pub fn run_sweep(spec: &SweepSpec, prune: bool) -> Result<SweepOutcome, ClusterError> {
    let base = spec.base_config()?;
    let mut points: Vec<SweepPoint> = Vec::with_capacity(spec.num_points());
    let mut simulated = 0u64;
    let mut pruned_geometry = 0u64;
    let mut pruned_indexing = 0u64;
    let obs = cta_obs::maybe_global();
    for app in &spec.apps {
        for ma in &spec.max_agents {
            // One plan per geometry point: the plan owns the configured
            // GPU and the program cache shared by its variants. The
            // `MAX_AGENTS` cap feeds the transform, so plans are per
            // cap value.
            let mut plans: Vec<(u32, u32, IndexFn, AppPlan)> = Vec::new();
            for &size_kb in &spec.l1_size_kb {
                for &assoc in &spec.l1_assoc {
                    for &index in &spec.l1_index {
                        let cfg = geometry_config(&base, size_kb, assoc, index)?;
                        let workload = gpu_kernels::suite::by_abbr(app, cfg.arch)
                            .ok_or_else(|| ClusterError::harness(format!("{app} not in suite")))?;
                        plans.push((
                            size_kb,
                            assoc,
                            index,
                            AppPlan::with_config_capped(cfg, workload, ma.cap()),
                        ));
                    }
                }
            }
            for agents in &spec.agents {
                // The variant's access stream is identical across
                // geometries (same line size, same clamp — capacity
                // never feeds the transform), so one abstract
                // interpretation serves the whole class. The per-request
                // label check below guards the clamp assumption.
                let (_, _, _, first_plan) = &plans[0];
                let class_req = agents.request(first_plan);
                let summary = first_plan.with_variant_kernel(class_req, |k| {
                    AccessSummary::collect_on(k, &first_plan.cfg)
                })?;
                let class_dead = geometry_is_dead_axis(&summary, &first_plan.cfg);
                for sched in &spec.sched {
                    let mut cold_rep: Option<PointMetrics> = None;
                    let mut interval_rep: Option<PointMetrics> = None;
                    let mut twins: HashMap<(u32, u32), PointMetrics> = HashMap::new();
                    for (size_kb, assoc, index, plan) in &plans {
                        let req = agents.request(plan);
                        let same_class = req.label() == class_req.label();
                        let iv = summary.hit_interval(&plan.cfg);
                        let model = summary.set_conflicts(&plan.cfg);
                        let insensitive = model.indexing_insensitive();
                        let conflict_free = model.conflict_free();
                        let twin_key = (*size_kb, *assoc);
                        // Rule priority: the cold class covers the whole
                        // sub-grid; an indexing twin is the most specific
                        // cross-index proof; the conflict-free interval
                        // class covers the rest.
                        let copied: Option<(PointMetrics, bool)> = if !(prune && same_class) {
                            None
                        } else if class_dead {
                            cold_rep.clone().map(|m| (m, true))
                        } else if insensitive && twins.contains_key(&twin_key) {
                            Some((twins[&twin_key].clone(), false))
                        } else if conflict_free {
                            interval_rep.clone().map(|m| (m, true))
                        } else {
                            None
                        };
                        let (metrics, was_pruned) = match copied {
                            Some((m, geometry_rule)) => {
                                if geometry_rule {
                                    pruned_geometry += 1;
                                } else {
                                    pruned_indexing += 1;
                                }
                                (m, true)
                            }
                            None => {
                                let (stats, _) = plan.with_variant_kernel(req, |k| {
                                    Simulation::new(plan.cfg.clone(), k)
                                        .with_scheduler(sched.instantiate())
                                        .run_metered()
                                })??;
                                simulated += 1;
                                (PointMetrics::of(&stats), false)
                            }
                        };
                        // Copied metrics are proven equal to simulated
                        // ones, so either may seed a representative.
                        if same_class {
                            if class_dead && cold_rep.is_none() {
                                cold_rep = Some(metrics.clone());
                            }
                            if insensitive {
                                twins.entry(twin_key).or_insert_with(|| metrics.clone());
                            }
                            if conflict_free && interval_rep.is_none() {
                                interval_rep = Some(metrics.clone());
                            }
                        }
                        if let Some(obs) = &obs {
                            let scope = format!(
                                "{app}/L1-{size_kb}KB-{assoc}w-{}/ma-{}/{}/{}",
                                index.label(),
                                ma.label(),
                                sched.label(),
                                agents.label()
                            );
                            obs.counter("dse/cycles", &scope, metrics.cycles);
                            obs.counter("dse/l2_txns", &scope, metrics.l2_txns);
                            obs.counter("dse/pruned", &scope, was_pruned as u64);
                        }
                        points.push(SweepPoint {
                            app: app.clone(),
                            l1_size_kb: *size_kb,
                            l1_assoc: *assoc,
                            l1_index: index.label(),
                            max_agents: ma.label(),
                            sched: sched.label(),
                            agents: agents.label(),
                            request: req.label(),
                            model_lo: iv.lo,
                            model_hi: iv.hi,
                            pruned: was_pruned,
                            metrics,
                        });
                    }
                }
            }
        }
    }
    Ok(SweepOutcome {
        points,
        simulated,
        pruned_geometry,
        pruned_indexing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = SweepSpec::parse(
            "# comment\n\
             arch = gtx570\n\
             apps = NW, BS # trailing comment\n\
             l1_size_kb = 16, 48\n\
             l1_assoc = 4\n\
             l1_index = hashed, modulo\n\
             max_agents = occ, 2\n\
             sched = strict, hw, rand\n\
             agents = 0, opt, 3\n",
        )
        .expect("parse");
        assert_eq!(spec.apps, vec!["NW", "BS"]);
        assert_eq!(spec.l1_size_kb, vec![16, 48]);
        assert_eq!(spec.l1_index, vec![IndexFn::Hashed, IndexFn::Modulo]);
        assert_eq!(
            spec.max_agents,
            vec![MaxAgentsAxis::Occupancy, MaxAgentsAxis::Cap(2)]
        );
        assert_eq!(spec.sched.len(), 3);
        assert_eq!(
            spec.agents,
            vec![AgentsAxis::Baseline, AgentsAxis::Opt, AgentsAxis::Fixed(3)]
        );
        // 2 apps x 2 sizes x 1 assoc x 2 indexes x 2 caps x 3 scheds
        // x 3 agent settings.
        assert_eq!(spec.num_points(), 144);
        spec.base_config().expect("preset resolves");
    }

    #[test]
    fn new_axes_default_when_omitted() {
        let spec = SweepSpec::parse(
            "arch = gtx570\n\
             apps = NW\n\
             l1_size_kb = 16\n\
             l1_assoc = 4\n\
             sched = strict\n\
             agents = 0\n",
        )
        .expect("parse without the optional axes");
        assert_eq!(spec.l1_index, vec![IndexFn::Hashed]);
        assert_eq!(spec.max_agents, vec![MaxAgentsAxis::Occupancy]);
        assert_eq!(spec.num_points(), 1);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        assert!(SweepSpec::parse("arch = gtx570").is_err(), "missing keys");
        assert!(SweepSpec::parse("bogus = 1").is_err(), "unknown key");
        assert!(
            SweepSpec::parse("arch = a\narch = b").is_err(),
            "duplicate key"
        );
        assert!(SweepSpec::parse("apps = NW,, BS").is_err(), "empty value");
        assert!(SweepSpec::parse("sched = quantum").is_err(), "bad sched");
        assert!(
            SweepSpec::parse("l1_index = xor").is_err(),
            "bad index function"
        );
        assert!(
            SweepSpec::parse("max_agents = 0").is_err(),
            "zero MAX_AGENTS cap"
        );
    }

    #[test]
    fn geometry_config_rebuilds_and_validates() {
        let base = gpu_sim::arch::gtx570();
        let cfg = geometry_config(&base, 32, 4, IndexFn::Hashed).expect("valid geometry");
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.associativity, 4);
        assert_eq!(cfg.l1.num_sets(), 64);
        assert_eq!(cfg.l1.index_fn, IndexFn::Hashed);
        let modulo = geometry_config(&base, 32, 4, IndexFn::Modulo).expect("modulo twin");
        assert_eq!(modulo.l1.index_fn, IndexFn::Modulo);
        assert_ne!(cfg.name, modulo.name);
        // 16 KiB does not divide into whole 128B x 3-way sets.
        assert!(geometry_config(&base, 16, 3, IndexFn::Hashed).is_err());
        // 1 KiB holds one 32B x 32-way set, but each of the GTX980's two
        // L1 sector arrays holds none.
        assert!(geometry_config(&gpu_sim::arch::gtx980(), 1, 32, IndexFn::Hashed).is_err());
    }

    #[test]
    fn pareto_dominance() {
        let a = PointMetrics {
            cycles: 100,
            l2_txns: 50,
            l1_hit_rate: 0.0,
            occupancy: 0.0,
        };
        let b = PointMetrics {
            cycles: 120,
            l2_txns: 50,
            l1_hit_rate: 0.0,
            occupancy: 0.0,
        };
        let c = PointMetrics {
            cycles: 90,
            l2_txns: 60,
            l1_hit_rate: 0.0,
            occupancy: 0.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a), "incomparable");
        assert!(!a.dominates(&a), "never self-dominating");
    }

    #[test]
    fn pruned_and_unpruned_sweeps_agree_exactly() {
        // A deliberately tiny grid exercising a prunable app over both
        // index functions; the full reduced grid runs in CI.
        let spec = SweepSpec {
            arch: "GTX570".to_string(),
            apps: vec!["BS".to_string()],
            l1_size_kb: vec![16, 48],
            l1_assoc: vec![2],
            l1_index: vec![IndexFn::Hashed, IndexFn::Modulo],
            max_agents: vec![MaxAgentsAxis::Occupancy],
            sched: vec![SchedAxis::Strict],
            agents: vec![AgentsAxis::Baseline],
        };
        let full = run_sweep(&spec, false).expect("unpruned");
        let fast = run_sweep(&spec, true).expect("pruned");
        assert_eq!(full.points.len(), fast.points.len());
        for (a, b) in full.points.iter().zip(&fast.points) {
            assert_eq!(a.metrics, b.metrics, "{}: metrics must match", a.app);
            assert_eq!(a.request, b.request);
        }
        assert_eq!(full.pruned(), 0);
        assert!(fast.pruned() > 0, "the tiny grid must prune something");
    }

    #[test]
    fn max_agents_cap_clamps_the_request() {
        let base = gpu_sim::arch::gtx570();
        let cfg = geometry_config(&base, 16, 4, IndexFn::Hashed).expect("geometry");
        let workload = gpu_kernels::suite::by_abbr("NW", cfg.arch).expect("NW in suite");
        let capped = AppPlan::with_config_capped(cfg, workload, Some(2));
        assert_eq!(capped.max_agents, 2);
        match AgentsAxis::Opt.request(&capped) {
            SimRequest::Throttled(n) => assert!(n <= 2, "opt clamps to the cap"),
            other => panic!("opt resolves to throttled, got {other:?}"),
        }
    }
}
