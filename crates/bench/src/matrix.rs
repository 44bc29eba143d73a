//! The committed benchmark matrix, as one reusable enumeration.
//!
//! `sim_core` measures the simulator core over a fixed request matrix —
//! every preset × Table 2 app × Figure 12 variant, plus the
//! aggregated-tag-array sweep — and commits the aggregate as
//! `BENCH_sim_core.json` (885 runs). The static cost model's soundness
//! gate (`analyze --verify-costmodel`) must check its hit-rate intervals
//! against *exactly those runs*, so the enumeration lives here and both
//! binaries drive it through [`drive_matrix`].
//!
//! Every run is metered: the engine's conservation laws are checked and
//! violations are counted (and logged) rather than aborting, so a single
//! broken invariant doesn't mask others.

use crate::runner::{AppPlan, SimRequest};
use cta_clustering::ClusterError;
use gpu_sim::{EngineMetrics, GpuConfig, RunStats};
use std::time::{Duration, Instant};

/// Aggregates over one matrix drive.
#[derive(Debug, Default)]
pub struct MatrixTotals {
    /// Simulations executed.
    pub runs: u64,
    /// Conservation-law violations observed (already logged to stderr).
    pub violations: u64,
    /// Summed engine event accounting.
    pub engine: EngineMetrics,
    /// Program-cache hits across all plans.
    pub cache_hits: u64,
    /// Program-cache fills across all plans.
    pub cache_fills: u64,
}

impl MatrixTotals {
    /// Fraction of cycles the event-driven engine never stepped.
    pub fn skip_ratio(&self) -> f64 {
        let denom = self.engine.issues + self.engine.cycles_skipped;
        if denom > 0 {
            self.engine.cycles_skipped as f64 / denom as f64
        } else {
            0.0
        }
    }

    /// Program-cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_fills;
        if lookups > 0 {
            self.cache_hits as f64 / lookups as f64
        } else {
            0.0
        }
    }
}

/// One ATA-sweep comparison row: an app's demand hit rates under the
/// stock Maxwell preset and its aggregated-tag-array variant.
#[derive(Debug, Clone)]
pub struct AtaRow {
    /// Table 2 abbreviation.
    pub abbr: String,
    /// Baseline L1 read hit rate.
    pub l1_base: f64,
    /// ATA-variant L1 read hit rate.
    pub l1_ata: f64,
    /// Baseline L2 read hit rate.
    pub l2_base: f64,
    /// ATA-variant L2 read hit rate.
    pub l2_ata: f64,
}

/// The full ATA sweep result.
#[derive(Debug, Clone)]
pub struct AtaSummary {
    /// Stock preset name.
    pub base_arch: String,
    /// Variant preset name.
    pub ata_arch: String,
    /// One row per Table 2 app.
    pub rows: Vec<AtaRow>,
    /// Apps whose L1 hit rate improved under ATA.
    pub improved: u32,
    /// Mean L1 hit-rate delta (ATA − base).
    pub mean_l1_delta: f64,
}

/// Observer invoked once per metered run with the plan, the request, the
/// run's stats and engine metrics, and its wall time.
pub type RunObserver<'a> =
    &'a mut dyn FnMut(&AppPlan, SimRequest, &RunStats, &EngineMetrics, Duration);

/// Runs the `sim_core` matrix over `configs` (the Figure 12 phase-A/B
/// stack per app) and, when `ata` is set, the aggregated-tag-array sweep
/// appended after it — the exact run set `BENCH_sim_core.json` commits.
///
/// `observe` fires after every run; totals accumulate into `totals` so a
/// caller can drive several parts and sum them.
///
/// # Errors
///
/// Propagates the first harness failure (transform construction, suite
/// lookup, simulation error).
pub fn drive_matrix(
    configs: &[GpuConfig],
    reduced: bool,
    ata: bool,
    totals: &mut MatrixTotals,
    observe: RunObserver<'_>,
) -> Result<Option<AtaSummary>, ClusterError> {
    // Serial on purpose: the metrics aggregate deterministically and the
    // consumers (bench, soundness gate) both want reproducible order.
    for cfg in configs {
        let workloads = if reduced {
            reduced_apps(cfg)?
        } else {
            gpu_kernels::suite::table2_suite(cfg.arch)
        };
        for workload in workloads {
            let plan = AppPlan::new(cfg, workload);
            plan.evaluate(|req| metered(&plan, req, totals, observe))?;
            let (hits, fills) = plan.cache_counters();
            totals.cache_hits += hits;
            totals.cache_fills += fills;
        }
    }
    if !ata {
        return Ok(None);
    }
    // ATA sweep: every Table 2 app under the stock Maxwell preset and
    // under its ATA variant (identical except `l1.aggregated_tags`),
    // Baseline request. The runs are metered like the matrix runs, so
    // they obey the same conservation laws and count into the totals.
    let base_cfg = gpu_sim::arch::gtx980();
    let ata_cfg = gpu_sim::arch::ata_variant(base_cfg.clone());
    let mut rows: Vec<AtaRow> = Vec::new();
    let mut improved = 0u32;
    let mut delta_sum = 0.0f64;
    for workload in gpu_kernels::suite::table2_suite(base_cfg.arch) {
        let base_plan = AppPlan::new(&base_cfg, workload);
        let abbr = base_plan.info.abbr.to_string();
        let twin = gpu_kernels::suite::by_abbr(&abbr, ata_cfg.arch)
            .ok_or_else(|| ClusterError::harness(format!("{abbr} not in suite")))?;
        let ata_plan = AppPlan::new(&ata_cfg, twin);
        let base = metered(&base_plan, SimRequest::Baseline, totals, observe)?;
        let ata_stats = metered(&ata_plan, SimRequest::Baseline, totals, observe)?;
        let (l1_base, l1_ata) = (base.l1.read_hit_rate(), ata_stats.l1.read_hit_rate());
        if l1_ata > l1_base {
            improved += 1;
        }
        delta_sum += l1_ata - l1_base;
        rows.push(AtaRow {
            abbr,
            l1_base,
            l1_ata,
            l2_base: base.l2.read_hit_rate(),
            l2_ata: ata_stats.l2.read_hit_rate(),
        });
    }
    let apps = rows.len().max(1);
    Ok(Some(AtaSummary {
        base_arch: base_cfg.name,
        ata_arch: ata_cfg.name,
        improved,
        mean_l1_delta: delta_sum / apps as f64,
        rows,
    }))
}

/// The reduced (CI smoke) app subset of one preset.
pub fn reduced_apps(cfg: &GpuConfig) -> Result<Vec<Box<dyn gpu_kernels::Workload>>, ClusterError> {
    ["NW", "BS", "HS"]
        .iter()
        .map(|a| {
            gpu_kernels::suite::by_abbr(a, cfg.arch)
                .ok_or_else(|| ClusterError::harness(format!("{a} not in suite")))
        })
        .collect()
}

fn metered(
    plan: &AppPlan,
    req: SimRequest,
    totals: &mut MatrixTotals,
    observe: RunObserver<'_>,
) -> Result<RunStats, ClusterError> {
    let t0 = Instant::now();
    let (stats, metrics) = plan.run_metered(req)?;
    let elapsed = t0.elapsed();
    if let Err(law) = metrics.check_conservation(&stats) {
        eprintln!(
            "conservation violation: {}/{}/{}: {law}",
            plan.cfg.name,
            plan.info.abbr,
            req.label()
        );
        totals.violations += 1;
    }
    totals.engine.absorb(&metrics);
    totals.runs += 1;
    observe(plan, req, &stats, &metrics, elapsed);
    Ok(stats)
}
