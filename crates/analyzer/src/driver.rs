//! The analysis driver: runs every pass family over one workload on one
//! GPU, mirroring the variant stack of the Figure 12/13 harness
//! (`cluster_bench::runner::AppPlan`) so the analyzer audits exactly what
//! the evaluation executes.

use crate::diag::{Report, THROTTLE_CLAMPED, TRANSFORM_CONSTRUCTION_FAILED};
use crate::profile::StaticProfile;
use crate::{hb, ir, plan as plan_audit, transform};
use cluster_bench::runner::{hinted_axis, hinted_partition, SharedKernel};
use cta_clustering::{
    clamp_active_agents, AgentKernel, Axis, BypassKernel, Plan, RedirectionKernel, PREFETCH_DEPTH,
};
use gpu_kernels::{PaperCategory, Workload};
use gpu_sim::{GpuConfig, KernelSpec};
use locality::Category;

/// Resolves the paper's Table 2 category label into the [`Category`] the
/// plan carries, resolving the combined `Data&Writing` label with the
/// statically observed category when it matches either half.
fn paper_to_category(paper: PaperCategory, observed: Category) -> Category {
    match paper {
        PaperCategory::Algorithm => Category::Algorithm,
        PaperCategory::CacheLine => Category::CacheLine,
        PaperCategory::Data => Category::Data,
        PaperCategory::Write => Category::Write,
        PaperCategory::Streaming => Category::Streaming,
        PaperCategory::DataWrite => {
            if matches!(observed, Category::Data | Category::Write) {
                observed
            } else {
                Category::Data
            }
        }
    }
}

/// Runs all three pass families over `workload` on `base_cfg`, appending
/// findings to `report`.
///
/// The checked variants mirror the harness: partition invariants on the
/// hinted axis (and the opposite axis, since `tune`-style probes build
/// both), redirection and agent transforms over the hinted partition,
/// IR lints on the baseline / bypassed / prefetching programs, and the
/// plan audit over the statically derived optimization plan.
pub fn analyze_workload(workload: Box<dyn Workload>, base_cfg: &GpuConfig, report: &mut Report) {
    let kernel = SharedKernel::new(workload);
    let info = kernel.info();
    let launch = kernel.launch();
    let cfg = base_cfg.prefer_l1(launch.smem_per_cta);
    let base = format!("{}/{}", info.abbr, cfg.name);
    let grid = launch.grid;
    let m = cfg.num_sms as u64;

    // Pass family 0: the cache geometry every variant below will run on
    // must be modelable at all — a degenerate split fails here instead of
    // panicking inside the engine's constructors.
    plan_audit::check_cache_geometry(&cfg, &format!("{base}/geometry"), report);

    // Pass family 1a: partition invariants, both axes (the framework's
    // axis probe constructs both, so both must be sound).
    for axis in [Axis::Y, Axis::X] {
        match axis.partition(grid, m) {
            Ok(p) => transform::check_partition(&p, &format!("{base}/partition:{axis}"), report),
            Err(e) => report.emit(
                &TRANSFORM_CONSTRUCTION_FAILED,
                &format!("{base}/partition:{axis}"),
                format!("partition: {e}"),
            ),
        }
    }

    let partition = hinted_partition(&kernel, &cfg);

    // Pass family 1b: redirection permutation.
    let rd = RedirectionKernel::new(kernel.clone(), partition.clone());
    transform::check_redirection(&rd, &format!("{base}/RD"), report);

    // Pass family 1c: agent coverage, throttling, occupancy.
    let agents = match AgentKernel::with_partition(kernel.clone(), &cfg, partition.clone()) {
        Ok(a) => a,
        Err(e) => {
            report.emit(
                &TRANSFORM_CONSTRUCTION_FAILED,
                &format!("{base}/CLU"),
                format!("agent transform: {e}"),
            );
            return;
        }
    };
    transform::check_agents(&agents, &format!("{base}/CLU"), report);
    transform::check_agent_occupancy(&agents, &cfg, &format!("{base}/CLU"), report);

    let max_agents = agents.max_agents();
    let requested = info.opt_agents_for(cfg.arch);
    let active = clamp_active_agents(requested, max_agents);
    if active != requested {
        report.emit(
            &THROTTLE_CLAMPED,
            &format!("{base}/CLU+TOT"),
            format!(
                "Table 2 opt agents = {requested}, runtime clamps to {active} (MAX_AGENTS = {max_agents})"
            ),
        );
    }
    let throttled = match agents.clone().with_active_agents(active) {
        Ok(t) => t,
        Err(e) => {
            report.emit(
                &TRANSFORM_CONSTRUCTION_FAILED,
                &format!("{base}/CLU+TOT"),
                format!("throttle: {e}"),
            );
            return;
        }
    };
    transform::check_agents(&throttled, &format!("{base}/CLU+TOT"), report);

    // Pass family 2: IR lints — baseline stream, then the bypassed and
    // prefetching agent programs (the variants that rewrite cache ops).
    // The baseline pass's line census also narrows the word-level
    // streaming set to the bypass set the BPS variant runs.
    let profile = StaticProfile::collect(&kernel, &cfg);
    let baseline = ir::IrPass::collect(&kernel, &cfg);
    let bypass_tags = baseline.strict_streaming_tags(profile.word_streaming_tags());
    baseline.finish(&format!("{base}/BSL"), report);

    // Pass families 7 + 8: the CL2xx cost model and the CL3xx set-conflict
    // model share one walked access summary of the baseline stream at the
    // harness's cache geometry.
    let summary = locality::AccessSummary::collect_on(&kernel, &cfg);
    let verdict =
        crate::costmodel::check_summary(&summary, &cfg, &format!("{base}/costmodel"), report);
    crate::setmodel::check_summary(
        &summary,
        &cfg,
        &verdict.interval,
        &format!("{base}/setmodel"),
        report,
    );

    match AgentKernel::with_partition(
        BypassKernel::new(kernel.clone(), bypass_tags.clone()),
        &cfg,
        partition.clone(),
    )
    .and_then(|a| a.with_active_agents(active))
    {
        Ok(bypassed) => ir::check_kernel(&bypassed, &cfg, &format!("{base}/CLU+TOT+BPS"), report),
        Err(e) => report.emit(
            &TRANSFORM_CONSTRUCTION_FAILED,
            &format!("{base}/CLU+TOT+BPS"),
            format!("bypass transform: {e}"),
        ),
    }

    // Pass families 2 + 4a over the prefetching variant, fused into one
    // walk (program generation dominates walk cost for agent kernels).
    // The happens-before pass sees the full binding protocol here — the
    // atomic ticket and broadcast barrier on Maxwell/Pascal presets —
    // stacked on the inner kernel's access stream; the inserted
    // prefetches are non-binding and invisible to it.
    let prefetching = throttled.with_prefetch(PREFETCH_DEPTH);
    let mut ir_pass = ir::IrPass::new();
    // The agent variant's write/atomic set is the inner kernel's plus the
    // protocol's ticket counter; reads outside it cannot race.
    let mut written = profile.written_tags().to_vec();
    written.push(cta_clustering::protocol::COUNTER_TAG);
    let mut hb_pass = hb::HbPass::new().with_written_tags(written);
    gpu_sim::walk::each_warp_program_on(&prefetching, &cfg, |ctx, warp, prog| {
        ir_pass.visit(ctx, warp, prog);
        hb_pass.visit(ctx, warp, prog);
    });
    ir_pass.finish(&format!("{base}/PFH+TOT"), report);
    hb_pass.finish(&format!("{base}/PFH+TOT"), report);

    // Pass family 3: audit the plan the framework stack would execute.
    let plan = Plan::for_category(
        paper_to_category(info.category, profile.category),
        hinted_axis(info.partition),
        Some(active),
        bypass_tags,
    );
    plan_audit::audit(&plan, &profile, max_agents, &format!("{base}/plan"), report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch;

    #[test]
    fn single_workload_analysis_is_deny_clean() {
        let cfg = arch::gtx570();
        let mut r = Report::new();
        let w = gpu_kernels::suite::by_abbr("MM", cfg.arch).unwrap();
        analyze_workload(w, &cfg, &mut r);
        assert_eq!(r.deny_count(), 0, "{}", r.render_human());
        assert!(r.subjects_checked() >= 9);
    }

    #[test]
    fn paper_category_resolution() {
        assert_eq!(
            paper_to_category(PaperCategory::DataWrite, Category::Write),
            Category::Write
        );
        assert_eq!(
            paper_to_category(PaperCategory::DataWrite, Category::Streaming),
            Category::Data
        );
        assert_eq!(
            paper_to_category(PaperCategory::Algorithm, Category::Streaming),
            Category::Algorithm
        );
    }
}
