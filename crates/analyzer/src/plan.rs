//! Pass family 3: optimization-plan audit.
//!
//! Cross-checks a [`Plan`] (the Figure 11 framework's output) against the
//! statically re-derived locality profile: the plan must not exploit
//! unexploitable locality, must not bypass reused arrays, must not
//! prefetch where clustering already wins, and must keep its throttle
//! inside the occupancy bound.

use crate::diag::{
    Report, DEGENERATE_CACHE_GEOMETRY, PLAN_BYPASS_REUSED_TAG, PLAN_EXPLOITS_UNEXPLOITABLE,
    PLAN_PREFETCH_ON_EXPLOITABLE, SERVED_PLAN_FAILS_AUDIT, STATIC_CATEGORY_MISMATCH,
    THROTTLE_CLAMPED, THROTTLE_EXCEEDS_OCCUPANCY,
};
use crate::profile::StaticProfile;
use cta_clustering::{clamp_active_agents, Plan};
use gpu_sim::GpuConfig;

/// A bypassed tag with at least this static word-reuse rate is flagged.
const BYPASS_TAG_REUSE_MAX: f64 = 0.05;

/// Audits `plan` against the static `profile` and the occupancy-derived
/// `max_agents`, emitting CL026/CL027 and CL030–CL033.
pub fn audit(
    plan: &Plan,
    profile: &StaticProfile,
    max_agents: u32,
    subject: &str,
    report: &mut Report,
) {
    report.note_subject();

    // CL030: the category the plan is predicated on must match what the
    // address streams say. Warn-level: threshold effects on borderline
    // kernels are expected, a disagreement is a review prompt.
    let static_cat = profile.category;
    if static_cat != plan.category {
        report.emit(
            &STATIC_CATEGORY_MISMATCH,
            subject,
            format!(
                "plan says {}, static address streams classify as {static_cat}",
                plan.category
            ),
        );
    }

    // CL031: an exploit plan over a category the paper calls
    // unexploitable is self-contradictory (Figure 5's decision table).
    if plan.exploit_locality && !plan.category.exploitable() {
        report.emit(
            &PLAN_EXPLOITS_UNEXPLOITABLE,
            subject,
            format!(
                "plan exploits locality but its category is {}",
                plan.category
            ),
        );
    }

    // CL032: bypassing an array whose accesses carry word reuse defeats
    // the bypass's purpose — the L1 was serving those hits.
    let mut reused: Vec<String> = Vec::new();
    for &tag in &plan.bypass {
        let s = profile.tag_summary(tag);
        if s.reuse_rate() >= BYPASS_TAG_REUSE_MAX {
            reused.push(format!(
                "tag {tag}: {:.0}% word reuse over {} accesses",
                s.reuse_rate() * 100.0,
                s.accesses
            ));
        }
    }
    if !reused.is_empty() {
        report.emit(&PLAN_BYPASS_REUSED_TAG, subject, reused.join("; "));
    }

    // CL033: prefetching exists to salvage unexploitable kernels (§4.3);
    // on an exploit plan it competes with the locality it should yield to.
    if plan.prefetch > 0 && plan.exploit_locality {
        report.emit(
            &PLAN_PREFETCH_ON_EXPLOITABLE,
            subject,
            format!(
                "prefetch depth {} on an exploit plan (category {})",
                plan.prefetch, plan.category
            ),
        );
    }

    // CL026/CL027: throttle vs occupancy. An out-of-range request is
    // repaired at apply time by `clamp_active_agents`; the deny lint
    // fires only if the repair would *not* restore validity (impossible
    // by construction — kept as the analyzer's own consistency check),
    // the warn lint whenever the repair changes the request.
    if let Some(active) = plan.active_agents {
        let clamped = clamp_active_agents(active, max_agents);
        if clamped == 0 || clamped > max_agents {
            report.emit(
                &THROTTLE_EXCEEDS_OCCUPANCY,
                subject,
                format!(
                    "ACTIVE_AGENTS = {active} not repairable against MAX_AGENTS = {max_agents}"
                ),
            );
        } else if clamped != active {
            report.emit(
                &THROTTLE_CLAMPED,
                subject,
                format!("requested ACTIVE_AGENTS = {active}, runtime clamps to {clamped} (MAX_AGENTS = {max_agents})"),
            );
        }
    }

    // Note: a bypass list on an unexploitable plan is deliberately not a
    // lint of its own — streaming kernels have nothing to protect in L1,
    // and the other unexploitable categories are already covered by
    // CL032 through their per-tag reuse rates.
}

/// Gate form of [`audit`] for the serving layer: runs the full plan
/// audit into a scratch report and collapses any deny-level finding
/// into one CL401 against `subject`, returning `true` when the plan is
/// clean enough to serve. Warn-level findings (category mismatch,
/// clamped throttle) are forwarded verbatim — they annotate but do not
/// block a response; deny-level ones mean the plan must not leave the
/// server. `cta-serve` runs every response through this before it is
/// written, and the serve test-suite re-audits golden fixtures with it.
pub fn audit_served(
    plan: &Plan,
    profile: &StaticProfile,
    max_agents: u32,
    subject: &str,
    report: &mut Report,
) -> bool {
    let mut scratch = Report::new();
    audit(plan, profile, max_agents, subject, &mut scratch);
    report.note_subject();
    let denies: Vec<String> = scratch
        .diagnostics()
        .iter()
        .filter(|d| d.level == crate::diag::Level::Deny)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    let clean = denies.is_empty();
    for d in scratch.diagnostics() {
        if d.level != crate::diag::Level::Deny {
            report.emit(
                crate::diag::lint_by_code(d.code).expect("audit emits registered lints"),
                subject,
                d.message.clone(),
            );
        }
    }
    if !clean {
        report.emit(&SERVED_PLAN_FAILS_AUDIT, subject, denies.join("; "));
    }
    clean
}

/// Audits the cache geometry a plan will run on, emitting CL034 when
/// [`GpuConfig::validate`] rejects it (a sector size that does not split
/// the line, a configured or carved array that holds no whole sets) or
/// when an aggregated-tag array sits over a non-power-of-two bank or
/// sector split, which no constructor checks. The engine refuses or
/// mis-models these; the lint turns that into an analyze-gate failure
/// at plan-audit time.
pub fn check_cache_geometry(cfg: &GpuConfig, subject: &str, report: &mut Report) {
    if let Err(e) = cfg.validate() {
        report.emit(&DEGENERATE_CACHE_GEOMETRY, subject, e.to_string());
    }
    for (level, c, split, split_what) in [
        ("L1", &cfg.l1, cfg.l1_sectors, "sector array"),
        ("L2", &cfg.l2, cfg.timings.l2_banks, "bank"),
    ] {
        if c.aggregated_tags && !split.is_power_of_two() {
            report.emit(
                &DEGENERATE_CACHE_GEOMETRY,
                subject,
                format!(
                    "{level}: aggregated tag array over {split} {split_what}s \
                     needs a power-of-two split"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_clustering::Axis;
    use gpu_sim::{arch, CtaContext, Dim3, KernelSpec, LaunchConfig, MemAccess, Op, Program};
    use locality::Category;

    /// CTAs re-read a shared table (tag 0) and stream tag 1.
    #[derive(Debug, Clone)]
    struct Shared;

    impl KernelSpec for Shared {
        fn name(&self) -> String {
            "shared".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(16), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(1, (1 << 30) + ctx.cta * 128, 32, 4)),
            ]
        }
    }

    fn profile() -> StaticProfile {
        StaticProfile::collect(&Shared, &arch::gtx570())
    }

    fn exploit_plan() -> Plan {
        Plan {
            category: Category::Algorithm,
            axis: Axis::Y,
            exploit_locality: true,
            active_agents: Some(4),
            bypass: vec![1],
            prefetch: 0,
        }
    }

    #[test]
    fn consistent_plan_is_clean() {
        let p = profile();
        assert_eq!(p.category, Category::Algorithm);
        let mut r = Report::new();
        audit(&exploit_plan(), &p, 8, "t", &mut r);
        assert_eq!(r.deny_count(), 0, "{}", r.render_human());
        assert_eq!(r.warn_count(), 0);
    }

    #[test]
    fn category_mismatch_fires_cl030() {
        let mut plan = exploit_plan();
        plan.category = Category::CacheLine;
        let mut r = Report::new();
        audit(&plan, &profile(), 8, "t", &mut r);
        assert!(r.has(&STATIC_CATEGORY_MISMATCH));
        assert_eq!(r.deny_count(), 0, "mismatch is warn-level");
    }

    #[test]
    fn exploiting_streaming_fires_cl031() {
        let mut plan = exploit_plan();
        plan.category = Category::Streaming;
        let mut r = Report::new();
        audit(&plan, &profile(), 8, "t", &mut r);
        assert!(r.has(&PLAN_EXPLOITS_UNEXPLOITABLE));
    }

    #[test]
    fn bypassing_reused_tag_fires_cl032() {
        let mut plan = exploit_plan();
        plan.bypass = vec![0]; // the shared table
        let mut r = Report::new();
        audit(&plan, &profile(), 8, "t", &mut r);
        assert!(r.has(&PLAN_BYPASS_REUSED_TAG), "{}", r.render_human());
    }

    #[test]
    fn prefetch_on_exploit_plan_fires_cl033() {
        let mut plan = exploit_plan();
        plan.prefetch = 2;
        let mut r = Report::new();
        audit(&plan, &profile(), 8, "t", &mut r);
        assert!(r.has(&PLAN_PREFETCH_ON_EXPLOITABLE));
    }

    #[test]
    fn sane_preset_geometries_pass_cl034() {
        let mut r = Report::new();
        for cfg in arch::all_presets() {
            check_cache_geometry(&cfg, &cfg.name.clone(), &mut r);
            check_cache_geometry(&arch::ata_variant(cfg), "ata", &mut r);
        }
        assert_eq!(r.deny_count(), 0, "{}", r.render_human());
    }

    #[test]
    fn sector_not_dividing_line_fires_cl034() {
        let mut cfg = arch::gtx570();
        cfg.l1.sector_bytes = 48; // non-pow2, does not divide 128
        let mut r = Report::new();
        check_cache_geometry(&cfg, "t", &mut r);
        assert!(r.has(&DEGENERATE_CACHE_GEOMETRY), "{}", r.render_human());
    }

    #[test]
    fn oversplit_sectors_fire_cl034() {
        let mut cfg = arch::gtx570();
        cfg.l1.line_bytes = 128;
        cfg.l1.sector_bytes = 2; // 64 sectors: exceeds the u32 masks
        let mut r = Report::new();
        check_cache_geometry(&cfg, "t", &mut r);
        assert!(r.has(&DEGENERATE_CACHE_GEOMETRY));
    }

    #[test]
    fn ata_over_non_pow2_banks_fires_cl034() {
        let mut cfg = arch::gtx570(); // 6 L2 banks
        cfg.l2.aggregated_tags = true;
        let mut r = Report::new();
        check_cache_geometry(&cfg, "t", &mut r);
        assert!(r.has(&DEGENERATE_CACHE_GEOMETRY), "{}", r.render_human());
        // The same flag over the power-of-two L1 sector split is fine.
        let mut ok = Report::new();
        check_cache_geometry(&arch::ata_variant(arch::gtx570()), "t", &mut ok);
        assert_eq!(ok.deny_count(), 0);
    }

    #[test]
    fn zero_set_config_fires_cl034() {
        let mut cfg = arch::gtx570();
        cfg.l1.size_bytes = 256; // under one 128B line x 4 ways
        let mut r = Report::new();
        check_cache_geometry(&cfg, "t", &mut r);
        assert!(r.has(&DEGENERATE_CACHE_GEOMETRY), "{}", r.render_human());
    }

    #[test]
    fn audit_served_passes_clean_plan() {
        let mut r = Report::new();
        assert!(audit_served(&exploit_plan(), &profile(), 8, "t", &mut r));
        assert!(!r.has(&SERVED_PLAN_FAILS_AUDIT));
        assert_eq!(r.deny_count(), 0);
        assert_eq!(r.subjects_checked(), 1);
    }

    #[test]
    fn audit_served_collapses_denies_into_cl401() {
        let mut plan = exploit_plan();
        plan.category = Category::Streaming; // CL031 (deny)
        plan.bypass = vec![0]; // CL032 (deny)
        let mut r = Report::new();
        assert!(!audit_served(&plan, &profile(), 8, "t", &mut r));
        assert!(r.has(&SERVED_PLAN_FAILS_AUDIT), "{}", r.render_human());
        assert_eq!(r.deny_count(), 1, "denies collapse into one CL401");
        let diags = r.diagnostics();
        let cl401 = diags.iter().find(|d| d.code == "CL401").unwrap();
        assert!(cl401.message.contains("CL031"), "{}", cl401.message);
        assert!(cl401.message.contains("CL032"), "{}", cl401.message);
    }

    #[test]
    fn audit_served_forwards_warns_without_cl401() {
        let mut plan = exploit_plan();
        plan.active_agents = Some(100); // CL027 (warn) after clamping
        let mut r = Report::new();
        assert!(audit_served(&plan, &profile(), 8, "t", &mut r));
        assert!(r.has(&THROTTLE_CLAMPED), "{}", r.render_human());
        assert!(!r.has(&SERVED_PLAN_FAILS_AUDIT));
        assert_eq!(r.deny_count(), 0);
    }

    #[test]
    fn clamped_throttle_fires_cl027_not_cl026() {
        let mut plan = exploit_plan();
        plan.active_agents = Some(100);
        let mut r = Report::new();
        audit(&plan, &profile(), 8, "t", &mut r);
        assert!(r.has(&THROTTLE_CLAMPED));
        assert!(!r.has(&THROTTLE_EXCEEDS_OCCUPANCY));
        assert_eq!(r.deny_count(), 0, "a repairable request is warn-level");
    }
}
