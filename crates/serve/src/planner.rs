//! Request planning: from a parsed [`Request`] to a `plan/v1` body.
//!
//! The default path is fully static — no cache or timing simulation:
//!
//! 1. Resolve the GPU preset and materialize the kernel (suite workload
//!    for `"app"`, a [`DescribedKernel`] for structural descriptions,
//!    which are refused as `bad-kernel` when their walk would exceed
//!    2^22 warp ops).
//! 2. Classify the locality source from the statically enumerated
//!    address streams ([`StaticProfile`]) and find the streaming tags.
//! 3. Assemble the clustering plan with Figure 5's decision table
//!    ([`Plan::for_category`]), with the throttle seeded from the
//!    Table 2 optimum for named apps.
//! 4. Bound the predicted L1 hit rate with the sound static cost model
//!    ([`locality::AccessSummary::hit_interval`]).
//! 5. Gate the response through the analyzer's served-plan audit
//!    (CL401): a plan that fails the audit never leaves the server.
//!
//! `"mode":"measured"` additionally sweeps throttling degrees with real
//! simulations ([`cluster_bench::AppPlan`]'s phase A).

use crate::proto::{AccessKind, KernelRef, Mode, ProtoError, RawKernel, Request};
use cluster_bench::runner::hinted_axis;
use cta_analyzer::plan::audit_served;
use cta_analyzer::{Report, StaticProfile};
use cta_clustering::{clamp_active_agents, Axis, Framework, Plan};
use gpu_kernels::Workload;
use gpu_sim::{arch, CtaContext, Dim3, GpuConfig, KernelSpec, LaunchConfig, MemAccess, Op};
use locality::{AccessSummary, HitInterval};

/// Most warp ops a structural kernel may make the planner walk: 8× the
/// largest suite walk (KMN on GTX570, 526,080 ops). Fixed on purpose — a
/// request line must not be able to hold a worker for unbounded time.
const MAX_WALK_OPS: u64 = 1 << 22;

/// Resolves a normalized preset name (see [`crate::proto::normalize_gpu`])
/// to its [`GpuConfig`]. Covers the four Table 1 presets plus the
/// GTX 750 Ti used by the sectored-cache experiments.
pub fn resolve_gpu(normalized: &str) -> Option<GpuConfig> {
    match normalized {
        "GTX570" => Some(arch::gtx570()),
        "TESLAK40" | "K40" => Some(arch::tesla_k40()),
        "GTX980" => Some(arch::gtx980()),
        "GTX1080" => Some(arch::gtx1080()),
        "GTX750TI" => Some(arch::gtx750ti()),
        _ => None,
    }
}

/// Looks up a suite workload by abbreviation: the 23 Table 2 rows plus
/// the Figure 3 extras.
pub fn lookup_app(abbr: &str, cfg: &GpuConfig) -> Option<Box<dyn Workload>> {
    gpu_kernels::suite::by_abbr(abbr, cfg.arch).or_else(|| {
        gpu_kernels::suite::fig3_suite(cfg.arch)
            .into_iter()
            .find(|w| w.info().abbr == abbr)
    })
}

/// A kernel materialized from a structural description: every warp
/// performs the described access patterns at its grid position.
#[derive(Debug, Clone)]
pub struct DescribedKernel {
    raw: RawKernel,
}

impl DescribedKernel {
    /// Wraps a parsed description.
    pub fn new(raw: RawKernel) -> Self {
        DescribedKernel { raw }
    }
}

impl KernelSpec for DescribedKernel {
    fn name(&self) -> String {
        "described".into()
    }

    fn launch(&self) -> LaunchConfig {
        let [x, y, z] = self.raw.grid;
        LaunchConfig::new(Dim3::new(x, y, z), self.raw.block)
            .with_regs(self.raw.regs)
            .with_smem(self.raw.smem)
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Vec<Op> {
        let mut prog = Vec::with_capacity(self.raw.accesses.len());
        for a in &self.raw.accesses {
            for rep in 0..a.reps {
                let base = a.base
                    + ctx.cta * a.cta_stride
                    + warp as u64 * a.warp_stride
                    + rep as u64 * a.rep_stride;
                let acc = MemAccess::coalesced(a.tag, base, a.lanes, a.bytes);
                prog.push(match a.kind {
                    AccessKind::Load => Op::Load(acc),
                    AccessKind::Store => Op::Store(acc),
                });
            }
        }
        prog
    }
}

/// Everything a success response carries. Pure data: rendering it (with
/// the per-request correlation id patched in) is the cache-hit path.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBody {
    /// App abbreviation for named requests.
    pub app: Option<String>,
    /// Normalized GPU preset name.
    pub gpu: String,
    /// The clustering plan.
    pub plan: Plan,
    /// Occupancy bound the throttle was validated against.
    pub max_agents: u32,
    /// Sound static L1 hit-rate bounds.
    pub hit: HitInterval,
    /// Warps per CTA at this GPU's warp width.
    pub warps_per_cta: u32,
    /// CTAs in the grid.
    pub ctas: u64,
}

impl PlanBody {
    /// Renders the response line for correlation id `id` (no trailing
    /// newline). Field order and float formatting are part of the
    /// protocol, pinned by the golden tests.
    pub fn render(&self, id: &str) -> String {
        use crate::proto::{json_escape, PROTO};
        let mut out = format!(
            "{{\"proto\":\"{PROTO}\",\"id\":\"{}\",\"gpu\":\"{}\"",
            json_escape(id),
            json_escape(&self.gpu)
        );
        if let Some(app) = &self.app {
            out.push_str(&format!(",\"app\":\"{}\"", json_escape(app)));
        }
        out.push_str(&format!(
            ",\"category\":\"{}\",\"exploit\":{},\"axis\":\"{}\"",
            self.plan.category, self.plan.exploit_locality, self.plan.axis
        ));
        match self.plan.active_agents {
            Some(n) => out.push_str(&format!(",\"active_agents\":{n}")),
            None => out.push_str(",\"active_agents\":null"),
        }
        out.push_str(&format!(",\"max_agents\":{}", self.max_agents));
        out.push_str(",\"bypass\":[");
        for (i, t) in self.plan.bypass.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
        out.push_str(&format!("],\"prefetch\":{}", self.plan.prefetch));
        out.push_str(&format!(
            ",\"hit_lo\":{:.6},\"hit_hi\":{:.6},\"reads\":{}",
            self.hit.lo, self.hit.hi, self.hit.reads
        ));
        out.push_str(&format!(
            ",\"warps_per_cta\":{},\"ctas\":{}}}",
            self.warps_per_cta, self.ctas
        ));
        out
    }
}

/// Rejects a structural kernel whose static walk would exceed
/// [`MAX_WALK_OPS`]: CTAs × warps per CTA × ops per warp, where a warp
/// with no accesses still costs one walk step. The product saturates, so
/// it cannot overflow, and it runs before `LaunchConfig::validate`, whose
/// `Dim3::count` would.
fn check_walk_budget(raw: &RawKernel, warp_size: u32) -> Result<(), ProtoError> {
    let [x, y, z] = raw.grid;
    let warps = raw.block.div_ceil(warp_size);
    let per_warp = raw
        .accesses
        .iter()
        .map(|a| a.reps as u64)
        .sum::<u64>()
        .max(1);
    let ops = [x as u64, y as u64, z as u64, warps as u64, per_warp]
        .into_iter()
        .fold(1, u64::saturating_mul);
    if ops > MAX_WALK_OPS {
        return Err(ProtoError::new(
            "bad-kernel",
            format!(
                "walk of {x}x{y}x{z} CTAs x {warps} warps x {per_warp} ops \
                 exceeds the {MAX_WALK_OPS}-op budget"
            ),
        ));
    }
    Ok(())
}

fn plan_kernel<K: KernelSpec + ?Sized>(
    kernel: &K,
    cfg: &GpuConfig,
    axis: Axis,
    opt_agents: Option<u32>,
    app: Option<String>,
    subject: &str,
) -> Result<PlanBody, ProtoError> {
    kernel
        .launch()
        .validate()
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let fw = Framework::new(cfg.clone());
    let max_agents = fw
        .max_agents_for(kernel)
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let profile = StaticProfile::collect(kernel, cfg);
    let plan = Plan::for_category(
        profile.category,
        axis,
        opt_agents.map(|n| clamp_active_agents(n, max_agents)),
        profile.word_streaming_tags(),
    );
    let mut report = Report::new();
    if !audit_served(&plan, &profile, max_agents, subject, &mut report) {
        let detail = report
            .diagnostics()
            .iter()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect::<Vec<_>>()
            .join("; ");
        return Err(ProtoError::new("audit", detail));
    }
    let hit = AccessSummary::collect_on(kernel, cfg).hit_interval(cfg);
    let launch = kernel.launch();
    Ok(PlanBody {
        app,
        gpu: crate::proto::normalize_gpu(&cfg.name),
        plan,
        max_agents,
        hit,
        warps_per_cta: launch.warps_per_cta(cfg.warp_size),
        ctas: launch.num_ctas(),
    })
}

/// Plans one request end to end. Deterministic: the result is a pure
/// function of the request's semantic fields, which is what makes the
/// content-addressed cache sound and responses byte-identical across
/// worker counts.
pub fn plan_request(req: &Request) -> Result<PlanBody, ProtoError> {
    let cfg = resolve_gpu(&req.gpu)
        .ok_or_else(|| ProtoError::new("unknown-gpu", format!("no preset named {:?}", req.gpu)))?;
    match &req.kernel {
        KernelRef::Named(abbr) => {
            let workload = lookup_app(abbr, &cfg).ok_or_else(|| {
                ProtoError::new("unknown-app", format!("no suite workload named {abbr:?}"))
            })?;
            let info = workload.info();
            let subject = format!("{}/{}", info.abbr, req.gpu);
            let mut body = plan_kernel(
                workload.as_ref(),
                &cfg,
                hinted_axis(info.partition),
                Some(info.opt_agents_for(cfg.arch)),
                Some(info.abbr.to_string()),
                &subject,
            )?;
            if req.mode == Mode::Measured {
                body.plan.active_agents = Some(measured_throttle(&cfg, workload)?);
            }
            Ok(body)
        }
        KernelRef::Raw(raw) => {
            check_walk_budget(raw, cfg.warp_size)?;
            // Structural descriptions carry no Table 2 hint; partition
            // along Y when the grid has rows to cluster (row-major CTA
            // ids make Y-neighbours address-adjacent), else X.
            let axis = if raw.grid[1] > 1 { Axis::Y } else { Axis::X };
            let kernel = DescribedKernel::new(raw.clone());
            let subject = format!("raw:{}/{}", req.digest(), req.gpu);
            plan_kernel(&kernel, &cfg, axis, None, None, &subject)
        }
    }
}

/// The measured path: sweep the phase-A throttling candidates with real
/// simulations and return the cycle-optimal `ACTIVE_AGENTS`.
fn measured_throttle(cfg: &GpuConfig, workload: Box<dyn Workload>) -> Result<u32, ProtoError> {
    let plan = cluster_bench::AppPlan::new(cfg, workload);
    let stats = plan
        .phase_a()
        .into_iter()
        .map(|r| plan.run_metered(r).map(|(stats, _)| stats))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    Ok(plan.select_throttle(&stats).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn req(line: &str) -> Request {
        parse_request(line).expect("test request parses")
    }

    #[test]
    fn named_app_plans_match_table2_metadata() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"MM"}"#)).expect("MM plans");
        assert_eq!(body.app.as_deref(), Some("MM"));
        assert!(body.plan.exploit_locality, "MM is exploitable");
        assert_eq!(body.plan.axis, Axis::Y, "Table 2 partitions MM along Y");
        let active = body
            .plan
            .active_agents
            .expect("named apps carry a throttle");
        assert!(active >= 1 && active <= body.max_agents);
        assert!(body.hit.lo >= 0.0 && body.hit.hi <= 1.0 && body.hit.lo <= body.hit.hi);
    }

    #[test]
    fn streaming_app_gets_prefetch_not_bypass() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"BS"}"#)).expect("BS plans");
        assert!(!body.plan.exploit_locality);
        assert_eq!(body.plan.prefetch, 2);
        assert!(body.plan.bypass.is_empty());
    }

    #[test]
    fn raw_kernel_plans_deterministically() {
        let line = r#"{"id":"a","gpu":"GTX980","kernel":{"grid":[32,8],"block":64,
            "accesses":[{"tag":0,"base":0,"warp_stride":0,"reps":4},
                        {"tag":1,"base":1048576,"cta_stride":8192,"warp_stride":256}]}}"#;
        let a = plan_request(&req(line)).expect("raw kernel plans");
        let b = plan_request(&req(line)).expect("raw kernel plans again");
        assert_eq!(a, b);
        assert_eq!(a.plan.axis, Axis::Y, "multi-row grid partitions along Y");
        assert_eq!(a.plan.active_agents, None);
        assert_eq!(a.ctas, 256);
    }

    #[test]
    fn unknown_names_map_to_protocol_errors() {
        let e = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"NOPE"}"#)).unwrap_err();
        assert_eq!(e.code, "unknown-app");
        let e = plan_request(&req(r#"{"id":"a","gpu":"RTX9090","app":"MM"}"#)).unwrap_err();
        assert_eq!(e.code, "unknown-gpu");
    }

    #[test]
    fn zero_cta_grid_is_a_bad_kernel() {
        let e = plan_request(&req(
            r#"{"id":"a","gpu":"GTX570","kernel":{"grid":[0],"block":32}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.code, "bad-kernel");
    }

    #[test]
    fn oversized_walks_are_bad_kernels() {
        // 4.3 billion CTAs: rejected before any walk.
        let e = plan_request(&req(
            r#"{"id":"a","gpu":"GTX570","kernel":{"grid":[65535,65535],"block":32,
                "accesses":[{"tag":0,"base":0}]}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.code, "bad-kernel");
        assert!(e.message.contains("budget"), "{}", e.message);
        // The CTA count overflows u64: rejected before `Dim3::count` runs.
        let e = plan_request(&req(
            r#"{"id":"a","gpu":"GTX570","kernel":{"grid":[4294967295,4294967295,2],"block":32}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.code, "bad-kernel");
        assert!(e.message.contains("budget"), "{}", e.message);
    }

    #[test]
    fn walk_budget_is_inclusive() {
        let line = |reps: u32| {
            format!(
                r#"{{"id":"a","gpu":"GTX570","kernel":{{"grid":[1024,128],"block":32,
                    "accesses":[{{"tag":0,"base":0,"reps":{reps}}}]}}}}"#
            )
        };
        let raw = |reps| match req(&line(reps)).kernel {
            KernelRef::Raw(raw) => raw,
            KernelRef::Named(_) => unreachable!("structural request"),
        };
        // 131,072 CTAs x 1 warp x 32 ops = 2^22 exactly.
        assert!(check_walk_budget(&raw(32), 32).is_ok());
        assert_eq!(
            check_walk_budget(&raw(33), 32).unwrap_err().code,
            "bad-kernel"
        );
    }

    #[test]
    fn measured_mode_picks_the_phase_a_throttle() {
        let line = r#"{"id":"m","mode":"measured","gpu":"GTX570","app":"NW"}"#;
        let body = plan_request(&req(line)).expect("NW plans in measured mode");
        let cfg = arch::gtx570();
        let plan = cluster_bench::AppPlan::new(&cfg, lookup_app("NW", &cfg).expect("NW"));
        let stats: Vec<_> = plan
            .phase_a()
            .into_iter()
            .map(|r| plan.run_metered(r).expect("phase A runs").0)
            .collect();
        assert_eq!(
            body.plan.active_agents,
            Some(plan.select_throttle(&stats).0)
        );
        let again = plan_request(&req(line)).expect("NW plans again");
        assert_eq!(body.render("m"), again.render("m"));
    }

    #[test]
    fn response_rendering_is_stable() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"NW"}"#)).unwrap();
        let line = body.render("r-9");
        assert!(line.starts_with(r#"{"proto":"plan/v1","id":"r-9","gpu":"GTX570","app":"NW""#));
        assert!(line.contains("\"hit_lo\":"));
        assert!(line.ends_with('}'));
        assert_eq!(line, body.render("r-9"), "rendering is a pure function");
    }
}
