//! The static walk must see the programs the engine runs.
//!
//! The agent transform has one program generator with two modes: the
//! engine's `warp_program_build` replays task programs from the plan's
//! shared program cache, while `warp_program` — what every static walk
//! (analyzer, cost model, `cta-serve`, DSE) reads — generates them. This
//! suite checks that the two modes emit identical op streams for every
//! SM-0 agent of every Table 2 app, and that a walk leaves the cache
//! empty.

use cluster_bench::{AppPlan, SimRequest};
use gpu_sim::{arch, walk, CtaContext, KernelSpec, Op, ProgramBuilder};

/// The agent variants, at the Table 2 throttling optimum.
fn agent_requests(plan: &AppPlan) -> [SimRequest; 4] {
    let opt = plan
        .info
        .opt_agents_for(plan.cfg.arch)
        .clamp(1, plan.max_agents);
    [
        SimRequest::Clustering,
        SimRequest::Throttled(opt),
        SimRequest::Bypass(opt),
        SimRequest::Prefetch(opt),
    ]
}

/// The engine's replayed program for `(ctx, warp)`, flattened.
fn replayed(kernel: &dyn KernelSpec, ctx: &CtaContext, warp: u32) -> Vec<Op> {
    let mut built = ProgramBuilder::default();
    kernel.warp_program_build(ctx, warp, &mut built);
    built.into_ops()
}

#[test]
fn replayed_programs_match_generated_ones() {
    // Kepler binds agents statically (warp slot), Maxwell dynamically
    // (atomic ticket + broadcast prologue).
    for base in [arch::tesla_k40(), arch::gtx980()] {
        for workload in gpu_kernels::suite::table2_suite(base.arch) {
            let plan = AppPlan::new(&base, workload);
            let cfg = &plan.cfg;
            for req in agent_requests(&plan) {
                plan.with_variant_kernel(req, |kernel| {
                    let warps = kernel.launch().warps_per_cta(cfg.warp_size);
                    for ctx in walk::dispatch_contexts(kernel, cfg.num_sms).filter(|c| c.sm_id == 0)
                    {
                        for warp in 0..warps {
                            assert_eq!(
                                replayed(kernel, &ctx, warp),
                                kernel.warp_program(&ctx, warp),
                                "{}/{}/{} cta {} warp {warp}",
                                cfg.name,
                                plan.info.abbr,
                                req.label(),
                                ctx.cta,
                            );
                        }
                    }
                })
                .expect("agent variant builds");
            }
        }
    }
}

#[test]
fn static_walks_leave_the_program_cache_empty() {
    let base = arch::tesla_k40();
    let workload = gpu_kernels::suite::table2_suite(base.arch)
        .into_iter()
        .find(|w| w.info().abbr == "MM")
        .expect("MM is in Table 2");
    let plan = AppPlan::new(&base, workload);
    let req = agent_requests(&plan)[3];
    assert!(matches!(req, SimRequest::Prefetch(_)));
    let mut programs = 0u64;
    plan.with_variant_kernel(req, |kernel| {
        walk::each_warp_program_on(kernel, &plan.cfg, |_, _, prog| {
            programs += u64::from(!prog.is_empty());
        });
    })
    .expect("prefetch variant builds");
    assert!(programs > 0, "the walk generated programs");
    assert_eq!(
        plan.cache_counters(),
        (0, 0),
        "a walk must not fill the cache"
    );

    // The engine's path does fill it: the assertion above is not vacuous.
    plan.with_variant_kernel(req, |kernel| {
        let ctx = walk::dispatch_contexts(kernel, plan.cfg.num_sms)
            .next()
            .expect("non-empty grid");
        replayed(kernel, &ctx, 0);
    })
    .expect("prefetch variant builds");
    assert!(plan.cache_counters().1 > 0, "replay fills the cache");
}
