//! Golden-stats differential for the simulator core: the event-driven
//! engine must reproduce the cycle-stepped engine's `RunStats` exactly —
//! every counter, every placement, every float bit — on all Table 2
//! apps under one static-binding (Fermi) and one dynamic-binding
//! (Maxwell) architecture.
//!
//! The committed golden was generated by the pre-rework engine; any
//! change to the digests means simulated *behavior* changed, not just
//! simulator speed. Intentional model changes must regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p cluster-bench --test engine_golden`
//! and justify the diff in review.

use cluster_bench::{AppPlan, SimRequest};
use gpu_sim::{arch, ArchGen, RunStats};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine_stats.txt");

/// FNV-1a over the full `Debug` rendering of the stats. `RunStats`
/// derives `Debug` over every field (caches, memory, placements,
/// occupancy float), so two digests match iff the structs are
/// bit-identical.
fn digest(stats: &RunStats) -> u64 {
    let repr = format!("{stats:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The three requests that exercise every program-delivery path of the
/// engine: plain kernels (BSL), agent concatenation (CLU), and agent
/// concatenation with mid-task prefetch insertion (PFH). Bypass and the
/// full throttle sweep are covered by the figure-level determinism
/// tests.
fn requests(plan: &AppPlan) -> Vec<SimRequest> {
    let opt = plan
        .info
        .opt_agents_for(plan.cfg.arch)
        .clamp(1, plan.max_agents);
    vec![
        SimRequest::Baseline,
        SimRequest::Clustering,
        SimRequest::Prefetch(opt),
    ]
}

fn render_current() -> String {
    let mut out = String::new();
    for (cfg, gen) in [
        (arch::gtx570(), ArchGen::Fermi),
        (arch::gtx980(), ArchGen::Maxwell),
    ] {
        for workload in gpu_kernels::suite::table2_suite(gen) {
            let plan = AppPlan::new(&cfg, workload);
            for req in requests(&plan) {
                let (stats, _) = plan.run_metered(req).expect("golden request");
                out.push_str(&format!(
                    "{} {} {} cycles={} instr={} fnv={:016x}\n",
                    cfg.name,
                    plan.info.abbr,
                    req.label(),
                    stats.cycles,
                    stats.instructions,
                    digest(&stats),
                ));
            }
        }
    }
    out
}

#[test]
fn engine_reproduces_golden_stats() {
    let rendered = render_current();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("rewrite golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing; regenerate with UPDATE_GOLDEN=1 \
         cargo test -p cluster-bench --test engine_golden",
    );
    if rendered != golden {
        for (g, r) in golden.lines().zip(rendered.lines()) {
            assert_eq!(g, r, "first diverging golden line");
        }
        assert_eq!(
            golden.lines().count(),
            rendered.lines().count(),
            "golden line count"
        );
    }
}
