//! Regression tests for the parallel evaluation engine: fanning the
//! matrix across worker threads must not change a single byte of the
//! results. Each simulation is single-threaded and seeded, so the only
//! way parallelism could leak in is through job ordering — these tests
//! pin the index-keyed collection down.

use cluster_bench::report::{ratio, Table};
use cluster_bench::{evaluate_apps_par, AppEvaluation, Variant};
use gpu_sim::arch;

fn workload(abbr: &str) -> Box<dyn gpu_kernels::Workload> {
    gpu_kernels::suite::by_abbr(abbr, gpu_sim::ArchGen::Fermi).expect("suite app")
}

/// Renders one app's figure-12-style row set, exactly as a bin would.
fn render(eval: &AppEvaluation) -> String {
    let mut t = Table::new(&["app", "RD", "CLU", "CLU+TOT", "+BPS", "PFH+TOT", "agents"]);
    t.row(vec![
        eval.info.abbr.to_string(),
        ratio(eval.speedup(Variant::Redirection)),
        ratio(eval.speedup(Variant::Clustering)),
        ratio(eval.speedup(Variant::ClusteringThrottled)),
        ratio(eval.speedup(Variant::ClusteringThrottledBypass)),
        ratio(eval.speedup(Variant::PrefetchThrottled)),
        eval.chosen_agents.to_string(),
    ]);
    t.render()
}

#[test]
fn parallel_results_are_identical_to_serial() {
    // One job per app: three apps give 2 and 4 workers something to
    // run concurrently.
    let cfg = arch::gtx570();
    let abbrs = ["NW", "BS", "HS"];
    let apps = || abbrs.iter().map(|a| workload(a)).collect::<Vec<_>>();
    let serial = evaluate_apps_par(&cfg, apps(), 1).expect("serial evaluation");

    for threads in [2, 4] {
        let par = evaluate_apps_par(&cfg, apps(), threads).expect("parallel evaluation");
        assert_eq!(par.len(), serial.len(), "{threads} threads");
        for (p, s) in par.iter().zip(&serial) {
            let app = s.info.abbr;
            assert_eq!(p.info.abbr, app, "{threads} threads");
            assert_eq!(p.chosen_agents, s.chosen_agents, "{app}, {threads} threads");
            for v in Variant::ALL {
                let (s, p) = (s.stats(v), p.stats(v));
                // Spot-check the headline metrics with readable failures...
                assert_eq!(p.cycles, s.cycles, "{app} {v} cycles, {threads} threads");
                assert_eq!(
                    p.l2_transactions(),
                    s.l2_transactions(),
                    "{app} {v} L2 txns, {threads} threads"
                );
                assert_eq!(
                    p.l1_hit_rate(),
                    s.l1_hit_rate(),
                    "{app} {v} L1 hit rate, {threads} threads"
                );
                // ...then require every counter to match exactly.
                assert_eq!(p, s, "{app} {v} full stats, {threads} threads");
            }
            // Byte-identical rendered figure output.
            assert_eq!(render(p), render(s), "{app}, {threads} threads");
        }
    }
}

#[test]
fn parallel_preserves_app_order() {
    let cfg = arch::gtx570();
    let abbrs = ["NW", "BS"];
    let serial: Vec<AppEvaluation> = abbrs
        .iter()
        .map(|a| {
            evaluate_apps_par(&cfg, vec![workload(a)], 1)
                .expect("serial evaluation")
                .remove(0)
        })
        .collect();
    let par = evaluate_apps_par(&cfg, abbrs.iter().map(|a| workload(a)).collect(), 3)
        .expect("parallel evaluation");
    assert_eq!(par.len(), serial.len());
    for (p, s) in par.iter().zip(&serial) {
        assert_eq!(p.info.abbr, s.info.abbr);
        for v in Variant::ALL {
            assert_eq!(p.stats(v), s.stats(v), "{} {v}", s.info.abbr);
        }
    }
}
