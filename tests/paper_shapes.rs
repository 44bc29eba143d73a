//! Shape tests: the headline qualitative results of the paper must hold
//! in the reproduction — who wins, where, and in which direction.

use cluster_bench::{evaluate_apps_par, AppEvaluation, Variant};
use cta_clustering::ClusterError;
use gpu_kernels::{suite, Workload};
use gpu_sim::{arch, ArchGen, GpuConfig};

/// Evaluates one workload under every variant on the calling thread.
fn evaluate_app(cfg: &GpuConfig, w: Box<dyn Workload>) -> Result<AppEvaluation, ClusterError> {
    Ok(evaluate_apps_par(cfg, vec![w], 1)?.remove(0))
}

fn best_clustering(eval: &AppEvaluation) -> f64 {
    [
        Variant::Clustering,
        Variant::ClusteringThrottled,
        Variant::ClusteringThrottledBypass,
    ]
    .iter()
    .map(|&v| eval.speedup(v))
    .fold(f64::MIN, f64::max)
}

#[test]
fn cache_line_apps_win_big_on_fermi() {
    // Paper: cache-line locality is a 128B-line phenomenon; Fermi gains.
    let w = suite::by_abbr("ATX", ArchGen::Fermi).unwrap();
    let eval = evaluate_app(&arch::gtx570(), w).expect("evaluation");
    assert!(
        eval.speedup(Variant::ClusteringThrottled) > 1.3,
        "ATX CLU+TOT on Fermi: {:.2}",
        eval.speedup(Variant::ClusteringThrottled)
    );
    assert!(
        eval.l2_norm(Variant::ClusteringThrottled) < 0.5,
        "ATX L2 must drop sharply, got {:.2}",
        eval.l2_norm(Variant::ClusteringThrottled)
    );
}

#[test]
fn cache_line_sharing_vanishes_on_short_line_archs() {
    // Paper: "for Maxwell and Pascal, the 32B cache line is just one
    // fourth of a load of a warp, hence hardly any inter-CTA reuse".
    let w = suite::by_abbr("SYK", ArchGen::Pascal).unwrap();
    let eval = evaluate_app(&arch::gtx1080(), w).expect("evaluation");
    // No meaningful L2 reduction from pure clustering.
    assert!(
        eval.l2_norm(Variant::Clustering) > 0.85,
        "SYK on Pascal should see no cache-line effect, got {:.2}",
        eval.l2_norm(Variant::Clustering)
    );
}

#[test]
fn algorithm_app_gains_on_both_generations() {
    for (cfg, arch_gen) in [
        (arch::gtx570(), ArchGen::Fermi),
        (arch::gtx980(), ArchGen::Maxwell),
    ] {
        let w = suite::by_abbr("NN", arch_gen).unwrap();
        let eval = evaluate_app(&cfg, w).expect("evaluation");
        assert!(
            best_clustering(&eval) > 1.15,
            "NN on {}: {:.2}",
            cfg.name,
            best_clustering(&eval)
        );
        assert!(eval.l2_norm(Variant::Clustering) < 0.6);
    }
}

#[test]
fn streaming_apps_are_unaffected() {
    // Paper Figure 12 right panels: ~1.0x everywhere.
    for abbr in ["BS", "MON"] {
        let w = suite::by_abbr(abbr, ArchGen::Kepler).unwrap();
        let eval = evaluate_app(&arch::tesla_k40(), w).expect("evaluation");
        let s = best_clustering(&eval);
        assert!(
            (0.9..1.15).contains(&s),
            "{abbr} should be ~1.0x, got {s:.2}"
        );
        let l2 = eval.l2_norm(Variant::Clustering);
        assert!((0.95..1.05).contains(&l2), "{abbr} L2 {l2:.2}");
    }
}

#[test]
fn agents_beat_redirection_where_locality_exists() {
    // The core claim: SM-based binding is the robust scheme.
    for abbr in ["NN", "SYK"] {
        let w = suite::by_abbr(abbr, ArchGen::Fermi).unwrap();
        let eval = evaluate_app(&arch::gtx570(), w).expect("evaluation");
        assert!(
            best_clustering(&eval) >= eval.speedup(Variant::Redirection) - 0.05,
            "{abbr}: agents {:.2} vs RD {:.2}",
            best_clustering(&eval),
            eval.speedup(Variant::Redirection)
        );
    }
}

#[test]
fn throttling_rescues_contention_bound_apps() {
    // Paper: S2K's optimum is 1 agent on Fermi/Kepler.
    let w = suite::by_abbr("S2K", ArchGen::Kepler).unwrap();
    let eval = evaluate_app(&arch::tesla_k40(), w).expect("evaluation");
    assert!(
        eval.speedup(Variant::ClusteringThrottled) > eval.speedup(Variant::Clustering),
        "TOT {:.2} must beat CLU {:.2} for S2K",
        eval.speedup(Variant::ClusteringThrottled),
        eval.speedup(Variant::Clustering)
    );
    assert!(eval.chosen_agents <= 2, "chosen {}", eval.chosen_agents);
}

#[test]
fn l2_reduction_accompanies_speedup() {
    // Paper observation (5): "when the L2 transactions decline, the
    // overall performance improves".
    let w = suite::by_abbr("MVT", ArchGen::Fermi).unwrap();
    let eval = evaluate_app(&arch::gtx570(), w).expect("evaluation");
    let tot = Variant::ClusteringThrottled;
    assert!(eval.speedup(tot) > 1.0);
    assert!(eval.l2_norm(tot) < 1.0);
}
