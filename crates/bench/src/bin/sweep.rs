//! Quick-look sweep: every Table 2 application on one architecture with
//! per-app variant comparisons on a single line — the fast way to inspect
//! calibration without running the full figure harness.
//!
//! Usage: `cargo run --release -p cluster-bench --bin sweep -- [fermi|kepler|maxwell|pascal]`

use cluster_bench::{configured_threads, evaluate_matrix, RunClock, Variant};
use cta_clustering::ClusterError;
use gpu_sim::arch;

fn main() -> Result<(), ClusterError> {
    cluster_bench::with_obs("sweep", run)
}

fn run() -> Result<(), ClusterError> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fermi".into());
    let cfg = match which.as_str() {
        "fermi" => arch::gtx570(),
        "kepler" => arch::tesla_k40(),
        "maxwell" => arch::gtx980(),
        "pascal" => arch::gtx1080(),
        other => {
            eprintln!("unknown architecture {other:?}; expected fermi|kepler|maxwell|pascal");
            std::process::exit(2);
        }
    };
    let threads = configured_threads();
    let clock = RunClock::start(threads);
    println!("=== {} ===", cfg.name);
    let evals = evaluate_matrix(std::slice::from_ref(&cfg), threads)?;
    for eval in evals.iter().flat_map(|arch| &arch.apps) {
        println!(
            "{:4} [{:12}] RD {:4.2}x CLU {:4.2}x TOT({}) {:4.2}x BPS {:4.2}x PFH {:4.2}x | L2 TOT {:4.2} | l1hr {:4.2}->{:4.2}",
            eval.info.abbr,
            eval.info.category.to_string(),
            eval.speedup(Variant::Redirection),
            eval.speedup(Variant::Clustering),
            eval.chosen_agents,
            eval.speedup(Variant::ClusteringThrottled),
            eval.speedup(Variant::ClusteringThrottledBypass),
            eval.speedup(Variant::PrefetchThrottled),
            eval.l2_norm(Variant::ClusteringThrottled),
            eval.stats(Variant::Baseline).l1_hit_rate(),
            eval.stats(Variant::ClusteringThrottled).l1_hit_rate(),
        );
    }
    println!("{}", clock.footer());
    Ok(())
}
