//! # cluster-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! *"Locality-Aware CTA Clustering for Modern GPUs"* (ASPLOS 2017):
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (platforms) | [`tables`] | `table1_platforms` |
//! | Table 2 (benchmarks) | [`tables`] | `table2_benchmarks` |
//! | Figure 2 (microbenchmark) | [`fig2`] | `fig2_microbench` |
//! | Figure 3 (reuse shares) | [`fig3`] | `fig3_reuse` |
//! | Figure 12 (speedups + occupancy) | [`evaluation`] | `fig12_speedup` |
//! | Figure 13 (L2 transactions + L1 hit rate) | [`evaluation`] | `fig13_cache` |
//!
//! `cargo run --release -p cluster-bench --bin all` regenerates
//! everything in sequence.

#![warn(missing_docs)]

pub mod evaluation;
pub mod fig2;
pub mod fig3;
pub mod matrix;
pub mod par;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod tables;

pub use evaluation::{ArchEvaluation, Panel};
pub use matrix::{drive_matrix, AtaSummary, MatrixTotals};
pub use par::{
    configured_threads, evaluate_apps_par, evaluate_arch_par, evaluate_matrix, tune_allocator,
    with_obs, RunClock,
};
pub use runner::{evaluate_app, AppEvaluation, AppPlan, SharedKernel, SimRequest, Variant};
