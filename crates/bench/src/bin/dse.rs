//! Design-space exploration harness: sweeps cache geometry × scheduler
//! policy × clustering degree over a declarative grid, prunes points the
//! CL2xx cost model proves redundant, and emits the per-app Pareto front
//! over `(cycles, L2 transactions)` as JSON (`dse-sweep/v1`) on stdout.
//!
//! Usage:
//!
//! ```text
//! dse [--reduced | --config <path>] [--no-prune] [--out <path>]
//!     [--out-front <path>]
//! ```
//!
//! `--reduced` runs the built-in CI smoke grid (Fermi, NW + BS, 3 L1
//! sizes × 2 way counts × 2 index functions, 2 `MAX_AGENTS` caps,
//! 2 schedulers, baseline + opt clustering).
//! `--config` reads a `key = v1, v2` grid file instead (see
//! [`cluster_bench::sweep::SweepSpec::parse`]).
//! `--no-prune` simulates every point, bypassing the cost model — CI
//! byte-compares the two fronts to keep the pruning proof honest.
//! `--out` additionally writes the full JSON to a file; `--out-front`
//! writes a front-only document (`dse-front/v1`) that is byte-identical
//! between pruned and unpruned runs of the same grid.
//!
//! With `CLUSTER_OBS` set, per-point counters (`dse/cycles`,
//! `dse/l2_txns`, `dse/pruned`) export to `dse.jsonl` on exit.

use cluster_bench::sweep::{run_sweep, SweepOutcome, SweepPoint, SweepSpec};
use cta_clustering::ClusterError;
use std::time::Instant;

fn main() -> Result<(), ClusterError> {
    let mut reduced = false;
    let mut config_path: Option<String> = None;
    let mut prune = true;
    let mut out_path: Option<String> = None;
    let mut front_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--no-prune" => prune = false,
            "--config" => {
                config_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--config needs a path"))?,
                );
            }
            "--out" => {
                out_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--out needs a path"))?,
                );
            }
            "--out-front" => {
                front_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--out-front needs a path"))?,
                );
            }
            other => {
                return Err(ClusterError::harness(format!(
                    "unknown argument {other:?}; usage: \
                     dse [--reduced | --config <path>] [--no-prune] \
                     [--out <path>] [--out-front <path>]"
                )))
            }
        }
    }
    let spec = match (&config_path, reduced) {
        (Some(path), false) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ClusterError::harness(format!("reading {path}: {e}")))?;
            SweepSpec::parse(&text)?
        }
        (None, _) => SweepSpec::reduced(),
        (Some(_), true) => {
            return Err(ClusterError::harness(
                "--reduced and --config are mutually exclusive",
            ))
        }
    };

    cluster_bench::with_obs("dse", || {
        let t0 = Instant::now();
        let outcome = run_sweep(&spec, prune)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let json = render_sweep(&spec, &outcome, prune, wall_s);
        println!("{json}");
        if let Some(path) = &out_path {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| ClusterError::harness(format!("writing {path}: {e}")))?;
        }
        if let Some(path) = &front_path {
            let front_json = render_front(&spec, &outcome);
            std::fs::write(path, format!("{front_json}\n"))
                .map_err(|e| ClusterError::harness(format!("writing {path}: {e}")))?;
        }
        eprintln!(
            "dse: {} points, {} simulated, {} pruned ({:.1}%: geometry-dead {}, \
             indexing-dead {}), {wall_s:.2}s",
            outcome.points.len(),
            outcome.simulated,
            outcome.pruned(),
            outcome.prune_rate() * 100.0,
            outcome.pruned_geometry,
            outcome.pruned_indexing,
        );
        Ok(())
    })
}

/// One point's configuration + objectives, shared by both documents so
/// the front entries of `dse-sweep/v1` and `dse-front/v1` match exactly.
fn point_core(p: &SweepPoint) -> String {
    format!(
        "\"l1_size_kb\": {}, \"l1_assoc\": {}, \"l1_index\": \"{}\", \"max_agents\": \"{}\", \
         \"sched\": \"{}\", \"agents\": \"{}\", \
         \"request\": \"{}\", \"cycles\": {}, \"l2_txns\": {}",
        p.l1_size_kb,
        p.l1_assoc,
        p.l1_index,
        p.max_agents,
        p.sched,
        p.agents,
        p.request,
        p.metrics.cycles,
        p.metrics.l2_txns,
    )
}

fn render_fronts(outcome: &SweepOutcome, indent: &str) -> String {
    let fronts: Vec<String> = outcome
        .fronts()
        .into_iter()
        .map(|(app, front)| {
            let entries: Vec<String> = front
                .iter()
                .map(|p| format!("{{{}}}", point_core(p)))
                .collect();
            format!(
                "{indent}{{\"app\": \"{app}\", \"front\": [\n{indent}  {}\n{indent}]}}",
                entries.join(&format!(",\n{indent}  ")),
            )
        })
        .collect();
    fronts.join(",\n")
}

fn render_sweep(spec: &SweepSpec, outcome: &SweepOutcome, prune: bool, wall_s: f64) -> String {
    let points: Vec<String> = outcome
        .points
        .iter()
        .map(|p| {
            format!(
                "    {{\"app\": \"{}\", {}, \"l1_hit_rate\": {:.6}, \"occupancy\": {:.4}, \
                 \"model_lo\": {:.6}, \"model_hi\": {:.6}, \"pruned\": {}}}",
                p.app,
                point_core(p),
                p.metrics.l1_hit_rate,
                p.metrics.occupancy,
                p.model_lo,
                p.model_hi,
                p.pruned,
            )
        })
        .collect();
    format!(
        "{{\n  \"format\": \"dse-sweep/v1\",\n  \"arch\": \"{arch}\",\n  \"prune\": {prune},\n  \
         \"points_total\": {total},\n  \"simulated\": {sim},\n  \"pruned\": {pruned},\n  \
         \"pruned_geometry\": {geom},\n  \"pruned_indexing\": {index},\n  \
         \"prune_rate\": {rate:.4},\n  \"wall_s\": {wall_s:.2},\n  \"points\": [\n{points}\n  ],\n  \
         \"fronts\": [\n{fronts}\n  ]\n}}",
        arch = spec.arch,
        total = outcome.points.len(),
        sim = outcome.simulated,
        pruned = outcome.pruned(),
        geom = outcome.pruned_geometry,
        index = outcome.pruned_indexing,
        rate = outcome.prune_rate(),
        points = points.join(",\n"),
        fronts = render_fronts(outcome, "    "),
    )
}

/// The front-only document: everything in it is a deterministic function
/// of the grid and the simulated metrics, so pruned and unpruned runs of
/// the same grid must produce byte-identical files (`cmp` gates this in
/// CI).
fn render_front(spec: &SweepSpec, outcome: &SweepOutcome) -> String {
    format!(
        "{{\n  \"format\": \"dse-front/v1\",\n  \"arch\": \"{}\",\n  \"apps\": [\n{}\n  ]\n}}",
        spec.arch,
        render_fronts(outcome, "    "),
    )
}
