//! Benchmarks the simulator core itself: wall-clock over the Figure 12
//! request matrix, engine event accounting, and program-cache
//! effectiveness, emitted as a single JSON document (`sim-core-bench/v1`)
//! on stdout.
//!
//! Every run is checked against the engine's conservation laws
//! (issues == instructions, one dispatch poll per CTA retirement, ...);
//! any violation is reported on stderr and the process exits nonzero, so
//! CI can gate on it.
//!
//! Usage:
//!
//! ```text
//! sim_core [--reduced] [--arch ata] [--profile] [--check <path>] [--out <path>]
//! ```
//!
//! `--reduced` runs a small Fermi-only subset (the CI smoke matrix).
//! `--arch ata` appends the aggregated-tag-array sweep: every Table 2
//! app simulated under the stock Maxwell preset and its ATA variant,
//! with both L1 and L2 hit rates in an `ata` JSON section.
//! `--profile` prints one deterministic line per (arch, app, request)
//! on stderr, `profile ARCH/APP/REQ: name=value ...`, listing every
//! `EngineMetrics` counter and then every `WorkModel` counter in
//! declaration order. The counters are exact event counts, not
//! wall-clock samples, so two runs of the same matrix produce
//! byte-identical lines — this is the profiler the speed work is aimed
//! with.
//! `--check` parses a committed `BENCH_sim_core.json` and compares the
//! fresh run against it (mode, run count, conservation violations, and
//! every `engine` and `work_model` counter exactly) and exits nonzero on
//! regression — the CI perf-smoke gate.
//! `--out` additionally writes the JSON to a file.
//!
//! The `engine` and `work_model` sections, the profile line and the
//! check all list the counters `EngineMetrics::counters` and
//! `WorkModel::counters` report, so a counter declared in `gpu_sim` is
//! emitted, profiled and pinned without touching this file.

use cluster_bench::matrix::{drive_matrix, MatrixTotals};
use cta_clustering::ClusterError;
use cta_obs::{need_str, need_u64, Json};
use gpu_sim::{EngineMetrics, GpuConfig};
use std::fmt::Display;
use std::time::Instant;

/// Wall-clock of the full request matrix at 1 thread on the cycle-stepped
/// engine this bin's rework replaced (commit 2ceca1b, `fig12_speedup`).
const BASELINE_COMMIT: &str = "2ceca1b";
const BASELINE_WALL_S: f64 = 188.4;

fn main() -> Result<(), ClusterError> {
    cluster_bench::tune_allocator();
    let mut reduced = false;
    let mut verbose = false;
    let mut ata_sweep = false;
    let mut profile = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--verbose" => verbose = true,
            "--profile" => profile = true,
            "--arch" => {
                let v = args
                    .next()
                    .ok_or_else(|| ClusterError::harness("--arch needs a value"))?;
                match v.as_str() {
                    "ata" => ata_sweep = true,
                    other => {
                        return Err(ClusterError::harness(format!(
                            "unknown --arch {other:?}; the only modeled variant is \"ata\""
                        )))
                    }
                }
            }
            "--check" => {
                check_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--check needs a path"))?,
                );
            }
            "--out" => {
                out_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--out needs a path"))?,
                );
            }
            other => {
                return Err(ClusterError::harness(format!(
                    "unknown argument {other:?}; usage: \
                     sim_core [--reduced] [--verbose] [--arch ata] [--profile] \
                     [--check <path>] [--out <path>]"
                )))
            }
        }
    }

    let configs: Vec<GpuConfig> = if reduced {
        vec![gpu_sim::arch::gtx570()]
    } else {
        gpu_sim::arch::all_presets().to_vec()
    };

    let t0 = Instant::now();
    let mut totals = MatrixTotals::default();
    // The matrix enumeration itself lives in `cluster_bench::matrix` so
    // the costmodel soundness gate (`analyze --verify-costmodel`) checks
    // exactly the runs this bin commits; this bin only observes.
    let ata = drive_matrix(
        &configs,
        reduced,
        ata_sweep,
        &mut totals,
        &mut |plan, req, _stats, metrics, elapsed| {
            if verbose {
                eprintln!(
                    "{}/{}/{}: {:.0}ms ({} issues)",
                    plan.cfg.name,
                    plan.info.abbr,
                    req.label(),
                    elapsed.as_secs_f64() * 1e3,
                    metrics.issues,
                );
            }
            if profile {
                let fields: Vec<String> = metrics
                    .counters()
                    .into_iter()
                    .chain(metrics.work.counters())
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect();
                eprintln!(
                    "profile {}/{}/{}: {}",
                    plan.cfg.name,
                    plan.info.abbr,
                    req.label(),
                    fields.join(" ")
                );
            }
        },
    )?;
    let ata_json = match &ata {
        Some(sweep) => {
            let rows: Vec<String> = sweep
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"abbr\": \"{}\", \"l1_base\": {:.4}, \"l1_ata\": {:.4}, \
                         \"l2_base\": {:.4}, \"l2_ata\": {:.4}}}",
                        r.abbr, r.l1_base, r.l1_ata, r.l2_base, r.l2_ata,
                    )
                })
                .collect();
            format!(
                "{{\n    \"base_arch\": \"{}\",\n    \"ata_arch\": \"{}\",\n    \"apps\": [\n      {}\n    ],\n    \"l1_improved\": {},\n    \"apps_total\": {},\n    \"mean_l1_delta\": {:.4}\n  }}",
                sweep.base_arch,
                sweep.ata_arch,
                rows.join(",\n      "),
                sweep.improved,
                sweep.rows.len(),
                sweep.mean_l1_delta,
            )
        }
        None => "null".to_string(),
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let (runs, violations) = (totals.runs, totals.violations);
    let total = &totals.engine;
    let mode = if reduced { "reduced" } else { "full" };
    let baseline = if reduced {
        "null".to_string()
    } else {
        format!(
            "{{\"commit\": \"{BASELINE_COMMIT}\", \"wall_s\": {BASELINE_WALL_S}, \"speedup\": {:.2}}}",
            BASELINE_WALL_S / wall_s
        )
    };
    // `skip_ratio` is derived from `issues` and `cycles_skipped` and
    // printed right after the latter.
    let mut engine = Vec::new();
    for (name, value) in total.counters() {
        let skipped = name == "cycles_skipped";
        engine.push((name, value.to_string()));
        if skipped {
            engine.push(("skip_ratio".into(), format!("{:.4}", totals.skip_ratio())));
        }
    }
    let program_cache = [
        ("hits", totals.cache_hits.to_string()),
        ("fills", totals.cache_fills.to_string()),
        ("hit_rate", format!("{:.4}", totals.cache_hit_rate())),
    ];
    let json = format!(
        "{{\n  \"format\": \"sim-core-bench/v1\",\n  \"mode\": \"{mode}\",\n  \"runs\": {runs},\n  \"wall_s\": {wall_s:.2},\n  \"baseline\": {baseline},\n  \"conservation_violations\": {violations},\n  \"engine\": {},\n  \"work_model\": {},\n  \"program_cache\": {},\n  \"ata\": {ata_json}\n}}",
        section(engine),
        section(total.work.counters()),
        section(program_cache),
    );
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| ClusterError::harness(format!("writing {path}: {e}")))?;
    }
    let mut check_failed = false;
    if let Some(path) = &check_path {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| ClusterError::harness(format!("reading {path}: {e}")))?;
        let committed = cta_obs::parse_json(&committed)
            .map_err(|e| ClusterError::harness(format!("{path}: {e}")))?;
        check_failed = !diff_against_committed(&committed, mode, runs, violations, total)
            .map_err(|e| ClusterError::harness(format!("{path}: {e}")))?;
    }
    if violations > 0 {
        eprintln!("sim_core: {violations} conservation violation(s)");
        std::process::exit(1);
    }
    if check_failed {
        std::process::exit(1);
    }
    Ok(())
}

/// Renders `(key, raw JSON value)` pairs as one indented JSON object.
fn section<K: Display, V: Display>(fields: impl IntoIterator<Item = (K, V)>) -> String {
    let lines: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("    \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n  }}", lines.join(",\n"))
}

/// Compares the fresh run against a parsed `sim-core-bench/v1` document
/// and reports each criterion on stderr. Returns `false` (and logs
/// `FAIL` lines) on any regression:
///
/// * the committed artifact itself must be violation-free and of the
///   same mode — otherwise the comparison is meaningless;
/// * the fresh run count must equal the committed one (the matrix
///   changed without regenerating the artifact);
/// * the fresh run must have zero conservation violations;
/// * every counter `EngineMetrics::counters` lists must equal
///   `engine.<name>` and every counter `WorkModel::counters` lists must
///   equal `work_model.<name>` *exactly* — the matrix is deterministic,
///   so the counters are too, and any drift means the engine, the
///   coalescer, the cache probe/victim scans or the event heaps do
///   different work than the committed baseline. This is the regression
///   gate wall-clock is too noisy to provide. (`engine.skip_ratio` is a
///   function of the pinned `issues` and `cycles_skipped`.)
///
/// Wall-clock is deliberately *not* gated: CI machines vary too much
/// for a hard threshold.
fn diff_against_committed(
    committed: &Json,
    mode: &str,
    runs: u64,
    violations: u64,
    engine: &EngineMetrics,
) -> Result<bool, String> {
    let committed_mode = need_str(committed, &["mode"])?;
    let committed_runs = need_u64(committed, &["runs"])?;
    let committed_violations = need_u64(committed, &["conservation_violations"])?;
    let mut ok = true;
    let mut report = |pass: bool, msg: String| {
        eprintln!(
            "sim_core --check: {} {msg}",
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    };
    report(
        committed_violations == 0,
        format!("committed artifact violation-free (has {committed_violations})"),
    );
    report(
        committed_mode == mode,
        format!("mode matches committed ({committed_mode:?} vs fresh {mode:?})"),
    );
    report(
        runs == committed_runs,
        format!("run count {runs} == committed {committed_runs}"),
    );
    report(
        violations == 0,
        format!("fresh violations == 0 (got {violations})"),
    );
    for (section, counters) in [
        ("engine", engine.counters()),
        ("work_model", engine.work.counters()),
    ] {
        for (name, value) in counters {
            let pinned = need_u64(committed, &[section, &name])?;
            report(
                value == pinned,
                format!("{section}.{name} {value} == committed {pinned}"),
            );
        }
    }
    let conservation = engine.work.check_conservation();
    report(
        conservation.is_ok(),
        format!(
            "work_model conservation laws hold ({})",
            conservation.err().unwrap_or("ok")
        ),
    );
    Ok(ok)
}
