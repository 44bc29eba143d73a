//! `analyze`: sweep the static analysis over the full Figure 3 suite on
//! every architecture preset and report findings. The sweep includes the
//! concurrency verifier: happens-before race checking inside the
//! per-workload passes, bounded model checking of the binding protocol
//! per preset, and the symbolic proof of the binding arithmetic.
//!
//! ```text
//! cargo run --release -p cta-analyzer --bin analyze [-- OPTIONS]
//!
//!   --json             emit the machine-readable report instead of text
//!   --arch NAME        only sweep presets whose name contains NAME
//!   --app ABBR         only analyze the workload with this abbreviation
//!   --filter SUBSTR    only analyze workloads whose abbreviation
//!                      contains SUBSTR (case-insensitive)
//!   --threads N        worker threads (default 4); the report is
//!                      byte-identical for every N
//!   --verify-protocol  run only the protocol model checker and the
//!                      binding-arithmetic proof (the concurrency gate)
//!   --verify-costmodel re-simulate the full `sim_core` benchmark matrix
//!                      (every preset × Table 2 app × variant, plus the
//!                      ATA sweep) and check every measured L1 hit rate
//!                      against the CL2xx cost model's static interval;
//!                      any escape is a deny-level CL204
//!   --explain CODE     print the long-form explanation of one lint
//!   --list-lints       print the lint registry and exit
//! ```
//!
//! Exit status: **0** when the sweep is clean or carries only warnings,
//! **1** on any deny-level finding (the CI gate), **2** on usage or
//! internal errors (bad flags, no matching preset, a worker panic).

use cta_analyzer::diag::Report;
use cta_analyzer::{absint, analyze_workload, modelcheck, render_json, LINTS};
use gpu_sim::{arch, GpuConfig};
use std::process::ExitCode;

struct Options {
    json: bool,
    arch_filter: Vec<String>,
    app_filter: Vec<String>,
    app_substr: Vec<String>,
    threads: usize,
    verify_protocol: bool,
    verify_costmodel: bool,
    explain: Option<String>,
    list_lints: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        arch_filter: Vec::new(),
        app_filter: Vec::new(),
        app_substr: Vec::new(),
        threads: 4,
        verify_protocol: false,
        verify_costmodel: false,
        explain: None,
        list_lints: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--list-lints" => opts.list_lints = true,
            "--verify-protocol" => opts.verify_protocol = true,
            "--verify-costmodel" => opts.verify_costmodel = true,
            "--explain" => {
                let v = args.next().ok_or("--explain needs a lint code or name")?;
                opts.explain = Some(v);
            }
            "--arch" => {
                let v = args.next().ok_or("--arch needs a value")?;
                opts.arch_filter.push(v.to_lowercase());
            }
            "--app" => {
                let v = args.next().ok_or("--app needs a value")?;
                opts.app_filter.push(v.to_uppercase());
            }
            "--filter" => {
                let v = args.next().ok_or("--filter needs a value")?;
                opts.app_substr.push(v.to_uppercase());
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
                if opts.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// One unit of sweep work. Jobs are executed in parallel but merged in
/// job order, so the report is independent of the thread count.
enum Job {
    /// All pass families over one workload (by Figure 3 suite position)
    /// on one preset.
    Workload { preset: usize, index: usize },
    /// Bounded model checking of the binding protocol on one preset.
    Protocol { preset: usize },
    /// Symbolic proof of the partition/binding arithmetic (global).
    Arithmetic,
}

/// Deterministic telemetry label for a job: stable across thread counts
/// and job orderings, so the exported span table is byte-identical.
fn job_label(job: &Job, presets: &[GpuConfig]) -> String {
    match job {
        Job::Workload { preset, index } => {
            let cfg = &presets[*preset];
            let abbr = gpu_kernels::suite::fig3_suite(cfg.arch)
                .into_iter()
                .nth(*index)
                .map(|w| w.info().abbr)
                .unwrap_or("?");
            format!("analyze/{}/{}", cfg.name, abbr)
        }
        Job::Protocol { preset } => format!("modelcheck/{}", presets[*preset].name),
        Job::Arithmetic => "absint/arithmetic".to_string(),
    }
}

fn run_job(job: &Job, presets: &[GpuConfig]) -> Report {
    let _job_span = cta_obs::span(job_label(job, presets));
    let mut report = Report::new();
    match job {
        Job::Workload { preset, index } => {
            let cfg = &presets[*preset];
            let w = gpu_kernels::suite::fig3_suite(cfg.arch)
                .into_iter()
                .nth(*index)
                .expect("job was built from the suite listing");
            analyze_workload(w, cfg, &mut report);
        }
        Job::Protocol { preset } => modelcheck::check_arch(&presets[*preset], &mut report),
        Job::Arithmetic => absint::check(&mut report),
    }
    report
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_lints {
        for lint in LINTS {
            println!(
                "{} {:<28} {:<5} {}",
                lint.code, lint.name, lint.default_level, lint.summary
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(query) = &opts.explain {
        return match cta_analyzer::explain::render(query) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("analyze: no lint matches `{query}` (try --list-lints)");
                ExitCode::from(2)
            }
        };
    }

    if opts.verify_costmodel {
        return verify_costmodel();
    }

    let presets: Vec<GpuConfig> = arch::all_presets()
        .into_iter()
        .filter(|c| {
            opts.arch_filter.is_empty()
                || opts
                    .arch_filter
                    .iter()
                    .any(|f| c.name.to_lowercase().contains(f))
        })
        .collect();
    if presets.is_empty() {
        eprintln!("analyze: no architecture preset matches the --arch filter");
        return ExitCode::from(2);
    }

    let keep = |abbr: &str| {
        let upper = abbr.to_uppercase();
        (opts.app_filter.is_empty() || opts.app_filter.contains(&upper))
            && (opts.app_substr.is_empty() || opts.app_substr.iter().any(|s| upper.contains(s)))
    };

    let mut jobs: Vec<Job> = Vec::new();
    for (pi, cfg) in presets.iter().enumerate() {
        if !opts.verify_protocol {
            for (wi, w) in gpu_kernels::suite::fig3_suite(cfg.arch)
                .into_iter()
                .enumerate()
            {
                if keep(w.info().abbr) {
                    jobs.push(Job::Workload {
                        preset: pi,
                        index: wi,
                    });
                }
            }
        }
        jobs.push(Job::Protocol { preset: pi });
    }
    jobs.push(Job::Arithmetic);

    // Jobs run on the harness pool, which returns results in job order,
    // so the merged report is byte-identical for any worker count. A
    // panic is caught inside its job and downgraded to the
    // internal-error exit.
    let report = cluster_bench::with_obs("analyze", || {
        let reports = cluster_bench::par::par_map(&jobs, opts.threads, |job| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job, &presets))).ok()
        });
        let mut report = Report::new();
        for r in reports {
            report.merge(r?);
        }
        if opts.json {
            println!("{}", render_json(&report));
        } else {
            print!("{}", report.render_human());
        }
        Some(report)
    });
    let Some(report) = report else {
        eprintln!("analyze: internal error: an analysis worker panicked");
        return ExitCode::from(2);
    };

    if report.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The CL2xx soundness gate: drives the exact benchmark matrix that
/// `sim_core` commits as `BENCH_sim_core.json` (every preset × Table 2
/// app × Figure 12 variant, plus the ATA sweep — 885 runs), walks each
/// variant kernel through the abstract interpretation, and checks the
/// simulator's measured L1 hit rate against the static `[lo, hi]`
/// interval. Every escape is a deny-level CL204; exit is nonzero on any.
fn verify_costmodel() -> ExitCode {
    use cta_analyzer::{costmodel, setmodel};
    use locality::AccessSummary;

    let configs = arch::all_presets();
    let mut report = Report::new();
    let mut totals = cluster_bench::MatrixTotals::default();
    let mut checked = 0u64;
    let mut width_sum = 0.0f64;
    let mut mismatches = 0u64;
    let mut mismatched_runs = 0u64;
    let result = cluster_bench::drive_matrix(
        &configs,
        false,
        true,
        &mut totals,
        &mut |plan, req, stats, _metrics, _elapsed| {
            let subject = format!("{}/{}/{}", plan.cfg.name, plan.info.abbr, req.label());
            // The request just simulated, so rebuilding its kernel for
            // the static walk cannot fail.
            let summary = plan
                .with_variant_kernel(req, |k| AccessSummary::collect_on(k, &plan.cfg))
                .expect("variant kernel was just simulated");
            let iv = summary.hit_interval(&plan.cfg);
            costmodel::check_measured(
                &iv,
                stats.l1.reads,
                stats.l1.read_hit_rate(),
                &subject,
                &mut report,
            );
            // The CL3xx machine check: re-run the same request with the
            // per-set profile enabled and hold the decoder-computed
            // per-set model to exact equality against the counters.
            let model = summary.set_conflicts(&plan.cfg);
            let (_, _, profile) = plan
                .with_variant_kernel(req, |k| {
                    gpu_sim::Simulation::new(plan.cfg.clone(), k).run_profiled()
                })
                .expect("variant kernel was just simulated")
                .expect("request was just simulated without the profile");
            let m = setmodel::check_profile(&model, &profile, &subject, &mut report);
            mismatches += m;
            mismatched_runs += (m > 0) as u64;
            checked += 1;
            width_sum += iv.width();
        },
    );
    if let Err(e) = result {
        eprintln!("analyze: costmodel gate: {e}");
        return ExitCode::from(2);
    }
    print!("{}", report.render_human());
    // Every CL304 mismatch run contributes one deny; the rest are CL204
    // interval escapes.
    let escapes = report.deny_count() as u64 - mismatched_runs;
    println!(
        "costmodel gate: {checked} runs checked, {escapes} interval escapes, \
         mean interval width {:.4}, {mismatches} per-set mismatches, \
         {} conservation violations",
        width_sum / checked.max(1) as f64,
        totals.violations,
    );
    if escapes > 0 || mismatches > 0 || totals.violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
