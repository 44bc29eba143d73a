//! `obs-report`: render and validate `cta-obs` telemetry.
//!
//! ```text
//! cargo run --release -p obs-report -- [OPTIONS]
//!
//!   --smoke            run an instrumented mini-evaluation (NW + BS on
//!                      the GTX 570 preset), export telemetry, and render
//!                      the metric report
//!   --check FILE       validate FILE against the cta-obs/v1 JSONL schema
//!   --input FILE       render the metric report from an existing JSONL
//!   --jsonl-stdout     with --smoke: print the JSONL export on stdout
//!                      instead of the report (determinism tests
//!                      byte-compare this across thread counts)
//!   --threads N        worker threads for --smoke (default 1)
//!   --out DIR          where --smoke writes <bin>.jsonl and
//!                      <bin>.trace.json (default: current directory)
//! ```
//!
//! Exit status: **0** on success, **1** when `--check` (or the smoke
//! run's self-check) finds an invalid export, **2** on usage errors.

use cta_obs::{need_str, need_u64, parse_json, render_chrome_trace, render_jsonl, validate, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const BIN: &str = "obs-report";

struct Options {
    smoke: bool,
    check: Option<PathBuf>,
    input: Option<PathBuf>,
    jsonl_stdout: bool,
    threads: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        check: None,
        input: None,
        jsonl_stdout: false,
        threads: 1,
        out: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--jsonl-stdout" => opts.jsonl_stdout = true,
            "--check" => {
                let v = args.next().ok_or("--check needs a file")?;
                opts.check = Some(PathBuf::from(v));
            }
            "--input" => {
                let v = args.next().ok_or("--input needs a file")?;
                opts.input = Some(PathBuf::from(v));
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
            "--out" => {
                let v = args.next().ok_or("--out needs a directory")?;
                opts.out = PathBuf::from(v);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !opts.smoke && opts.check.is_none() && opts.input.is_none() {
        return Err("nothing to do: pass --smoke, --check FILE, or --input FILE".into());
    }
    Ok(opts)
}

/// Runs the instrumented mini-evaluation and returns the JSONL export.
/// Small enough for CI (two Fermi workloads), but it exercises every
/// instrumentation site: per-SM cache counters, reuse-distance sinks,
/// classification counters, job spans, and queue-wait/busy clocks.
fn smoke_run(threads: usize) -> String {
    cta_obs::force_enable();
    let cfg = gpu_sim::arch::gtx570();
    {
        let _root = cta_obs::span(format!("bin/{BIN}"));
        let workloads: Vec<Box<dyn gpu_kernels::Workload>> = ["NW", "BS"]
            .iter()
            .map(|abbr| {
                gpu_kernels::suite::by_abbr(abbr, cfg.arch).expect("smoke workload in the suite")
            })
            .collect();
        let evals = cluster_bench::evaluate_apps_par(&cfg, workloads, threads)
            .expect("smoke evaluation succeeds");
        assert_eq!(evals.len(), 2, "smoke evaluation covers both workloads");
    }
    render_jsonl(&cta_obs::global().snapshot(), BIN)
}

/// One parsed JSONL document, grouped for rendering.
#[derive(Default)]
struct Doc {
    bin: String,
    dropped: u64,
    /// metric name -> (distinct keys, total value)
    counters: BTreeMap<String, (u64, u64)>,
    /// metric name -> (series, samples, sum)
    hists: BTreeMap<String, (u64, u64, u64)>,
    /// span name -> count
    spans: BTreeMap<String, u64>,
    /// (kind, name) -> count
    errors: BTreeMap<(String, String), u64>,
}

fn parse_doc(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut lines = text.lines();
    let header = parse_json(lines.next().ok_or("empty document")?)?;
    doc.bin = need_str(&header, &["bin"])?;
    doc.dropped = need_u64(&header, &["dropped"])?;
    for (i, line) in lines.enumerate() {
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        match obj.get("t").and_then(Json::as_str) {
            Some("counter") => {
                let slot = doc
                    .counters
                    .entry(need_str(&obj, &["name"])?)
                    .or_insert((0, 0));
                slot.0 += 1;
                slot.1 += need_u64(&obj, &["value"])?;
            }
            Some("hist") => {
                let slot = doc
                    .hists
                    .entry(need_str(&obj, &["name"])?)
                    .or_insert((0, 0, 0));
                slot.0 += 1;
                slot.1 += need_u64(&obj, &["count"])?;
                slot.2 += need_u64(&obj, &["sum"])?;
            }
            Some("span") => {
                *doc.spans.entry(need_str(&obj, &["name"])?).or_insert(0) +=
                    need_u64(&obj, &["count"])?;
            }
            Some("error") => {
                let key = (need_str(&obj, &["kind"])?, need_str(&obj, &["name"])?);
                *doc.errors.entry(key).or_insert(0) += need_u64(&obj, &["count"])?;
            }
            other => return Err(format!("line {}: unknown type {other:?}", i + 2)),
        }
    }
    Ok(doc)
}

fn render_report(doc: &Doc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# cta-obs report — bin \"{}\" (schema {})\n",
        doc.bin,
        cta_obs::SCHEMA
    ));
    if doc.dropped > 0 {
        out.push_str(&format!(
            "warning: {} span events dropped (ring full)\n",
            doc.dropped
        ));
    }

    out.push_str(&format!(
        "\n{:<44} {:>6} {:>16}\n",
        "## counters", "keys", "total"
    ));
    for (name, (keys, total)) in &doc.counters {
        out.push_str(&format!("{name:<44} {keys:>6} {total:>16}\n"));
    }

    out.push_str(&format!(
        "\n{:<38} {:>6} {:>10} {:>14} {:>9}\n",
        "## histograms", "series", "samples", "sum", "mean"
    ));
    for (name, (series, samples, sum)) in &doc.hists {
        let mean = if *samples > 0 {
            format!("{:.1}", *sum as f64 / *samples as f64)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{name:<38} {series:>6} {samples:>10} {sum:>14} {mean:>9}\n"
        ));
    }

    out.push_str(&format!("\n{:<58} {:>8}\n", "## spans", "count"));
    for (name, count) in &doc.spans {
        out.push_str(&format!("{name:<58} {count:>8}\n"));
    }

    out.push_str("\n## errors\n");
    if doc.errors.is_empty() {
        out.push_str("(none)\n");
    } else {
        for ((kind, name), count) in &doc.errors {
            out.push_str(&format!("{kind} {name:?}: {count}\n"));
        }
    }
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("obs-report: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-report: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        return match validate(&text) {
            Ok(s) => {
                println!(
                    "{}: valid {} ({} counters, {} hists, {} spans, {} errors)",
                    path.display(),
                    cta_obs::SCHEMA,
                    s.counters,
                    s.hists,
                    s.spans,
                    s.errors
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs-report: {}: invalid: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = &opts.input {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-report: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        if let Err(e) = validate(&text) {
            eprintln!("obs-report: {}: invalid: {e}", path.display());
            return ExitCode::FAILURE;
        }
        match parse_doc(&text) {
            Ok(doc) => {
                print!("{}", render_report(&doc));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("obs-report: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // --smoke
    let jsonl = smoke_run(opts.threads);
    if let Err(e) = validate(&jsonl) {
        eprintln!("obs-report: smoke export failed self-validation: {e}");
        return ExitCode::FAILURE;
    }
    if opts.jsonl_stdout {
        print!("{jsonl}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("obs-report: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let jsonl_path = opts.out.join(format!("{BIN}.jsonl"));
    let trace_path = opts.out.join(format!("{BIN}.trace.json"));
    let trace = render_chrome_trace(&cta_obs::global().snapshot(), BIN);
    for (path, text) in [(&jsonl_path, &jsonl), (&trace_path, &trace)] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("obs-report: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match parse_doc(&jsonl) {
        Ok(doc) => print!("{}", render_report(&doc)),
        Err(e) => {
            eprintln!("obs-report: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "telemetry: wrote {} and {}",
        jsonl_path.display(),
        trace_path.display()
    );
    ExitCode::SUCCESS
}
