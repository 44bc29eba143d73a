//! `cta-serve`: the persistent clustering-plan server.
//!
//! ```text
//! cargo run --release -p cta-serve -- [OPTIONS]
//!
//!   (default)          serve line-delimited JSON requests on stdin,
//!                      responses on stdout, until EOF or a
//!                      {"op":"shutdown"} control line
//!   --tcp ADDR         listen on ADDR (e.g. 127.0.0.1:7878) instead
//!   --threads N        worker threads (default: CLUSTER_BENCH_THREADS
//!                      or the machine's parallelism)
//!   --queue N          in-flight cap before overload shedding
//!                      (default 1024; 0 disables shedding)
//!   --deadline-ms N    default per-request deadline
//!   --bench            run the serve-bench/v1 throughput benchmark
//!   --requests N       with --bench: mix size (default 20000)
//!   --out FILE         with --bench: write the artifact to FILE
//!                      (default: print to stdout)
//!   --check FILE       validate a committed serve-bench/v1 artifact
//!                      and exit (0 valid, 1 invalid)
//! ```
//!
//! With `CLUSTER_OBS=1` the server exports its counters and histograms
//! through `cta-obs` on exit (JSONL + Chrome trace next to the binary's
//! working directory), ready for `obs-report --check`.

use cta_serve::{bench, Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

const BIN: &str = "cta-serve";

struct Options {
    tcp: Option<String>,
    threads: usize,
    queue: usize,
    deadline_ms: Option<u64>,
    bench: bool,
    requests: usize,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        tcp: None,
        threads: 0,
        queue: 1024,
        deadline_ms: None,
        bench: false,
        requests: 20_000,
        out: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tcp" => opts.tcp = Some(args.next().ok_or("--tcp needs an address")?),
            "--threads" => {
                opts.threads = args
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|_| "--threads needs a number")?;
            }
            "--queue" => {
                opts.queue = args
                    .next()
                    .ok_or("--queue needs a capacity")?
                    .parse()
                    .map_err(|_| "--queue needs a number")?;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    args.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a number")?,
                );
            }
            "--bench" => opts.bench = true,
            "--requests" => {
                opts.requests = args
                    .next()
                    .ok_or("--requests needs a count")?
                    .parse()
                    .map_err(|_| "--requests needs a number")?;
            }
            "--out" => opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a file")?)),
            "--check" => {
                opts.check = Some(PathBuf::from(args.next().ok_or("--check needs a file")?));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{BIN}: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{BIN}: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match bench::check_report(&text) {
            Ok(()) => {
                println!(
                    "{BIN}: {} is a valid serve-bench/v1 artifact",
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{BIN}: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    cluster_bench::par::tune_allocator();

    if opts.bench {
        let report = bench::run(&bench::BenchOptions {
            requests: opts.requests,
            threads: opts.threads,
        });
        let rendered = bench::render_report(&report);
        eprintln!(
            "{BIN}: {} requests, {} distinct, {} threads: {:.0} req/s, hit rate {:.3}",
            report.requests,
            report.distinct,
            report.threads,
            report.req_per_s,
            report.cache.hit_rate()
        );
        match &opts.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &rendered) {
                    eprintln!("{BIN}: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("{BIN}: artifact written to {}", path.display());
            }
            None => print!("{rendered}"),
        }
        cta_obs::export_global(BIN);
        return ExitCode::SUCCESS;
    }

    let server = Server::new(ServerConfig {
        threads: opts.threads,
        queue_cap: opts.queue,
        default_deadline_ms: opts.deadline_ms,
    });

    let result = match &opts.tcp {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{BIN}: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "{BIN}: listening on {addr} with {} workers",
                server.threads()
            );
            server.serve_tcp(listener).map(|()| None)
        }
        None => {
            let stdin = std::io::stdin();
            server
                .serve_lines(BufReader::new(stdin.lock()), std::io::stdout())
                .map(Some)
        }
    };

    match result {
        Ok(summary) => {
            if let Some(s) = summary {
                let stats = server.cache_stats();
                eprintln!(
                    "{BIN}: {} requests, {} responses, {} shed; cache {}/{} hits ({:.3})",
                    s.requests,
                    s.responses,
                    s.shed,
                    stats.hits,
                    stats.lookups,
                    stats.hit_rate()
                );
            }
            cta_obs::export_global(BIN);
            let _ = std::io::stderr().flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{BIN}: {e}");
            ExitCode::FAILURE
        }
    }
}
