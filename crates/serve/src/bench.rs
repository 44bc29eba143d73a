//! The `serve-bench/v1` throughput benchmark and its committed artifact.
//!
//! Drives a duplicate-heavy request mix — every Table 2 app crossed
//! with the four Table 1 presets, plus a band of structural kernels —
//! through [`Server::handle_batch`] and reports sustained requests per
//! second, cache traffic, and latency quantiles from the log2 latency
//! histogram.
//!
//! The artifact committed at `BENCH_serve.json` records a measured run
//! (`cta-serve --bench --out BENCH_serve.json`); `--check` re-validates
//! the committed file's schema and invariants **without re-measuring**,
//! so CI stays deterministic on slow machines:
//!
//! * `cache.hits + cache.misses == cache.lookups` and
//!   `cache.misses == distinct` (the cache's conservation laws);
//! * `hit_rate >= 0.85` on the duplicate-heavy mix;
//! * `req_per_s >= 10000` (the throughput the server must sustain);
//! * latency quantiles are present and monotone.

use crate::server::{Server, ServerConfig};
use cta_obs::{need_f64, Hist};
use std::time::Instant;

/// Minimum sustained throughput the committed artifact must show.
pub const MIN_REQ_PER_S: f64 = 10_000.0;

/// Minimum content-cache hit rate on the duplicate-heavy mix.
pub const MIN_HIT_RATE: f64 = 0.85;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Total requests in the mix.
    pub requests: usize,
    /// Worker threads (`0` = the `cluster_bench::par` configuration).
    pub threads: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            requests: 20_000,
            threads: 0,
        }
    }
}

/// One measured benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Requests served.
    pub requests: u64,
    /// Distinct request digests in the mix.
    pub distinct: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the batch, in milliseconds.
    pub elapsed_ms: f64,
    /// Sustained requests per second.
    pub req_per_s: f64,
    /// Cache traffic.
    pub cache: crate::cache::CacheStats,
    /// Per-request latency quantiles, microseconds.
    pub latency_us: [f64; 3],
}

/// A duplicate-heavy request mix: `n` requests cycling through the
/// given apps on the given presets plus a band of structural kernels.
/// Returns the lines and the number of distinct digests.
pub fn mix(n: usize, apps: &[&str], gpus: &[&str]) -> (Vec<String>, u64) {
    let mut templates: Vec<String> = Vec::new();
    for gpu in gpus {
        for app in apps {
            templates.push(format!(r#""gpu":"{gpu}","app":"{app}""#));
        }
    }
    for stride in [0u64, 128, 4096, 65536] {
        templates.push(format!(
            r#""gpu":"GTX980","kernel":{{"grid":[64,4],"block":64,"accesses":[{{"tag":0,"base":0,"cta_stride":{stride},"warp_stride":256}},{{"tag":1,"base":1073741824,"reps":4}}]}}"#
        ));
    }
    let distinct = templates.len().min(n.max(1)) as u64;
    let lines = (0..n)
        .map(|i| format!(r#"{{"id":"b{i}",{}}}"#, templates[i % templates.len()]))
        .collect();
    (lines, distinct)
}

/// The standard artifact mix: every Table 2 app on every Table 1
/// preset plus the structural band.
pub fn standard_mix(n: usize) -> (Vec<String>, u64) {
    let apps: Vec<&str> = gpu_kernels::suite::table2_suite(gpu_sim::ArchGen::Fermi)
        .iter()
        .map(|w| w.info().abbr)
        .collect();
    mix(n, &apps, &["GTX570", "TeslaK40", "GTX980", "GTX1080"])
}

/// Runs the benchmark over an explicit mix (unit tests use a small
/// one; the artifact run uses [`standard_mix`]).
pub fn run_mix(threads: usize, lines: &[String], distinct: u64) -> BenchReport {
    let server = Server::new(ServerConfig {
        threads,
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let threads = server.threads();
    let started = Instant::now();
    let timed: Vec<u64> = cluster_bench::par::par_map(lines, threads, |line| {
        let t0 = Instant::now();
        let resp = server.answer(line, None);
        assert!(!resp.is_empty());
        t0.elapsed().as_micros() as u64
    });
    let elapsed = started.elapsed();
    let mut hist = Hist::new();
    for us in timed {
        hist.record(us);
    }
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    BenchReport {
        requests: lines.len() as u64,
        distinct,
        threads,
        elapsed_ms,
        req_per_s: lines.len() as f64 / elapsed.as_secs_f64(),
        cache: server.cache_stats(),
        latency_us: [
            hist.quantile(0.5).unwrap_or(0.0),
            hist.quantile(0.9).unwrap_or(0.0),
            hist.quantile(0.99).unwrap_or(0.0),
        ],
    }
}

/// Runs the standard benchmark at the given size.
pub fn run(opts: &BenchOptions) -> BenchReport {
    let (lines, distinct) = standard_mix(opts.requests);
    run_mix(opts.threads, &lines, distinct)
}

/// Renders the `serve-bench/v1` JSON artifact (one pretty-stable line
/// per field; floats with fixed precision).
pub fn render_report(r: &BenchReport) -> String {
    format!(
        "{{\n  \"schema\": \"serve-bench/v1\",\n  \"requests\": {},\n  \"distinct\": {},\n  \"threads\": {},\n  \"elapsed_ms\": {:.3},\n  \"req_per_s\": {:.1},\n  \"cache\": {{ \"lookups\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6} }},\n  \"latency_us\": {{ \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1} }}\n}}\n",
        r.requests,
        r.distinct,
        r.threads,
        r.elapsed_ms,
        r.req_per_s,
        r.cache.lookups,
        r.cache.hits,
        r.cache.misses,
        r.cache.hit_rate(),
        r.latency_us[0],
        r.latency_us[1],
        r.latency_us[2],
    )
}

/// Validates a committed `serve-bench/v1` artifact: schema, cache
/// conservation laws, and the throughput / hit-rate floors. Pure check
/// of the recorded run — nothing is re-measured.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn check_report(text: &str) -> Result<(), String> {
    let doc = cta_obs::parse_json(text).map_err(|e| format!("artifact is not JSON: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("serve-bench/v1") {
        return Err("schema must be \"serve-bench/v1\"".into());
    }
    let requests = need_f64(&doc, &["requests"])?;
    let distinct = need_f64(&doc, &["distinct"])?;
    let lookups = need_f64(&doc, &["cache", "lookups"])?;
    let hits = need_f64(&doc, &["cache", "hits"])?;
    let misses = need_f64(&doc, &["cache", "misses"])?;
    let hit_rate = need_f64(&doc, &["cache", "hit_rate"])?;
    let req_per_s = need_f64(&doc, &["req_per_s"])?;
    if hits + misses != lookups {
        return Err(format!(
            "cache conservation violated: {hits} hits + {misses} misses != {lookups} lookups"
        ));
    }
    if misses != distinct {
        return Err(format!(
            "one-fill-per-digest violated: {misses} misses vs {distinct} distinct"
        ));
    }
    if lookups != requests {
        return Err(format!(
            "every request must consult the cache: {lookups} lookups vs {requests} requests"
        ));
    }
    if hit_rate < MIN_HIT_RATE {
        return Err(format!(
            "hit rate {hit_rate} below the {MIN_HIT_RATE} floor"
        ));
    }
    if req_per_s < MIN_REQ_PER_S {
        return Err(format!(
            "throughput {req_per_s} req/s below the {MIN_REQ_PER_S} floor"
        ));
    }
    let p50 = need_f64(&doc, &["latency_us", "p50"])?;
    let p90 = need_f64(&doc, &["latency_us", "p90"])?;
    let p99 = need_f64(&doc, &["latency_us", "p99"])?;
    if !(p50 <= p90 && p90 <= p99) {
        return Err(format!("latency quantiles not monotone: {p50} {p90} {p99}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_bench_conservation_laws_and_artifact_check() {
        // A small mix (2 cheap apps x 2 presets + 4 structural kernels
        // = 8 distinct) at 80 requests: hit rate 0.9 clears the
        // artifact's floor while staying fast in debug builds.
        let (lines, distinct) = mix(80, &["NW", "BTR"], &["GTX570", "GTX980"]);
        let mut report = run_mix(0, &lines, distinct);
        assert_eq!(report.requests, 80);
        assert_eq!(report.cache.misses, report.distinct);
        assert_eq!(
            report.cache.hits + report.cache.misses,
            report.cache.lookups
        );
        assert!(report.latency_us[0] <= report.latency_us[2]);
        // The structural invariants validate as rendered; the
        // throughput floor is a property of the committed full-size
        // artifact, not of a unit-sized run on a loaded test machine,
        // so pin it to a passing value before exercising the checker.
        report.req_per_s = report.req_per_s.max(MIN_REQ_PER_S);
        let good = render_report(&report);
        check_report(&good).expect("fresh artifact validates");

        assert!(check_report(&good.replace("serve-bench/v1", "nope")).is_err());
        let slow = good.replace(
            &format!("\"req_per_s\": {:.1}", report.req_per_s),
            "\"req_per_s\": 9.0",
        );
        assert!(check_report(&slow).unwrap_err().contains("throughput"));
        let leaky = good.replace(
            &format!("\"misses\": {}", report.cache.misses),
            &format!("\"misses\": {}", report.cache.misses + 1),
        );
        assert!(check_report(&leaky).is_err(), "conservation is enforced");
        assert!(check_report("{]").is_err());
    }

    #[test]
    fn standard_mix_is_duplicate_heavy() {
        // Only builds the lines; nothing is planned here.
        let (lines, distinct) = standard_mix(4096);
        assert_eq!(lines.len(), 4096);
        assert_eq!(distinct, 96, "23 apps x 4 presets + 4 raw kernels");
        assert!(1.0 - distinct as f64 / lines.len() as f64 >= MIN_HIT_RATE);
    }
}
