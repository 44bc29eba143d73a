//! The serving core: a sharded worker pool over line-delimited JSON.
//!
//! Three roles, wired with bounded handoff:
//!
//! * The **reader** (caller thread) pulls request lines, stamps each
//!   with a sequence number and enqueue time, and hands it to the
//!   worker pool. When the number of in-flight requests reaches the
//!   configured queue capacity the request is **shed** instead: the
//!   reader immediately emits an `"overload"` response with
//!   `retry_after_ms` (the 429 idiom) without touching the pool.
//! * **Workers** (`threads` of them, defaulting to the
//!   `cluster_bench::par` thread configuration) parse, consult the
//!   content-addressed [`PlanCache`], plan on miss, and render.
//! * The **writer** reorders completed responses by sequence number so
//!   output order always equals input order, no matter how workers
//!   interleave — the property that makes responses byte-identical
//!   across 1, 2 and 8 worker threads.
//!
//! Graceful shutdown: EOF on the input drains the queue, flushes the
//! writer and joins the pool; a `{"op":"shutdown"}` control line does
//! the same from the client side (and stops a TCP accept loop).
//!
//! Everything is instrumented through `cta-obs` when enabled: request /
//! response / shed counters, per-code error counters, cache hit and
//! miss counters, and latency + queue-wait histograms (under the
//! `time/` prefix, so the deterministic JSONL export stays stable).

use crate::cache::{CacheStats, PlanCache};
use crate::planner::plan_request;
use crate::proto::{parse_request, render_error, ProtoError};
use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// The `retry_after_ms` hint attached to shed responses.
const RETRY_AFTER_MS: u64 = 25;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; `0` means the `cluster_bench::par` configuration
    /// (`CLUSTER_BENCH_THREADS` or the machine's parallelism).
    pub threads: usize,
    /// In-flight request cap before the reader sheds; `0` disables
    /// shedding (tests and batch runs want determinism, not backpressure).
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            queue_cap: 1024,
            default_deadline_ms: None,
        }
    }
}

/// What one [`Server::serve_lines`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Request lines read.
    pub requests: u64,
    /// Response lines written (== requests: every line is answered).
    pub responses: u64,
    /// Requests answered with `"overload"` by the shedding path.
    pub shed: u64,
    /// Whether a shutdown control line ended the session.
    pub shutdown: bool,
}

/// The plan server: configuration plus the shared content-addressed
/// cache. One instance serves any number of batches, stdin sessions and
/// TCP connections; the cache persists across all of them.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    cache: PlanCache,
    shutting_down: AtomicBool,
}

fn obs_counter(name: &str, key: &str, delta: u64) {
    if let Some(obs) = cta_obs::maybe_global() {
        obs.counter(name, key, delta);
    }
}

fn obs_hist(name: &str, key: &str, sample: u64) {
    if let Some(obs) = cta_obs::maybe_global() {
        obs.hist(name, key, sample);
    }
}

/// Counts and renders an error response to a request that got no plan.
fn reject(id: &str, err: &ProtoError) -> String {
    obs_counter("serve/errors", err.code, 1);
    obs_counter("serve/responses", "error", 1);
    render_error(id, err, None)
}

impl Server {
    /// A server with the given configuration and an empty cache.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            cfg,
            cache: PlanCache::new(),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The shared plan cache (tests read its conservation counters).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Snapshot of the cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Effective worker count.
    pub fn threads(&self) -> usize {
        if self.cfg.threads == 0 {
            cluster_bench::par::configured_threads()
        } else {
            self.cfg.threads
        }
    }

    /// Answers one request line: parse, deadline check, cache lookup or
    /// plan, render. Always returns exactly one response line (no
    /// trailing newline). Pure in the request's semantic content —
    /// the foundation of both the cache and cross-thread determinism.
    ///
    /// `enqueued` is the queue-entry timestamp for deadline accounting;
    /// batch callers pass `None` (a fresh request cannot be late).
    pub fn answer(&self, line: &str, enqueued: Option<Instant>) -> String {
        let started = Instant::now();
        obs_counter("serve/requests", "all", 1);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, err)) => return reject(&id, &err),
        };
        if let Some(t0) = enqueued {
            let wait_us = t0.elapsed().as_micros() as u64;
            obs_hist("time/serve/queue_wait_us", "all", wait_us);
            let deadline = req.deadline_ms.or(self.cfg.default_deadline_ms);
            if let Some(ms) = deadline {
                if wait_us > ms.saturating_mul(1000) {
                    let err = ProtoError::new(
                        "deadline",
                        format!("request waited {wait_us}us, past its {ms}ms deadline"),
                    );
                    return reject(&req.id, &err);
                }
            }
        }
        let (outcome, hit) = self.cache.get_or_plan(req.digest(), || plan_request(&req));
        obs_counter("serve/cache", if hit { "hit" } else { "miss" }, 1);
        let rendered = match &outcome {
            Ok(body) => {
                obs_counter("serve/responses", "plan", 1);
                body.render(&req.id)
            }
            Err(err) => reject(&req.id, err),
        };
        obs_hist(
            "time/serve/latency_us",
            req.mode.as_str(),
            started.elapsed().as_micros() as u64,
        );
        rendered
    }

    /// Answers a batch of request lines in input order, fanning the work
    /// across the worker pool via [`cluster_bench::par::par_map`]. This
    /// is the path the soak tests, the golden tests and the benchmark
    /// drive; it never sheds (there is no queue to overflow).
    pub fn handle_batch(&self, lines: &[String]) -> Vec<String> {
        cluster_bench::par::par_map(lines, self.threads(), |line| self.answer(line, None))
    }

    fn is_shutdown_line(line: &str) -> bool {
        line.contains("\"op\"")
            && cta_obs::parse_json(line)
                .ok()
                .and_then(|doc| doc.get("op").and_then(|v| v.as_str()).map(String::from))
                .as_deref()
                == Some("shutdown")
    }

    /// Serves one line-delimited session: reads requests from `input`
    /// until EOF or a `{"op":"shutdown"}` control line, writes exactly
    /// one response line per request line, in request order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the input or output stream.
    pub fn serve_lines<R: BufRead, W: Write + Send>(
        &self,
        mut input: R,
        output: W,
    ) -> std::io::Result<ServeSummary> {
        let threads = self.threads();
        let mut summary = ServeSummary::default();
        let in_flight = AtomicUsize::new(0);
        // Workers pull (seq, line, enqueue time); the writer reorders
        // (seq, response) back into input order.
        let (work_tx, work_rx) = mpsc::channel::<(u64, String, Instant)>();
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel::<(u64, String)>();
        let written = AtomicU64::new(0);
        let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

        std::thread::scope(|scope| -> std::io::Result<()> {
            let io_error = &io_error;
            let written = &written;
            let writer = scope.spawn(move || {
                let mut output = output;
                let mut next = 0u64;
                let mut held = BinaryHeap::new();
                for (seq, resp) in done_rx.iter() {
                    held.push(std::cmp::Reverse((seq, resp)));
                    while held.peek().is_some_and(|r| r.0 .0 == next) {
                        let std::cmp::Reverse((_, line)) = held.pop().expect("peeked");
                        if let Err(e) = writeln!(output, "{line}").and_then(|()| output.flush()) {
                            *io_error.lock().expect("io slot") = Some(e);
                            return;
                        }
                        next += 1;
                        written.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for _ in 0..threads {
                let work_rx = &work_rx;
                let done_tx = done_tx.clone();
                let in_flight = &in_flight;
                scope.spawn(move || loop {
                    let job = work_rx.lock().expect("work queue").recv();
                    let Ok((seq, line, t0)) = job else { break };
                    let resp = self.answer(&line, Some(t0));
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    if done_tx.send((seq, resp)).is_err() {
                        break;
                    }
                });
            }

            let mut seq = 0u64;
            loop {
                let mut raw = Vec::new();
                if input.read_until(b'\n', &mut raw)? == 0 {
                    break;
                }
                // Strip `\n` or `\r\n`, as `BufRead::lines` does.
                if raw.last() == Some(&b'\n') {
                    raw.pop();
                    if raw.last() == Some(&b'\r') {
                        raw.pop();
                    }
                }
                let Ok(line) = String::from_utf8(raw) else {
                    // Not UTF-8, so not JSON: answer in order and read on.
                    summary.requests += 1;
                    obs_counter("serve/requests", "all", 1);
                    let err = ProtoError::new("parse", "request line is not valid UTF-8");
                    let _ = done_tx.send((seq, reject("", &err)));
                    seq += 1;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                summary.requests += 1;
                if Self::is_shutdown_line(&line) {
                    self.shutting_down.store(true, Ordering::Relaxed);
                    summary.shutdown = true;
                    let id = cta_obs::parse_json(&line)
                        .ok()
                        .and_then(|d| d.get("id").and_then(|v| v.as_str()).map(String::from))
                        .unwrap_or_default();
                    let bye = format!(
                        "{{\"proto\":\"{}\",\"id\":\"{}\",\"ok\":\"shutting-down\"}}",
                        crate::proto::PROTO,
                        crate::proto::json_escape(&id)
                    );
                    let _ = done_tx.send((seq, bye));
                    break;
                }
                let queued = in_flight.load(Ordering::Relaxed);
                if self.cfg.queue_cap > 0 && queued >= self.cfg.queue_cap {
                    summary.shed += 1;
                    obs_counter("serve/shed", "overload", 1);
                    let id = cta_obs::parse_json(&line)
                        .ok()
                        .and_then(|d| d.get("id").and_then(|v| v.as_str()).map(String::from))
                        .unwrap_or_default();
                    let err = ProtoError::new(
                        "overload",
                        format!(
                            "{queued} requests in flight at a cap of {}",
                            self.cfg.queue_cap
                        ),
                    );
                    let resp = render_error(&id, &err, Some(RETRY_AFTER_MS));
                    let _ = done_tx.send((seq, resp));
                } else {
                    in_flight.fetch_add(1, Ordering::Relaxed);
                    work_tx
                        .send((seq, line, Instant::now()))
                        .expect("workers alive");
                }
                seq += 1;
            }
            // EOF (or shutdown): close the work queue so workers drain
            // and exit, then the done channel so the writer flushes.
            drop(work_tx);
            drop(done_tx);
            let _ = writer;
            Ok(())
        })?;
        if let Some(e) = io_error.into_inner().expect("io slot") {
            return Err(e);
        }
        summary.responses = written.into_inner();
        Ok(summary)
    }

    /// Accept loop: serves connections one at a time (each connection
    /// gets the full worker pool; the cache persists across them) until
    /// a client sends the shutdown control line. A failed accept or a
    /// connection's I/O error (say, a client that closes before reading
    /// its responses) is reported on stderr and the loop moves on to the
    /// next connection.
    ///
    /// # Errors
    ///
    /// None: per-connection failures are logged, not returned, and the
    /// loop returns `Ok` once a shutdown line ends it.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let session = stream.and_then(|stream| {
                let reader = BufReader::new(stream.try_clone()?);
                self.serve_lines(reader, stream)
            });
            if let Err(e) = session {
                eprintln!("cta-serve: connection dropped: {e}");
            }
            if self.shutting_down.load(Ordering::Relaxed) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(threads: usize) -> Server {
        Server::new(ServerConfig {
            threads,
            queue_cap: 0,
            ..ServerConfig::default()
        })
    }

    fn mix() -> Vec<String> {
        let mut lines = Vec::new();
        for i in 0..12 {
            let app = ["MM", "NW", "BS", "HS"][i % 4];
            lines.push(format!(r#"{{"id":"r{i}","gpu":"GTX570","app":"{app}"}}"#));
        }
        lines.push("{broken".into());
        lines.push(r#"{"id":"u","gpu":"GTX570","app":"NOPE"}"#.into());
        lines
    }

    #[test]
    fn batch_output_is_in_input_order_and_thread_invariant() {
        let serial: Vec<String> = {
            let s = server(1);
            s.handle_batch(&mix())
        };
        for (i, resp) in serial.iter().take(12).enumerate() {
            assert!(resp.contains(&format!("\"id\":\"r{i}\"")), "{resp}");
        }
        let parallel = server(4).handle_batch(&mix());
        assert_eq!(serial, parallel, "responses byte-identical across pools");
    }

    #[test]
    fn cache_collapses_duplicates_in_a_batch() {
        let s = server(4);
        s.handle_batch(&mix());
        let stats = s.cache_stats();
        // 12 well-formed app requests over 4 distinct apps, plus the
        // unknown-app request (cached too); the parse failure never
        // reaches the cache.
        assert_eq!(stats.lookups, 13);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
    }

    #[test]
    fn serve_lines_answers_every_line_in_order() {
        let input = mix().join("\n");
        let mut out = Vec::new();
        let s = server(3);
        let summary = s
            .serve_lines(input.as_bytes(), &mut out)
            .expect("session runs");
        assert_eq!(summary.requests, 14);
        assert_eq!(summary.responses, 14);
        assert_eq!(summary.shed, 0);
        assert!(!summary.shutdown);
        let written = String::from_utf8(out).expect("utf8");
        let batch = server(1).handle_batch(&mix());
        let expect: String = batch.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(written, expect, "stream path matches batch path");
    }

    #[test]
    fn shutdown_line_ends_the_session() {
        let input = format!(
            "{}\n{}\n{}\n",
            r#"{"id":"a","gpu":"GTX570","app":"NW"}"#,
            r#"{"id":"bye","op":"shutdown"}"#,
            r#"{"id":"never","gpu":"GTX570","app":"MM"}"#
        );
        let mut out = Vec::new();
        let s = server(2);
        let summary = s.serve_lines(input.as_bytes(), &mut out).expect("session");
        assert!(summary.shutdown);
        assert_eq!(summary.responses, 2, "shutdown answered, tail never read");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("shutting-down"));
        assert!(!text.contains("\"id\":\"never\""));
    }

    #[test]
    fn tiny_queue_sheds_with_retry_after() {
        // One worker, capacity 1: with many instant arrivals from a
        // pre-buffered reader, some requests must overflow.
        let s = Server::new(ServerConfig {
            threads: 1,
            queue_cap: 1,
            default_deadline_ms: None,
        });
        let lines: Vec<String> = (0..64)
            .map(|i| format!(r#"{{"id":"q{i}","gpu":"GTX570","app":"MM"}}"#))
            .collect();
        let input = lines.join("\n");
        let mut out = Vec::new();
        let summary = s.serve_lines(input.as_bytes(), &mut out).expect("session");
        assert_eq!(summary.responses, 64, "shed requests are still answered");
        assert!(summary.shed > 0, "capacity 1 must shed under a 64-burst");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"error\":\"overload\""));
        assert!(text.contains(&format!("\"retry_after_ms\":{RETRY_AFTER_MS}")));
    }

    #[test]
    fn stale_requests_miss_their_deadline() {
        let s = server(1);
        let stale = Instant::now() - std::time::Duration::from_millis(50);
        let resp = s.answer(
            r#"{"id":"d","gpu":"GTX570","app":"NW","deadline_ms":10}"#,
            Some(stale),
        );
        assert!(resp.contains("\"error\":\"deadline\""), "{resp}");
        let fresh = s.answer(
            r#"{"id":"d","gpu":"GTX570","app":"NW","deadline_ms":10}"#,
            None,
        );
        assert!(fresh.contains("\"category\""), "{fresh}");
    }
}
