//! # cta-obs — structured telemetry for the clustering simulator stack
//!
//! A zero-dependency observability layer shared by every crate in the
//! workspace: `gpu-sim` (cache counters, reuse/latency histograms),
//! `cta-locality` (classification decisions), `cluster-bench` and
//! `cta-analyzer` (per-job spans, queue-wait vs busy time).
//!
//! ## Design
//!
//! * **Off by default, near-zero cost.** Telemetry is gated by the
//!   `CLUSTER_OBS` environment variable. When unset (or `0`/`off`),
//!   [`maybe_global`] returns `None`, [`span`] returns an inert guard,
//!   and instrumentation sites reduce to one relaxed atomic load plus an
//!   untaken branch. Figures are byte-identical with telemetry on or off
//!   (pinned by `crates/bench/tests/obs_differential.rs`) because
//!   recording only *observes* — nothing in the simulator reads a
//!   recorder.
//! * **Per-thread sinks, ordered merge.** Each recording thread owns a
//!   sink (counters, histograms, a bounded span ring); the snapshot
//!   merge combines them commutatively, the same determinism discipline
//!   as `cluster_bench::par`.
//! * **Two exporters.** Deterministic JSONL ([`render_jsonl`]) carries
//!   logical content only and is byte-identical at any worker-thread
//!   count; Chrome `trace_event` JSON ([`render_chrome_trace`]) carries
//!   wall-clock spans for flamegraphs. Metric names prefixed `time/`
//!   are wall-clock and appear only in the Chrome view.
//!
//! ## Usage
//!
//! ```
//! let obs = cta_obs::Obs::new();
//! {
//!     let _job = obs.span("GTX570/MM/CLU");
//!     obs.counter("sim/l1_hits", "sm0", 17);
//!     obs.hist("reuse_distance", "tag0/c3", 42);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("sim/l1_hits", "sm0"), 17);
//! let jsonl = cta_obs::render_jsonl(&snap, "example");
//! cta_obs::validate(&jsonl).unwrap();
//! ```

#![warn(missing_docs)]

mod chrome;
mod counters;
mod hist;
mod jsonl;
mod recorder;
mod snapshot;

pub use chrome::render_chrome_trace;
pub use hist::{bucket_of, bucket_range, Hist};
pub use jsonl::{
    json_escape, need_f64, need_str, need_u64, parse_json, render_jsonl, validate, Json,
    JsonlSummary, SCHEMA, TIME_PREFIX,
};
pub use recorder::{Obs, SpanEvent, SpanGuard, SpanKind, DEFAULT_RING_CAPACITY};
pub use snapshot::{ObsError, Snapshot, SpanAgg, TraceSpan};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable gating telemetry. Unset, empty, `0`, or `off`
/// (any case) disables it; anything else enables it. A path-looking
/// value (containing `/`) doubles as the output directory for
/// [`export_global`].
pub const ENV_VAR: &str = "CLUSTER_OBS";

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static GLOBAL: OnceLock<Obs> = OnceLock::new();

fn env_enabled() -> bool {
    match std::env::var(ENV_VAR) {
        Err(_) => false,
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "off")
        }
    }
}

/// Whether telemetry is enabled for this process. The environment is
/// consulted once and cached; after the first call only a relaxed
/// atomic load remains on the instrumentation path.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = env_enabled();
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Enables telemetry for this process regardless of the environment.
///
/// For tests: integration-test processes flip this instead of mutating
/// `CLUSTER_OBS`, which would race with other tests in the same process.
pub fn force_enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// The process-wide recorder (created on first use). Instrumentation
/// sites should prefer [`maybe_global`], which is `None` when disabled.
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::new)
}

/// The process-wide recorder, or `None` when telemetry is disabled —
/// the standard instrumentation-site guard:
///
/// ```
/// if let Some(obs) = cta_obs::maybe_global() {
///     obs.counter("sim/l1_hits", "sm0", 1);
/// }
/// ```
pub fn maybe_global() -> Option<&'static Obs> {
    if enabled() {
        Some(global())
    } else {
        None
    }
}

/// Opens a span on the global recorder, or returns an inert guard when
/// telemetry is disabled. The one-liner for instrumenting a scope:
///
/// ```
/// let _job = cta_obs::span("GTX570/MM/CLU");
/// ```
pub fn span(name: impl Into<String>) -> SpanGuard {
    match maybe_global() {
        Some(obs) => obs.span(name),
        None => SpanGuard::noop(),
    }
}

/// Where [`export_global`] writes. If `CLUSTER_OBS` holds a path
/// (contains `/`), that directory; otherwise the current directory.
pub fn out_dir() -> PathBuf {
    match std::env::var(ENV_VAR) {
        Ok(v) if v.contains('/') => PathBuf::from(v),
        _ => PathBuf::from("."),
    }
}

/// Snapshots the global recorder and writes `<out_dir>/<bin>.jsonl`
/// (deterministic) and `<out_dir>/<bin>.trace.json` (Chrome trace).
/// Returns the two paths, or `None` when telemetry is disabled. I/O
/// errors are reported on stderr rather than failing the run — telemetry
/// must never take the figures down with it.
pub fn export_global(bin: &str) -> Option<(PathBuf, PathBuf)> {
    if !enabled() {
        return None;
    }
    let snap = global().snapshot();
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cta-obs: cannot create {}: {e}", dir.display());
        return None;
    }
    let jsonl_path = dir.join(format!("{bin}.jsonl"));
    let trace_path = dir.join(format!("{bin}.trace.json"));
    if let Err(e) = std::fs::write(&jsonl_path, render_jsonl(&snap, bin)) {
        eprintln!("cta-obs: cannot write {}: {e}", jsonl_path.display());
        return None;
    }
    if let Err(e) = std::fs::write(&trace_path, render_chrome_trace(&snap, bin)) {
        eprintln!("cta-obs: cannot write {}: {e}", trace_path.display());
        return None;
    }
    Some((jsonl_path, trace_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here run in one process, so they must not mutate the
    // real environment; the env-sensitive paths are covered by the
    // integration tests (which own their processes).

    #[test]
    fn disabled_helpers_are_inert() {
        // CLUSTER_OBS is unset in the test environment unless a caller
        // exported it; either way the helpers must not panic.
        let _ = enabled();
        let _g = span("anything");
        let _ = maybe_global();
    }

    #[test]
    fn force_enable_turns_global_on() {
        force_enable();
        assert!(enabled());
        let obs = maybe_global().expect("enabled");
        obs.counter("lib/test", "k", 3);
        {
            let _g = span("lib/span");
        }
        let snap = global().snapshot();
        assert!(snap.counter("lib/test", "k") >= 3);
        assert!(snap.span_count("lib/span") >= 1);
    }
}
