//! Parallel evaluation engine: fans the apps of the Figure 12/13 matrix
//! across OS threads.
//!
//! Each simulation is single-threaded and deterministic; what this
//! module parallelizes is the *matrix*, one job per app × architecture.
//! A job runs the app's whole evaluation through [`AppPlan::evaluate`]
//! (phase A, throttle selection, phase B). Jobs are queued app-major
//! and distributed through an index-keyed job queue
//! (`std::thread::scope` + `std::sync::mpsc`; zero external
//! dependencies); results land in preallocated slots keyed by job
//! index, so output is byte-identical regardless of thread count or
//! scheduling order.
//!
//! Thread count comes from the `CLUSTER_BENCH_THREADS` environment
//! variable; unset defaults to [`std::thread::available_parallelism`],
//! and `1` runs every job inline on the calling thread (no threads
//! spawned at all).

use crate::evaluation::ArchEvaluation;
use crate::runner::{AppEvaluation, AppPlan};
use cta_clustering::ClusterError;
use gpu_sim::GpuConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Total simulation time accumulated across all threads (nanoseconds).
/// Drives the "effective parallel speedup" line in bin footers.
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Adds `d` to the process-wide busy-time counter. Called around every
/// evaluation job (and by bins that run their own simulations), on
/// whichever thread runs it.
///
/// When telemetry is on, the same quantity lands on the recorder as
/// `time/busy_ns` — a wall-clock metric, so it appears in the Chrome
/// trace but is excluded from the deterministic JSONL export.
pub fn record_busy(d: Duration) {
    BUSY_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    if let Some(obs) = cta_obs::maybe_global() {
        obs.counter("time/busy_ns", "", d.as_nanos() as u64);
    }
}

/// Busy time accumulated so far.
pub fn busy_time() -> Duration {
    Duration::from_nanos(BUSY_NANOS.load(Ordering::Relaxed))
}

/// Number of worker threads the harness should use.
///
/// Reads `CLUSTER_BENCH_THREADS`; a missing, empty, or unparsable value
/// falls back to [`std::thread::available_parallelism`]. `1` runs every
/// job inline on the calling thread. Values are clamped to at least 1.
pub fn configured_threads() -> usize {
    match std::env::var("CLUSTER_BENCH_THREADS") {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!(
                    "warning: ignoring unparsable CLUSTER_BENCH_THREADS={v:?}; \
                     using available parallelism"
                );
                default_threads()
            }
        },
        _ => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, using up to `threads` worker threads, and
/// returns results in input order.
///
/// With `threads <= 1` (or fewer than two items) this runs inline on the
/// calling thread, spawning nothing. Otherwise
/// workers pull item indices from a shared queue and write results into
/// the slot of the same index, which makes the output independent of
/// which worker ran which item. A panic in `f` propagates to the caller
/// once the scope joins.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let (tx, rx) = mpsc::channel::<usize>();
    for i in 0..items.len() {
        tx.send(i).expect("queue send");
    }
    drop(tx); // Workers drain until the queue reports disconnected.
    let queue = Mutex::new(rx);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                // Hold the queue lock only for the recv, not the work.
                let wait_start = Instant::now();
                let next = queue.lock().expect("queue lock").recv();
                if let Some(obs) = cta_obs::maybe_global() {
                    // Queue-wait vs busy: wall-clock, so `time/`-prefixed
                    // (Chrome trace only, never the deterministic JSONL).
                    obs.counter(
                        "time/queue_wait_ns",
                        "",
                        wait_start.elapsed().as_nanos() as u64,
                    );
                }
                match next {
                    Ok(i) => *slots[i].lock().expect("slot lock") = Some(f(&items[i])),
                    Err(_) => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

/// Runs the full evaluation matrix for the given GPUs across `threads`
/// workers, one job per app, and returns each GPU's Table 2 suite in
/// suite order.
///
/// Jobs are queued app-major — the first app on every GPU, then the
/// second, and so on — so the costliest apps (KMN on every preset) start
/// together at the front of the queue instead of one GPU's whole suite
/// holding the tail.
///
/// # Errors
///
/// Propagates the first failure in queue order.
pub fn evaluate_matrix(
    cfgs: &[GpuConfig],
    threads: usize,
) -> Result<Vec<ArchEvaluation>, ClusterError> {
    // Plans are cheap (no simulation), so build them inline.
    let mut suites: Vec<_> = cfgs
        .iter()
        .map(|cfg| gpu_kernels::suite::table2_suite(cfg.arch).into_iter())
        .collect();
    let mut owners: Vec<usize> = Vec::new();
    let mut plans: Vec<AppPlan> = Vec::new();
    loop {
        let queued = plans.len();
        for (gi, (cfg, suite)) in cfgs.iter().zip(&mut suites).enumerate() {
            if let Some(w) = suite.next() {
                owners.push(gi);
                plans.push(AppPlan::new(cfg, w));
            }
        }
        if plans.len() == queued {
            break;
        }
    }
    let mut archs: Vec<ArchEvaluation> = cfgs
        .iter()
        .map(|cfg| ArchEvaluation {
            gpu: cfg.name.clone(),
            arch: cfg.arch,
            apps: Vec::new(),
        })
        .collect();
    for (gi, eval) in owners.into_iter().zip(evaluate_plans(&plans, threads)) {
        archs[gi].apps.push(eval?);
    }
    Ok(archs)
}

/// Evaluates an explicit set of workloads on one GPU across `threads`
/// workers, one job per workload, results in input order. Useful for
/// partial matrices (and the determinism regression tests).
///
/// # Errors
///
/// Propagates the first failure in input order.
pub fn evaluate_apps_par(
    cfg: &GpuConfig,
    workloads: Vec<Box<dyn gpu_kernels::Workload>>,
    threads: usize,
) -> Result<Vec<AppEvaluation>, ClusterError> {
    let plans: Vec<AppPlan> = workloads
        .into_iter()
        .map(|w| AppPlan::new(cfg, w))
        .collect();
    evaluate_plans(&plans, threads).into_iter().collect()
}

/// One [`AppPlan::evaluate`] job per plan, each running its requests
/// through [`AppPlan::run_metered`]. Every job runs to completion (the
/// pool has no early cancellation); results come back in plan order.
fn evaluate_plans(plans: &[AppPlan], threads: usize) -> Vec<Result<AppEvaluation, ClusterError>> {
    par_map(plans, threads, |plan| {
        let t0 = Instant::now();
        let eval = plan.evaluate(|req| plan.run_metered(req).map(|(stats, _)| stats));
        record_busy(t0.elapsed());
        eval
    })
}

/// Tunes glibc's allocator for the harness's allocation pattern.
///
/// Each simulation allocates a handful of MB-scale slabs (cache arrays,
/// CTA placements, profiler pages) that die with the run. Under glibc's
/// defaults those exceed the mmap threshold, so every run pays
/// mmap/munmap plus a page fault per touched page — measured at ~14% of
/// `fig12_speedup` wall time as system time. Raising the mmap and trim
/// thresholds keeps the slabs in the main arena, where the next run
/// reuses the same already-faulted pages. No-op off glibc; values are
/// per-process hints, not correctness-relevant.
pub fn tune_allocator() {
    #[cfg(target_env = "gnu")]
    {
        // From <malloc.h>: M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3.
        extern "C" {
            fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
        }
        // SAFETY: mallopt only writes malloc's own tuning parameters;
        // called once at bin startup before any worker threads exist.
        unsafe {
            mallopt(-1, 512 << 20);
            mallopt(-3, 64 << 20);
        }
    }
}

/// Wraps a bin's body in a root telemetry span and, when `CLUSTER_OBS`
/// is set, exports `<bin>.jsonl` (deterministic) and `<bin>.trace.json`
/// (Chrome trace) on the way out. The export paths go to *stderr* so a
/// bin's stdout stays byte-comparable across telemetry modes.
///
/// Also applies [`tune_allocator`], so every figure bin gets the
/// allocator tuned the same way.
pub fn with_obs<R>(bin: &str, f: impl FnOnce() -> R) -> R {
    tune_allocator();
    let result = {
        let _root = cta_obs::span(format!("bin/{bin}"));
        f()
    };
    if let Some((jsonl, trace)) = cta_obs::export_global(bin) {
        eprintln!(
            "telemetry: wrote {} and {}",
            jsonl.display(),
            trace.display()
        );
    }
    result
}

/// Wall-clock + busy-time bracket for a bin's report footer.
#[derive(Debug)]
pub struct RunClock {
    start: Instant,
    busy_at_start: Duration,
    threads: usize,
}

impl RunClock {
    /// Starts timing; `threads` is echoed in the footer.
    pub fn start(threads: usize) -> RunClock {
        RunClock {
            start: Instant::now(),
            busy_at_start: busy_time(),
            threads,
        }
    }

    /// The footer line: elapsed wall-clock, accumulated simulation time,
    /// and the effective parallel speedup (busy / wall).
    pub fn footer(&self) -> String {
        let wall = self.start.elapsed();
        let busy = busy_time().saturating_sub(self.busy_at_start);
        let speedup = busy.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        format!(
            "elapsed {:.2}s wall, {:.2}s simulating on {} thread{} (effective parallel speedup {:.2}x)",
            wall.as_secs_f64(),
            busy.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            speedup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(&items, threads, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|&x| x * x).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map(&none, 4, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_runs_every_job_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..33).collect();
        let out = par_map(&items, 3, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 33);
        assert_eq!(calls.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn busy_clock_accumulates() {
        let clock = RunClock::start(2);
        record_busy(Duration::from_millis(10));
        let footer = clock.footer();
        assert!(footer.contains("2 threads"), "{footer}");
        assert!(footer.contains("effective parallel speedup"), "{footer}");
    }

    #[test]
    fn thread_count_env_parsing() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback is sane.
        assert!(default_threads() >= 1);
    }
}
