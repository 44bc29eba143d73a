//! The reuse profiler: classifies every global-memory reuse in the pre-L1
//! access stream as intra-warp, intra-CTA (inter-warp) or inter-CTA.
//!
//! This replaces the paper's GPGPU-Sim instrumentation (§3.2): "we use
//! GPGPU-Sim to track the data reuse of all memory access requests and
//! estimate the percentage of inter-CTA reuse among the overall
//! data-reuse. Note that this estimation is data-driven and is independent
//! of cache design or CTA-scheduling policy." The profiler is likewise
//! purely address-stream-driven: it implements
//! [`TraceSink`](gpu_sim::TraceSink) and never looks at latencies or
//! placements.

use crate::wordmap::WordMap;
use gpu_sim::{AccessEvent, TraceSink};

/// The scope a reuse was classified into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseScope {
    /// Same warp of the same CTA touched the word before.
    IntraWarp,
    /// A different warp of the same CTA touched the word before.
    IntraCta,
    /// A different CTA touched the word before.
    InterCta,
}

/// Word-granularity toucher record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Toucher {
    cta: u64,
    warp: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct WordInfo {
    last: Option<Toucher>,
    /// Distinct-CTA approximation: the first toucher plus a flag for
    /// "another CTA has touched this word".
    first_cta: u64,
    multi_cta: bool,
    /// 0 means "never touched" (the [`WordMap`] presence sentinel).
    touches: u64,
}

/// Aggregate reuse statistics over one traced kernel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseSummary {
    /// Word-granularity accesses observed (per active lane, deduplicated
    /// within one warp instruction).
    pub accesses: u64,
    /// Accesses that re-touched a word previously touched by the same warp.
    pub intra_warp: u64,
    /// Accesses that re-touched a word previously touched by another warp
    /// of the same CTA.
    pub intra_cta: u64,
    /// Accesses that re-touched a word previously touched by another CTA.
    pub inter_cta: u64,
    /// Distinct words touched.
    pub words: u64,
    /// Words touched by more than one CTA.
    pub words_multi_cta: u64,
    /// Words touched more than once (by anyone).
    pub words_reused: u64,
}

impl ReuseSummary {
    /// Total reuse events (every access that touched a known word).
    pub fn reuses(&self) -> u64 {
        self.intra_warp + self.intra_cta + self.inter_cta
    }

    /// Fraction of all reuse that crosses the CTA boundary — the paper's
    /// Figure 3 metric (its average over 33 applications is ≈45%).
    pub fn inter_cta_share(&self) -> f64 {
        let r = self.reuses();
        if r == 0 {
            return 0.0;
        }
        self.inter_cta as f64 / r as f64
    }

    /// Fraction of all reuse that stays within a CTA (intra-warp plus
    /// inter-warp).
    pub fn intra_cta_share(&self) -> f64 {
        let r = self.reuses();
        if r == 0 {
            return 0.0;
        }
        (self.intra_warp + self.intra_cta) as f64 / r as f64
    }

    /// Fraction of accesses that are reuses at all (data-reuse intensity).
    pub fn reuse_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.reuses() as f64 / self.accesses as f64
    }
}

/// Trace sink that builds a [`ReuseSummary`] at word granularity.
///
/// # Examples
///
/// ```
/// use gpu_sim::{arch, Simulation};
/// use gpu_sim::{CtaContext, KernelSpec, LaunchConfig, MemAccess, Op, Program};
/// use locality::ReuseProfiler;
///
/// struct Shared;
/// impl KernelSpec for Shared {
///     fn name(&self) -> String { "shared".into() }
///     fn launch(&self) -> LaunchConfig { LaunchConfig::new(32u32, 32u32) }
///     fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
///         // Every CTA reads the same 32 words: pure inter-CTA reuse.
///         vec![Op::Load(MemAccess::coalesced(0, 0, 32, 4))]
///     }
/// }
///
/// let mut profiler = ReuseProfiler::new();
/// Simulation::new(arch::gtx570(), &Shared).run_traced(&mut profiler)?;
/// let summary = profiler.summary();
/// assert!(summary.inter_cta_share() > 0.9);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct ReuseProfiler {
    words: WordMap<WordInfo>,
    /// Maintained incrementally, including the word-population fields
    /// (`words`, `words_multi_cta`, `words_reused`), so [`summary`]
    /// [`Self::summary`] is O(1) instead of a scan.
    summary: ReuseSummary,
    /// Per-record lane-dedup scratch (reused so the per-access hot path
    /// stays allocation-free).
    seen_words: Vec<u64>,
}

impl ReuseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the aggregate summary.
    pub fn summary(&self) -> ReuseSummary {
        self.summary
    }

    /// Emits the profiler's classification decisions as telemetry
    /// counters under `scope`: one `locality/reuse_*` counter per scope
    /// class plus the access and word totals. The conservation law
    /// `reuse_intra_warp + reuse_intra_cta + reuse_inter_cta <=
    /// accesses` is pinned by the repo-root telemetry tests.
    pub fn record_obs(&self, obs: &cta_obs::Obs, scope: &str) {
        let s = self.summary();
        obs.counter("locality/accesses", scope, s.accesses);
        obs.counter("locality/reuse_intra_warp", scope, s.intra_warp);
        obs.counter("locality/reuse_intra_cta", scope, s.intra_cta);
        obs.counter("locality/reuse_inter_cta", scope, s.inter_cta);
        obs.counter("locality/words", scope, s.words);
        obs.counter("locality/words_multi_cta", scope, s.words_multi_cta);
    }

    /// Per-word reuse scope shares `(intra_warp, intra_cta, inter_cta)`
    /// normalized to sum to 1.0 over all reuse (0s when no reuse).
    pub fn shares(&self) -> (f64, f64, f64) {
        let s = self.summary();
        let r = s.reuses();
        if r == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            s.intra_warp as f64 / r as f64,
            s.intra_cta as f64 / r as f64,
            s.inter_cta as f64 / r as f64,
        )
    }
}

impl TraceSink for ReuseProfiler {
    fn record(&mut self, e: &AccessEvent<'_>) {
        // Deduplicate lanes within one warp instruction at word granularity
        // (a warp touching the same word in many lanes is one request).
        let mut seen_words = std::mem::take(&mut self.seen_words);
        seen_words.clear();
        for &addr in e.addrs {
            let word = addr / 4;
            if seen_words.contains(&word) {
                continue;
            }
            seen_words.push(word);
            self.summary.accesses += 1;
            let info = self.words.slot(word);
            if info.touches == 0 {
                info.first_cta = e.cta;
                self.summary.words += 1;
            } else if info.touches == 1 {
                self.summary.words_reused += 1;
            }
            info.touches += 1;
            if info.first_cta != e.cta && !info.multi_cta {
                info.multi_cta = true;
                self.summary.words_multi_cta += 1;
            }
            if let Some(prev) = info.last {
                let scope = if prev.cta != e.cta {
                    ReuseScope::InterCta
                } else if prev.warp != e.warp {
                    ReuseScope::IntraCta
                } else {
                    ReuseScope::IntraWarp
                };
                match scope {
                    ReuseScope::IntraWarp => self.summary.intra_warp += 1,
                    ReuseScope::IntraCta => self.summary.intra_cta += 1,
                    ReuseScope::InterCta => self.summary.inter_cta += 1,
                }
            }
            info.last = Some(Toucher {
                cta: e.cta,
                warp: e.warp,
            });
        }
        self.seen_words = seen_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Level;

    fn event(cta: u64, warp: u32, addrs: &[u64], is_write: bool) -> gpu_sim::OwnedAccessEvent {
        gpu_sim::OwnedAccessEvent {
            time: 0,
            sm_id: 0,
            slot: 0,
            cta,
            warp,
            tag: 0,
            is_write,
            is_atomic: false,
            bytes_per_lane: 4,
            addrs: addrs.to_vec(),
            latency: 1,
            served_by: Level::L1,
        }
    }

    fn feed(p: &mut ReuseProfiler, ev: &gpu_sim::OwnedAccessEvent) {
        p.record(&AccessEvent {
            time: ev.time,
            sm_id: ev.sm_id,
            slot: ev.slot,
            cta: ev.cta,
            warp: ev.warp,
            tag: ev.tag,
            is_write: ev.is_write,
            is_atomic: ev.is_atomic,
            bytes_per_lane: ev.bytes_per_lane,
            addrs: &ev.addrs,
            latency: ev.latency,
            served_by: ev.served_by,
        });
    }

    #[test]
    fn classifies_three_scopes() {
        let mut p = ReuseProfiler::new();
        feed(&mut p, &event(0, 0, &[0, 4], false)); // first touches
        feed(&mut p, &event(0, 0, &[0], false)); // intra-warp
        feed(&mut p, &event(0, 1, &[4], false)); // intra-CTA
        feed(&mut p, &event(1, 0, &[0], false)); // inter-CTA
        let s = p.summary();
        assert_eq!(s.accesses, 5);
        assert_eq!(s.intra_warp, 1);
        assert_eq!(s.intra_cta, 1);
        assert_eq!(s.inter_cta, 1);
        assert_eq!(s.words, 2);
        assert_eq!(s.words_multi_cta, 1);
        assert_eq!(s.words_reused, 2);
    }

    #[test]
    fn duplicate_lanes_in_one_instruction_count_once() {
        let mut p = ReuseProfiler::new();
        feed(&mut p, &event(0, 0, &[0, 0, 4], false)); // lanes 0 and 1 hit word 0
        let s = p.summary();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.reuses(), 0);
    }

    #[test]
    fn shares_normalize() {
        let mut p = ReuseProfiler::new();
        feed(&mut p, &event(0, 0, &[0], false));
        feed(&mut p, &event(1, 0, &[0], false));
        feed(&mut p, &event(2, 0, &[0], false));
        let (iw, ic, xc) = p.shares();
        assert_eq!((iw, ic), (0.0, 0.0));
        assert!((xc - 1.0).abs() < 1e-12);
        assert!((p.summary().inter_cta_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_well_defined() {
        let p = ReuseProfiler::new();
        let s = p.summary();
        assert_eq!(s.reuse_rate(), 0.0);
        assert_eq!(s.inter_cta_share(), 0.0);
        assert_eq!(s.intra_cta_share(), 0.0);
    }
}
