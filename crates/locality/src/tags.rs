//! Per-array reuse accounting: which logical arrays of a kernel carry
//! reuse and which merely stream.
//!
//! This is the probe behind the paper's bypassing decision (§4.3-(II)):
//! "we bypass the streaming accesses to L1 ... to prevent them from
//! contending resources with the accesses that have inter-CTA reuse."

use crate::wordmap::{distinct_words, ordered, WordMap};
use gpu_sim::{AccessEvent, ArrayTag, TraceSink};

/// Minimum word accesses before a tag's reuse rate is trusted enough to
/// call it streaming (§4.3-(II) bypass candidate selection).
const STREAMING_MIN_ACCESSES: u64 = 64;

/// Word-reuse-rate ceiling of a streaming tag.
const STREAMING_WORD_REUSE_MAX: f64 = 0.02;

/// Reuse statistics of one array tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagSummary {
    /// Word-granularity accesses to this array.
    pub accesses: u64,
    /// Accesses that re-touched a previously-touched word.
    pub reuses: u64,
}

impl TagSummary {
    /// Fraction of accesses that are reuses.
    pub fn reuse_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.reuses as f64 / self.accesses as f64
    }
}

/// Trace sink building per-tag reuse summaries.
///
/// # Examples
///
/// ```
/// use gpu_sim::{arch, Simulation};
/// use gpu_kernels::Kmeans;
/// use locality::TagReuseProfiler;
///
/// let kmn = Kmeans::new(16, 32, 4);
/// let mut profiler = TagReuseProfiler::new();
/// Simulation::new(arch::gtx570(), &kmn).run_traced(&mut profiler)?;
/// // Tag 1 is the centroid table (heavy reuse); tag 0 the point stream.
/// assert!(profiler.summary(1).reuse_rate() > 0.5);
/// assert!(profiler.summary(0).reuse_rate() < 0.05);
/// assert_eq!(profiler.streaming_tags(), vec![0, 2]);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct TagReuseProfiler {
    /// Per tag: its summary and which words it has touched. Tags are few
    /// (a handful of logical arrays), so a linear-scanned vec beats
    /// hashing the tag per event.
    tags: Vec<(ArrayTag, TagSummary, WordMap<bool>)>,
    /// Sorted copy of an unsorted event's lanes (reused scratch).
    scratch: Vec<u64>,
}

impl TagReuseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Summary for one tag (zeros if never seen).
    pub fn summary(&self, tag: ArrayTag) -> TagSummary {
        self.tags
            .iter()
            .find(|(t, ..)| *t == tag)
            .map(|(_, s, _)| *s)
            .unwrap_or_default()
    }

    /// Tags that stream: at least 64 word accesses with a reuse rate
    /// under 2% — the bypass candidates. This is the one word-level
    /// streaming rule; the analyzer's stricter audit set starts from it.
    pub fn streaming_tags(&self) -> Vec<ArrayTag> {
        let mut v: Vec<ArrayTag> = self
            .tags
            .iter()
            .filter(|(_, s, _)| {
                s.accesses >= STREAMING_MIN_ACCESSES
                    && (s.reuses as f64) < STREAMING_WORD_REUSE_MAX * s.accesses as f64
            })
            .map(|(t, ..)| *t)
            .collect();
        v.sort_unstable();
        v
    }
}

impl TraceSink for TagReuseProfiler {
    fn record(&mut self, e: &AccessEvent<'_>) {
        let i = match self.tags.iter().position(|(t, ..)| *t == e.tag) {
            Some(i) => i,
            None => {
                self.tags
                    .push((e.tag, TagSummary::default(), WordMap::default()));
                self.tags.len() - 1
            }
        };
        let (_, summary, seen) = &mut self.tags[i];
        for word in distinct_words(ordered(e.addrs, &mut self.scratch)) {
            summary.accesses += 1;
            let slot = seen.slot(word);
            summary.reuses += u64::from(*slot);
            *slot = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut TagReuseProfiler, tag: u16, cta: u64, addrs: &[u64], is_write: bool) {
        p.record(&AccessEvent {
            time: 0,
            sm_id: 0,
            slot: 0,
            cta,
            warp: 0,
            tag,
            is_write,
            is_atomic: false,
            bytes_per_lane: 4,
            addrs,
            latency: 1,
            served_by: gpu_sim::Level::L1,
        });
    }

    #[test]
    fn separates_streaming_from_reused_tags() {
        let mut p = TagReuseProfiler::new();
        for cta in 0..4u64 {
            feed(
                &mut p,
                0,
                cta,
                &(0..32).map(|l| cta * 128 + l * 4).collect::<Vec<_>>(),
                false,
            );
            feed(
                &mut p,
                1,
                cta,
                &(0..32).map(|l| l * 4).collect::<Vec<_>>(),
                false,
            );
        }
        assert_eq!(p.summary(0).reuses, 0);
        assert_eq!(p.summary(1).reuses, 96);
        assert_eq!(p.streaming_tags(), vec![0]);
    }

    #[test]
    fn small_tags_never_flagged_streaming() {
        let mut p = TagReuseProfiler::new();
        feed(&mut p, 5, 0, &[0], false);
        assert!(p.streaming_tags().is_empty());
    }
}
