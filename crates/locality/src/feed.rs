//! Feeding profilers from *static* op streams.
//!
//! The profilers in this crate are [`TraceSink`]s: they normally consume
//! the access stream a simulation emits. Static analysis (the
//! `cta-analyzer` crate) wants the same classifiers over address streams
//! read directly off warp programs — no timing model, no cache state.
//! [`StaticFeed`] bridges the two: it wraps any sink and synthesizes
//! order-preserving [`AccessEvent`]s from `(cta, warp, op)` triples.
//!
//! All analyses in this crate are defined over the *pre-L1* stream and
//! deliberately ignore timing fields, so the synthetic `time = issue
//! counter`, `latency = 1`, `served_by = L1` placeholders do not perturb
//! any signature metric.

use gpu_sim::{AccessEvent, ArrayTag, Level, Op, TraceSink};

/// Wraps a [`TraceSink`] so it can be fed from static op streams.
#[derive(Debug, Default)]
pub struct StaticFeed<S> {
    sink: S,
    issued: u64,
}

impl<S: TraceSink> StaticFeed<S> {
    /// Wraps `sink`.
    pub fn new(sink: S) -> Self {
        StaticFeed { sink, issued: 0 }
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwraps into the fed sink.
    pub fn into_inner(self) -> S {
        self.sink
    }

    /// Accesses fed so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Feeds one raw access. Atomics are fed with both `is_write` and
    /// `is_atomic` set: they mutate their word (write-sharing for the
    /// reuse profilers) while staying distinguishable as synchronization
    /// for concurrency-aware sinks.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        cta: u64,
        sm_id: usize,
        warp: u32,
        tag: ArrayTag,
        is_write: bool,
        is_atomic: bool,
        bytes_per_lane: u32,
        addrs: &[u64],
    ) {
        self.sink.record(&AccessEvent {
            time: self.issued,
            sm_id,
            slot: 0,
            cta,
            warp,
            tag,
            is_write,
            is_atomic,
            bytes_per_lane,
            addrs,
            latency: 1,
            served_by: Level::L1,
        });
        self.issued += 1;
    }

    /// Feeds every memory access of one warp-program op (compute ops and
    /// barriers are skipped; prefetches carry no demand and are skipped
    /// too).
    pub fn op(&mut self, cta: u64, sm_id: usize, warp: u32, op: &Op) {
        let (access, is_write, is_atomic) = match op {
            Op::Load(a) => (a, false, false),
            Op::Store(a) => (a, true, false),
            Op::Atomic(a) => (a, true, true),
            Op::Compute(_) | Op::Barrier => return,
        };
        if access.cache_op == gpu_sim::CacheOp::PrefetchL1 {
            return;
        }
        self.access(
            cta,
            sm_id,
            warp,
            access.tag,
            is_write,
            is_atomic,
            access.bytes_per_lane,
            &access.addrs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, CategoryProfiler, TagReuseProfiler};
    use gpu_sim::{CacheOp, MemAccess};

    #[test]
    fn op_feed_matches_manual_events() {
        let mut feed = StaticFeed::new(TagReuseProfiler::new());
        for cta in 0..4u64 {
            feed.op(cta, 0, 0, &Op::Load(MemAccess::coalesced(1, 0, 32, 4)));
            feed.op(
                cta,
                0,
                0,
                &Op::Load(MemAccess::coalesced(0, cta * 128, 32, 4)),
            );
        }
        let tags = feed.into_inner();
        assert_eq!(tags.summary(1).reuses, 96);
        assert_eq!(tags.streaming_tags(), vec![0]);
    }

    #[test]
    fn non_memory_and_prefetch_ops_skipped() {
        let mut feed = StaticFeed::new(CategoryProfiler::new());
        feed.op(0, 0, 0, &Op::Compute(10));
        feed.op(0, 0, 0, &Op::Barrier);
        feed.op(
            0,
            0,
            0,
            &Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
        );
        assert_eq!(feed.issued(), 0);
        assert_eq!(feed.sink().classify(), Category::Streaming);
    }

    #[test]
    fn stores_and_atomics_count_as_writes() {
        let mut feed = StaticFeed::new(TagReuseProfiler::new());
        feed.op(0, 0, 0, &Op::Store(MemAccess::scalar(2, 0, 4)));
        feed.op(0, 0, 0, &Op::Atomic(MemAccess::scalar(2, 4, 4)));
        assert_eq!(feed.sink().summary(2).writes, 2);
    }
}
