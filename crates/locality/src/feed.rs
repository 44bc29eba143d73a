//! Feeding profilers from *static* op streams.
//!
//! The profilers in this crate are [`TraceSink`]s: they normally consume
//! the access stream a simulation emits. Static analysis (the
//! `cta-analyzer` crate, the plan server) wants the same classifiers over
//! address streams read directly off warp programs — no timing model, no
//! cache state. [`static_trace`] bridges the two: it walks a kernel's
//! warp programs and feeds any sink the order-preserving
//! [`AccessEvent`]s the walk implies.
//!
//! All analyses in this crate are defined over the *pre-L1* stream and
//! deliberately ignore timing fields, so the synthetic `time = issue
//! counter`, `latency = 1`, `served_by = L1` placeholders do not perturb
//! any signature metric.

use gpu_sim::{walk, AccessEvent, CacheOp, GpuConfig, KernelSpec, Level, Op, TraceSink};

/// Walks `kernel` under `cfg`'s idealized-RR dispatch
/// ([`gpu_sim::walk`]) and feeds `sink` one event per demand access in
/// walk order, returning the number of events fed.
///
/// Compute ops, barriers and `PrefetchL1` loads (which carry no demand)
/// are skipped. Atomics are fed with both `is_write` and `is_atomic`
/// set: they mutate their word (write-sharing for the reuse profilers)
/// while staying distinguishable as synchronization for
/// concurrency-aware sinks.
pub fn static_trace<K, S>(kernel: &K, cfg: &GpuConfig, sink: &mut S) -> u64
where
    K: KernelSpec + ?Sized,
    S: TraceSink + ?Sized,
{
    let mut issued = 0u64;
    walk::each_warp_program_on(kernel, cfg, |ctx, warp, prog| {
        for op in prog {
            let (access, is_write, is_atomic) = match op {
                Op::Load(a) => (a, false, false),
                Op::Store(a) => (a, true, false),
                Op::Atomic(a) => (a, true, true),
                Op::Compute(_) | Op::Barrier => continue,
            };
            if access.cache_op == CacheOp::PrefetchL1 {
                continue;
            }
            sink.record(&AccessEvent {
                time: issued,
                sm_id: ctx.sm_id,
                slot: 0,
                cta: ctx.cta,
                warp,
                tag: access.tag,
                is_write,
                is_atomic,
                bytes_per_lane: access.bytes_per_lane,
                addrs: &access.addrs,
                latency: 1,
                served_by: Level::L1,
            });
            issued += 1;
        }
    });
    issued
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, CategoryProfiler, TagReuseProfiler};
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Program};

    /// One warp per CTA, running `prog(cta)`.
    struct Fixed<F> {
        ctas: u32,
        prog: F,
    }

    impl<F: Fn(u64) -> Program> KernelSpec for Fixed<F> {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(self.ctas), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            (self.prog)(ctx.cta)
        }
    }

    #[test]
    fn trace_matches_manual_events() {
        let k = Fixed {
            ctas: 4,
            prog: |cta: u64| {
                vec![
                    Op::Load(MemAccess::coalesced(1, 0, 32, 4)),
                    Op::Load(MemAccess::coalesced(0, cta * 128, 32, 4)),
                ]
            },
        };
        let mut tags = TagReuseProfiler::new();
        static_trace(&k, &arch::gtx570(), &mut tags);
        assert_eq!(tags.summary(1).reuses, 96);
        assert_eq!(tags.streaming_tags(), vec![0]);
    }

    #[test]
    fn non_memory_and_prefetch_ops_skipped() {
        let k = Fixed {
            ctas: 1,
            prog: |_: u64| {
                vec![
                    Op::Compute(10),
                    Op::Barrier,
                    Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
                ]
            },
        };
        let mut category = CategoryProfiler::new();
        assert_eq!(static_trace(&k, &arch::gtx570(), &mut category), 0);
        assert_eq!(category.classify(), Category::Streaming);
    }

    /// Counts the events flagged `is_write` and `is_atomic`.
    #[derive(Default)]
    struct WriteCount {
        writes: u64,
        atomics: u64,
    }

    impl TraceSink for WriteCount {
        fn record(&mut self, e: &AccessEvent<'_>) {
            self.writes += u64::from(e.is_write);
            self.atomics += u64::from(e.is_atomic);
        }
    }

    #[test]
    fn stores_and_atomics_count_as_writes() {
        let k = Fixed {
            ctas: 1,
            prog: |_: u64| {
                vec![
                    Op::Store(MemAccess::scalar(2, 0, 4)),
                    Op::Atomic(MemAccess::scalar(2, 4, 4)),
                ]
            },
        };
        let mut count = WriteCount::default();
        assert_eq!(static_trace(&k, &arch::gtx570(), &mut count), 2);
        assert_eq!((count.writes, count.atomics), (2, 1));
    }
}
