//! Static locality profiling: the address-stream statistics the plan
//! audit reads, computed over the static trace of a kernel's warp
//! programs ([`locality::static_trace`]) — no timing model involved.

use gpu_sim::{AccessEvent, ArrayTag, FxHashSet, GpuConfig, KernelSpec, TraceSink};
use locality::{static_trace, Category, CategoryProfiler, Signature, TagReuseProfiler, TagSummary};

/// The statically derived locality profile of one kernel on one GPU.
#[derive(Debug)]
pub struct StaticProfile {
    /// Locality signature over the full static access stream.
    pub signature: Signature,
    /// Category the signature classifies to.
    pub category: Category,
    /// Per-tag word-reuse summaries.
    tags: TagReuseProfiler,
    /// Tags the kernel stores to or atomics, sorted.
    written_tags: Vec<ArrayTag>,
    /// Demand accesses walked.
    pub accesses: u64,
}

/// Fan-out sink feeding every profile statistic from one static trace.
#[derive(Default)]
struct ProfileSinks {
    category: CategoryProfiler,
    tags: TagReuseProfiler,
    written: FxHashSet<ArrayTag>,
}

impl TraceSink for ProfileSinks {
    fn record(&mut self, e: &AccessEvent<'_>) {
        self.category.record(e);
        self.tags.record(e);
        if e.is_write {
            self.written.insert(e.tag);
        }
    }
}

impl StaticProfile {
    /// Walks `kernel`'s warp programs under `cfg`'s geometry and builds
    /// the profile.
    pub fn collect<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig) -> Self {
        let mut sinks = ProfileSinks::default();
        let accesses = static_trace(kernel, cfg, &mut sinks);
        let mut written_tags: Vec<ArrayTag> = sinks.written.into_iter().collect();
        written_tags.sort_unstable();
        StaticProfile {
            signature: sinks.category.signature(),
            category: sinks.category.classify(),
            tags: sinks.tags,
            written_tags,
            accesses,
        }
    }

    /// Word-reuse summary of one tag.
    pub fn tag_summary(&self, tag: ArrayTag) -> TagSummary {
        self.tags.summary(tag)
    }

    /// Tags the kernel stores to or atomics, sorted. A read of any other
    /// tag cannot participate in a data race within this launch.
    pub fn written_tags(&self) -> &[ArrayTag] {
        &self.written_tags
    }

    /// The word-level streaming set ([`TagReuseProfiler::streaming_tags`]
    /// over the static trace): the bypass set `cta-serve` plans and the
    /// harness runs. The same profiler over the same trace as
    /// `Framework::streaming_tags_static` on this GPU, so the same tags.
    /// The analyzer narrows it with the baseline IR pass's line census
    /// ([`crate::ir::IrPass::strict_streaming_tags`]).
    pub fn word_streaming_tags(&self) -> Vec<ArrayTag> {
        self.tags.streaming_tags()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Op, Program};

    /// CTAs share a table (tag 0), stream private slices (tag 1), and
    /// quarter-walk shared lines (tag 2: line reuse without word reuse).
    #[derive(Debug, Clone)]
    pub(crate) struct Mixed;

    impl KernelSpec for Mixed {
        fn name(&self) -> String {
            "mixed".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(16), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            let quarter: Vec<u64> = (0..8)
                .map(|l| (ctx.cta / 4) * 128 + (ctx.cta % 4) * 32 + l * 4)
                .collect();
            vec![
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(1, (1 << 30) + ctx.cta * 128, 32, 4)),
                Op::Load(MemAccess::gather(2, quarter, 4)),
            ]
        }
    }

    #[test]
    fn profile_is_deterministic() {
        let a = StaticProfile::collect(&Mixed, &arch::gtx570());
        let b = StaticProfile::collect(&Mixed, &arch::gtx570());
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.category, b.category);
        assert_eq!(a.accesses, b.accesses);
    }
}
