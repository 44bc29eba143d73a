//! L1 cache bypassing (paper §4.3-(II)).
//!
//! A complementary optimization to CTA-Clustering: streaming accesses are
//! rewritten to `ld.global.cg` (L2-only) so they stop contending for L1
//! capacity and MSHRs with the accesses that carry inter-CTA reuse.

use gpu_sim::{ArrayTag, CacheOp, CtaContext, KernelSpec, LaunchConfig, Program};

/// A kernel whose loads to selected arrays bypass the L1.
///
/// # Examples
///
/// ```
/// use cta_clustering::BypassKernel;
/// use gpu_kernels::Kmeans;
/// use gpu_sim::{arch, KernelSpec, Simulation};
///
/// // Bypass the streamed point array (tag 0), keep centroids in L1.
/// let kmn = BypassKernel::new(Kmeans::new(64, 16, 4), vec![0]);
/// let stats = Simulation::new(arch::gtx570(), &kmn).run()?;
/// assert!(stats.l1_hit_rate() > 0.0);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BypassKernel<K> {
    inner: K,
    tags: Vec<ArrayTag>,
}

impl<K: KernelSpec> BypassKernel<K> {
    /// Wraps `inner`, bypassing L1 for loads whose array tag is in
    /// `tags`.
    pub fn new(inner: K, tags: Vec<ArrayTag>) -> Self {
        BypassKernel { inner, tags }
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// Tags being bypassed.
    pub fn tags(&self) -> &[ArrayTag] {
        &self.tags
    }
}

impl<K: KernelSpec> KernelSpec for BypassKernel<K> {
    fn name(&self) -> String {
        format!("BPS[{}]", self.inner.name())
    }

    fn launch(&self) -> LaunchConfig {
        self.inner.launch()
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let mut prog = self.inner.warp_program(ctx, warp);
        // Rewrite cache-all loads of bypassed arrays to `ld.global.cg`.
        for op in &mut prog {
            if let gpu_sim::Op::Load(access) = op {
                if access.cache_op == CacheOp::CacheAll && self.tags.contains(&access.tag) {
                    access.cache_op = CacheOp::BypassL1;
                }
            }
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Dim3, MemAccess, Op};

    #[derive(Debug, Clone)]
    struct TwoArrays;

    impl KernelSpec for TwoArrays {
        fn name(&self) -> String {
            "two-arrays".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(4), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![
                Op::Load(MemAccess::scalar(0, ctx.cta * 4, 4)),
                Op::Load(MemAccess::scalar(1, ctx.cta * 4, 4)),
                Op::Store(MemAccess::scalar(0, ctx.cta * 4, 4)),
            ]
        }
    }

    fn ctx() -> CtaContext {
        CtaContext {
            cta: 0,
            sm_id: 0,
            slot: 0,
            arrival: 0,
            num_sms: 1,
        }
    }

    #[test]
    fn only_selected_tags_bypass() {
        let k = BypassKernel::new(TwoArrays, vec![0]);
        let prog = k.warp_program(&ctx(), 0);
        match &prog[0] {
            Op::Load(a) => assert_eq!(a.cache_op, CacheOp::BypassL1),
            other => panic!("unexpected {other:?}"),
        }
        match &prog[1] {
            Op::Load(a) => assert_eq!(a.cache_op, CacheOp::CacheAll),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stores_are_untouched() {
        let k = BypassKernel::new(TwoArrays, vec![0]);
        let prog = k.warp_program(&ctx(), 0);
        match &prog[2] {
            Op::Store(a) => assert_eq!(a.cache_op, CacheOp::CacheAll),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_tag_list_is_identity() {
        let k = BypassKernel::new(TwoArrays, vec![]);
        assert_eq!(k.warp_program(&ctx(), 0), TwoArrays.warp_program(&ctx(), 0));
        assert_eq!(k.launch(), TwoArrays.launch());
    }
}
