//! Redirection-based clustering (paper §4.2.4-(1), Listing 4, Figure 9).
//!
//! The cheapest CTA-Clustering scheme: the new kernel has exactly the
//! same grid as the original, and each CTA `u` *redirects* itself to
//! execute original CTA `v = f⁻¹(g(u))` using RR-based binding. No
//! hardware state is consulted, so the transform costs three integer
//! operations — but it only clusters correctly when the GigaThread engine
//! really dispatches round-robin, which real hardware does not
//! (§3.1-(3)). The paper (and our Figure 12 reproduction) shows it
//! helping some applications while being generally inferior to
//! agent-based clustering.

use crate::bind::rr_binding;
use crate::partition::Partition;
use gpu_sim::{CtaContext, KernelSpec, LaunchConfig, Program};

/// A kernel transformed by redirection-based clustering.
///
/// # Examples
///
/// ```
/// use cta_clustering::{Partition, RedirectionKernel};
/// use gpu_kernels::MatrixMul;
/// use gpu_sim::{arch, KernelSpec, Simulation};
///
/// let mm = MatrixMul::new(4, 4, 2);
/// let partition = Partition::y(mm.launch().grid, 15)?;
/// let rd = RedirectionKernel::new(mm, partition);
/// let stats = Simulation::new(arch::gtx570(), &rd).run()?;
/// assert_eq!(stats.placements.len(), 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RedirectionKernel<K> {
    inner: K,
    partition: Partition,
}

impl<K: KernelSpec> RedirectionKernel<K> {
    /// Wraps `inner` with the redirection transform under `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the partition's grid does not match the kernel's grid.
    pub fn new(inner: K, partition: Partition) -> Self {
        assert_eq!(
            partition.grid(),
            inner.launch().grid,
            "partition must cover the kernel grid"
        );
        RedirectionKernel { inner, partition }
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Consumes the wrapper, returning the original kernel.
    pub fn into_inner(self) -> K {
        self.inner
    }

    /// The redirection target of new-kernel CTA `u` (exposed for tests
    /// and analysis).
    pub fn redirect(&self, u: u64) -> u64 {
        let (w, i) = rr_binding(u, self.partition.num_clusters());
        self.partition.invert(w, i)
    }
}

impl<K: KernelSpec> KernelSpec for RedirectionKernel<K> {
    fn name(&self) -> String {
        format!("RD[{}]", self.inner.name())
    }

    fn launch(&self) -> LaunchConfig {
        // Identical geometry: |N| == |O| (1-to-1 mapping).
        self.inner.launch()
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let v = self.redirect(ctx.cta);
        let redirected = CtaContext { cta: v, ..*ctx };
        self.inner.warp_program(&redirected, warp)
    }

    fn warp_program_arc(
        &self,
        ctx: &CtaContext,
        warp: u32,
    ) -> Option<std::sync::Arc<[gpu_sim::Op]>> {
        // The transform is a pure CTA-id remap, so a cached program for
        // the redirected CTA replays zero-copy.
        let v = self.redirect(ctx.cta);
        let redirected = CtaContext { cta: v, ..*ctx };
        self.inner.warp_program_arc(&redirected, warp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use gpu_sim::{Dim3, MemAccess, Op};

    /// Identity kernel that records its CTA id in the load address.
    #[derive(Debug, Clone)]
    struct Probe {
        grid: Dim3,
    }

    impl KernelSpec for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(self.grid, 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![Op::Load(MemAccess::scalar(0, ctx.cta * 4, 4))]
        }
    }

    fn ctx(cta: u64) -> CtaContext {
        CtaContext {
            cta,
            sm_id: 0,
            slot: 0,
            arrival: 0,
            num_sms: 2,
        }
    }

    #[test]
    fn redirection_is_a_permutation() {
        let probe = Probe {
            grid: Dim3::plane(3, 2),
        };
        let p = Partition::y(probe.launch().grid, 2).unwrap();
        let rd = RedirectionKernel::new(probe, p);
        let mut targets: Vec<u64> = (0..6).map(|u| rd.redirect(u)).collect();
        targets.sort_unstable();
        assert_eq!(targets, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn under_strict_rr_same_cluster_lands_on_same_sm() {
        // Under u % M placement, cluster members are u = i, i+M, i+2M...
        // which all redirect into cluster i's task list in order.
        let probe = Probe {
            grid: Dim3::plane(3, 2),
        };
        let p = Partition::y(probe.launch().grid, 2).unwrap();
        let rd = RedirectionKernel::new(probe, p);
        // Cluster 0 tasks are v=0,1,2; they are executed by u=0,2,4.
        assert_eq!(rd.redirect(0), 0);
        assert_eq!(rd.redirect(2), 1);
        assert_eq!(rd.redirect(4), 2);
        // Cluster 1 tasks v=3,4,5 by u=1,3,5.
        assert_eq!(rd.redirect(1), 3);
        assert_eq!(rd.redirect(3), 4);
        assert_eq!(rd.redirect(5), 5);
    }

    #[test]
    fn program_is_original_ctas_program() {
        let probe = Probe {
            grid: Dim3::plane(3, 2),
        };
        let p = Partition::y(probe.launch().grid, 2).unwrap();
        let rd = RedirectionKernel::new(probe.clone(), p);
        let prog = rd.warp_program(&ctx(2), 0);
        // u=2 redirects to v=1: the address must encode v, not u.
        assert_eq!(prog, probe.warp_program(&ctx(1), 0));
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn grid_mismatch_panics() {
        let probe = Probe {
            grid: Dim3::plane(3, 2),
        };
        let p = Partition::y(Dim3::plane(4, 4), 2).unwrap();
        let _ = RedirectionKernel::new(probe, p);
    }
}
