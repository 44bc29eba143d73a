//! Static IR walking: enumerate every warp program of a kernel **without
//! running the timing model**.
//!
//! The walker hands each CTA a deterministic, idealized-round-robin
//! [`CtaContext`] (CTA `u` lands on SM `u % num_sms`, occupying slot
//! `u / num_sms` with the matching arrival ticket). Under this dispatch
//! every `(sm, slot)` pair of an agent-transformed kernel appears exactly
//! once, so transforms that read `%smid`/`%warpid`-style hardware state
//! (e.g. `AgentKernel`) generate the same task coverage the real engine
//! would produce when all slots fill — which is precisely the invariant
//! static analysis wants to check.
//!
//! This is the substrate of the `cta-analyzer` crate's IR lints: walking
//! the op streams costs only program generation, no cache or latency
//! simulation, so whole-suite sweeps stay cheap.

use crate::config::GpuConfig;
use crate::kernel::{CtaContext, KernelSpec, MemAccess, Op, Program};

/// How one op participates in synchronization and conflict analysis.
///
/// This is the view of the IR that concurrency passes (happens-before
/// race detection in `cta-analyzer`) consume: every op is either a
/// memory event on a location set (read / write / atomic
/// read-modify-write), a CTA-wide barrier, or invisible (pure compute —
/// including the agent transform's shared-memory broadcast delay, which
/// carries no globally-visible location).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp<'a> {
    /// A demand or prefetch read of the access's locations.
    Read(&'a MemAccess),
    /// A store to the access's locations.
    Write(&'a MemAccess),
    /// A serializing read-modify-write: both a conflict source against
    /// plain accesses and a synchronization (release/acquire) point —
    /// this is the agent protocol's id-bidding ticket op.
    Atomic(&'a MemAccess),
    /// CTA-wide `__syncthreads()`: joins all warps of the CTA.
    Barrier,
}

impl<'a> SyncOp<'a> {
    /// Classifies one op; `None` for ops with no synchronization or
    /// memory semantics (compute delays).
    pub fn classify(op: &'a Op) -> Option<Self> {
        match op {
            Op::Load(a) => Some(SyncOp::Read(a)),
            Op::Store(a) => Some(SyncOp::Write(a)),
            Op::Atomic(a) => Some(SyncOp::Atomic(a)),
            Op::Barrier => Some(SyncOp::Barrier),
            Op::Compute(_) => None,
        }
    }

    /// The memory access carried by this sync op, if any.
    pub fn access(&self) -> Option<&'a MemAccess> {
        match self {
            SyncOp::Read(a) | SyncOp::Write(a) | SyncOp::Atomic(a) => Some(a),
            SyncOp::Barrier => None,
        }
    }
}

/// Iterates the synchronization-relevant ops of a warp program in issue
/// order, with their op indices (compute delays are skipped).
pub fn sync_ops(prog: &Program) -> impl Iterator<Item = (usize, SyncOp<'_>)> {
    prog.iter()
        .enumerate()
        .filter_map(|(i, op)| SyncOp::classify(op).map(|s| (i, s)))
}

/// Iterator over the idealized-RR dispatch contexts of a launch.
///
/// Yields one [`CtaContext`] per CTA of the grid, in CTA-id order.
pub fn dispatch_contexts(
    kernel: &(impl KernelSpec + ?Sized),
    num_sms: usize,
) -> impl Iterator<Item = CtaContext> {
    let total = kernel.launch().num_ctas();
    let sms = num_sms.max(1);
    (0..total).map(move |cta| CtaContext {
        cta,
        sm_id: (cta % sms as u64) as usize,
        slot: (cta / sms as u64) as u32,
        arrival: cta / sms as u64,
        num_sms: sms,
    })
}

/// Walks every warp program of `kernel` under idealized-RR dispatch,
/// invoking `f(ctx, warp, program)` once per (CTA, warp) pair in
/// deterministic order (CTA-major, warp-minor). Each program comes from
/// one [`KernelSpec::warp_program`] call.
pub fn each_warp_program<K, F>(kernel: &K, num_sms: usize, warp_size: u32, mut f: F)
where
    K: KernelSpec + ?Sized,
    F: FnMut(&CtaContext, u32, &Program),
{
    let warps = kernel.launch().warps_per_cta(warp_size.max(1));
    for ctx in dispatch_contexts(kernel, num_sms) {
        for warp in 0..warps {
            f(&ctx, warp, &kernel.warp_program(&ctx, warp));
        }
    }
}

/// [`each_warp_program`] with geometry taken from a GPU preset.
pub fn each_warp_program_on<K, F>(kernel: &K, cfg: &GpuConfig, f: F)
where
    K: KernelSpec + ?Sized,
    F: FnMut(&CtaContext, u32, &Program),
{
    each_warp_program(kernel, cfg.num_sms, cfg.warp_size, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::dim::Dim3;
    use crate::kernel::{LaunchConfig, MemAccess, Op};

    #[derive(Debug, Clone)]
    struct Probe;

    impl KernelSpec for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::plane(5, 2), 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            vec![Op::Load(MemAccess::scalar(
                0,
                ctx.cta * 8 + warp as u64 * 4,
                4,
            ))]
        }
    }

    #[test]
    fn sync_op_classification() {
        let prog: Program = vec![
            Op::Load(MemAccess::scalar(0, 0, 4)),
            Op::Compute(7),
            Op::Atomic(MemAccess::scalar(1, 64, 4)),
            Op::Barrier,
            Op::Store(MemAccess::scalar(2, 128, 4)),
        ];
        let evs: Vec<(usize, SyncOp)> = sync_ops(&prog).collect();
        assert_eq!(evs.len(), 4, "compute is invisible");
        assert!(matches!(evs[0], (0, SyncOp::Read(a)) if a.tag == 0));
        assert!(matches!(evs[1], (2, SyncOp::Atomic(a)) if a.tag == 1));
        assert!(matches!(evs[2], (3, SyncOp::Barrier)));
        assert!(matches!(evs[3], (4, SyncOp::Write(a)) if a.tag == 2));
        assert_eq!(evs[3].1.access().unwrap().addrs, vec![128]);
        assert_eq!(SyncOp::Barrier.access(), None);
    }

    #[test]
    fn contexts_cover_grid_with_rr_placement() {
        let ctxs: Vec<CtaContext> = dispatch_contexts(&Probe, 4).collect();
        assert_eq!(ctxs.len(), 10);
        assert_eq!(ctxs[0].sm_id, 0);
        assert_eq!(ctxs[5].sm_id, 1);
        assert_eq!(ctxs[5].slot, 1);
        assert_eq!(ctxs[5].arrival, 1);
        assert!(ctxs.iter().all(|c| c.num_sms == 4));
    }

    #[test]
    fn walk_visits_every_cta_warp_pair_in_order() {
        let mut seen: Vec<(u64, u32, u64)> = Vec::new();
        each_warp_program(&Probe, 3, 32, |ctx, warp, prog| {
            let addr = prog[0].access().unwrap().addrs[0];
            seen.push((ctx.cta, warp, addr));
        });
        // 10 CTAs x 2 warps, CTA-major order, programs match warp_program.
        assert_eq!(seen.len(), 20);
        assert_eq!(seen[0], (0, 0, 0));
        assert_eq!(seen[1], (0, 1, 4));
        assert_eq!(seen[19], (9, 1, 9 * 8 + 4));
    }

    #[test]
    fn config_walk_uses_preset_geometry() {
        let cfg = arch::gtx570();
        let mut ctas = 0u64;
        each_warp_program_on(&Probe, &cfg, |ctx, _, _| {
            assert_eq!(ctx.num_sms, 15);
            ctas += 1;
        });
        assert_eq!(ctas, 20); // 10 CTAs x 2 warps
    }
}
