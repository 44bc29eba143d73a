//! The kernel abstraction: launch geometry plus lazily-generated per-warp
//! instruction streams.
//!
//! A kernel in this simulator is a *workload model*: instead of executing
//! real instructions it describes, per warp, the sequence of global-memory
//! accesses, compute delays and barriers the real kernel would perform.
//! Programs are generated **at dispatch time**, after the CTA has been
//! assigned to an SM, through the [`CtaContext`]. This is what lets the
//! agent-based clustering transform behave like real persistent CTAs: its
//! task list depends on the physical SM id (`%smid`) the hardware scheduler
//! happened to place it on.

use crate::dim::Dim3;
use crate::error::SimError;
use crate::program::ProgramBuilder;

/// Kernel launch configuration: grid/block geometry and per-CTA resource
/// footprint (mirrors `kernel<<<grid, block>>>` plus the occupancy-relevant
/// outputs of `nvcc --ptxas-options=-v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// CTAs in the grid.
    pub grid: Dim3,
    /// Threads in one CTA.
    pub block: Dim3,
    /// Registers used per thread.
    pub regs_per_thread: u32,
    /// Static + dynamic shared memory per CTA, in bytes.
    pub smem_per_cta: u32,
}

impl LaunchConfig {
    /// Creates a launch with the given geometry and a light default
    /// resource footprint (16 registers, no shared memory).
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            regs_per_thread: 16,
            smem_per_cta: 0,
        }
    }

    /// Sets the register footprint per thread.
    pub fn with_regs(mut self, regs_per_thread: u32) -> Self {
        self.regs_per_thread = regs_per_thread;
        self
    }

    /// Sets the shared memory footprint per CTA.
    pub fn with_smem(mut self, smem_per_cta: u32) -> Self {
        self.smem_per_cta = smem_per_cta;
        self
    }

    /// Total CTAs in the grid.
    pub fn num_ctas(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.block.count() as u32
    }

    /// Warps per CTA for the given warp width, rounded up.
    pub fn warps_per_cta(&self, warp_size: u32) -> u32 {
        self.threads_per_cta().div_ceil(warp_size)
    }

    /// Validates the launch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidLaunch`] for an empty grid or block, or a
    /// block exceeding 1024 threads (the CUDA hardware limit on all four
    /// evaluated architectures).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.grid.count() == 0 {
            return Err(SimError::InvalidLaunch("empty grid".into()));
        }
        if self.block.count() == 0 {
            return Err(SimError::InvalidLaunch("empty block".into()));
        }
        if self.block.count() > 1024 {
            return Err(SimError::InvalidLaunch(format!(
                "block of {} threads exceeds the 1024-thread hardware limit",
                self.block.count()
            )));
        }
        Ok(())
    }
}

/// Where a memory instruction is allowed to cache, mirroring the PTX cache
/// operators the paper uses in its transformed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheOp {
    /// Default `ld.global.ca`: cache at L1 and L2.
    #[default]
    CacheAll,
    /// `ld.global.cg`: bypass L1, cache at L2 only (the paper's bypassing
    /// optimization for streaming accesses, §4.3-(II)).
    BypassL1,
    /// `prefetch.global.L1` / `__ldg` prefetch: starts the fill but does not
    /// block the warp (§4.3-(III)).
    PrefetchL1,
}

/// A tag identifying which logical array an access touches (e.g. matrix A
/// vs B vs C in MM). Transforms use tags to retarget specific arrays
/// (bypass the streaming one, prefetch the reused one); the locality
/// profiler uses them to attribute reuse per data structure.
pub type ArrayTag = u16;

/// Lane-address layout knowledge carried from an access's constructor to
/// the coalescer, so the hot emission path can skip re-deriving what the
/// kernel already proved by construction (see `coalesce_lines_into`).
///
/// A hint is a *sound* claim, not an optimization guess: `Contiguous`
/// promises every lane sits exactly `bytes_per_lane` after the previous,
/// `Sorted` promises strictly increasing lanes that are *not* contiguous,
/// and anything unprovable stays `Unknown` (classified dynamically, which
/// is always correct). Debug builds assert every hint against the address
/// vector on every coalesce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShapeHint {
    /// No constructor-level knowledge: the coalescer classifies the lanes.
    #[default]
    Unknown,
    /// Lane `l` is at `addrs[0] + l * bytes_per_lane` exactly.
    Contiguous,
    /// Addresses strictly increase but are not contiguous.
    Sorted,
}

/// One warp-wide global-memory access: up to 32 per-lane byte addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Logical array being accessed.
    pub tag: ArrayTag,
    /// Cache operator.
    pub cache_op: CacheOp,
    /// Per-active-lane byte addresses (1 ..= 32 entries).
    pub addrs: Vec<u64>,
    /// Bytes accessed per lane (4 for `float`/`int`, 8 for `double`).
    pub bytes_per_lane: u32,
    /// Constructor-proven lane layout (see [`ShapeHint`]). Sound only
    /// while `addrs` is never rewritten after construction — which no
    /// transform does; anything that did would have to reset this to
    /// [`ShapeHint::Unknown`].
    pub shape_hint: ShapeHint,
}

impl MemAccess {
    /// A fully-coalesced access: `warp_size` lanes reading consecutive
    /// `bytes_per_lane`-sized words starting at `base`.
    pub fn coalesced(tag: ArrayTag, base: u64, lanes: u32, bytes_per_lane: u32) -> Self {
        MemAccess {
            tag,
            cache_op: CacheOp::CacheAll,
            addrs: (0..lanes)
                .map(|l| base + (l as u64) * bytes_per_lane as u64)
                .collect(),
            bytes_per_lane,
            shape_hint: ShapeHint::Contiguous,
        }
    }

    /// A strided access: lane `l` touches `base + l * stride`.
    pub fn strided(tag: ArrayTag, base: u64, lanes: u32, stride: u64, bytes_per_lane: u32) -> Self {
        // `base + l*stride` is contiguous exactly when the stride equals
        // the lane width, strictly increasing whenever the stride is
        // positive; a zero stride (every lane on one address) is neither.
        let shape_hint = if stride == bytes_per_lane as u64 || lanes <= 1 {
            ShapeHint::Contiguous
        } else if stride >= 1 {
            ShapeHint::Sorted
        } else {
            ShapeHint::Unknown
        };
        MemAccess {
            tag,
            cache_op: CacheOp::CacheAll,
            addrs: (0..lanes).map(|l| base + l as u64 * stride).collect(),
            bytes_per_lane,
            shape_hint,
        }
    }

    /// A single-lane access (e.g. the microbenchmark's primary thread).
    pub fn scalar(tag: ArrayTag, addr: u64, bytes: u32) -> Self {
        MemAccess {
            tag,
            cache_op: CacheOp::CacheAll,
            addrs: vec![addr],
            bytes_per_lane: bytes,
            // A single lane is vacuously contiguous.
            shape_hint: ShapeHint::Contiguous,
        }
    }

    /// An access with explicit per-lane addresses (irregular kernels).
    pub fn gather(tag: ArrayTag, addrs: Vec<u64>, bytes_per_lane: u32) -> Self {
        MemAccess {
            tag,
            cache_op: CacheOp::CacheAll,
            addrs,
            bytes_per_lane,
            shape_hint: ShapeHint::Unknown,
        }
    }

    /// Sets the cache operator (builder-style).
    pub fn with_cache_op(mut self, op: CacheOp) -> Self {
        self.cache_op = op;
        self
    }
}

/// One element of a warp's instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Global-memory read; the warp blocks until the slowest transaction
    /// returns.
    Load(MemAccess),
    /// Global-memory write; retired through the store path without
    /// blocking the warp (beyond issue).
    Store(MemAccess),
    /// Serializing read-modify-write on global memory (used by the agent
    /// transform's id bidding on Maxwell/Pascal).
    Atomic(MemAccess),
    /// `delay` cycles of arithmetic before the next op can issue.
    Compute(u32),
    /// CTA-wide `__syncthreads()`.
    Barrier,
}

impl Op {
    /// The memory access carried by this op, if any.
    pub fn access(&self) -> Option<&MemAccess> {
        match self {
            Op::Load(a) | Op::Store(a) | Op::Atomic(a) => Some(a),
            Op::Compute(_) | Op::Barrier => None,
        }
    }

    /// Whether this op is a CTA barrier.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Op::Barrier)
    }
}

/// A warp's full instruction stream.
pub type Program = Vec<Op>;

/// Dispatch-time context handed to [`KernelSpec::warp_program`].
///
/// Fields marked *(hardware)* are only known once the (real or simulated)
/// GigaThread engine has placed the CTA; they model the special registers
/// and runtime state the paper's agent transform reads (`%smid`,
/// `%warpid`, the global atomic ticket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaContext {
    /// Linear CTA id within the launched grid (`blockIdx`, row-major).
    pub cta: u64,
    /// *(hardware)* Physical SM the CTA was dispatched to (`%smid`).
    pub sm_id: usize,
    /// *(hardware)* Hardware CTA slot occupied on that SM. Static binding
    /// architectures (Fermi/Kepler) let an agent derive its id from this.
    pub slot: u32,
    /// *(hardware)* Zero-based dispatch order of this CTA **on its SM**:
    /// the value a global `atomicAdd(&counter[smid], 1)` ticket would
    /// observe on dynamic-binding architectures (Maxwell/Pascal).
    pub arrival: u64,
    /// Number of SMs on the device (needed by clustering arithmetic).
    pub num_sms: usize,
}

/// A simulatable GPU kernel: geometry plus per-warp programs.
///
/// Programs may depend on dispatch-time hardware state via [`CtaContext`];
/// baseline kernels typically use only `ctx.cta`.
pub trait KernelSpec {
    /// Human-readable kernel name (used in reports).
    fn name(&self) -> String;

    /// Launch geometry and per-CTA resource footprint.
    fn launch(&self) -> LaunchConfig;

    /// Instruction stream of warp `warp` (0-based within the CTA) of the
    /// CTA described by `ctx`.
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program;

    /// The warp's whole program as a shared, immutable slice, when the
    /// kernel can serve one — e.g. from a cross-variant program cache.
    /// The engine prefers this over generation (zero-copy dispatch), and
    /// wrapping transforms use it to replay inner programs instead of
    /// regenerating them.
    ///
    /// The returned ops must be identical to what
    /// [`warp_program`](Self::warp_program) would generate for the same
    /// `(ctx, warp)`. The default is `None`: generate every time.
    fn warp_program_arc(&self, ctx: &CtaContext, warp: u32) -> Option<std::sync::Arc<[Op]>> {
        let _ = (ctx, warp);
        None
    }

    /// Builds the warp's program into `out`, possibly referencing shared
    /// cached segments (see [`ProgramBuilder`]). This is the engine's
    /// dispatch path; the default replays
    /// [`warp_program_arc`](Self::warp_program_arc) when it serves one
    /// and otherwise stores [`warp_program`](Self::warp_program)'s
    /// result as the builder's inline buffer. Transforms that
    /// concatenate inner programs override it to splice in shared
    /// slices; the ops must equal what `warp_program` generates.
    fn warp_program_build(&self, ctx: &CtaContext, warp: u32, out: &mut ProgramBuilder) {
        if let Some(ops) = self.warp_program_arc(ctx, warp) {
            out.push_shared(&ops);
        } else {
            *out.inline_ops() = self.warp_program(ctx, warp);
        }
    }
}

impl<K: KernelSpec + ?Sized> KernelSpec for &K {
    fn name(&self) -> String {
        (**self).name()
    }
    fn launch(&self) -> LaunchConfig {
        (**self).launch()
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        (**self).warp_program(ctx, warp)
    }
    fn warp_program_arc(&self, ctx: &CtaContext, warp: u32) -> Option<std::sync::Arc<[Op]>> {
        (**self).warp_program_arc(ctx, warp)
    }
    fn warp_program_build(&self, ctx: &CtaContext, warp: u32, out: &mut ProgramBuilder) {
        (**self).warp_program_build(ctx, warp, out)
    }
}

impl<K: KernelSpec + ?Sized> KernelSpec for Box<K> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn launch(&self) -> LaunchConfig {
        (**self).launch()
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        (**self).warp_program(ctx, warp)
    }
    fn warp_program_arc(&self, ctx: &CtaContext, warp: u32) -> Option<std::sync::Arc<[Op]>> {
        (**self).warp_program_arc(ctx, warp)
    }
    fn warp_program_build(&self, ctx: &CtaContext, warp: u32, out: &mut ProgramBuilder) {
        (**self).warp_program_build(ctx, warp, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_warp_math() {
        let l = LaunchConfig::new(Dim3::plane(4, 4), Dim3::new(32, 8, 1));
        assert_eq!(l.num_ctas(), 16);
        assert_eq!(l.threads_per_cta(), 256);
        assert_eq!(l.warps_per_cta(32), 8);
        // Partial warps round up.
        let l = LaunchConfig::new(1u32, 33u32);
        assert_eq!(l.warps_per_cta(32), 2);
    }

    #[test]
    fn launch_validation() {
        assert!(LaunchConfig::new(1u32, 32u32).validate().is_ok());
        assert!(LaunchConfig::new(Dim3::new(0, 1, 1), 32u32)
            .validate()
            .is_err());
        assert!(LaunchConfig::new(1u32, Dim3::new(0, 0, 0))
            .validate()
            .is_err());
        assert!(LaunchConfig::new(1u32, Dim3::new(2048, 1, 1))
            .validate()
            .is_err());
    }

    #[test]
    fn coalesced_access_addresses() {
        let a = MemAccess::coalesced(0, 1000, 4, 4);
        assert_eq!(a.addrs, vec![1000, 1004, 1008, 1012]);
    }

    #[test]
    fn strided_access_addresses() {
        let a = MemAccess::strided(1, 0, 3, 128, 4);
        assert_eq!(a.addrs, vec![0, 128, 256]);
    }

    #[test]
    fn op_access_projection() {
        let op = Op::Load(MemAccess::scalar(0, 64, 4));
        assert!(op.access().is_some());
        assert!(Op::Barrier.access().is_none());
        assert!(Op::Compute(5).access().is_none());
        assert!(Op::Barrier.is_barrier());
    }
}
