//! # gpu-sim
//!
//! A cycle-approximate, trace-driven GPU execution-model simulator — the
//! hardware substrate for the reproduction of *"Locality-Aware CTA
//! Clustering for Modern GPUs"* (ASPLOS 2017).
//!
//! The simulator models the parts of a GPU that the paper's phenomena live
//! in:
//!
//! * **SMs** with warp slots, CTA slots, register-file and shared-memory
//!   occupancy limits, greedy loose-round-robin warp issue, and CTA-wide
//!   barriers ([`occupancy`], [`Simulation`]);
//! * **per-SM L1 / L1/Tex unified caches** — 128-byte-line write-evict L1
//!   on Fermi/Kepler, 32-byte-line *sectored* unified cache on
//!   Maxwell/Pascal — with MSHRs and hit-reserved semantics
//!   ([`Cache`]);
//! * a **banked, write-back L2** and multi-channel DRAM with finite
//!   bandwidth ([`MemorySystem`]);
//! * pluggable **GigaThread-engine models** ([`sched`]): strict
//!   round-robin (the folklore assumption), a perturbed hardware-like
//!   default, and the randomized behaviour of first-generation Maxwell.
//!
//! Kernels are *workload models*: implementations of [`KernelSpec`] that
//! describe, per warp, the global-memory accesses, compute delays and
//! barriers of the real kernel. Programs are generated after CTA dispatch
//! through a [`CtaContext`] carrying the physical SM id, CTA slot and
//! per-SM arrival ticket — the same hardware state (`%smid`, `%warpid`,
//! global atomics) the paper's agent-based clustering reads at run time.
//!
//! Simulations are deterministic: identical inputs and seeds produce
//! identical [`RunStats`].
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::{arch, CtaContext, KernelSpec, LaunchConfig, MemAccess, Op, Program, Simulation};
//!
//! /// Each CTA re-reads a small shared table, then streams its own slice.
//! struct TableLookup;
//!
//! impl KernelSpec for TableLookup {
//!     fn name(&self) -> String { "table-lookup".into() }
//!     fn launch(&self) -> LaunchConfig { LaunchConfig::new(128u32, 64u32) }
//!     fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
//!         let own = 0x100000 + (ctx.cta * 2 + warp as u64) * 128;
//!         vec![
//!             Op::Load(MemAccess::coalesced(0, 0, 32, 4)),   // shared table
//!             Op::Load(MemAccess::coalesced(1, own, 32, 4)), // private slice
//!         ]
//!     }
//! }
//!
//! let stats = Simulation::new(arch::tesla_k40(), &TableLookup).run()?;
//! println!("cycles: {}, L1 hit rate: {:.2}", stats.cycles, stats.l1_hit_rate());
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addrdec;
pub mod arch;
mod cache;
mod coalesce;
mod config;
mod dim;
mod engine;
mod error;
pub mod fasthash;
mod kernel;
mod memory;
mod occupancy;
mod program;
pub mod sched;
mod sm;
mod stats;
mod trace;
pub mod walk;
mod work;

pub use addrdec::{AddrDec, DecodedAddr, HashedIndex};
pub use cache::{Cache, CacheStats, ReadOutcome, SetProfile, WriteOutcome};
pub use coalesce::{
    coalesce_line_count, coalesce_lines, coalesce_lines_into, coalescing_degree, CoalesceShape,
    LaneSet,
};
pub use config::{ArchGen, CacheConfig, GpuConfig, IndexFn, MemoryTimings, WritePolicy};
pub use dim::Dim3;
pub use engine::{EngineMetrics, Simulation};
pub use error::SimError;
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kernel::{
    ArrayTag, CacheOp, CtaContext, KernelSpec, LaunchConfig, MemAccess, Op, Program, ShapeHint,
};
pub use memory::{Level, MemoryStats, MemorySystem};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use program::ProgramBuilder;
pub use stats::{geometric_mean, CtaPlacement, RunStats};
pub use trace::{AccessEvent, OwnedAccessEvent, TraceSink, VecSink};
pub use work::{CacheWork, WorkModel};
