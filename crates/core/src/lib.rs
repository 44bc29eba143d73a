//! # cta-clustering
//!
//! The core contribution of *"Locality-Aware CTA Clustering for Modern
//! GPUs"* (ASPLOS 2017): software-only transforms that reshape the
//! default CTA scheduling so that CTAs with mutual inter-CTA locality
//! execute concurrently or consecutively on the same SM, where the L1 (or
//! L1/Tex unified) cache can serve their shared data.
//!
//! CTA-Clustering finds the mapping `N → O` (new kernel to original
//! kernel) in three steps:
//!
//! 1. **Partitioning** `f : O → C` ([`Partition`], Eqs. 3–5) — split the
//!    original CTAs into `M` balanced clusters under a locality-preserving
//!    CTA indexing ([`Indexing`]: row-major/Y-P, column-major/X-P,
//!    tile-wise, or custom).
//! 2. **Inverting** `f⁻¹ : C → O` ([`Partition::invert`], Eqs. 6–7) —
//!    recover the original CTA id from a cluster coordinate `(w, i)`.
//! 3. **Binding** `g : N → C` — either assume round-robin hardware
//!    dispatch ([`rr_binding`], used by [`RedirectionKernel`]) or read the
//!    physical SM id at run time ([`AgentKernel`], which circumvents the
//!    GigaThread engine entirely with persistent agent CTAs).
//!
//! Complementary optimizations: CTA throttling
//! ([`AgentKernel::with_active_agents`]), L1 bypassing of streaming
//! arrays ([`BypassKernel`]), and cross-CTA prefetching over the reshaped
//! order ([`AgentKernel::with_prefetch`]). The [`Framework`] automates
//! the whole pipeline of the paper's Figure 11.
//!
//! ## Quick start
//!
//! ```
//! use cta_clustering::{AgentKernel, Partition};
//! use gpu_kernels::MatrixMul;
//! use gpu_sim::{arch, KernelSpec, Simulation};
//!
//! let cfg = arch::tesla_k40();
//! let mm = MatrixMul::new(6, 6, 6);
//!
//! // Baseline.
//! let base = Simulation::new(cfg.clone(), &mm).run()?;
//!
//! // Cluster CTAs sharing matrix-A rows (Y-partitioning) onto one SM.
//! let partition = Partition::y(mm.launch().grid, cfg.num_sms as u64)?;
//! let clustered = AgentKernel::with_partition(mm, &cfg, partition)?;
//! let opt = Simulation::new(cfg, &clustered).run()?;
//!
//! println!(
//!     "speedup {:.2}x, L2 transactions {:.0}%",
//!     opt.speedup_vs(&base),
//!     100.0 * opt.l2_txns_vs(&base),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent;
mod bind;
mod bypass;
mod error;
mod framework;
mod partition;
pub mod protocol;
mod redirect;

pub use agent::AgentKernel;
pub use bind::{rr_binding, rr_unbinding, BindingScheme};
pub use bypass::BypassKernel;
pub use error::ClusterError;
pub use framework::{clamp_active_agents, Analysis, Axis, Framework, Plan, PREFETCH_DEPTH};
pub use partition::{Indexing, Partition};
pub use protocol::{BindingMode, ProtocolSpec};
pub use redirect::RedirectionKernel;
