//! # locality
//!
//! Inter-CTA reuse quantification and locality-source classification — the
//! analysis layer behind §3.2 and Figure 3/4 of *"Locality-Aware CTA
//! Clustering for Modern GPUs"* (ASPLOS 2017).
//!
//! Three tools, all driven by the pre-L1 access stream a
//! [`gpu_sim::Simulation`] emits through its trace hook:
//!
//! * [`ReuseProfiler`] — classifies every word reuse as intra-warp,
//!   intra-CTA or inter-CTA and summarizes their shares (Figure 3; the
//!   paper finds inter-CTA reuse is on average 45% of all reuse).
//! * [`CategoryProfiler`] / [`Category`] — detects which of the five
//!   locality-source categories (algorithm, cache-line, data, write,
//!   streaming — Figure 4) a kernel belongs to, and whether that locality
//!   is *exploitable* by CTA-Clustering.
//! * [`ReuseDistance`] — exact LRU stack-distance analysis, the
//!   measurement behind the paper's "reuse distance greatly surpasses the
//!   cache capacity" explanation of MM's behaviour (§5.2-(6)).
//!
//! All analyses are data-driven and independent of cache configuration or
//! CTA-scheduling policy, exactly as the paper requires of its
//! quantification methodology. [`static_trace`] feeds the same sinks from
//! statically walked warp programs, with no simulation at all.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canon;
mod category;
pub mod costsum;
mod distance;
mod feed;
mod obs_sink;
mod profiler;
mod tags;
mod wordmap;

pub use canon::{CanonHasher, Digest};
pub use category::{classify, Category, CategoryProfiler, Signature};
pub use costsum::{AccessSummary, HitInterval, SetConflictModel};
pub use distance::ReuseDistance;
pub use feed::static_trace;
pub use obs_sink::ObsSink;
pub use profiler::{ReuseProfiler, ReuseScope, ReuseSummary};
pub use tags::{TagReuseProfiler, TagSummary};
pub use wordmap::{ordered, WordMap};

/// The reference line size, in bytes, that line-granular locality is
/// defined over: the 128-byte Fermi/Kepler L1 line, where cache-line
/// locality lives.
pub const REFERENCE_LINE_BYTES: u64 = 128;
