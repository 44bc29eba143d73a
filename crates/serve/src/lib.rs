//! # cta-serve
//!
//! A persistent clustering-plan server over the reproduction's analysis
//! stack: clients describe a kernel (by suite abbreviation or
//! structurally, with grid geometry and an access-pattern summary) over
//! line-delimited JSON — stdin or TCP — and receive a `plan/v1`
//! response carrying the locality category, the CTA-clustering plan,
//! and the sound static L1 hit-rate interval.
//!
//! The moving parts, one module each:
//!
//! * [`proto`] — the `serve/v1` wire protocol and the canonical content
//!   digest of a request's semantic fields.
//! * [`planner`] — static classification, plan assembly (Figure 5),
//!   cost-model hit bounds, and the CL401 served-plan audit gate.
//! * [`cache`] — the sharded content-addressed plan cache with exact
//!   hit/miss conservation accounting.
//! * [`server`] — the worker pool: bounded queue, overload shedding,
//!   per-request deadlines, ordered writer, graceful shutdown.
//! * [`mod@bench`] — the `serve-bench/v1` throughput benchmark behind the
//!   committed `BENCH_serve.json` artifact.
//!
//! Responses are **byte-identical across worker counts**: planning is a
//! pure function of the request's semantic fields, the cache fills once
//! per digest, and the writer restores input order. The serve test
//! suite (golden, soak, proptest) pins all three properties.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod cache;
pub mod planner;
pub mod proto;
pub mod server;

pub use cache::{CacheStats, PlanCache};
pub use planner::{plan_request, DescribedKernel, PlanBody};
pub use proto::{parse_request, Mode, ProtoError, Request};
pub use server::{ServeSummary, Server, ServerConfig};
