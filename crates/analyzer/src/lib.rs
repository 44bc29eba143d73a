//! `cta-analyzer`: static verification and lint pass over the clustering
//! transforms and the kernel IR.
//!
//! Everything the runtime stack executes — partitions, redirection and
//! agent kernels, cache-op rewrites, the framework's optimization plan —
//! has an invariant the paper states in closed form (Eqs. 3–7, the
//! Figure 5 decision table, the occupancy bound of §4.2). This crate
//! checks those invariants *statically*: it walks warp programs with
//! [`gpu_sim::walk`] instead of simulating them, re-derives the locality
//! category from the address streams, and reports violations through a
//! rustc-style diagnostics framework with stable `CL0xx` codes.
//!
//! Eight pass families:
//!
//! 1. **Transform invariants** ([`transform`]) — partition bijection,
//!    balance and coverage; redirection permutation; agent-kernel
//!    coverage, throttling and occupancy consistency.
//! 2. **IR lints** ([`ir`]) — bypass-on-reused-line, prefetch lifecycle
//!    (never used / after last use / duplicate), pathological divergence.
//! 3. **Plan audit** ([`plan`]) — the statically re-derived category vs
//!    the plan's, exploit/bypass/prefetch consistency, throttle range.
//! 4. **Happens-before races** ([`hb`]) — unordered conflicting accesses
//!    within a CTA, cross-CTA conflicts, unsynchronized counter words,
//!    barrier divergence, all over the same walked warp programs.
//! 5. **Protocol model checking** ([`modelcheck`]) — a bounded model
//!    checker over the agent binding protocol, proving deadlock-freedom,
//!    exactly-once consumption and starvation-freedom for every
//!    `(BindingMode, MAX_AGENTS, ACTIVE_AGENTS)` combination, with
//!    replayable counterexample traces.
//! 6. **Arithmetic proofs** ([`absint`]) — symbolic polynomial proofs
//!    that the partition/binding closed forms are mutually inverse and
//!    overflow-free over the entire `u64` domain.
//! 7. **Cost model** ([`costmodel`]) — a sound static hit-rate interval
//!    per kernel × geometry, cross-checked against measured simulator
//!    hit rates (`CL2xx`).
//! 8. **Set-conflict model** ([`setmodel`]) — per-set occupancy and
//!    stack-distance abstraction over the same demand-read stream,
//!    flagging set camping, indexing-insensitive geometries and
//!    conflict-bound intervals, and machine-checking per-set predictions
//!    against simulator per-set counters (`CL3xx`).
//!
//! The `analyze` binary sweeps the full Figure 3 suite across all four
//! architecture presets, model-checks the protocol per preset, runs the
//! arithmetic proofs, and exits nonzero on any deny-level finding.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
pub mod costmodel;
pub mod diag;
pub mod driver;
pub mod explain;
pub mod hb;
pub mod ir;
pub mod json;
pub mod modelcheck;
pub mod plan;
pub mod profile;
pub mod setmodel;
pub mod transform;

pub use diag::{lint_by_code, lint_by_name, Diagnostic, Level, Lint, Report, LINTS};
pub use driver::analyze_workload;
pub use json::render_json;
pub use profile::StaticProfile;
