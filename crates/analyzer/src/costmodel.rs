//! Pass family 5: the `CL2xx` static performance verifier.
//!
//! Where `CL0xx` proves functional invariants and `CL1xx` proves
//! protocol liveness, this family proves *performance* facts: it runs
//! the [`locality::AccessSummary`] abstract interpretation over the
//! walked warp-program IR and derives a sound hit-rate interval
//! `[lo, hi]` for the kernel on a concrete cache geometry. Lints fire
//! when the model proves a configuration degenerate:
//!
//! * [`WORKING_SET_THRASHES`] (CL201) — reuse exists, but the sound
//!   *upper* bound on the hit rate is near zero: the working set
//!   provably thrashes this geometry and resizing within the sweep
//!   cannot help.
//! * [`CLUSTERING_MISS_INVARIANT`] (CL202) — every cacheable read
//!   touches a distinct line, so the miss count is a program invariant:
//!   no clustering transform (which only reorders CTAs) can change it.
//! * [`OCCUPANCY_BOUND_GEOMETRY_IRRELEVANT`] (CL203) — the kernel
//!   presents no cacheable reads at all; L1 geometry is provably
//!   irrelevant and only occupancy/latency effects remain.
//! * [`COSTMODEL_UNSOUND`] (CL204) — the machine-checked soundness
//!   obligation itself: a simulator-measured hit rate escaped the
//!   interval (emitted by the `analyze --verify-costmodel` gate, never
//!   by the static pass).
//!
//! The thrash threshold is deliberately conservative: CL201 only fires
//! when the *upper* bound — which no scheduler, MSHR configuration or
//! eviction accident can beat — is below [`THRASH_HI`], on kernels with
//! at least [`MIN_READS`] read transactions.

use crate::diag::{
    Report, CLUSTERING_MISS_INVARIANT, COSTMODEL_UNSOUND, OCCUPANCY_BOUND_GEOMETRY_IRRELEVANT,
    WORKING_SET_THRASHES,
};
use gpu_sim::GpuConfig;
use locality::{AccessSummary, HitInterval};

/// CL201 fires only when the sound upper bound is below this.
pub const THRASH_HI: f64 = 0.05;

/// CL201/CL202 fire only at or above this many read transactions —
/// micro-kernels with a handful of reads are not "thrashing".
pub const MIN_READS: u64 = 256;

/// The cost model's verdict on one kernel at one geometry.
#[derive(Debug, Clone)]
pub struct CostVerdict {
    /// Sound hit-rate interval at the queried geometry.
    pub interval: HitInterval,
    /// Cacheable read transactions (== the simulator's `l1.reads`).
    pub reads: u64,
}

/// Appends any CL2xx findings for the geometry in `cfg` over an
/// already-collected summary (one walk can serve many geometries as long
/// as the L1 line size matches), returning the verdict so callers (the
/// set-conflict pass, the DSE harness) can consume the interval directly.
pub fn check_summary(
    summary: &AccessSummary,
    cfg: &GpuConfig,
    subject: &str,
    report: &mut Report,
) -> CostVerdict {
    report.note_subject();
    let iv = summary.hit_interval(cfg);
    if summary.geometry_irrelevant() && summary.mem_ops() > 0 {
        report.emit(
            &OCCUPANCY_BOUND_GEOMETRY_IRRELEVANT,
            subject,
            format!(
                "{} memory ops but 0 cacheable read transactions \
                 ({} bypassed, {} stores, {} atomics): any L1 sweep point is wasted",
                summary.mem_ops(),
                summary.bypassed_reads(),
                summary.stores(),
                summary.atomics()
            ),
        );
    } else if summary.reads() >= MIN_READS {
        if summary.all_reads_cold(cfg.l1.write_policy) {
            report.emit(
                &CLUSTERING_MISS_INVARIANT,
                subject,
                format!(
                    "all {} read transactions touch distinct lines: \
                     miss count is invariant under any CTA reordering",
                    summary.reads()
                ),
            );
        } else if iv.hi < THRASH_HI {
            report.emit(
                &WORKING_SET_THRASHES,
                subject,
                format!(
                    "hit rate provably <= {:.4}: compulsory misses dominate \
                     ({} reads over {} distinct lines) — no L1 geometry in a \
                     sweep can recover this kernel",
                    iv.hi,
                    summary.reads(),
                    summary.read_working_set(),
                ),
            );
        }
    }
    CostVerdict {
        reads: iv.reads,
        interval: iv,
    }
}

/// The soundness obligation: checks one simulator measurement against
/// the statically derived interval, emitting CL204 on any escape.
///
/// Two separate facts are checked — the modeled transaction count must
/// equal the measured one (the streams must agree before the rates are
/// even comparable), and the measured rate must lie inside `[lo, hi]`.
/// Returns `true` when both hold.
pub fn check_measured(
    iv: &HitInterval,
    measured_reads: u64,
    measured_rate: f64,
    subject: &str,
    report: &mut Report,
) -> bool {
    report.note_subject();
    if iv.reads != measured_reads {
        report.emit(
            &COSTMODEL_UNSOUND,
            subject,
            format!(
                "modeled {} read transactions, simulator measured {}",
                iv.reads, measured_reads
            ),
        );
        return false;
    }
    if !iv.contains(measured_rate) {
        report.emit(
            &COSTMODEL_UNSOUND,
            subject,
            format!(
                "measured hit rate {:.6} outside [{:.6}, {:.6}]",
                measured_rate, iv.lo, iv.hi
            ),
        );
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, KernelSpec, LaunchConfig, MemAccess, Op, Program};

    /// Streams `ctas * reps` distinct lines, one load per line.
    #[derive(Debug)]
    struct Streamer {
        ctas: u32,
        reps: u64,
    }

    impl KernelSpec for Streamer {
        fn name(&self) -> String {
            "streamer".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(self.ctas), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            (0..self.reps)
                .map(|r| {
                    let base = (ctx.cta * self.reps + r) * 128;
                    Op::Load(MemAccess::coalesced(0, base, 32, 4))
                })
                .collect()
        }
    }

    /// Almost pure streaming with a trickle of far-apart reuse: the
    /// compulsory-miss bound pins the hit rate near zero, but reuse
    /// exists so CL202 does not apply.
    #[derive(Debug)]
    struct Thrasher;

    impl KernelSpec for Thrasher {
        fn name(&self) -> String {
            "thrasher".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(4), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            (0..512u64)
                .map(|r| {
                    let line = if r % 128 == 0 { 0 } else { ctx.cta * 512 + r };
                    Op::Load(MemAccess::coalesced(0, line * 128, 32, 4))
                })
                .collect()
        }
    }

    /// Stores and atomics only — zero cacheable reads.
    #[derive(Debug)]
    struct WriteOnly;

    impl KernelSpec for WriteOnly {
        fn name(&self) -> String {
            "write-only".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(2), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            vec![
                Op::Store(MemAccess::coalesced(0, ctx.cta * 128, 32, 4)),
                Op::Atomic(MemAccess::scalar(1, 0, 4)),
            ]
        }
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    /// The driver's sequence: one walked summary, then the CL2xx pass.
    fn check<K: KernelSpec>(
        kernel: &K,
        cfg: &GpuConfig,
        subject: &str,
        r: &mut Report,
    ) -> CostVerdict {
        check_summary(&AccessSummary::collect_on(kernel, cfg), cfg, subject, r)
    }

    #[test]
    fn streaming_kernel_fires_cl202() {
        let cfg = arch::gtx570();
        let mut r = Report::new();
        let v = check(&Streamer { ctas: 16, reps: 32 }, &cfg, "t/stream", &mut r);
        assert_eq!(codes(&r), vec!["CL202"]);
        assert_eq!(v.interval.hi, 0.0);
        assert_eq!(v.reads, 16 * 32);
    }

    #[test]
    fn thrashing_kernel_fires_cl201() {
        let cfg = arch::gtx570();
        let mut r = Report::new();
        let v = check(&Thrasher, &cfg, "t/thrash", &mut r);
        assert_eq!(codes(&r), vec!["CL201"]);
        assert!(v.interval.hi > 0.0, "reuse exists, CL202 must not apply");
        assert!(v.interval.hi < THRASH_HI);
    }

    #[test]
    fn write_only_kernel_fires_cl203() {
        let cfg = arch::gtx570();
        let mut r = Report::new();
        let v = check(&WriteOnly, &cfg, "t/wo", &mut r);
        assert_eq!(codes(&r), vec!["CL203"]);
        assert_eq!(v.reads, 0);
        assert_eq!(v.interval.hi, 0.0);
    }

    #[test]
    fn small_kernels_stay_quiet() {
        let cfg = arch::gtx570();
        let mut r = Report::new();
        // 8 CTAs x 4 reps = 32 reads < MIN_READS: cold, but not lint-worthy.
        check(&Streamer { ctas: 8, reps: 4 }, &cfg, "t/small", &mut r);
        assert!(codes(&r).is_empty(), "{}", r.render_human());
    }

    #[test]
    fn measured_escape_fires_cl204() {
        let cfg = arch::gtx570();
        let summary = locality::AccessSummary::collect_on(&Streamer { ctas: 16, reps: 32 }, &cfg);
        let iv = summary.hit_interval(&cfg);
        let mut r = Report::new();
        assert!(check_measured(&iv, iv.reads, iv.hi, "t/ok", &mut r));
        assert!(!check_measured(&iv, iv.reads, 0.5, "t/rate", &mut r));
        assert!(!check_measured(&iv, iv.reads + 1, 0.0, "t/txns", &mut r));
        assert_eq!(codes(&r), vec!["CL204", "CL204"]);
        assert_eq!(r.deny_count(), 2);
    }
}
