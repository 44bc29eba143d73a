//! Pass family 8: the `CL3xx` set-conflict verifier.
//!
//! Where `CL2xx` proves hit-rate facts over the whole read stream, this
//! family looks at *where* lines land: it pushes the kernel's
//! install-capable line footprint through the same set-index decoder the
//! cache arrays use ([`gpu_sim::AddrDec`], honouring the configured
//! [`gpu_sim::IndexFn`]) and reasons per set.
//!
//! * [`SET_CAMPING`] (CL301) — one set absorbs a super-proportional
//!   footprint share under the configured indexing and overflows its
//!   ways: the classic power-of-two-stride pathology.
//! * [`INDEXING_INSENSITIVE`] (CL302) — every set's footprint fits its
//!   ways under *both* the hashed and the modulo decoder, so neither
//!   array ever evicts and the two indexing variants are provably
//!   byte-identical in their cache statistics: a dead DSE axis, and the
//!   proof rule `bench::sweep` prunes with.
//! * [`CONFLICT_BOUND_GEOMETRY`] (CL303) — most reads land in
//!   overflowing sets and the sound interval stays wide there: the
//!   geometry point's cost-model verdict is weak evidence for DSE
//!   decisions.
//! * [`SETMODEL_UNSOUND`] (CL304) — the machine-checked soundness
//!   obligation: a per-set prediction diverged from the simulator's
//!   per-set counters (emitted only by the `analyze --verify-costmodel`
//!   gate, never by the static pass).
//!
//! The per-set predictions CL304 checks are exact equalities, not
//! bounds: the union of tags ever installed into set `s` across every
//! sector array must equal the decoder-computed footprint, the per-set
//! read transaction count must match, and a set whose footprint fits its
//! ways must record zero evictions.

use crate::costmodel::MIN_READS;
use crate::diag::{
    Report, CONFLICT_BOUND_GEOMETRY, INDEXING_INSENSITIVE, SETMODEL_UNSOUND, SET_CAMPING,
};
use gpu_sim::{GpuConfig, SetProfile};
use locality::{AccessSummary, HitInterval, SetConflictModel};

/// CL301 fires when the camping ratio (max per-set footprint over the
/// uniform per-set share) reaches this, on an overflowing set.
pub const CAMPING_RATIO: f64 = 8.0;

/// CL303 fires when at least this fraction of read transactions land in
/// overflowing sets…
pub const CONFLICT_READS_SHARE: f64 = 0.5;

/// …and the sound interval is at least this wide at the geometry.
pub const WIDE_INTERVAL: f64 = 0.5;

/// Runs the set-conflict analysis over an already-collected summary (one
/// walk serves both the CL2xx and the CL3xx pass) and appends any CL3xx
/// findings for the geometry in `cfg`, returning the per-set model so
/// callers (the DSE harness, the machine check) can consume it directly.
/// `iv` is the summary's hit interval at `cfg`, as the CL2xx pass
/// returned it ([`crate::costmodel::CostVerdict::interval`]), so it is
/// computed once per subject.
pub fn check_summary(
    summary: &AccessSummary,
    cfg: &GpuConfig,
    iv: &HitInterval,
    subject: &str,
    report: &mut Report,
) -> SetConflictModel {
    report.note_subject();
    let model = summary.set_conflicts(cfg);
    if summary.reads() < MIN_READS || model.occupied_sets() == 0 {
        return model; // micro-kernels and read-free kernels stay quiet
    }
    if model.camping_ratio() >= CAMPING_RATIO && model.max_footprint() > model.associativity {
        report.emit(
            &SET_CAMPING,
            subject,
            format!(
                "set {} absorbs {} of {} install-capable lines \
                 ({:.1}x its uniform share) under {} indexing",
                model
                    .footprint
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &f)| f)
                    .map(|(s, _)| s)
                    .unwrap_or(0),
                model.max_footprint(),
                model.footprint.iter().sum::<u64>(),
                model.camping_ratio(),
                model.index_fn.label(),
            ),
        );
    }
    if model.indexing_insensitive() {
        report.emit(
            &INDEXING_INSENSITIVE,
            subject,
            format!(
                "per-set footprint fits {} ways under both hashed and modulo \
                 indexing (max {} lines): the indexing axis is provably dead",
                model.associativity,
                model.max_footprint(),
            ),
        );
    } else {
        let conflict_reads: u64 = model
            .set_reads
            .iter()
            .zip(&model.footprint)
            .filter(|&(_, &f)| f > model.associativity)
            .map(|(&r, _)| r)
            .sum();
        let share = conflict_reads as f64 / summary.reads() as f64;
        if share >= CONFLICT_READS_SHARE && iv.width() >= WIDE_INTERVAL {
            report.emit(
                &CONFLICT_BOUND_GEOMETRY,
                subject,
                format!(
                    "{:.0}% of reads land in {} overflowing sets (of {}); \
                     interval width {:.4} at this geometry — prefer simulation \
                     over the static verdict for this point",
                    share * 100.0,
                    model.conflict_sets(),
                    model.num_sets(),
                    iv.width(),
                ),
            );
        }
    }
    model
}

/// The CL304 machine check: compares one kernel's per-set model against
/// the per-set counters a profiled simulation of the same kernel and
/// configuration recorded, emitting one deny-level CL304 per divergent
/// invariant. Returns the number of mismatched invariants (0 = sound).
///
/// Three exact invariants, each independent of scheduler and placement:
///
/// 1. the union of distinct tags installed into set `s` across every
///    sector array equals the decoder-computed install-capable
///    footprint of `s`;
/// 2. per-set `read_hits + read_misses` equals the modeled per-set read
///    transaction count;
/// 3. a set whose footprint fits its ways records zero evictions.
pub fn check_profile(
    model: &SetConflictModel,
    profile: &SetProfile,
    subject: &str,
    report: &mut Report,
) -> u64 {
    if profile.num_sets() as u64 != model.num_sets() {
        report.emit(
            &SETMODEL_UNSOUND,
            subject,
            format!(
                "modeled {} sets, simulator profiled {}",
                model.num_sets(),
                profile.num_sets()
            ),
        );
        return 1;
    }
    let mut mismatches = 0u64;
    let mut first: Option<String> = None;
    for s in 0..model.num_sets() as usize {
        let inst = profile.installed_footprint(s);
        if inst != model.footprint[s] {
            mismatches += 1;
            first.get_or_insert_with(|| {
                format!(
                    "set {s}: modeled footprint {} lines, simulator installed {inst}",
                    model.footprint[s]
                )
            });
            continue;
        }
        let reads = profile.read_hits[s] + profile.read_misses[s];
        if reads != model.set_reads[s] {
            mismatches += 1;
            first.get_or_insert_with(|| {
                format!(
                    "set {s}: modeled {} read transactions, simulator measured {reads}",
                    model.set_reads[s]
                )
            });
            continue;
        }
        if model.footprint[s] <= model.associativity && profile.evictions[s] != 0 {
            mismatches += 1;
            first.get_or_insert_with(|| {
                format!(
                    "set {s}: footprint {} fits {} ways yet simulator evicted {} times",
                    model.footprint[s], model.associativity, profile.evictions[s]
                )
            });
        }
    }
    if mismatches > 0 {
        report.emit(
            &SETMODEL_UNSOUND,
            subject,
            format!(
                "{mismatches} per-set invariant(s) diverge; first: {}",
                first.expect("mismatches imply a recorded example")
            ),
        );
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{
        arch, CtaContext, Dim3, IndexFn, KernelSpec, LaunchConfig, MemAccess, Op, Program,
    };

    /// `ctas` CTAs each stream `lines_per_cta` distinct lines with a
    /// configurable line stride (in lines), repeated `reps` times.
    #[derive(Debug, Clone)]
    struct Strided {
        ctas: u64,
        lines_per_cta: u64,
        stride_lines: u64,
        reps: u64,
    }

    impl KernelSpec for Strided {
        fn name(&self) -> String {
            "strided".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(self.ctas as u32), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            let mut prog = Vec::new();
            for _ in 0..self.reps {
                for i in 0..self.lines_per_cta {
                    let line = (ctx.cta * self.lines_per_cta + i) * self.stride_lines;
                    prog.push(Op::Load(MemAccess::coalesced(0, line * 128, 32, 4)));
                }
            }
            prog
        }
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    /// The driver's sequence: one walked summary, its hit interval, then
    /// the CL3xx pass.
    fn check<K: KernelSpec>(
        kernel: &K,
        cfg: &GpuConfig,
        subject: &str,
        r: &mut Report,
    ) -> SetConflictModel {
        let summary = AccessSummary::collect_on(kernel, cfg);
        check_summary(&summary, cfg, &summary.hit_interval(cfg), subject, r)
    }

    /// GTX570 with a modulo-indexed L1 of `assoc` ways and `sets` sets.
    fn modulo_cfg(assoc: u32, sets: u32) -> GpuConfig {
        let mut cfg = arch::gtx570();
        cfg.l1.size_bytes = 128 * assoc * sets;
        cfg.l1.associativity = assoc;
        cfg.l1.index_fn = IndexFn::Modulo;
        cfg
    }

    #[test]
    fn pow2_stride_under_modulo_fires_cl301() {
        // Stride 32 lines over a 32-set modulo array: every line camps
        // on set 0 while 31 sets stay empty.
        let cfg = modulo_cfg(4, 32);
        let k = Strided {
            ctas: 8,
            lines_per_cta: 4,
            stride_lines: 32,
            reps: 16,
        };
        let mut r = Report::new();
        let model = check(&k, &cfg, "t/camp", &mut r);
        assert_eq!(model.occupied_sets(), 1);
        assert_eq!(model.max_footprint(), 32);
        assert!(codes(&r).contains(&"CL301"), "{}", r.render_human());
    }

    #[test]
    fn hashed_indexing_dissolves_the_camping() {
        // The same access pattern under the preset (hashed) decoder
        // spreads over many sets: CL301 must not fire.
        let mut cfg = modulo_cfg(4, 32);
        cfg.l1.index_fn = IndexFn::Hashed;
        let k = Strided {
            ctas: 8,
            lines_per_cta: 4,
            stride_lines: 32,
            reps: 16,
        };
        let mut r = Report::new();
        let model = check(&k, &cfg, "t/spread", &mut r);
        assert!(model.occupied_sets() > 4);
        assert!(model.camping_ratio() < CAMPING_RATIO);
        assert!(!codes(&r).contains(&"CL301"), "{}", r.render_human());
    }

    #[test]
    fn tiny_footprint_fires_cl302_and_nothing_else() {
        // 8 distinct unit-stride lines over 32 sets x 4 ways fit under
        // both decoders: the indexing axis is provably dead.
        let cfg = modulo_cfg(4, 32);
        let k = Strided {
            ctas: 8,
            lines_per_cta: 1,
            stride_lines: 1,
            reps: 64,
        };
        let mut r = Report::new();
        let model = check(&k, &cfg, "t/dead-axis", &mut r);
        assert!(model.indexing_insensitive());
        assert_eq!(codes(&r), vec!["CL302"], "{}", r.render_human());
    }

    #[test]
    fn overflowing_reuse_fires_cl303() {
        // 64 lines re-read 16x camp on one 4-way set: all reads land in
        // an overflowing set and the interval stays [0, ~1).
        let cfg = modulo_cfg(4, 32);
        let k = Strided {
            ctas: 1,
            lines_per_cta: 64,
            stride_lines: 32,
            reps: 16,
        };
        let mut r = Report::new();
        let model = check(&k, &cfg, "t/wide", &mut r);
        assert!(!model.conflict_free());
        assert!(codes(&r).contains(&"CL303"), "{}", r.render_human());
    }

    #[test]
    fn small_kernels_stay_quiet() {
        let cfg = modulo_cfg(4, 32);
        let k = Strided {
            ctas: 1,
            lines_per_cta: 4,
            stride_lines: 32,
            reps: 2,
        }; // 8 reads < MIN_READS
        let mut r = Report::new();
        check(&k, &cfg, "t/quiet", &mut r);
        assert!(codes(&r).is_empty(), "{}", r.render_human());
    }

    #[test]
    fn profile_agreement_and_divergence_drive_cl304() {
        let cfg = modulo_cfg(4, 32);
        let k = Strided {
            ctas: 4,
            lines_per_cta: 8,
            stride_lines: 1,
            reps: 8,
        };
        let model = {
            let mut r = Report::new();
            check(&k, &cfg, "t/model", &mut r)
        };
        let (_stats, _metrics, profile) = gpu_sim::Simulation::new(cfg.clone(), &k)
            .run_profiled()
            .expect("profiled run");

        let mut r = Report::new();
        assert_eq!(check_profile(&model, &profile, "t/sound", &mut r), 0);
        assert!(codes(&r).is_empty(), "{}", r.render_human());

        // Corrupt one per-set prediction: the machine check must catch it.
        let mut bad = model.clone();
        let s = bad
            .footprint
            .iter()
            .position(|&f| f > 0)
            .expect("occupied set exists");
        bad.footprint[s] += 1;
        assert_eq!(check_profile(&bad, &profile, "t/unsound", &mut r), 1);
        assert_eq!(codes(&r), vec!["CL304"]);
        assert_eq!(r.deny_count(), 1);
    }
}
