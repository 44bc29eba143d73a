//! Pass family 2: IR lints over warp-program op streams.
//!
//! Walks every warp program of a kernel (idealized-RR dispatch, see
//! [`gpu_sim::walk`]) and checks the *mechanical* properties of the
//! emitted ops: bypasses must not rob reused lines of their L1 residency,
//! prefetches must arrive before the demand they serve, throttles must
//! respect occupancy, and coalescing must not be pathologically divergent.
//!
//! The fold keeps only what the findings read:
//!
//! * **A line census per tag.** The demand-read touches of each
//!   128-byte [`REFERENCE_LINE_BYTES`] line sit in a [`WordMap`] keyed by
//!   line, beside running totals (touches, distinct lines, bypassed
//!   touches, lines touched exactly once by a bypassed load). The
//!   line-reuse share and `CL021`'s reused count are read off the totals,
//!   never by scanning the lines. An access's lines come from its lanes
//!   in address order, deduplicated against the previous line; the
//!   census holds sums only, so lane order cannot change it.
//! * **Prefetch life cycles only where there are prefetches.** One scan
//!   of a program's ops decides whether it prefetches at all (baseline
//!   and bypassed programs never do). A prefetching program is folded
//!   forward with the last demand and last prefetch op of each (tag,
//!   line); a prefetch is settled once the program's last demand is
//!   known. Its lines keep first-appearance order, because the
//!   `CL022`–`CL024` examples name the first line in program order.

use crate::diag::{
    Report, BYPASS_ON_REUSED_LINE, DUPLICATE_PREFETCH, PATHOLOGICAL_DIVERGENCE,
    PREFETCH_AFTER_LAST_USE, PREFETCH_NEVER_USED,
};
use gpu_sim::{
    walk, ArrayTag, CacheOp, CtaContext, FxHashMap, GpuConfig, KernelSpec, MemAccess, Op, Program,
    ShapeHint,
};
use locality::{ordered, WordMap, REFERENCE_LINE_BYTES};

/// A bypassed tag is flagged when more than this fraction of its line
/// touches land on lines that carry demand-read reuse.
const BYPASS_REUSE_SHARE_MAX: f64 = 0.25;

/// Line-reuse-share ceiling for a bypass candidate. Stricter than the
/// `CL021` firing threshold ([`BYPASS_REUSE_SHARE_MAX`]) so selection
/// and lint cannot flap on borderline tags.
const STREAM_LINE_REUSE_MAX: f64 = 0.10;

/// Coalescing floor: below this many lanes per transaction on average,
/// the access pattern is pathologically divergent.
const DIVERGENCE_FLOOR: f64 = 2.0;

/// High bit of a census slot: the line's first touch was a bypassed
/// load. The low 31 bits count the line's touches, so a line must be
/// touched fewer than `2^31` times.
const BYPASS_FIRST: u32 = 1 << 31;

/// The distinct keys `addr / unit` of `access`'s lanes, in order of first
/// appearance, into `out`. Lanes in ascending address order (proven by
/// the access's constructor, or checked) dedup against the previous key;
/// others scan the keys kept so far.
pub(crate) fn first_appearance(access: &MemAccess, unit: u64, out: &mut Vec<u64>) {
    out.clear();
    let keys = access.addrs.iter().map(|&a| a / unit);
    if matches!(access.shape_hint, ShapeHint::Contiguous | ShapeHint::Sorted)
        || access.addrs.is_sorted()
    {
        let mut prev = None;
        out.extend(keys.filter(|&k| prev.replace(k) != Some(k)));
    } else {
        for k in keys {
            if !out.contains(&k) {
                out.push(k);
            }
        }
    }
}

/// `tag`'s entry in a linearly scanned per-tag list (tags are few: a
/// handful of logical arrays), appended on first use.
pub(crate) fn tag_entry<V: Default>(list: &mut Vec<(ArrayTag, V)>, tag: ArrayTag) -> &mut V {
    let i = match list.iter().position(|(t, _)| *t == tag) {
        Some(i) => i,
        None => {
            list.push((tag, V::default()));
            list.len() - 1
        }
    };
    &mut list[i].1
}

/// The demand-read line census of one tag.
#[derive(Debug, Default)]
struct Census {
    /// Per reference line: its touch count, plus [`BYPASS_FIRST`].
    lines: WordMap<u32>,
    /// Line touches.
    touches: u64,
    /// Lines touched at least once.
    distinct: u64,
    /// Line touches by bypassed loads.
    bypassed: u64,
    /// Lines touched exactly once, by a bypassed load.
    single_bypass: u64,
}

impl Census {
    fn touch(&mut self, line: u64, bypassed: bool) {
        let slot = self.lines.slot(line);
        let n = *slot & !BYPASS_FIRST;
        debug_assert!(n < !BYPASS_FIRST, "line {line:#x} touched 2^31 times");
        match n {
            0 => {
                self.distinct += 1;
                *slot = 1;
                if bypassed {
                    *slot |= BYPASS_FIRST;
                    self.single_bypass += 1;
                }
            }
            1 => {
                if *slot & BYPASS_FIRST != 0 {
                    self.single_bypass -= 1;
                }
                *slot += 1;
            }
            _ => *slot += 1,
        }
        self.touches += 1;
        self.bypassed += u64::from(bypassed);
    }

    /// The share of touches landing on a line touched before.
    fn reuse_share(&self) -> f64 {
        (self.touches - self.distinct) as f64 / self.touches as f64
    }

    /// Bypassed touches of lines touched more than once. Exact: a line
    /// touched once carries at most one bypassed touch.
    fn bypassed_on_reused(&self) -> u64 {
        self.bypassed - self.single_bypass
    }
}

/// Last demand and last prefetch op of one (tag, line) in one program.
#[derive(Debug, Default, Clone, Copy)]
struct LineLife {
    demand: Option<usize>,
    prefetch: Option<usize>,
}

#[derive(Debug, Default)]
struct IrStats {
    /// The demand-read census per tag ([`tag_entry`]).
    census: Vec<(ArrayTag, Census)>,
    /// Prefetches with no later demand and no earlier demand either.
    prefetch_never_used: u64,
    /// Prefetches issued after the line's last demand access.
    prefetch_after_last_use: u64,
    /// Re-prefetches of a line with no intervening demand.
    duplicate_prefetch: u64,
    /// Total prefetch line touches.
    prefetches: u64,
    /// Example findings (first occurrence each).
    example_never: Option<String>,
    example_stale: Option<String>,
    example_dup: Option<String>,
    /// Coalescing accounting over demand accesses.
    lanes: u64,
    txns: u64,
}

impl IrStats {
    /// Settles one prefetch that no later demand of its program serves.
    fn unused(&mut self, cta: u64, p: &Pending) {
        let Pending { idx, tag, line, .. } = *p;
        if p.used_before {
            self.prefetch_after_last_use += 1;
            self.example_stale.get_or_insert_with(|| {
                format!(
                    "CTA {cta}: tag {tag} line {line:#x} prefetched at op {idx}, last demand earlier"
                )
            });
        } else {
            self.prefetch_never_used += 1;
            self.example_never.get_or_insert_with(|| {
                format!(
                    "CTA {cta}: tag {tag} line {line:#x} prefetched at op {idx}, never demanded"
                )
            });
        }
    }
}

/// A prefetched line awaiting the program's last demand.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: usize,
    tag: ArrayTag,
    line: u64,
    used_before: bool,
}

fn is_prefetch(op: &Op) -> bool {
    matches!(op, Op::Load(a) if a.cache_op == CacheOp::PrefetchL1)
}

/// The streaming IR linter: feed it warp programs in walk order
/// ([`visit`](IrPass::visit)), then [`finish`](IrPass::finish) to emit
/// findings. The driver fuses this pass with others over one walk.
#[derive(Debug, Default)]
pub struct IrPass {
    stats: IrStats,
    // Per-program scratch, recycled across warps and used only by
    // prefetching programs.
    life: FxHashMap<(ArrayTag, u64), LineLife>,
    pending: Vec<Pending>,
    prefetch_lines: Vec<u64>,
    /// Sorted copy of an unsorted access's lanes.
    scratch: Vec<u64>,
}

impl IrPass {
    /// A fresh pass.
    pub fn new() -> Self {
        IrPass::default()
    }

    /// Feeds one warp program (walk order: CTA-major, warp-minor).
    pub fn visit(&mut self, ctx: &CtaContext, _warp: u32, prog: &Program) {
        let prefetching = prog.iter().any(is_prefetch);
        if prefetching {
            self.life.clear();
            self.pending.clear();
        }
        for (idx, op) in prog.iter().enumerate() {
            let Some(access) = op.access() else {
                continue;
            };
            if is_prefetch(op) {
                self.visit_prefetch(ctx.cta, idx, access);
                continue;
            }
            // Demand access: coalescing accounting plus, for reads, the
            // line census feeding the bypass lint.
            let stats = &mut self.stats;
            stats.lanes += access.addrs.len() as u64;
            let lanes = match access.shape_hint {
                ShapeHint::Contiguous | ShapeHint::Sorted => &access.addrs[..],
                ShapeHint::Unknown => ordered(&access.addrs, &mut self.scratch),
            };
            let mut prev = None;
            let lines = lanes
                .iter()
                .map(|&a| a / REFERENCE_LINE_BYTES)
                .filter(|&l| prev.replace(l) != Some(l));
            if !matches!(op, Op::Load(_)) {
                stats.txns += lines.count() as u64;
                continue;
            }
            let bypassed = access.cache_op == CacheOp::BypassL1;
            let census = tag_entry(&mut stats.census, access.tag);
            let mut txns = 0;
            for line in lines {
                txns += 1;
                census.touch(line, bypassed);
                if prefetching {
                    self.life.entry((access.tag, line)).or_default().demand = Some(idx);
                }
            }
            stats.txns += txns;
        }
        if prefetching {
            // The program's last demands are known: a prefetch is used
            // when one comes after it.
            for p in &self.pending {
                if self.life[&(p.tag, p.line)].demand <= Some(p.idx) {
                    self.stats.unused(ctx.cta, p);
                }
            }
        }
    }

    /// Folds one prefetch op's lines, in first-appearance order.
    fn visit_prefetch(&mut self, cta: u64, idx: usize, access: &MemAccess) {
        let (stats, tag) = (&mut self.stats, access.tag);
        first_appearance(access, REFERENCE_LINE_BYTES, &mut self.prefetch_lines);
        for &line in &self.prefetch_lines {
            stats.prefetches += 1;
            let life = self.life.entry((tag, line)).or_default();
            // A duplicate: no demand since the previous prefetch.
            if life.prefetch.is_some() && life.demand <= life.prefetch {
                stats.duplicate_prefetch += 1;
                stats.example_dup.get_or_insert_with(|| {
                    format!("CTA {cta}: tag {tag} line {line:#x} re-prefetched at op {idx}")
                });
            }
            life.prefetch = Some(idx);
            self.pending.push(Pending {
                idx,
                tag,
                line,
                used_before: life.demand.is_some(),
            });
        }
    }

    /// A pass fed every warp program of `kernel` under `cfg`'s
    /// geometry.
    pub fn collect<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig) -> Self {
        let mut pass = IrPass::new();
        walk::each_warp_program_on(kernel, cfg, |ctx, warp, prog| pass.visit(ctx, warp, prog));
        pass
    }

    /// The analyzer's bypass candidates: `word_set` (the word-level
    /// streaming set, [`crate::StaticProfile::word_streaming_tags`])
    /// minus tags whose line-reuse share — the fraction of their
    /// demand-read line touches that land on a line they touched before
    /// — is at least 10%. The line criterion keeps cache-line-sourced
    /// reuse, invisible to the word-level test, out of the bypass set:
    /// exactly what lint `CL021` would flag. Read off the pass over the
    /// baseline kernel.
    pub fn strict_streaming_tags(&self, mut word_set: Vec<ArrayTag>) -> Vec<ArrayTag> {
        word_set.retain(|&t| self.line_reuse_share(t) < STREAM_LINE_REUSE_MAX);
        word_set
    }

    /// `tag`'s line-reuse share in the demand-read census: a line touched
    /// `n` times contributes `n` touches, `n - 1` of them reuses. 0 for a
    /// tag never demand-read.
    fn line_reuse_share(&self, tag: ArrayTag) -> f64 {
        self.stats
            .census
            .iter()
            .find(|(t, c)| *t == tag && c.touches > 0)
            .map_or(0.0, |(_, c)| c.reuse_share())
    }

    /// Emits the pass's findings onto `report` under `subject`.
    pub fn finish(self, subject: &str, report: &mut Report) {
        report.note_subject();
        finish_stats(self.stats, subject, report);
    }
}

/// Walks `kernel` and emits the IR lints onto `report` under `subject`.
pub fn check_kernel<K: KernelSpec + ?Sized>(
    kernel: &K,
    cfg: &GpuConfig,
    subject: &str,
    report: &mut Report,
) {
    IrPass::collect(kernel, cfg).finish(subject, report);
}

fn finish_stats(stats: IrStats, subject: &str, report: &mut Report) {
    // CL021: per-tag share of bypassed line touches landing on lines with
    // demand-read reuse (touched more than once overall).
    let mut flagged: Vec<(ArrayTag, f64)> = stats
        .census
        .iter()
        .filter(|(_, c)| c.bypassed > 0)
        .map(|(t, c)| (*t, c.bypassed_on_reused() as f64 / c.bypassed as f64))
        .filter(|&(_, share)| share > BYPASS_REUSE_SHARE_MAX)
        .collect();
    flagged.sort_by_key(|a| a.0);
    for (tag, share) in flagged {
        report.emit(
            &BYPASS_ON_REUSED_LINE,
            subject,
            format!(
                "tag {tag}: {:.0}% of bypassed line touches hit reused lines (threshold {:.0}%)",
                share * 100.0,
                BYPASS_REUSE_SHARE_MAX * 100.0
            ),
        );
    }

    // CL022/CL023/CL024: prefetch life-cycle findings.
    if stats.prefetch_never_used > 0 {
        report.emit(
            &PREFETCH_NEVER_USED,
            subject,
            format!(
                "{} of {} prefetches never demanded (e.g. {})",
                stats.prefetch_never_used,
                stats.prefetches,
                stats.example_never.as_deref().unwrap_or("?")
            ),
        );
    }
    if stats.prefetch_after_last_use > 0 {
        report.emit(
            &PREFETCH_AFTER_LAST_USE,
            subject,
            format!(
                "{} of {} prefetches issued after the line's last use (e.g. {})",
                stats.prefetch_after_last_use,
                stats.prefetches,
                stats.example_stale.as_deref().unwrap_or("?")
            ),
        );
    }
    if stats.duplicate_prefetch > 0 {
        report.emit(
            &DUPLICATE_PREFETCH,
            subject,
            format!(
                "{} of {} prefetches duplicate a pending prefetch (e.g. {})",
                stats.duplicate_prefetch,
                stats.prefetches,
                stats.example_dup.as_deref().unwrap_or("?")
            ),
        );
    }

    // CL025: pathological divergence.
    if stats.txns > 0 {
        let avg = stats.lanes as f64 / stats.txns as f64;
        if avg < DIVERGENCE_FLOOR {
            report.emit(
                &PATHOLOGICAL_DIVERGENCE,
                subject,
                format!(
                    "average coalescing degree {avg:.2} lanes/transaction (floor {DIVERGENCE_FLOOR:.1})"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Program};

    fn cfg() -> GpuConfig {
        arch::gtx570()
    }

    /// Kernel emitting a fixed program for every CTA/warp.
    #[derive(Debug, Clone)]
    struct Fixed {
        prog: Program,
        ctas: u32,
    }

    impl KernelSpec for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(self.ctas), 32u32)
        }
        fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
            self.prog.clone()
        }
    }

    #[test]
    fn clean_program_stays_clean() {
        let k = Fixed {
            prog: vec![
                Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
                Op::Compute(4),
                Op::Load(MemAccess::scalar(0, 0, 4)),
                Op::Load(MemAccess::coalesced(1, 4096, 32, 4)),
            ],
            ctas: 2,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert_eq!(r.deny_count(), 0, "{}", r.render_human());
        assert_eq!(r.warn_count(), 0);
    }

    #[test]
    fn never_used_prefetch_fires_cl022() {
        let k = Fixed {
            prog: vec![
                Op::Load(MemAccess::scalar(0, 1 << 20, 4).with_cache_op(CacheOp::PrefetchL1)),
                Op::Load(MemAccess::scalar(0, 0, 4)),
            ],
            ctas: 1,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert!(r.has(&PREFETCH_NEVER_USED), "{}", r.render_human());
    }

    #[test]
    fn stale_prefetch_fires_cl023() {
        let k = Fixed {
            prog: vec![
                Op::Load(MemAccess::scalar(0, 0, 4)),
                Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
            ],
            ctas: 1,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert!(r.has(&PREFETCH_AFTER_LAST_USE));
        assert!(!r.has(&PREFETCH_NEVER_USED));
    }

    #[test]
    fn duplicate_prefetch_fires_cl024() {
        let k = Fixed {
            prog: vec![
                Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
                Op::Load(MemAccess::scalar(0, 0, 4).with_cache_op(CacheOp::PrefetchL1)),
                Op::Load(MemAccess::scalar(0, 0, 4)),
            ],
            ctas: 1,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert!(r.has(&DUPLICATE_PREFETCH));
        assert_eq!(r.deny_count(), 0, "duplicates are warn-level");
    }

    #[test]
    fn bypass_on_reused_table_fires_cl021() {
        // Every CTA bypass-loads the same table line: 100% of bypassed
        // touches hit a reused line.
        let k = Fixed {
            prog: vec![Op::Load(
                MemAccess::coalesced(0, 0, 32, 4).with_cache_op(CacheOp::BypassL1),
            )],
            ctas: 8,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert!(r.has(&BYPASS_ON_REUSED_LINE), "{}", r.render_human());
    }

    #[test]
    fn bypass_of_true_stream_is_clean() {
        #[derive(Debug, Clone)]
        struct Stream;
        impl KernelSpec for Stream {
            fn name(&self) -> String {
                "stream".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(Dim3::linear(8), 32u32)
            }
            fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
                vec![Op::Load(
                    MemAccess::coalesced(0, ctx.cta * 128, 32, 4).with_cache_op(CacheOp::BypassL1),
                )]
            }
        }
        let mut r = Report::new();
        check_kernel(&Stream, &cfg(), "t", &mut r);
        assert!(!r.has(&BYPASS_ON_REUSED_LINE));
    }

    #[test]
    fn streaming_selection_respects_both_reuse_criteria() {
        use crate::profile::tests::Mixed;
        let p = crate::StaticProfile::collect(&Mixed, &cfg());
        let baseline = IrPass::collect(&Mixed, &cfg());
        // Tag 0 is word-reused, tag 2 is line-reused: neither may be
        // bypassed. Tag 1 truly streams.
        assert!(p.tag_summary(0).reuse_rate() > 0.5);
        assert!(p.tag_summary(2).reuse_rate() < 0.02);
        assert!(baseline.line_reuse_share(2) > 0.5);
        assert_eq!(p.word_streaming_tags(), vec![1, 2]);
        assert_eq!(
            baseline.strict_streaming_tags(p.word_streaming_tags()),
            vec![1]
        );
    }

    #[test]
    fn divergent_gather_fires_cl025() {
        // 32 lanes spread across 32 distinct lines: 1 lane/transaction.
        let addrs: Vec<u64> = (0..32).map(|l| l * 4096).collect();
        let k = Fixed {
            prog: vec![Op::Load(MemAccess::gather(0, addrs, 4))],
            ctas: 2,
        };
        let mut r = Report::new();
        check_kernel(&k, &cfg(), "t", &mut r);
        assert!(r.has(&PATHOLOGICAL_DIVERGENCE));
        assert_eq!(r.deny_count(), 0, "divergence is warn-level");
    }
}
