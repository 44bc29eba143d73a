//! Pass family 2: IR lints over warp-program op streams.
//!
//! Walks every warp program of a kernel (idealized-RR dispatch, see
//! [`gpu_sim::walk`]) and checks the *mechanical* properties of the
//! emitted ops: bypasses must not rob reused lines of their L1 residency,
//! prefetches must arrive before the demand they serve, throttles must
//! respect occupancy, and coalescing must not be pathologically divergent.

use crate::diag::{
    Report, BYPASS_ON_REUSED_LINE, DUPLICATE_PREFETCH, PATHOLOGICAL_DIVERGENCE,
    PREFETCH_AFTER_LAST_USE, PREFETCH_NEVER_USED,
};
use gpu_sim::{walk, ArrayTag, CacheOp, FxHashMap, GpuConfig, KernelSpec, Op};
use locality::REFERENCE_LINE_BYTES;

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

#[derive(Debug, Default)]
struct IrStats {
    /// Demand-read touches per (tag, line) — across the whole kernel.
    line_touches: FxHashMap<(ArrayTag, u64), u32>,
    /// Bypassed-load touches per (tag, line).
    bypass_touches: FxHashMap<(ArrayTag, u64), u32>,
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

/// The streaming IR linter: feed it warp programs in walk order
/// ([`visit`](IrPass::visit)), then [`finish`](IrPass::finish) to emit
/// findings. The driver fuses this pass with others over one walk.
#[derive(Debug, Default)]
pub struct IrPass {
    stats: IrStats,
    // Per-program scratch, recycled across warps: op-indexed event lists.
    demand_pos: FxHashMap<(ArrayTag, u64), Vec<usize>>,
    prefetch_pos: Vec<(usize, ArrayTag, u64)>,
    last_prefetch: FxHashMap<(ArrayTag, u64), usize>,
    lines_scratch: Vec<u64>,
}

impl IrPass {
    /// A fresh pass.
    pub fn new() -> Self {
        IrPass::default()
    }

    /// Feeds one warp program (walk order: CTA-major, warp-minor).
    pub fn visit(&mut self, ctx: &gpu_sim::CtaContext, _warp: u32, prog: &gpu_sim::Program) {
        let stats = &mut self.stats;
        self.demand_pos.clear();
        self.prefetch_pos.clear();
        for (idx, op) in prog.iter().enumerate() {
            let access = match op.access() {
                Some(a) => a,
                None => continue,
            };
            self.lines_scratch.clear();
            for &addr in &access.addrs {
                let line = addr / REFERENCE_LINE_BYTES;
                if !self.lines_scratch.contains(&line) {
                    self.lines_scratch.push(line);
                }
            }
            let is_prefetch = matches!(op, Op::Load(a) if a.cache_op == CacheOp::PrefetchL1);
            if is_prefetch {
                for &line in &self.lines_scratch {
                    self.prefetch_pos.push((idx, access.tag, line));
                }
                continue;
            }
            // Demand access: coalescing accounting plus, for reads, the
            // global line-touch census feeding the bypass lint.
            stats.txns += self.lines_scratch.len() as u64;
            stats.lanes += access.addrs.len() as u64;
            if let Op::Load(a) = op {
                for &line in &self.lines_scratch {
                    *stats.line_touches.entry((a.tag, line)).or_insert(0) += 1;
                    if a.cache_op == CacheOp::BypassL1 {
                        *stats.bypass_touches.entry((a.tag, line)).or_insert(0) += 1;
                    }
                    self.demand_pos.entry((a.tag, line)).or_default().push(idx);
                }
            }
        }
        // Prefetch life-cycle per warp program.
        self.last_prefetch.clear();
        for &(idx, tag, line) in &self.prefetch_pos {
            stats.prefetches += 1;
            let key = (tag, line);
            let demands = self.demand_pos.get(&key);
            let used_after = demands.map(|d| d.iter().any(|&p| p > idx)).unwrap_or(false);
            let used_before = demands.map(|d| d.iter().any(|&p| p < idx)).unwrap_or(false);
            if let Some(&prev) = self.last_prefetch.get(&key) {
                let demand_between = demands
                    .map(|d| d.iter().any(|&p| p > prev && p < idx))
                    .unwrap_or(false);
                if !demand_between {
                    stats.duplicate_prefetch += 1;
                    stats.example_dup.get_or_insert_with(|| {
                        format!(
                            "CTA {}: tag {tag} line {line:#x} re-prefetched at op {idx}",
                            ctx.cta
                        )
                    });
                }
            }
            self.last_prefetch.insert(key, idx);
            if used_after {
                continue;
            }
            if used_before {
                stats.prefetch_after_last_use += 1;
                stats.example_stale.get_or_insert_with(|| {
                    format!(
                        "CTA {}: tag {tag} line {line:#x} prefetched at op {idx}, last demand earlier",
                        ctx.cta
                    )
                });
            } else {
                stats.prefetch_never_used += 1;
                stats.example_never.get_or_insert_with(|| {
                    format!(
                        "CTA {}: tag {tag} line {line:#x} prefetched at op {idx}, never demanded",
                        ctx.cta
                    )
                });
            }
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
        let shares = self.line_reuse_shares();
        word_set.retain(|t| shares.get(t).copied().unwrap_or(0.0) < STREAM_LINE_REUSE_MAX);
        word_set
    }

    /// Per-tag line-reuse share of the demand-read census, aggregated in
    /// one pass over it: a line touched `n` times contributes `n`
    /// touches, `n - 1` of them reuses.
    fn line_reuse_shares(&self) -> FxHashMap<ArrayTag, f64> {
        let mut per_tag: FxHashMap<ArrayTag, (u64, u64)> = FxHashMap::default();
        for (&(tag, _), &n) in &self.stats.line_touches {
            let (touches, lines) = per_tag.entry(tag).or_default();
            *touches += u64::from(n);
            *lines += 1;
        }
        per_tag
            .into_iter()
            .map(|(tag, (touches, lines))| (tag, (touches - lines) as f64 / touches as f64))
            .collect()
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
    let mut per_tag: FxHashMap<ArrayTag, (u64, u64)> = FxHashMap::default();
    for (&(tag, line), &n) in &stats.bypass_touches {
        let entry = per_tag.entry(tag).or_insert((0, 0));
        entry.0 += u64::from(n);
        if stats.line_touches.get(&(tag, line)).copied().unwrap_or(0) > 1 {
            entry.1 += u64::from(n);
        }
    }
    let mut flagged: Vec<(ArrayTag, f64)> = per_tag
        .iter()
        .filter(|(_, &(total, reused))| {
            total > 0 && reused as f64 / total as f64 > BYPASS_REUSE_SHARE_MAX
        })
        .map(|(&t, &(total, reused))| (t, reused as f64 / total as f64))
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
        assert!(baseline.line_reuse_shares()[&2] > 0.5);
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
