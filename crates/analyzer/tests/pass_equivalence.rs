//! Differential battery for the analyzer's per-program folds: `IrPass`
//! (pass family 2) and `HbPass` (pass family 4a) must render exactly the
//! reports the straightforward folds they replaced render — counts and
//! example text alike.
//!
//! The references below are those folds, kept verbatim apart from their
//! imports: the IR pass with (tag, line) hash maps, a `Vec` of demand ops
//! per (tag, line) and a scan of it per prefetch; the race pass with a
//! hash map per (tag, word) and three-field accessor records. Both
//! deduplicate an access's lanes in first-appearance order with a linear
//! scan. The kernels are random: 1–8 CTAs × 1–4 warps of loads (cached,
//! `BypassL1`, `PrefetchL1`), stores, atomics and agent-counter accesses,
//! with sorted, unsorted and repeated lanes, 1/4/8/16-byte strides,
//! line- and page-straddling addresses, addresses near `u64::MAX`, and
//! per-warp barrier counts that sometimes diverge.

use cta_analyzer::diag::{Report, LINTS};
use cta_analyzer::hb::HbPass;
use cta_analyzer::ir::IrPass;
use cta_analyzer::render_json;
use cta_clustering::protocol::{counter_addr, COUNTER_TAG};
use gpu_sim::{
    arch, walk, ArrayTag, CacheOp, CtaContext, Dim3, GpuConfig, KernelSpec, LaunchConfig,
    MemAccess, Op, Program,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Deterministic stream stretching one proptest seed into a case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A kernel whose warp programs are fixed up front.
#[derive(Debug, Clone)]
struct RandomKernel {
    ctas: u32,
    warps: u32,
    /// Program of (CTA `c`, warp `w`) at `c * warps + w`.
    progs: Vec<Program>,
}

impl KernelSpec for RandomKernel {
    fn name(&self) -> String {
        "random".into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::linear(self.ctas), self.warps * 32)
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        self.progs[(ctx.cta * u64::from(self.warps) + u64::from(warp)) as usize].clone()
    }
}

/// One random access of `tag`, built by the constructors so its shape
/// hint is sound. A small shared window makes warps and CTAs share words
/// and lines; `divergent` kernels favour one line per lane.
fn access(r: &mut Lcg, tag: ArrayTag, divergent: bool) -> MemAccess {
    let bytes = [1u32, 4, 8, 16][r.below(4) as usize];
    let lanes = 1 + r.below(32) as u32;
    let base = match r.below(5) {
        0 | 1 => r.below(512),
        2 => 4096 * (1 + r.below(4)) - 4 * r.below(24), // page straddle
        3 => 128 * (1 + r.below(8)) - 4 * r.below(8),   // line straddle
        _ => u64::MAX - (1 << 14) - r.below(4096),      // near the top
    };
    let shape = if divergent && r.below(4) != 0 {
        [2, 3][r.below(2) as usize]
    } else {
        r.below(7)
    };
    match shape {
        0 => MemAccess::coalesced(tag, base, lanes, bytes),
        1 => MemAccess::strided(
            tag,
            base,
            lanes,
            [0, 1, 4, 8, 16][r.below(5) as usize],
            bytes,
        ),
        2 => MemAccess::scalar(tag, base, bytes),
        3 => MemAccess::strided(tag, base, lanes, [128, 300][r.below(2) as usize], bytes),
        // Unsorted, with repeats.
        4 => MemAccess::gather(
            tag,
            (0..lanes).map(|_| base + r.below(512)).collect(),
            bytes,
        ),
        // Descending.
        5 => MemAccess::gather(
            tag,
            (0..u64::from(lanes)).rev().map(|l| base + l * 4).collect(),
            bytes,
        ),
        // Sorted, with no constructor-proven hint.
        _ => {
            let mut addrs: Vec<u64> = (0..lanes).map(|_| base + r.below(1024)).collect();
            addrs.sort_unstable();
            MemAccess::gather(tag, addrs, bytes)
        }
    }
}

/// One random op of a warp program on SM `sm_id`. A `prefetch_share` of
/// 0 gives a program that never prefetches, as baseline and bypassed
/// programs never do.
fn op(r: &mut Lcg, sm_id: usize, divergent: bool, prefetch_share: u64) -> Op {
    let tag = r.below(4) as ArrayTag;
    match r.below(12) {
        0..=4 => {
            let cache_op = if r.below(8) < prefetch_share {
                CacheOp::PrefetchL1
            } else if r.below(3) == 0 {
                CacheOp::BypassL1
            } else {
                CacheOp::CacheAll
            };
            Op::Load(access(r, tag, divergent).with_cache_op(cache_op))
        }
        5 | 6 => Op::Store(access(r, tag, divergent)),
        7 => Op::Atomic(access(r, tag, divergent)),
        8 => Op::Compute(4),
        // The agent counter word: atomic as the protocol requires, or a
        // plain load or store (a protocol bug).
        9 => {
            let ticket = MemAccess::scalar(COUNTER_TAG, counter_addr(sm_id), 4);
            match r.below(4) {
                0 => Op::Load(ticket),
                1 => Op::Store(ticket),
                _ => Op::Atomic(ticket),
            }
        }
        // A prefetch right after a demand of the same window, or the
        // other way round, so prefetch life cycles overlap demands.
        _ => {
            let a = MemAccess::scalar(tag, r.below(512), 4);
            if prefetch_share > 0 && r.below(2) == 0 {
                Op::Load(a.with_cache_op(CacheOp::PrefetchL1))
            } else {
                Op::Load(a)
            }
        }
    }
}

/// The random kernel of `seed`: 1–8 CTAs × 1–4 warps. Every warp of a
/// kernel passes the same number of barriers, except that a warp
/// sometimes passes one more or one fewer.
fn kernel(seed: u64) -> RandomKernel {
    let mut r = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    let ctas = 1 + r.below(8) as u32;
    let warps = 1 + r.below(4) as u32;
    let barriers = r.below(3);
    let divergent = r.below(3) == 0;
    let prefetch_share = r.below(3);
    let sms = arch::gtx570().num_sms;
    let progs = (0..u64::from(ctas) * u64::from(warps))
        .map(|i| {
            let sm_id = ((i / u64::from(warps)) % sms as u64) as usize;
            let mut prog: Program = (0..r.below(24))
                .map(|_| op(&mut r, sm_id, divergent, prefetch_share))
                .collect();
            let count = match r.below(8) {
                0 => barriers + 1,
                1 => barriers.saturating_sub(1),
                _ => barriers,
            };
            for _ in 0..count {
                let at = r.below(prog.len() as u64 + 1) as usize;
                prog.insert(at, Op::Barrier);
            }
            prog
        })
        .collect();
    RandomKernel { ctas, warps, progs }
}

/// The 8 kernels one proptest case checks (their seeds share `seed`'s
/// low bits), so each property covers 8 × the runner's case count.
fn kernels(seed: u64) -> impl Iterator<Item = RandomKernel> {
    (0..8u64).map(move |i| kernel(i << 44 | seed))
}

/// The tags `k` stores to or atomics, plus the agent counter: the write
/// set the driver hands the race pass.
fn written_tags(k: &RandomKernel) -> Vec<ArrayTag> {
    let mut tags: BTreeSet<ArrayTag> = k
        .progs
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Store(a) | Op::Atomic(a) => Some(a.tag),
            _ => None,
        })
        .collect();
    tags.insert(COUNTER_TAG);
    tags.into_iter().collect()
}

fn cfg() -> GpuConfig {
    arch::gtx570()
}

fn ir_reports(k: &RandomKernel) -> (String, String) {
    let (mut new, mut old) = (Report::new(), Report::new());
    IrPass::collect(k, &cfg()).finish("t", &mut new);
    reference_ir::IrPass::collect(k, &cfg()).finish("t", &mut old);
    (render_json(&new), render_json(&old))
}

fn hb_reports(k: &RandomKernel, written: Option<Vec<ArrayTag>>) -> (String, String) {
    let (mut pass, mut reference) = (HbPass::new(), reference_hb::HbPass::new());
    if let Some(tags) = written {
        pass = pass.with_written_tags(tags.clone());
        reference = reference.with_written_tags(tags);
    }
    walk::each_warp_program_on(k, &cfg(), |ctx, warp, prog| {
        pass.visit(ctx, warp, prog);
        reference.visit(ctx, warp, prog);
    });
    let (mut new, mut old) = (Report::new(), Report::new());
    pass.finish("t", &mut new);
    reference.finish("t", &mut old);
    (render_json(&new), render_json(&old))
}

proptest! {
    /// The IR pass renders its reference's report, and narrows any word
    /// set to the same strict streaming set.
    #[test]
    fn ir_pass_matches_its_reference((seed, picks) in (0u64..1 << 44, 0u64..1 << 16)) {
        for k in kernels(seed) {
            let (new, old) = ir_reports(&k);
            prop_assert_eq!(new, old);
            let pass = IrPass::collect(&k, &cfg());
            let reference = reference_ir::IrPass::collect(&k, &cfg());
            // A word set from the kernel's tags, one it never reads, and
            // the counter tag, in a random order.
            let mut words: Vec<ArrayTag> = (0..6u16).filter(|t| picks >> t & 1 == 1).collect();
            if picks >> 6 & 1 == 1 {
                words.push(COUNTER_TAG);
            }
            let turn = (picks >> 7) as usize % words.len().max(1);
            words.rotate_left(turn);
            prop_assert_eq!(
                pass.strict_streaming_tags(words.clone()),
                reference.strict_streaming_tags(words)
            );
        }
    }

    /// The race pass renders its reference's report, with and without
    /// the write-set filter.
    #[test]
    fn hb_pass_matches_its_reference((seed, filtered) in (0u64..1 << 44, 0u64..2)) {
        for k in kernels(seed) {
            let written = (filtered == 1).then(|| written_tags(&k));
            let (new, old) = hb_reports(&k, written);
            prop_assert_eq!(new, old);
        }
    }
}

/// The generated kernels reach every finding the two passes emit.
#[test]
fn random_kernels_reach_every_finding() {
    let mut fired = BTreeSet::new();
    for seed in 0..64 {
        let k = kernel(seed);
        let mut r = Report::new();
        IrPass::collect(&k, &cfg()).finish("t", &mut r);
        let mut hb = HbPass::new();
        walk::each_warp_program_on(&k, &cfg(), |ctx, warp, prog| hb.visit(ctx, warp, prog));
        hb.finish("t", &mut r);
        fired.extend(r.diagnostics().iter().map(|d| d.code));
    }
    let expected = [
        "CL021", "CL022", "CL023", "CL024", "CL025", "CL101", "CL102", "CL103", "CL104",
    ];
    for code in expected {
        assert!(LINTS.iter().any(|l| l.code == code), "{code} is not a lint");
        assert!(
            fired.contains(code),
            "no generated kernel fires {code}: {fired:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The reference folds, verbatim apart from their imports.
// ---------------------------------------------------------------------

/// The IR pass as first written.
mod reference_ir {
    use cta_analyzer::diag::{
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
}

/// The happens-before pass as first written.
mod reference_hb {
    use cta_analyzer::diag::{
        Report, BARRIER_DIVERGENCE, CROSS_CTA_CONFLICT, INTRA_CTA_RACE, UNSYNCED_COUNTER_ACCESS,
    };
    use cta_clustering::protocol::COUNTER_TAG;
    use gpu_sim::walk::{self, SyncOp};
    use gpu_sim::{ArrayTag, CacheOp, FxHashMap};
    use std::collections::BTreeMap;

    /// Memory event kinds the conflict rules distinguish.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Read,
        Write,
        Atomic,
    }

    /// Who has accessed one word, per kind: the first accessor plus a
    /// "multiple distinct accessors" flag. Enough to decide whether a new
    /// accessor conflicts with *some other* party without storing the set.
    #[derive(Debug, Clone, Copy, Default)]
    struct Accessors {
        seen: bool,
        first: u64,
        multi: bool,
    }

    impl Accessors {
        fn note(&mut self, id: u64) {
            if !self.seen {
                self.seen = true;
                self.first = id;
            } else if self.first != id {
                self.multi = true;
            }
        }

        /// Whether some accessor other than `id` has been recorded.
        fn other_than(&self, id: u64) -> bool {
            self.seen && (self.first != id || self.multi)
        }
    }

    /// Per-(word, epoch) access summary — intra-CTA keyed by barrier phase,
    /// cross-CTA keyed by word alone (no inter-CTA edges exist).
    #[derive(Debug, Clone, Copy, Default)]
    struct WordState {
        reads: Accessors,
        writes: Accessors,
        atomics: Accessors,
    }

    impl WordState {
        /// Does `(id, kind)` conflict with a recorded access by another
        /// party? Read/read and atomic/atomic pairs never conflict.
        fn conflicts(&self, id: u64, kind: Kind) -> bool {
            match kind {
                Kind::Read => self.writes.other_than(id) || self.atomics.other_than(id),
                Kind::Write => {
                    self.reads.other_than(id)
                        || self.writes.other_than(id)
                        || self.atomics.other_than(id)
                }
                Kind::Atomic => self.reads.other_than(id) || self.writes.other_than(id),
            }
        }

        fn note(&mut self, id: u64, kind: Kind) {
            match kind {
                Kind::Read => self.reads.note(id),
                Kind::Write => self.writes.note(id),
                Kind::Atomic => self.atomics.note(id),
            }
        }
    }

    /// Per-tag finding aggregation (one diagnostic per tag keeps reports
    /// readable and deterministic).
    #[derive(Debug, Default)]
    struct TagFindings {
        count: u64,
        example: Option<String>,
    }

    impl TagFindings {
        fn note(&mut self, example: impl FnOnce() -> String) {
            self.count += 1;
            if self.example.is_none() {
                self.example = Some(example());
            }
        }
    }

    /// The streaming happens-before engine: feed it warp programs in walk
    /// order ([`visit`](HbPass::visit)), then [`finish`](HbPass::finish) to
    /// emit findings. The streaming shape lets the driver fuse this pass
    /// with other per-program passes over one walk — program *generation*
    /// dominates walk cost for agent kernels, so fusing is the difference
    /// between one and two expensive walks per variant.
    #[derive(Debug, Default)]
    pub struct HbPass {
        /// Intra-CTA state, keyed by (tag, word, phase); cleared at each CTA
        /// boundary (the walk is CTA-major). Keying by phase is load-bearing:
        /// the walk is warp-major, so warp 1 re-enters phase 0 *after* warp 0
        /// ran all its phases — epochs of every phase must stay live until
        /// the CTA ends.
        intra: FxHashMap<(ArrayTag, u64, u32), WordState>,
        /// Cross-CTA state over the whole launch, keyed by (tag, word).
        cross: FxHashMap<(ArrayTag, u64), WordState>,
        /// Tags that are ever stored to or atomic'd anywhere in the launch,
        /// when the caller knows them (e.g. from the static profile of the
        /// wrapped kernel). Reads of a never-written tag cannot conflict
        /// with anything, so the pass skips their per-word bookkeeping —
        /// the bulk of traffic in read-heavy kernels. `None` tracks all.
        written_tags: Option<Vec<ArrayTag>>,
        /// Lane-dedup scratch: words one op touches.
        words: Vec<u64>,
        intra_races: BTreeMap<ArrayTag, TagFindings>,
        cross_conflicts: BTreeMap<ArrayTag, TagFindings>,
        counter_violations: TagFindings,
        divergent_ctas: TagFindings,
        cur_cta: Option<u64>,
        /// Barriers executed per warp of the current CTA.
        barrier_counts: Vec<u32>,
    }

    impl HbPass {
        /// A fresh pass tracking every access.
        pub fn new() -> Self {
            HbPass::default()
        }

        /// Restricts conflict tracking to `tags` (the launch's write/atomic
        /// tag set, typically from [`crate::StaticProfile`]). Sound as long
        /// as `tags` really covers every tag the walked kernel stores to or
        /// atomics — a read of any other tag can race with nothing.
        pub fn with_written_tags(mut self, tags: Vec<ArrayTag>) -> Self {
            self.written_tags = Some(tags);
            self
        }

        fn flush_cta(&mut self, cta: u64) {
            if self.barrier_counts.windows(2).any(|w| w[0] != w[1]) {
                let counts = &self.barrier_counts;
                self.divergent_ctas
                    .note(|| format!("CTA {cta}: per-warp barrier counts {counts:?}"));
            }
            self.barrier_counts.clear();
            self.intra.clear();
        }

        /// Feeds one warp program (walk order: CTA-major, warp-minor).
        pub fn visit(&mut self, ctx: &gpu_sim::CtaContext, warp: u32, prog: &gpu_sim::Program) {
            if self.cur_cta != Some(ctx.cta) {
                if let Some(prev) = self.cur_cta {
                    self.flush_cta(prev);
                }
                self.cur_cta = Some(ctx.cta);
            }
            let mut phase: u32 = 0;
            for (_, ev) in walk::sync_ops(prog) {
                let (access, kind) = match ev {
                    SyncOp::Barrier => {
                        phase += 1;
                        continue;
                    }
                    // Prefetches are non-binding hints, not demand accesses:
                    // they cannot participate in a data race.
                    SyncOp::Read(a) if a.cache_op == CacheOp::PrefetchL1 => continue,
                    SyncOp::Read(a) => (a, Kind::Read),
                    SyncOp::Write(a) => (a, Kind::Write),
                    SyncOp::Atomic(a) => (a, Kind::Atomic),
                };
                if access.tag == COUNTER_TAG && kind != Kind::Atomic {
                    let cta = ctx.cta;
                    let addr = access.addrs.first().copied().unwrap_or(0);
                    self.counter_violations.note(|| {
                        format!(
                            "CTA {cta} warp {warp}: {} to counter word {addr:#x}",
                            if kind == Kind::Write { "store" } else { "load" },
                        )
                    });
                }
                // Reads of a tag nobody ever writes cannot conflict: skip
                // their per-word bookkeeping when the write-set is known.
                if kind == Kind::Read {
                    if let Some(tags) = &self.written_tags {
                        if !tags.contains(&access.tag) {
                            continue;
                        }
                    }
                }
                self.words.clear();
                for &addr in &access.addrs {
                    let w = addr / 4;
                    if !self.words.contains(&w) {
                        self.words.push(w);
                    }
                }
                for &word in &self.words {
                    let st = self.intra.entry((access.tag, word, phase)).or_default();
                    if st.conflicts(u64::from(warp), kind) {
                        let (cta, tag) = (ctx.cta, access.tag);
                        self.intra_races.entry(access.tag).or_default().note(|| {
                            format!(
                                "CTA {cta}: warp {warp} {kind:?} on tag {tag} word {word:#x} \
                                 unordered against a peer warp in barrier phase {phase}"
                            )
                        });
                    }
                    st.note(u64::from(warp), kind);

                    let gl = self.cross.entry((access.tag, word)).or_default();
                    if gl.conflicts(ctx.cta, kind) {
                        let (cta, tag) = (ctx.cta, access.tag);
                        self.cross_conflicts
                            .entry(access.tag)
                            .or_default()
                            .note(|| {
                                format!(
                                    "CTA {cta} {kind:?} on tag {tag} word {word:#x} conflicts with \
                                 another CTA (no inter-CTA ordering exists)"
                                )
                            });
                    }
                    gl.note(ctx.cta, kind);
                }
            }
            if warp as usize >= self.barrier_counts.len() {
                self.barrier_counts.resize(warp as usize + 1, 0);
            }
            self.barrier_counts[warp as usize] = phase;
        }

        /// Emits the pass's findings onto `report` under `subject`.
        pub fn finish(mut self, subject: &str, report: &mut Report) {
            report.note_subject();
            if let Some(prev) = self.cur_cta.take() {
                self.flush_cta(prev);
            }
            for (tag, f) in &self.intra_races {
                report.emit(
                    &INTRA_CTA_RACE,
                    subject,
                    format!(
                        "{} unordered intra-CTA conflict(s) on tag {tag}; first: {}",
                        f.count,
                        f.example.as_deref().unwrap_or("")
                    ),
                );
            }
            for (tag, f) in &self.cross_conflicts {
                report.emit(
                    &CROSS_CTA_CONFLICT,
                    subject,
                    format!(
                        "{} cross-CTA conflicting access(es) on tag {tag}; first: {}",
                        f.count,
                        f.example.as_deref().unwrap_or("")
                    ),
                );
            }
            if self.counter_violations.count > 0 {
                report.emit(
                    &UNSYNCED_COUNTER_ACCESS,
                    subject,
                    format!(
                        "{} non-atomic access(es) to the reserved agent-counter tag; first: {}",
                        self.counter_violations.count,
                        self.counter_violations.example.as_deref().unwrap_or("")
                    ),
                );
            }
            if self.divergent_ctas.count > 0 {
                report.emit(
                    &BARRIER_DIVERGENCE,
                    subject,
                    format!(
                        "{} CTA(s) with divergent barrier counts; first: {}",
                        self.divergent_ctas.count,
                        self.divergent_ctas.example.as_deref().unwrap_or("")
                    ),
                );
            }
        }
    }
}
