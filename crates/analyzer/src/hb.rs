//! Pass family 4a: happens-before race detection over walked warp
//! programs.
//!
//! The pass replays every warp program of a kernel (idealized-RR
//! dispatch, see [`gpu_sim::walk`]) through a FastTrack-style
//! happens-before engine. Each `(CTA, warp)` pair is a thread; its
//! accesses carry *epochs* `(warp, phase)` — the projection of the full
//! vector clock that the launch's synchronization structure admits:
//!
//! * **Program order** within a warp totally orders its own accesses.
//! * **CTA-wide barriers** (`__syncthreads()`) join all warps of one CTA:
//!   after the k-th barrier every warp's vector clock dominates every
//!   pre-barrier epoch of every peer warp. Since barriers are the *only*
//!   intra-CTA edge, two epochs of different warps are ordered iff their
//!   barrier phases differ — so the clock per access collapses to the
//!   scalar phase without losing precision (the FastTrack epoch
//!   optimization, specialized to barrier-structured programs).
//! * **Across CTAs** of one launch there is no ordering at all (the
//!   paper's transforms use no grid-wide sync), so every conflicting
//!   cross-CTA pair is unordered by construction. Atomics never race
//!   with each other — the hardware serializes them — which is exactly
//!   why the agent protocol's ticket word (Listing 5) must only ever be
//!   touched atomically.
//!
//! Findings: [`INTRA_CTA_RACE`] and [`CROSS_CTA_CONFLICT`] (warn —
//! several suite kernels model real benign idempotent races, e.g. BFS
//! visited flags and HST bin scatters, so unordered conflicts report
//! without failing the gate), [`UNSYNCED_COUNTER_ACCESS`] (deny — a
//! plain access to the reserved agent-counter word is a protocol bug,
//! never benign), and [`BARRIER_DIVERGENCE`] (deny — warps of one CTA
//! disagree on barrier count, a hang on real hardware).
//!
//! The state is packed for the per-word fold. Who has touched a word, per
//! access kind, is one `u64` (the first accessor + 1, and a "several
//! accessors" bit), so a word's state is 24 bytes. Cross-CTA state lives
//! in one [`WordMap`] per tag, keyed by word; intra-CTA state stays in a
//! hash map keyed by (tag, word, phase), cleared at every CTA. An
//! access's words are deduplicated against the previous word when its
//! lanes ascend, and by a first-appearance scan otherwise: the `CL101`
//! and `CL102` examples name the first conflicting word in lane order.

use crate::diag::{
    Report, BARRIER_DIVERGENCE, CROSS_CTA_CONFLICT, INTRA_CTA_RACE, UNSYNCED_COUNTER_ACCESS,
};
use crate::ir::{first_appearance, tag_entry};
use cta_clustering::protocol::COUNTER_TAG;
use gpu_sim::walk::{self, SyncOp};
use gpu_sim::{ArrayTag, CacheOp, FxHashMap, GpuConfig, KernelSpec};
use locality::WordMap;
use std::collections::BTreeMap;

/// Memory event kinds the conflict rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Atomic,
}

/// Bit 63 of an [`Accessors`]: more than one distinct accessor.
const MULTI: u64 = 1 << 63;

/// Who has accessed one word, per kind: the first accessor's id + 1 in
/// the low 63 bits (0 = none yet) plus [`MULTI`]. Enough to decide
/// whether a new accessor conflicts with *some other* party without
/// storing the set. Ids (warps, CTAs) must stay below `2^63 − 1`.
#[derive(Debug, Clone, Copy, Default)]
struct Accessors(u64);

impl Accessors {
    fn note(&mut self, id: u64) {
        if self.0 == 0 {
            self.0 = id + 1;
        } else if self.0 & !MULTI != id + 1 {
            self.0 |= MULTI;
        }
    }

    /// Whether some accessor other than `id` has been recorded.
    fn other_than(&self, id: u64) -> bool {
        self.0 != 0 && self.0 != id + 1
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
    /// Cross-CTA state over the whole launch: per tag ([`tag_entry`]),
    /// keyed by word.
    cross: Vec<(ArrayTag, WordMap<WordState>)>,
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
        debug_assert!(
            ctx.cta < MULTI - 1,
            "CTA id {} does not fit the packed accessor state",
            ctx.cta
        );
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
            first_appearance(access, 4, &mut self.words);
            let cross = tag_entry(&mut self.cross, access.tag);
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

                let gl = cross.slot(word);
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

/// Walks `kernel` under `cfg`'s geometry and emits the concurrency lints
/// onto `report` under `subject` (standalone wrapper around [`HbPass`]).
pub fn check_kernel<K: KernelSpec + ?Sized>(
    kernel: &K,
    cfg: &GpuConfig,
    subject: &str,
    report: &mut Report,
) {
    let mut pass = HbPass::new();
    walk::each_warp_program_on(kernel, cfg, |ctx, warp, prog| pass.visit(ctx, warp, prog));
    pass.finish(subject, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_clustering::protocol::counter_addr;
    use cta_clustering::AgentKernel;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Op, Program};

    /// A configurable two-warp fixture: each warp runs `prog_of(warp)`.
    #[derive(Debug)]
    struct TwoWarp<F: Fn(u64, u32) -> Program>(F);

    impl<F: Fn(u64, u32) -> Program + Send + Sync> KernelSpec for TwoWarp<F> {
        fn name(&self) -> String {
            "two-warp".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(4), 64u32)
        }
        fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
            (self.0)(ctx.cta, warp)
        }
    }

    fn run<F: Fn(u64, u32) -> Program + Send + Sync>(f: F) -> Report {
        let mut r = Report::new();
        check_kernel(&TwoWarp(f), &arch::gtx570(), "test", &mut r);
        r
    }

    #[test]
    fn same_phase_conflicting_warps_race() {
        // Both warps store CTA-private word 0 with no barrier between.
        let r = run(|cta, _warp| vec![Op::Store(MemAccess::scalar(0, cta * 64, 4))]);
        assert!(r.has(&INTRA_CTA_RACE), "{}", r.render_human());
        assert!(!r.has(&CROSS_CTA_CONFLICT));
    }

    #[test]
    fn barrier_separates_writer_phases() {
        // Warp 0 writes in phase 0, warp 1 in phase 1; both pass one
        // barrier, so the accesses are ordered by the barrier join.
        let r = run(|cta, warp| {
            if warp == 0 {
                vec![Op::Store(MemAccess::scalar(0, cta * 64, 4)), Op::Barrier]
            } else {
                vec![Op::Barrier, Op::Store(MemAccess::scalar(0, cta * 64, 4))]
            }
        });
        assert!(!r.has(&INTRA_CTA_RACE), "{}", r.render_human());
        assert!(!r.has(&BARRIER_DIVERGENCE));
    }

    #[test]
    fn read_read_and_atomic_atomic_never_race() {
        let r = run(|_, _| {
            vec![
                Op::Load(MemAccess::scalar(0, 0, 4)),
                Op::Atomic(MemAccess::scalar(1, 64, 4)),
            ]
        });
        assert!(!r.has(&INTRA_CTA_RACE));
        assert!(!r.has(&CROSS_CTA_CONFLICT), "{}", r.render_human());
    }

    #[test]
    fn cross_cta_write_sharing_warns() {
        // Every CTA stores the same global word: benign-or-not, it is
        // unordered, so the pass reports the warn-level conflict.
        let r = run(|_cta, warp| {
            if warp == 0 {
                vec![Op::Store(MemAccess::scalar(2, 128, 4))]
            } else {
                Vec::new()
            }
        });
        assert!(r.has(&CROSS_CTA_CONFLICT), "{}", r.render_human());
        assert!(!r.has(&INTRA_CTA_RACE));
        assert_eq!(r.deny_count(), 0, "cross-CTA conflicts default to warn");
    }

    #[test]
    fn seeded_bug_plain_counter_access_denied() {
        // Injected bug: the ticket is read with a plain load and written
        // with a plain store instead of one atomic — the Maxwell binding
        // bug the protocol lint exists for.
        let r = run(|_cta, warp| {
            if warp == 0 {
                vec![
                    Op::Load(MemAccess::scalar(COUNTER_TAG, counter_addr(0), 4)),
                    Op::Store(MemAccess::scalar(COUNTER_TAG, counter_addr(0), 4)),
                ]
            } else {
                Vec::new()
            }
        });
        assert!(r.has(&UNSYNCED_COUNTER_ACCESS), "{}", r.render_human());
        assert!(r.deny_count() > 0);
    }

    #[test]
    fn seeded_bug_divergent_barriers_denied() {
        // Injected bug: warp 1 skips the barrier (the unmatched-barrier
        // hazard the throttled agent path must avoid).
        let r = run(|_cta, warp| {
            if warp == 0 {
                vec![Op::Barrier]
            } else {
                Vec::new()
            }
        });
        assert!(r.has(&BARRIER_DIVERGENCE), "{}", r.render_human());
        assert!(r.deny_count() > 0);
    }

    /// The real agent transform's dynamic-binding ticket path must be
    /// race-free: the counter is only ever touched atomically, and the
    /// broadcast barrier keeps all warps phase-aligned.
    #[test]
    fn agent_ticket_path_is_clean() {
        #[derive(Debug, Clone)]
        struct Probe;
        impl KernelSpec for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig::new(Dim3::linear(128), 64u32)
            }
            fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
                vec![Op::Load(MemAccess::scalar(
                    0,
                    ctx.cta * 8 + u64::from(warp) * 4,
                    4,
                ))]
            }
        }
        let cfg = arch::gtx980(); // Maxwell: atomic-ticket binding
        let a = AgentKernel::build(Probe, &cfg).unwrap();
        let mut r = Report::new();
        check_kernel(&a, &cfg, "probe/CLU", &mut r);
        assert!(!r.has(&UNSYNCED_COUNTER_ACCESS), "{}", r.render_human());
        assert!(!r.has(&INTRA_CTA_RACE));
        assert!(!r.has(&BARRIER_DIVERGENCE));
        assert_eq!(r.deny_count(), 0);
    }
}
