//! `rustc --explain`-style long-form lint documentation.
//!
//! Every lint in [`crate::diag::LINTS`] has an entry here — an
//! exhaustiveness test pins that, so adding a lint without its
//! explanation fails the build's test run. The text is what
//! `analyze --explain CLxxx` prints: what the lint proves, why the
//! finding matters for the clustering framework, and what to do about
//! it.

use crate::diag::{lint_by_code, lint_by_name, Lint};

/// The long-form explanation of one lint, keyed by code.
///
/// Returns `None` for unknown codes — the registry in [`crate::diag`]
/// is the source of truth for which codes exist.
pub fn explanation(code: &str) -> Option<&'static str> {
    let text = match code {
        "CL001" => {
            "The partition functions `f` (CTA -> cluster) and `f^-1` (cluster \
             walk -> CTA) must be mutual inverses over the whole launch grid \
             (the paper's Eqs. 4-7); otherwise redirection would compute a \
             different logical CTA than agents would enumerate, and the two \
             clustering implementations would silently diverge.\n\n\
             Fix the axis arithmetic so `invert(assign(cta)) == cta` for every \
             CTA of the grid, including the remainder clusters at the edge."
        }
        "CL002" => {
            "Cluster sizes must stay within `floor(|V|/M)` and `ceil(|V|/M)` \
             (Eqs. 3-5): the paper's locality argument needs clusters of \
             near-equal size so each SM sees a contiguous, balanced share of \
             the grid. An unbalanced partition concentrates reuse on a few \
             SMs and starves the rest.\n\n\
             Check the divisor/remainder split in the partition constructor."
        }
        "CL003" => {
            "Walking every cluster must enumerate every original CTA exactly \
             once. A missed CTA is dropped work (wrong results); a duplicated \
             CTA is repeated work (wrong results for non-idempotent kernels).\n\n\
             This is the partition-level coverage invariant; CL012 checks the \
             same property after the agent transform."
        }
        "CL004" => {
            "A transform constructor (partition, redirection, agents, bypass, \
             throttle) rejected inputs the analyzer derived from the workload \
             itself. The evaluation harness would hit the same error at run \
             time, so the configuration is unrunnable as planned.\n\n\
             The message carries the constructor's own error; fix the grid, \
             occupancy, or throttle degree it names."
        }
        "CL011" => {
            "Redirection-based clustering remaps CTA ids in place, so the \
             remap must be a permutation of the grid: every logical CTA \
             appears exactly once as a target. Anything else drops or \
             duplicates work.\n\n\
             The redirection kernel derives its map from the partition; a \
             failure here usually means CL001/CL003 fired too."
        }
        "CL012" => {
            "Each agent CTA executes a worklist of original CTAs; the union \
             of all worklists must cover the launch grid exactly once. \
             Coverage failures mean the agent transform would compute \
             different results than the baseline kernel.\n\n\
             Check the round-robin stride arithmetic in the worklist builder, \
             especially the interaction of MAX_AGENTS with partial clusters."
        }
        "CL013" => {
            "With ACTIVE_AGENTS < MAX_AGENTS, the throttled-out agents must \
             receive empty worklists and the active ones must share the work \
             in round-robin order. A leak means throttling changes *what* is \
             computed instead of only *how concurrently*.\n\n\
             The fix is in the worklist split, not the protocol: tasks must \
             be dealt only to agents below the active threshold."
        }
        "CL014" => {
            "MAX_AGENTS and the agent launch grid must agree with the \
             occupancy model (registers, shared memory, warp and CTA slots \
             per SM, paper 4.2). If MAX_AGENTS exceeds what an SM can hold \
             resident, the binding protocol deadlocks on real hardware \
             because agents assume co-residency.\n\n\
             Recompute MAX_AGENTS from the occupancy calculator instead of \
             hard-coding it."
        }
        "CL021" => {
            "An L1-bypassed array's lines carry reuse that the L1 would have \
             served. Bypassing exists to keep *streaming* (zero-reuse) \
             arrays from evicting reused lines; bypassing a reused array \
             throws away exactly the hits clustering is trying to create.\n\n\
             Remove the tag from the bypass set, or fix the streaming \
             classifier that put it there."
        }
        "CL022" => {
            "A prefetched line is never demanded afterwards by the issuing \
             warp. The prefetch occupies MSHRs and cache capacity, evicts \
             useful lines, and returns nothing.\n\n\
             Prefetches must target the *next* worklist item's lines \
             (cross-CTA prefetching, paper 4.3); a never-used prefetch \
             usually means the depth or address calculation is wrong."
        }
        "CL023" => {
            "A line is prefetched only after its last demand access - the \
             data arrives when nothing will read it again. Same cost as \
             CL022 (wasted MSHRs and capacity) with a subtler cause: the \
             prefetch is correctly targeted but mis-scheduled.\n\n\
             Move the prefetch issue point ahead of the demand stream it is \
             supposed to cover."
        }
        "CL024" => {
            "The same line is prefetched repeatedly with no intervening \
             demand access. The duplicates waste issue slots and MSHR \
             entries; the first prefetch already covered the demand.\n\n\
             Warn-level because duplicates are wasteful but not wrong. \
             Deduplicate the prefetch stream per worklist window."
        }
        "CL025" => {
            "The kernel's average coalescing degree is below 2 lanes per \
             memory transaction: nearly every lane pays for its own line. \
             Such kernels are bandwidth-bound in a way no CTA-level \
             transform can fix, and clustering results on them are noise.\n\n\
             Warn-level: the lint flags the kernel as a poor clustering \
             candidate, not as incorrect."
        }
        "CL026" => {
            "A throttle request named an ACTIVE_AGENTS outside 1..=MAX_AGENTS. \
             Zero active agents would deadlock the protocol (no one drains \
             the worklists); more than MAX_AGENTS cannot be co-resident.\n\n\
             Use `clamp_active_agents`, or fix the sweep generating the \
             degrees."
        }
        "CL027" => {
            "A requested ACTIVE_AGENTS was repaired by the runtime clamp \
             (usually Table 2's published optimum exceeding this preset's \
             occupancy-derived MAX_AGENTS). The run is valid but executes a \
             different degree than requested - relevant when comparing \
             against the paper's numbers.\n\n\
             Warn-level by design: the clamp is the documented behavior."
        }
        "CL030" => {
            "The locality category re-derived from the walked address streams \
             disagrees with the category recorded in the optimization plan. \
             The plan would then exploit (or skip) locality based on a stale \
             or hand-written label.\n\n\
             Trust the static profile: regenerate the plan, or reconcile the \
             Table 2 label with the observed stream."
        }
        "CL031" => {
            "The plan enables locality exploitation (clustering + bypass) for \
             a category the paper proves unexploitable (data/write/streaming \
             reuse, Figure 5). The transforms would add protocol overhead \
             with no hit-rate upside.\n\n\
             Switch the plan to the latency-tolerance path (prefetching) \
             instead."
        }
        "CL032" => {
            "The plan bypasses an array tag whose static profile shows \
             significant reuse - the plan-level version of CL021 (which \
             checks the rewritten IR). Both usually fire together; this one \
             points at the decision, CL021 at the consequence.\n\n\
             Remove the tag from the plan's bypass set."
        }
        "CL033" => {
            "The plan enables cross-CTA prefetching although the category is \
             exploitable. The paper's decision table (Figure 5) uses \
             prefetching only as the fallback when clustering cannot convert \
             misses into hits; stacking it on an exploitable category wastes \
             MSHRs on lines clustering already keeps resident.\n\n\
             Disable prefetch in the plan, or re-derive the category."
        }
        "CL034" => {
            "The cache geometry cannot be modeled sanely: a sector size that \
             does not divide the line size, an array (as configured, or as \
             carved into L1 sector arrays and L2 banks) that holds no whole \
             sets, or an aggregated-tag array over a non-power-of-two bank \
             count. The simulator refuses to run such a configuration; the \
             analyzer fails the gate at plan-audit time instead.\n\n\
             Fix the `CacheConfig` the sweep or preset generated."
        }
        "CL101" => {
            "Two warps of one CTA access the same word, at least one writes, \
             and no barrier orders them. Warn-level by default because the \
             suite's irregular kernels (BFS visited flags, histogram \
             scatters) model real, benign, idempotent races.\n\n\
             Audit the access pair; if the race is not idempotent, add a \
             barrier or make the access atomic."
        }
        "CL102" => {
            "CTAs of one launch conflict on a word with no inter-CTA \
             ordering mechanism. GPUs give no cross-CTA ordering except \
             kernel boundaries and atomics, so such conflicts are ordered \
             only by scheduler accident.\n\n\
             Warn-level for the same idempotency reasons as CL101; escalate \
             per-workload when the write values differ."
        }
        "CL103" => {
            "The agent binding protocol's ticket counter word was accessed \
             by a plain load or store. Every access to the counter must be \
             atomic: a torn or reordered plain access breaks the \
             exactly-once task distribution the model checker proves.\n\n\
             Use the protocol's atomic helpers; never read the counter \
             directly."
        }
        "CL104" => {
            "Warps of one CTA reach different numbers of barriers. On real \
             hardware `__syncthreads` in divergent control flow is undefined \
             behavior and usually hangs the CTA.\n\n\
             Restructure the kernel so every warp executes the same barrier \
             sequence."
        }
        "CL110" => {
            "Bounded model checking found a reachable state of the agent \
             binding protocol where no agent can step - a deadlock. The \
             trace in the message replays the interleaving.\n\n\
             Deadlocks here are protocol bugs (ticket/broadcast ordering), \
             not workload bugs; fix the protocol step relation."
        }
        "CL111" => {
            "The model checker found an execution where a task is consumed \
             zero or multiple times. Exactly-once distribution is the \
             protocol's core obligation; violating it corrupts results \
             silently.\n\n\
             The counterexample trace pinpoints the interleaving; check the \
             ticket increment/read ordering."
        }
        "CL112" => {
            "The model checker found an execution where an active agent \
             terminates without draining its task stride - starvation. Work \
             assigned to that agent is dropped.\n\n\
             Check the termination condition against the stride arithmetic."
        }
        "CL120" => {
            "The symbolic (polynomial) abstract interpreter could not prove \
             `invert(assign(cta)) == cta` over the entire u64 domain. Unlike \
             CL001 - which tests concrete grids - this is the closed-form \
             proof; a failure means the identity does not hold algebraically \
             for *some* grid, even if every tested grid passes.\n\n\
             Re-derive the closed forms; do not ship on passing tests alone."
        }
        "CL121" => {
            "The partition/binding arithmetic can overflow u64 on the \
             symbolic domain (e.g. `cta * cluster_size` for adversarial \
             grid dimensions). Overflow wraps silently in release builds \
             and produces wrong CTA ids.\n\n\
             Restructure the arithmetic (divide before multiply, or use \
             widening ops) so the proof goes through."
        }
        "CL201" => {
            "The cost model's *sound upper bound* on the L1 hit rate is near \
             zero at this geometry: compulsory misses dominate the read \
             stream (almost every read touches a distinct line), so no L1 \
             size or associativity in a sweep can recover the kernel. The \
             bound is scheduler- and MSHR-independent - nothing the runtime \
             does can beat it.\n\n\
             Treat the kernel as bandwidth-bound: bypass or prefetch instead \
             of sweeping cache geometry, and let the DSE harness prune the \
             geometry axis."
        }
        "CL202" => {
            "Every cacheable read touches a distinct line, so the miss count \
             is a program invariant: clustering only reorders CTAs, and no \
             reordering can convert a compulsory miss into a hit. The \
             L1-geometry axes of a design-space sweep are provably dead for \
             this kernel (the DSE harness uses exactly this fact to prune).\n\n\
             Expect clustering variants to match the baseline's cache \
             metrics; any difference is protocol overhead, not locality."
        }
        "CL203" => {
            "The kernel performs memory operations but zero cacheable read \
             transactions (everything is bypassed, stored, or atomic). L1 \
             geometry provably cannot affect it; only occupancy and latency \
             effects remain.\n\n\
             Any L1 sweep point spent on this kernel is wasted - the DSE \
             harness prunes the geometry axes outright."
        }
        "CL204" => {
            "The machine-checked soundness obligation of the CL2xx cost \
             model: a simulator-measured L1 hit rate fell outside the \
             statically derived `[lo, hi]` interval, or the modeled read \
             transaction count diverged from the measured one. Emitted only \
             by `analyze --verify-costmodel`, never by the static pass.\n\n\
             This is a bug in the model or the simulator, not the workload: \
             either the abstract interpretation miscounts the access stream, \
             or an engine change altered hit accounting. Bisect with the \
             `costsum_soundness` tests."
        }
        "CL301" => {
            "The per-set conflict analysis pushed the kernel's install-capable \
             line footprint through the configured set-index function and found \
             one set absorbing a super-proportional share: the maximum per-set \
             footprint is several times the mean over occupied sets, and it \
             overflows the associativity. Camped sets serialize misses that a \
             uniform spread would have absorbed, and they widen the sound \
             hit-rate interval because the conflict-aware lower bound cannot \
             credit reuse in overflowing sets.\n\n\
             Check the array strides against the line size and set count - \
             power-of-two strides under modulo indexing are the classic cause. \
             The hashed index function (every preset default) usually \
             dissolves camping; if the lint fires under `Hashed`, the reuse \
             pattern itself is set-degenerate and a geometry change (more \
             sets, higher associativity) is the only lever."
        }
        "CL302" => {
            "Hashed and modulo set indexing provably produce identical \
             behaviour for this kernel and geometry: every set's \
             install-capable footprint fits its ways under *both* decoders, so \
             neither array ever evicts and every read beyond the per-array \
             first touch of a line hits regardless of which function spreads \
             lines over sets. The L1 indexing axis of a design-space sweep is \
             therefore dead for this point: simulating both variants must \
             produce identical cache statistics.\n\n\
             The DSE harness uses exactly this proof to prune the modulo twin \
             of every hashed point (and vice versa). No action is needed; the \
             lint documents why the sweep skipped the axis."
        }
        "CL303" => {
            "Most of this kernel's read transactions land in sets whose \
             install-capable footprint overflows the associativity, and the \
             sound hit-rate interval stays wide there: the conflict-aware \
             lower bound can only credit reuse it can prove survives *any* \
             CTA placement, and overflowing sets admit adversarial schedules \
             that evict between consecutive touches. The geometry - not the \
             model - is what keeps the interval wide.\n\n\
             Warn-level: the finding marks geometry points whose cost-model \
             verdict is weak evidence for design-space decisions. Prefer \
             simulation for these points, or sweep toward geometries (more \
             sets, higher associativity) where the footprint fits and the \
             interval collapses."
        }
        "CL304" => {
            "The machine-checked soundness obligation of the CL3xx set-conflict \
             model: a per-set prediction diverged from the simulator's per-set \
             counters - the decoder-computed install-capable footprint of some \
             set differs from the union of tags the simulator actually \
             installed there, the per-set read transaction count disagrees, or \
             a set the model proves stable (footprint <= ways) recorded an \
             eviction. Emitted only by the `analyze --verify-costmodel` \
             machine check, never by the static pass.\n\n\
             This is a bug in the set model or the simulator's per-set \
             accounting, not the workload: the decoder the model indexes with \
             must be bit-identical to the cache's. Bisect with the \
             `setmodel_soundness` proptest battery."
        }
        "CL401" => {
            "The serving gate: a clustering plan the plan server was about to \
             return failed the static plan audit (CL026/CL031/CL032/CL033 at \
             deny level). `cta-serve` re-derives the kernel's locality profile \
             from the request's access summary and runs `plan::audit_served` \
             on every response before it is written; a failure here means the \
             planner produced a self-contradictory plan - exploiting \
             unexploitable locality, bypassing a reused array, prefetching \
             over an exploit plan, or throttling beyond the occupancy bound.\n\n\
             The CL401 message embeds the underlying deny findings verbatim. \
             Warn-level audit findings are forwarded under their own codes \
             and do not trigger CL401. A served plan that trips this lint is \
             withheld and the request answered with an error, so clients \
             never act on an unsound plan."
        }
        _ => return None,
    };
    Some(text)
}

/// Resolves `query` (a `CLxxx` code, case-insensitive, or a kebab-case
/// lint name) and renders the full `--explain` document for it.
pub fn render(query: &str) -> Option<String> {
    let lint: &'static Lint =
        lint_by_code(&query.to_uppercase()).or_else(|| lint_by_name(&query.to_lowercase()))?;
    let body = explanation(lint.code).expect("every registered lint has an explanation");
    Some(format!(
        "{code}: {name} ({level} by default)\n{underline}\n{summary}\n\n{body}\n",
        code = lint.code,
        name = lint.name,
        level = lint.default_level,
        underline = "=".repeat(lint.code.len() + 2 + lint.name.len()),
        summary = lint.summary,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LINTS;

    #[test]
    fn every_lint_has_an_explanation() {
        for lint in LINTS {
            let text = explanation(lint.code)
                .unwrap_or_else(|| panic!("{} has no --explain entry", lint.code));
            assert!(
                text.len() > 100,
                "{}: explanation suspiciously short",
                lint.code
            );
            assert!(
                text.contains("\n\n"),
                "{}: explanation should have a what and a what-to-do paragraph",
                lint.code
            );
        }
    }

    #[test]
    fn unknown_codes_have_none() {
        assert!(explanation("CL999").is_none());
        assert!(render("CL999").is_none());
        assert!(render("not-a-lint").is_none());
    }

    #[test]
    fn render_resolves_code_and_name() {
        let by_code = render("CL012").expect("code resolves");
        let by_name = render("agent-coverage").expect("name resolves");
        assert_eq!(by_code, by_name);
        assert!(by_code.starts_with("CL012: agent-coverage (deny by default)\n"));
        // Case-insensitive code lookup.
        assert_eq!(render("cl012"), Some(by_code));
    }
}
