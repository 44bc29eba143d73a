//! The diagnostics framework: lint descriptors, levels, the registry of
//! every lint the analyzer knows, and the [`Report`] that collects and
//! renders findings.
//!
//! Modelled on rustc's lint machinery: every finding carries a stable
//! code (`CL0xx`), a kebab-case name, a level, and a one-line summary.
//! Levels are fixed: each finding is reported at its lint's declared
//! level.

use std::fmt;

/// How severe a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Reported, but does not fail the `analyze` gate.
    Warn,
    /// Reported and fails the `analyze` gate (nonzero exit).
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

/// A lint descriptor: stable identity plus default severity.
#[derive(Debug)]
pub struct Lint {
    /// Stable code, `CL0xx`. Never reused once published.
    pub code: &'static str,
    /// Kebab-case name (the rustc-style handle).
    pub name: &'static str,
    /// Severity of every finding.
    pub default_level: Level,
    /// One-line description of what the lint catches.
    pub summary: &'static str,
}

macro_rules! declare_lints {
    ($($(#[$doc:meta])* $ident:ident = { $code:literal, $name:literal, $level:ident, $summary:literal }),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub static $ident: Lint = Lint {
                code: $code,
                name: $name,
                default_level: Level::$level,
                summary: $summary,
            };
        )+

        /// Every lint the analyzer knows, in code order.
        pub static LINTS: &[&Lint] = &[$(&$ident),+];
    };
}

declare_lints! {
    /// `f`/`f⁻¹` are not mutual inverses over the grid (Eqs. 4–7).
    PARTITION_NOT_INVERSE = {
        "CL001", "partition-not-inverse", Deny,
        "partition assign/invert are not mutual inverses over the grid"
    },
    /// Cluster sizes violate the Eq. 3–5 balance bounds.
    PARTITION_UNBALANCED = {
        "CL002", "partition-unbalanced", Deny,
        "cluster sizes violate the floor/ceil(|V|/M) balance bounds"
    },
    /// Cluster walks do not cover every original CTA exactly once.
    PARTITION_COVERAGE = {
        "CL003", "partition-coverage", Deny,
        "cluster enumeration misses or duplicates original CTA ids"
    },
    /// A transform constructor rejected inputs the analyzer fed it.
    TRANSFORM_CONSTRUCTION_FAILED = {
        "CL004", "transform-construction-failed", Deny,
        "a clustering transform could not be constructed for this kernel"
    },
    /// The redirection map is not a permutation of the grid.
    REDIRECTION_NOT_PERMUTATION = {
        "CL011", "redirection-not-permutation", Deny,
        "redirect() is not a permutation of the original CTA ids"
    },
    /// Agent worklists do not emit every original CTA exactly once.
    AGENT_COVERAGE = {
        "CL012", "agent-coverage", Deny,
        "agent worklists miss or duplicate original CTA ids"
    },
    /// Throttled-out agents still receive work, or worklist lengths are
    /// inconsistent with the round-robin split.
    AGENT_THROTTLE_LEAK = {
        "CL013", "agent-throttle-leak", Deny,
        "worklists inconsistent with ACTIVE_AGENTS throttling"
    },
    /// `MAX_AGENTS` or the launch grid disagree with the occupancy model.
    AGENT_OCCUPANCY_MISMATCH = {
        "CL014", "agent-occupancy-mismatch", Deny,
        "MAX_AGENTS or launch grid disagree with occupancy-derived limits"
    },
    /// L1-bypassed loads predominantly touch reused cache lines.
    BYPASS_ON_REUSED_LINE = {
        "CL021", "bypass-on-reused-line", Deny,
        "bypassed array's lines carry reuse the L1 would have served"
    },
    /// A prefetched line is never demanded afterwards.
    PREFETCH_NEVER_USED = {
        "CL022", "prefetch-never-used", Deny,
        "prefetched line is never demanded by the issuing warp"
    },
    /// A line is prefetched only after its last demand access.
    PREFETCH_AFTER_LAST_USE = {
        "CL023", "prefetch-after-last-use", Deny,
        "line prefetched after its last demand access"
    },
    /// The same line is prefetched twice with no intervening demand.
    DUPLICATE_PREFETCH = {
        "CL024", "duplicate-prefetch", Warn,
        "line prefetched repeatedly without an intervening demand access"
    },
    /// Average coalescing degree is pathologically low.
    PATHOLOGICAL_DIVERGENCE = {
        "CL025", "pathological-divergence", Warn,
        "average coalescing degree below 2 lanes per transaction"
    },
    /// A throttle request exceeds the occupancy-derived `MAX_AGENTS`.
    THROTTLE_EXCEEDS_OCCUPANCY = {
        "CL026", "throttle-exceeds-occupancy", Deny,
        "ACTIVE_AGENTS outside 1..=MAX_AGENTS"
    },
    /// A throttle request was repaired by `clamp_active_agents`.
    THROTTLE_CLAMPED = {
        "CL027", "throttle-clamped", Warn,
        "requested ACTIVE_AGENTS repaired by the runtime clamp"
    },
    /// Statically derived category disagrees with the recorded one.
    STATIC_CATEGORY_MISMATCH = {
        "CL030", "static-category-mismatch", Warn,
        "static locality category disagrees with the plan's category"
    },
    /// The plan exploits locality of an unexploitable category.
    PLAN_EXPLOITS_UNEXPLOITABLE = {
        "CL031", "plan-exploits-unexploitable", Deny,
        "plan exploits locality although its category is unexploitable"
    },
    /// The plan bypasses an array whose accesses carry reuse.
    PLAN_BYPASS_REUSED_TAG = {
        "CL032", "plan-bypass-reused-tag", Deny,
        "plan bypasses an array tag with significant static reuse"
    },
    /// The plan prefetches although locality is exploitable.
    PLAN_PREFETCH_ON_EXPLOITABLE = {
        "CL033", "plan-prefetch-on-exploitable", Deny,
        "plan enables prefetching although locality is exploitable"
    },
    /// A cache geometry the engine cannot model sanely: a sector size
    /// that does not divide the line size, an aggregated-tag array over a
    /// non-power-of-two bank count, or a zero-set array. Caught at
    /// plan-audit time so a bad config fails the analyze gate instead of
    /// panicking inside the simulator.
    DEGENERATE_CACHE_GEOMETRY = {
        "CL034", "degenerate-cache-geometry", Deny,
        "cache geometry is degenerate (sector/line split, ATA banking, or zero sets)"
    },
    /// Two warps of one CTA conflict on a word with no ordering barrier.
    /// Warn, not deny: the suite's irregular kernels (BFS visited
    /// flags, HST bin scatters) model real benign idempotent races.
    INTRA_CTA_RACE = {
        "CL101", "intra-cta-race", Warn,
        "unordered conflicting accesses to one word within a CTA"
    },
    /// CTAs of one launch conflict on a word with no inter-CTA ordering.
    CROSS_CTA_CONFLICT = {
        "CL102", "cross-cta-conflict", Warn,
        "conflicting accesses to one word from different CTAs"
    },
    /// The agent counter word is touched by a non-atomic access.
    UNSYNCED_COUNTER_ACCESS = {
        "CL103", "unsynced-counter-access", Deny,
        "agent counter word accessed without an atomic"
    },
    /// Warps of one CTA execute different barrier counts.
    BARRIER_DIVERGENCE = {
        "CL104", "barrier-divergence", Deny,
        "warps of one CTA reach different numbers of barriers"
    },
    /// The model checker found a reachable deadlock.
    PROTOCOL_DEADLOCK = {
        "CL110", "protocol-deadlock", Deny,
        "agent protocol can reach a state where no agent can step"
    },
    /// The model checker found a task consumed zero or multiple times.
    PROTOCOL_EXACTLY_ONCE = {
        "CL111", "protocol-exactly-once", Deny,
        "agent protocol can drop or duplicate a task"
    },
    /// The model checker found an agent that can be starved forever.
    PROTOCOL_STARVATION = {
        "CL112", "protocol-starvation", Deny,
        "an active agent can terminate without draining its task stride"
    },
    /// The abstract interpreter could not prove f⁻¹∘f = id.
    BINDING_IDENTITY_UNPROVEN = {
        "CL120", "binding-identity-unproven", Deny,
        "symbolic proof of assign/invert identity failed"
    },
    /// Binding arithmetic can overflow u64 on the symbolic domain.
    BINDING_OVERFLOW = {
        "CL121", "binding-overflow", Deny,
        "partition/binding arithmetic can overflow the u64 domain"
    },
    /// The cost model proves the read working set thrashes the L1: even
    /// the sound upper bound on the hit rate is near zero.
    WORKING_SET_THRASHES = {
        "CL201", "working-set-thrashes", Warn,
        "read working set provably thrashes the L1 at this geometry"
    },
    /// Every cacheable read touches a distinct line, so no clustering
    /// transform can convert a miss into a hit.
    CLUSTERING_MISS_INVARIANT = {
        "CL202", "clustering-miss-invariant", Warn,
        "all reads are cold: clustering provably cannot change the miss count"
    },
    /// The kernel presents no cacheable reads at all: cache geometry is
    /// irrelevant and only occupancy/latency effects remain.
    OCCUPANCY_BOUND_GEOMETRY_IRRELEVANT = {
        "CL203", "occupancy-bound-geometry-irrelevant", Warn,
        "no cacheable reads: L1 geometry provably cannot affect this kernel"
    },
    /// A measured hit rate fell outside the statically derived interval,
    /// or the modeled transaction count diverged from the simulator's.
    COSTMODEL_UNSOUND = {
        "CL204", "costmodel-unsound", Deny,
        "measured hit rate escapes the static [lo, hi] interval"
    },
    /// One set absorbs a super-proportional share of the read footprint
    /// under the configured indexing function.
    SET_CAMPING = {
        "CL301", "set-camping", Warn,
        "one L1 set absorbs a super-proportional footprint share"
    },
    /// Hashed and modulo decoders provably produce identical per-set
    /// behaviour: the indexing axis is dead for this kernel/geometry.
    INDEXING_INSENSITIVE = {
        "CL302", "indexing-insensitive", Warn,
        "hashed vs modulo indexing provably identical: dead DSE axis"
    },
    /// The geometry's conflict structure keeps the sound interval wide:
    /// most reads land in overflowing sets the bound cannot decide.
    CONFLICT_BOUND_GEOMETRY = {
        "CL303", "conflict-bound-geometry", Warn,
        "set conflicts dominate: the sound interval stays wide at this geometry"
    },
    /// A per-set prediction diverged from the simulator's per-set
    /// counters (emitted only by the `--verify-costmodel` machine check).
    SETMODEL_UNSOUND = {
        "CL304", "setmodel-unsound", Deny,
        "per-set prediction diverges from simulator per-set counters"
    },
    /// A plan about to be returned by the serving layer failed the
    /// static plan audit (emitted by [`crate::plan::audit_served`], the
    /// gate `cta-serve` and its tests run every response through).
    SERVED_PLAN_FAILS_AUDIT = {
        "CL401", "served-plan-fails-audit", Deny,
        "a served plan fails the static plan audit"
    },
}

/// Looks a lint up by its stable code.
pub fn lint_by_code(code: &str) -> Option<&'static Lint> {
    LINTS.iter().copied().find(|l| l.code == code)
}

/// Looks a lint up by its kebab-case name.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().copied().find(|l| l.name == name)
}

/// One emitted finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: &'static str,
    /// Lint name.
    pub name: &'static str,
    /// The lint's level.
    pub level: Level,
    /// What was being checked, e.g. `MM/GTX570/CLU+TOT`.
    pub subject: String,
    /// The specific finding.
    pub message: String,
}

/// Collects diagnostics across passes and renders them.
#[derive(Debug, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
    subjects_checked: u64,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Emits one finding at its lint's level.
    pub fn emit(&mut self, lint: &'static Lint, subject: &str, message: String) {
        self.diags.push(Diagnostic {
            code: lint.code,
            name: lint.name,
            level: lint.default_level,
            subject: subject.to_string(),
            message,
        });
    }

    /// Marks one subject (kernel × arch × variant) as checked, for the
    /// summary line.
    pub fn note_subject(&mut self) {
        self.subjects_checked += 1;
    }

    /// Subjects checked so far.
    pub fn subjects_checked(&self) -> u64 {
        self.subjects_checked
    }

    /// Merges `other` into `self` (used to join per-thread reports).
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
        self.subjects_checked += other.subjects_checked;
    }

    /// All findings, sorted deterministically by (subject, code, message).
    pub fn diagnostics(&self) -> Vec<&Diagnostic> {
        let mut v: Vec<&Diagnostic> = self.diags.iter().collect();
        v.sort_by(|a, b| (&a.subject, a.code, &a.message).cmp(&(&b.subject, b.code, &b.message)));
        v
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diags.iter().filter(|d| d.level == Level::Deny).count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diags.iter().filter(|d| d.level == Level::Warn).count()
    }

    /// Whether the report contains a finding of `lint` (any subject).
    pub fn has(&self, lint: &'static Lint) -> bool {
        self.diags.iter().any(|d| d.code == lint.code)
    }

    /// Renders the rustc-style human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in self.diagnostics() {
            out.push_str(&format!(
                "{}[{}]: {}\n  --> {}\n  = note: {}\n",
                d.level, d.code, d.name, d.subject, d.message
            ));
        }
        out.push_str(&format!(
            "analysis: {} subject(s) checked, {} deny, {} warn\n",
            self.subjects_checked,
            self.deny_count(),
            self.warn_count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        let codes: Vec<&str> = LINTS.iter().map(|l| l.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "lint table must stay in unique code order");
        assert!(codes.iter().all(|c| c.starts_with("CL") && c.len() == 5));
    }

    #[test]
    fn lookup_by_code_and_name() {
        assert!(std::ptr::eq(
            lint_by_code("CL012").unwrap(),
            &AGENT_COVERAGE
        ));
        assert!(std::ptr::eq(
            lint_by_name("agent-coverage").unwrap(),
            &AGENT_COVERAGE
        ));
        assert!(lint_by_code("CL999").is_none());
    }

    #[test]
    fn diagnostics_sort_deterministically() {
        let mut r = Report::new();
        r.emit(&AGENT_COVERAGE, "b", "2".into());
        r.emit(&PARTITION_COVERAGE, "b", "1".into());
        r.emit(&AGENT_COVERAGE, "a", "3".into());
        let order: Vec<(&str, &str)> = r
            .diagnostics()
            .iter()
            .map(|d| (d.subject.as_str(), d.code))
            .collect();
        assert_eq!(order, vec![("a", "CL012"), ("b", "CL003"), ("b", "CL012")]);
    }

    #[test]
    fn human_rendering_has_rustc_shape() {
        let mut r = Report::new();
        r.note_subject();
        r.emit(
            &AGENT_COVERAGE,
            "MM/GTX570/CLU",
            "CTA 17 emitted 0 times".into(),
        );
        let text = r.render_human();
        assert!(text.contains("deny[CL012]: agent-coverage"));
        assert!(text.contains("--> MM/GTX570/CLU"));
        assert!(text.contains("1 subject(s) checked, 1 deny, 0 warn"));
    }
}
