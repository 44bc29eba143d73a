//! Deterministic work-model counters: the quantities that predict the
//! simulator's own wall time, counted exactly.
//!
//! The measurement host carries ±15% wall-clock noise and ships no
//! perf/callgrind, so "did this PR slow the engine down?" cannot be gated
//! on seconds. These counters are the in-repo profiler instead: they tally
//! the algorithmic work the hot paths perform — which coalescer emission
//! path each access took, how many tag-compare chunks every cache probe
//! walked, how many ways each victim scan examined, how often an install
//! displaced a valid line, and how many heap operations the event loop
//! performed. They are pure observations (never fed back into simulated
//! behavior), deterministic for a given workload, and therefore pinnable
//! *exactly*: `sim_core --check` compares them counter-for-counter against
//! the committed `BENCH_sim_core.json`, a regression gate with zero noise
//! floor.

use crate::coalesce::CoalesceShape;

cta_obs::counters! {
    /// Work counters for one cache array (an L1 sector or an L2 bank),
    /// accumulated on the engine's access paths. Test-only helpers
    /// ([`crate::Cache::probe`]) do not count.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheWork {
        /// Tag-compare chunks walked by probes (reads, writes and fill
        /// fallbacks). Narrow rows (assoc ≤ 4) count one chunk per probe;
        /// wide rows count one per four-way group examined, plus one if the
        /// remainder tail was entered.
        pub tag_chunks: u64,
        /// Ways examined by victim scans (installs). The branchless scan
        /// always ranks the full row, so this is `assoc` per install.
        pub victim_ways: u64,
        /// Installs that displaced a valid line (capacity/conflict misses —
        /// the per-level view of [`crate::CacheStats::evictions`]).
        pub set_conflicts: u64,
    }
}

cta_obs::counters! {
    /// The work model of one run: every counter the wall time of the
    /// simulator is made of, exact and deterministic. Lives alongside
    /// [`EngineMetrics`](crate::EngineMetrics)' event counters (and inside it
    /// as the `work` field) rather than in `RunStats`, whose `Debug` repr the
    /// golden differential tests hash.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkModel {
        /// Coalescer invocations (one per memory-instruction × level the
        /// engine coalesces; equals the sum of the three shape counters).
        pub coalesce_calls: u64,
        /// Accesses emitted on the contiguous fast path.
        pub coalesce_contiguous: u64,
        /// Accesses emitted on the sorted (strictly-increasing) path.
        pub coalesce_sorted: u64,
        /// Accesses that fell to the divergent dedup-set path.
        pub coalesce_divergent: u64,
        /// Work performed by the per-SM L1 sector arrays (listed as
        /// `l1_tag_chunks`, `l1_victim_ways`, `l1_set_conflicts`).
        pub l1: CacheWork,
        /// Work performed by the L2 banks (listed as `l2_…`).
        pub l2: CacheWork,
        /// Pushes onto per-SM ready/pending event heaps.
        pub ready_heap_pushes: u64,
        /// Pushes onto the global SM wake heap.
        pub sm_heap_pushes: u64,
    }
}

impl WorkModel {
    /// Counts one coalescer invocation on the path `shape` names.
    #[inline]
    pub fn note_shape(&mut self, shape: CoalesceShape) {
        self.coalesce_calls += 1;
        match shape {
            CoalesceShape::Contiguous => self.coalesce_contiguous += 1,
            CoalesceShape::Sorted => self.coalesce_sorted += 1,
            CoalesceShape::Divergent => self.coalesce_divergent += 1,
        }
    }

    /// Checks the model's internal conservation laws, returning the first
    /// violated one as `Err(description)`.
    ///
    /// # Errors
    ///
    /// A static description of the violated law — which would indicate an
    /// instrumentation bug (a shape not counted, a victim scan that never
    /// examined a way).
    pub fn check_conservation(&self) -> Result<(), &'static str> {
        let shapes = self.coalesce_contiguous + self.coalesce_sorted + self.coalesce_divergent;
        if shapes != self.coalesce_calls {
            return Err("coalesce shape counts do not sum to coalesce_calls");
        }
        if self.l1.set_conflicts > self.l1.victim_ways {
            return Err("l1 set_conflicts exceed victim ways examined");
        }
        if self.l2.set_conflicts > self.l2.victim_ways {
            return Err("l2 set_conflicts exceed victim ways examined");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_sum_to_calls() {
        let mut w = WorkModel::default();
        w.note_shape(CoalesceShape::Contiguous);
        w.note_shape(CoalesceShape::Contiguous);
        w.note_shape(CoalesceShape::Sorted);
        w.note_shape(CoalesceShape::Divergent);
        assert_eq!(w.coalesce_calls, 4);
        assert_eq!(w.check_conservation(), Ok(()));
        let mut total = WorkModel::default();
        total.absorb(&w);
        total.absorb(&w);
        assert_eq!(total.coalesce_contiguous, 4);
        assert_eq!(total.check_conservation(), Ok(()));
    }

    #[test]
    fn conservation_catches_miscounts() {
        let w = WorkModel {
            coalesce_calls: 2,
            coalesce_contiguous: 1,
            ..WorkModel::default()
        };
        assert!(w.check_conservation().is_err());
        let w = WorkModel {
            l2: CacheWork {
                set_conflicts: 3,
                victim_ways: 2,
                ..CacheWork::default()
            },
            ..WorkModel::default()
        };
        assert!(w.check_conservation().is_err());
    }
}
