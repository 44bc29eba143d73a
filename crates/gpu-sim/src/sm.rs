//! Per-SM execution state: resident CTAs, warp contexts, the L1 sectors,
//! occupancy accounting, and the SM's event queues.
//!
//! The engine advances SMs strictly by next-event time. Each SM keeps
//! two lazily-cleaned min-heaps instead of scanning its warp slots on
//! every step: `ready` orders `(ready_at, warp_slot)` wake entries, and
//! `pending_dispatch` orders the GigaThread dispatch polls owed to freed
//! CTA slots. Heap entries are never removed eagerly — an entry is valid
//! only if the warp it names is still live, not parked at a barrier, and
//! still ready at exactly the recorded time; stale entries are popped on
//! the next peek. Every warp state transition pushes a fresh entry, so
//! the minimum valid entry always equals the scan-based minimum the
//! cycle-stepped engine computed (the golden-stats differential pins
//! this equivalence).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::{Cache, CacheStats, SetProfile};
use crate::config::GpuConfig;
use crate::program::{Cursor, WarpProgram};

/// One resident warp's execution context.
#[derive(Debug)]
pub(crate) struct WarpState {
    /// CTA slot this warp belongs to.
    pub cta_slot: u32,
    /// Warp index within its CTA.
    pub warp: u32,
    /// Remaining instruction stream.
    pub program: WarpProgram,
    /// Next op index.
    pub pc: usize,
    /// Segment cursor matching `pc` (segmented programs).
    pub cursor: Cursor,
    /// Earliest cycle the next op may issue.
    pub ready_at: u64,
    /// Parked at a `__syncthreads()`.
    pub at_barrier: bool,
}

/// Bookkeeping for one resident CTA.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResidentCta {
    /// Linear CTA id within the launched grid.
    pub cta: u64,
    /// Warps the CTA launched with.
    pub warps_total: u32,
    /// Warps that ran their program to completion.
    pub warps_done: u32,
    /// Warps currently parked at the barrier.
    pub barrier_count: u32,
    /// Dispatch cycle.
    pub dispatched: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub(crate) struct SmState {
    pub id: usize,
    /// Next cycle the issue stage is free.
    pub clock: u64,
    /// L1 sectors (one for Fermi/Kepler, two for Maxwell/Pascal).
    pub l1_sectors: Vec<Cache>,
    /// Warp contexts, indexed by hardware warp slot
    /// (`cta_slot * warps_per_cta + warp`).
    pub warps: Vec<Option<WarpState>>,
    /// Wake entries `(ready_at, warp_slot)`, min-first, lazily cleaned.
    pub ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Resident CTAs, indexed by CTA slot.
    pub ctas: Vec<Option<ResidentCta>>,
    /// CTAs dispatched to this SM so far (the atomic-ticket value).
    pub dispatch_count: u64,
    /// Times at which a freed slot owes the scheduler a dispatch poll,
    /// min-first.
    pub pending_dispatch: BinaryHeap<Reverse<u64>>,
    /// Next cycle the load/store unit can accept a transaction: the LSU
    /// replays divergent accesses one line-transaction per cycle, which
    /// bounds how fast one SM can flood the memory system.
    pub lsu_free: u64,
    /// L2-line transactions issued by loads that bypassed L1 (explicit
    /// `BypassL1` cache op, or L1 disabled architecturally).
    pub bypassed_reads: u64,
    /// Occupancy accounting: live warps right now.
    pub active_warps: u32,
    /// Integral of `active_warps` over time.
    pub occ_integral: u64,
    /// Last time `active_warps` changed.
    pub occ_last_change: u64,
    /// Pushes into `ready` and `pending_dispatch` — the per-SM share of
    /// the work model's `ready_heap_pushes` counter.
    pub heap_pushes: u64,
}

impl SmState {
    pub(crate) fn new(id: usize, cfg: &GpuConfig, max_ctas: u32, warps_per_cta: u32) -> Self {
        let sector_cfg = cfg.l1_array();
        SmState {
            id,
            clock: 0,
            l1_sectors: (0..cfg.l1_sectors)
                .map(|_| Cache::new(sector_cfg.clone()))
                .collect(),
            warps: (0..(max_ctas * warps_per_cta) as usize)
                .map(|_| None)
                .collect(),
            ready: BinaryHeap::new(),
            ctas: (0..max_ctas as usize).map(|_| None).collect(),
            dispatch_count: 0,
            pending_dispatch: BinaryHeap::new(),
            lsu_free: 0,
            bypassed_reads: 0,
            active_warps: 0,
            occ_integral: 0,
            occ_last_change: 0,
            heap_pushes: 0,
        }
    }

    /// Lowest free CTA slot, if any.
    pub(crate) fn free_slot(&self) -> Option<u32> {
        self.ctas.iter().position(|c| c.is_none()).map(|i| i as u32)
    }

    /// Number of resident CTAs.
    #[allow(dead_code)] // exercised by tests; kept as an inspection helper
    pub(crate) fn resident(&self) -> usize {
        self.ctas.iter().filter(|c| c.is_some()).count()
    }

    /// Updates the occupancy integral up to `now`, then applies a delta to
    /// the live-warp count.
    pub(crate) fn account_warps(&mut self, now: u64, delta: i64) {
        let now = now.max(self.occ_last_change);
        self.occ_integral += self.active_warps as u64 * (now - self.occ_last_change);
        self.occ_last_change = now;
        self.active_warps = (self.active_warps as i64 + delta) as u32;
    }

    /// The L1 sector serving a given CTA slot. The paper speculates the
    /// Maxwell/Pascal unified-cache sectors "are private to particular
    /// CTA-slots following certain mapping mechanism"; we map slots to
    /// sectors round-robin. The engine inlines this mapping in its
    /// split-borrow hot path; this method is the documented reference.
    #[allow(dead_code)]
    pub(crate) fn sector_of_slot(&self, slot: u32) -> usize {
        (slot as usize) % self.l1_sectors.len()
    }

    /// Aggregated L1 statistics over this SM's sectors.
    pub(crate) fn l1_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in &self.l1_sectors {
            agg.absorb(&s.stats);
        }
        agg
    }

    /// Turns on per-set profiling on every L1 sector array (the CL3xx
    /// machine-check path; a no-op for ordinary runs).
    pub(crate) fn enable_l1_set_profile(&mut self) {
        for s in &mut self.l1_sectors {
            s.enable_set_profile();
        }
    }

    /// Merged per-set profile over this SM's sectors (every sector array
    /// shares the sub-array geometry, so sets align one-to-one). `None`
    /// when profiling was never enabled.
    pub(crate) fn l1_set_profile(&self) -> Option<SetProfile> {
        let mut merged: Option<SetProfile> = None;
        for s in &self.l1_sectors {
            let p = s.set_profile()?;
            match &mut merged {
                Some(m) => m.absorb(p),
                None => merged = Some(p.clone()),
            }
        }
        merged
    }

    /// Records that warp slot `idx` (re)becomes issuable at `t`. Every
    /// transition that sets a warp's `ready_at` must push an entry, or
    /// the heap minimum falls behind the true state.
    #[inline]
    pub(crate) fn wake(&mut self, t: u64, idx: u32) {
        self.heap_pushes += 1;
        self.ready.push(Reverse((t, idx)));
    }

    /// Pops stale wake entries until the top is valid: the warp is live,
    /// not parked at a barrier, and still ready at exactly the recorded
    /// time. Entries go stale when a warp issues (new `ready_at`), parks,
    /// or retires; each entry is popped at most once, so cleaning is
    /// amortized O(log warps) per state transition.
    fn clean_ready(&mut self) {
        while let Some(&Reverse((t, idx))) = self.ready.peek() {
            let valid = self.warps[idx as usize]
                .as_ref()
                .is_some_and(|w| !w.at_barrier && w.ready_at == t);
            if valid {
                return;
            }
            self.ready.pop();
        }
    }

    /// Earliest ready time among issuable warps (not done, not at a
    /// barrier), with the warp-slot index as deterministic tiebreak.
    pub(crate) fn next_issuable(&mut self) -> Option<(u64, usize)> {
        self.clean_ready();
        self.ready
            .peek()
            .map(|&Reverse((t, idx))| (t, idx as usize))
    }

    /// The SM's next event time: earliest of issuable-warp readiness
    /// (clamped by the issue clock) and pending dispatch polls. `None`
    /// when the SM has nothing to do.
    pub(crate) fn next_event(&mut self) -> Option<u64> {
        let issue = self.next_issuable().map(|(t, _)| t.max(self.clock));
        let dispatch = self.pending_dispatch.peek().map(|&Reverse(t)| t);
        match (issue, dispatch) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::program::Cursor;

    #[test]
    fn slot_and_sector_mapping() {
        let cfg = arch::gtx980();
        let sm = SmState::new(0, &cfg, 4, 2);
        assert_eq!(sm.l1_sectors.len(), 2);
        assert_eq!(sm.sector_of_slot(0), 0);
        assert_eq!(sm.sector_of_slot(1), 1);
        assert_eq!(sm.sector_of_slot(2), 0);
        assert_eq!(sm.free_slot(), Some(0));
        assert_eq!(sm.resident(), 0);
    }

    #[test]
    fn occupancy_integral_accumulates() {
        let cfg = arch::gtx570();
        let mut sm = SmState::new(0, &cfg, 2, 1);
        sm.account_warps(0, 2); // 2 warps live from t=0
        sm.account_warps(100, -1); // one retires at t=100
        sm.account_warps(150, -1);
        assert_eq!(sm.occ_integral, 2 * 100 + 50); // 2 warps for 100 cy, then 1 for 50
        assert_eq!(sm.active_warps, 0);
    }

    #[test]
    fn next_event_prefers_earliest() {
        let cfg = arch::gtx570();
        let mut sm = SmState::new(0, &cfg, 2, 1);
        assert_eq!(sm.next_event(), None);
        sm.pending_dispatch.push(Reverse(500));
        assert_eq!(sm.next_event(), Some(500));
        sm.warps[0] = Some(WarpState {
            cta_slot: 0,
            warp: 0,
            program: WarpProgram::Owned(vec![crate::kernel::Op::Compute(1)]),
            pc: 0,
            cursor: Cursor::default(),
            ready_at: 30,
            at_barrier: false,
        });
        sm.wake(30, 0);
        assert_eq!(sm.next_event(), Some(30));
    }

    #[test]
    fn stale_wake_entries_are_cleaned() {
        let cfg = arch::gtx570();
        let mut sm = SmState::new(0, &cfg, 2, 1);
        sm.warps[0] = Some(WarpState {
            cta_slot: 0,
            warp: 0,
            program: WarpProgram::Owned(vec![crate::kernel::Op::Compute(1)]),
            pc: 0,
            cursor: Cursor::default(),
            ready_at: 40,
            at_barrier: false,
        });
        sm.wake(10, 0); // stale: the warp has moved on to 40
        sm.wake(40, 0);
        sm.wake(25, 1); // stale: no warp in slot 1
        assert_eq!(sm.next_issuable(), Some((40, 0)));
        // Parked warps are not issuable even with a matching entry.
        sm.warps[0].as_mut().unwrap().at_barrier = true;
        assert_eq!(sm.next_issuable(), None);
    }
}
