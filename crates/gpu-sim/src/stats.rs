//! Run-level statistics: the simulator's equivalent of the CUDA profiler
//! metrics the paper reports (L1 hit rate, L2 transactions, achieved
//! occupancy, elapsed cycles).

use crate::cache::CacheStats;
use crate::memory::MemoryStats;

/// Placement record of one CTA: where and when it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaPlacement {
    /// Linear CTA id within the launched grid.
    pub cta: u64,
    /// SM the CTA ran on.
    pub sm_id: usize,
    /// Hardware CTA slot it occupied.
    pub slot: u32,
    /// Dispatch cycle.
    pub dispatched: u64,
    /// Retire cycle.
    pub retired: u64,
}

/// Aggregated results of one kernel simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Kernel name.
    pub kernel: String,
    /// GPU name.
    pub gpu: String,
    /// Total elapsed cycles (kernel wall-clock in the paper's speedup
    /// figures).
    pub cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Aggregated L1 statistics over all SMs and sectors.
    pub l1: CacheStats,
    /// L1 statistics per SM (sectors aggregated). Summing these equals
    /// [`RunStats::l1`]; the telemetry conservation tests pin that.
    pub per_sm_l1: Vec<CacheStats>,
    /// Per-SM count of L2-line transactions issued by loads that bypassed
    /// L1 (explicit `BypassL1` cache op, or L1 disabled).
    pub l1_bypass_per_sm: Vec<u64>,
    /// Aggregated L2 cache-array statistics over all banks.
    pub l2: CacheStats,
    /// Device memory-system counters (L2/DRAM transactions).
    pub memory: MemoryStats,
    /// Achieved occupancy: average resident warps per cycle divided by the
    /// SM warp slots (the `AC_OCP` series of Figure 12).
    pub achieved_occupancy: f64,
    /// CTAs executed per SM (workload balance; the paper observes the
    /// hardware scheduler does *not* balance perfectly, §3.1-(3)).
    pub ctas_per_sm: Vec<u64>,
    /// Occupancy bound used for dispatch (max CTAs per SM).
    pub max_ctas_per_sm: u32,
    /// Per-CTA placements, in dispatch order.
    pub placements: Vec<CtaPlacement>,
}

impl RunStats {
    /// The paper's headline cache metric: total L2 transactions.
    pub fn l2_transactions(&self) -> u64 {
        self.memory.l2_transactions()
    }

    /// L1 read hit rate (reserved hits count as hits, matching nvprof).
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1.read_hit_rate()
    }

    /// Speedup of this run relative to a baseline run of the same kernel
    /// (baseline cycles / these cycles).
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Normalized L2 transactions relative to a baseline (Figure 13's
    /// y-axis).
    pub fn l2_txns_vs(&self, baseline: &RunStats) -> f64 {
        if baseline.l2_transactions() == 0 {
            return 1.0;
        }
        self.l2_transactions() as f64 / baseline.l2_transactions() as f64
    }

    /// SM id that executed the given CTA, if it ran.
    pub fn sm_of(&self, cta: u64) -> Option<usize> {
        self.placements
            .iter()
            .find(|p| p.cta == cta)
            .map(|p| p.sm_id)
    }

    /// Emits this run's telemetry onto a recorder: per-SM L1
    /// hit/reserved/miss/eviction/bypass counters (keys `{scope}/smN`),
    /// each eviction count split into clean vs dirty (writeback), plus
    /// run-level cycle, instruction, L2-transaction and L2-eviction
    /// counters (key `{scope}`). Purely observational — reads `self`,
    /// mutates nothing — so recording cannot perturb the simulation it
    /// reports on.
    pub fn record_obs(&self, obs: &cta_obs::Obs, scope: &str) {
        for (i, sm) in self.per_sm_l1.iter().enumerate() {
            let key = format!("{scope}/sm{i}");
            obs.counter("sim/l1_reads", &key, sm.reads);
            obs.counter("sim/l1_hits", &key, sm.read_hits);
            obs.counter("sim/l1_reserved", &key, sm.read_reserved);
            obs.counter("sim/l1_misses", &key, sm.read_misses);
            obs.counter("sim/l1_evictions", &key, sm.evictions);
            obs.counter("sim/l1_evictions_clean", &key, sm.clean_evictions());
            obs.counter("sim/l1_evictions_dirty", &key, sm.dirty_evictions());
            obs.counter(
                "sim/l1_bypass",
                &key,
                self.l1_bypass_per_sm.get(i).copied().unwrap_or(0),
            );
        }
        obs.counter("sim/cycles", scope, self.cycles);
        obs.counter("sim/instructions", scope, self.instructions);
        obs.counter("sim/l2_transactions", scope, self.l2_transactions());
        obs.counter("sim/l2_evictions_clean", scope, self.l2.clean_evictions());
        obs.counter("sim/l2_evictions_dirty", scope, self.l2.dirty_evictions());
    }
}

/// Geometric mean of an iterator of positive ratios; the aggregation the
/// paper uses for its per-category speedup summaries ("G-M" bars).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geometric mean requires positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles: u64, l2_reads: u64) -> RunStats {
        RunStats {
            kernel: "k".into(),
            gpu: "g".into(),
            cycles,
            instructions: 0,
            l1: CacheStats::default(),
            per_sm_l1: vec![],
            l1_bypass_per_sm: vec![],
            l2: CacheStats::default(),
            memory: MemoryStats {
                l2_read_txns: l2_reads,
                ..MemoryStats::default()
            },
            achieved_occupancy: 0.5,
            ctas_per_sm: vec![],
            max_ctas_per_sm: 1,
            placements: vec![CtaPlacement {
                cta: 0,
                sm_id: 3,
                slot: 0,
                dispatched: 0,
                retired: cycles,
            }],
        }
    }

    #[test]
    fn speedup_and_normalization() {
        let base = dummy(1000, 100);
        let opt = dummy(500, 40);
        assert!((opt.speedup_vs(&base) - 2.0).abs() < 1e-12);
        assert!((opt.l2_txns_vs(&base) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn placement_lookup() {
        let s = dummy(10, 0);
        assert_eq!(s.sm_of(0), Some(3));
        assert_eq!(s.sm_of(99), None);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean([]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean([1.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean([1.0, 0.0]);
    }
}
