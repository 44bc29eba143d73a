//! The device-level memory system shared by all SMs: a banked write-back
//! L2 and a multi-channel DRAM with finite per-bank/per-channel throughput.
//!
//! Bandwidth contention is what converts the paper's L2-transaction
//! reductions (Figure 13) into wall-clock speedups (Figure 12): an L2- or
//! DRAM-bound kernel speeds up when fewer transactions queue behind each
//! other.

use crate::addrdec::AddrDec;
use crate::cache::{Cache, CacheStats, ReadOutcome, WriteOutcome};
use crate::config::{GpuConfig, MemoryTimings};
use crate::work::CacheWork;

/// Which level of the hierarchy ultimately served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Served by the SM-private L1 (or L1/Tex unified) cache.
    L1,
    /// Served by the shared L2.
    L2,
    /// Served by off-chip DRAM.
    Dram,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::Dram => "DRAM",
        })
    }
}

cta_obs::counters! {
    /// Device-level counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MemoryStats {
        /// Read transactions arriving at L2 (the paper's headline
        /// `L1_L2 Read Trans` metric).
        pub l2_read_txns: u64,
        /// Write transactions arriving at L2.
        pub l2_write_txns: u64,
        /// Atomic transactions arriving at L2.
        pub l2_atomic_txns: u64,
        /// Read transactions issued to DRAM.
        pub dram_reads: u64,
        /// Write(-back) transactions issued to DRAM.
        pub dram_writes: u64,
    }
}

impl MemoryStats {
    /// Total L2 transactions (reads + writes + atomics), the quantity
    /// normalized in Figure 13.
    pub fn l2_transactions(&self) -> u64 {
        self.l2_read_txns + self.l2_write_txns + self.l2_atomic_txns
    }
}

/// The shared L2 + DRAM model. One instance per simulated device.
#[derive(Debug)]
pub struct MemorySystem {
    banks: Vec<Cache>,
    bank_free: Vec<u64>,
    chan_free: Vec<u64>,
    timings: MemoryTimings,
    /// Bank/channel interleave decoder at L2-line granularity.
    dec: AddrDec,
    /// Observable counters.
    pub stats: MemoryStats,
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let t = cfg.timings.clone();
        let banks = (0..t.l2_banks).map(|_| Cache::new(cfg.l2_bank())).collect();
        MemorySystem {
            banks,
            bank_free: vec![0; t.l2_banks as usize],
            chan_free: vec![0; t.dram_channels as usize],
            dec: AddrDec::for_device(cfg.l2.line_bytes, t.l2_banks, t.dram_channels),
            timings: t,
            stats: MemoryStats::default(),
        }
    }

    /// Bank selection through the shared address decoder: real L2 slices
    /// hash the address so that power-of-two strides (dense-matrix
    /// columns) do not camp on a single bank.
    fn bank_of(&self, line_addr: u64) -> usize {
        self.dec.bank(line_addr)
    }

    fn chan_of(&self, line_addr: u64) -> usize {
        self.dec.channel(line_addr)
    }

    /// Occupies the bank and returns the cycle at which it starts serving.
    fn acquire_bank(&mut self, bank: usize, now: u64) -> u64 {
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + self.timings.l2_bank_gap as u64;
        start
    }

    /// Occupies the DRAM channel and returns its service start cycle.
    fn acquire_chan(&mut self, chan: usize, now: u64) -> u64 {
        let start = now.max(self.chan_free[chan]);
        self.chan_free[chan] = start + self.timings.dram_channel_gap as u64;
        start
    }

    /// Reads one L2-line. Returns the absolute cycle at which the data is
    /// back at the requesting SM and the level that served it.
    pub fn read_line(&mut self, line_addr: u64, now: u64) -> (u64, Level) {
        self.stats.l2_read_txns += 1;
        let bank = self.bank_of(line_addr);
        let start = self.acquire_bank(bank, now);
        match self.banks[bank].read(line_addr, start) {
            ReadOutcome::Hit => (start + self.timings.l2_hit as u64, Level::L2),
            ReadOutcome::HitReserved { ready_at } => {
                // Piggybacks on an in-flight DRAM fill issued by another SM.
                (
                    ready_at.max(start + self.timings.l2_hit as u64),
                    Level::Dram,
                )
            }
            ReadOutcome::Miss {
                mshr_wait,
                dirty_victim,
            } => {
                if dirty_victim {
                    self.writeback(line_addr, start);
                }
                // The request occupies the channel at its true issue time
                // (keeping the FIFO cursors causal); an MSHR stall only
                // delays when the data returns.
                let chan = self.chan_of(line_addr);
                let svc = self.acquire_chan(chan, start);
                self.stats.dram_reads += 1;
                // The line physically arrives independent of the MSHR
                // stall; only the requester's data return is delayed.
                // Recording the physical time keeps the in-flight heap
                // from compounding waits into future waits.
                let fill = svc + self.timings.dram as u64;
                self.banks[bank].fill(line_addr, fill);
                (fill + mshr_wait, Level::Dram)
            }
        }
    }

    /// Writes one L2-line (store path; never blocks the issuing warp).
    pub fn write_line(&mut self, line_addr: u64, now: u64) {
        self.stats.l2_write_txns += 1;
        let bank = self.bank_of(line_addr);
        let start = self.acquire_bank(bank, now);
        match self.banks[bank].write(line_addr, start) {
            WriteOutcome::Absorbed => {}
            WriteOutcome::AllocateMiss { dirty_victim } => {
                if dirty_victim {
                    self.writeback(line_addr, start);
                }
                // Write-allocate: fetch-on-write from DRAM.
                let chan = self.chan_of(line_addr);
                let svc = self.acquire_chan(chan, start);
                self.stats.dram_reads += 1;
                self.banks[bank].fill(line_addr, svc + self.timings.dram as u64);
            }
            WriteOutcome::Forwarded { .. } => {
                unreachable!("L2 is write-back; forwarded writes are an L1 outcome")
            }
        }
    }

    /// A serializing atomic on one L2-line: blocks the warp for a full L2
    /// round trip (plus any DRAM fetch if absent).
    pub fn atomic_line(&mut self, line_addr: u64, now: u64) -> (u64, Level) {
        self.stats.l2_atomic_txns += 1;
        let bank = self.bank_of(line_addr);
        let start = self.acquire_bank(bank, now);
        match self.banks[bank].read(line_addr, start) {
            ReadOutcome::Hit | ReadOutcome::HitReserved { .. } => {
                self.banks[bank].write(line_addr, start);
                (start + self.timings.l2_hit as u64, Level::L2)
            }
            ReadOutcome::Miss { dirty_victim, .. } => {
                if dirty_victim {
                    self.writeback(line_addr, start);
                }
                let chan = self.chan_of(line_addr);
                let svc = self.acquire_chan(chan, start);
                self.stats.dram_reads += 1;
                let done = svc + self.timings.dram as u64;
                self.banks[bank].fill(line_addr, done);
                self.banks[bank].write(line_addr, done);
                (done, Level::Dram)
            }
        }
    }

    fn writeback(&mut self, near_line: u64, now: u64) {
        let chan = self.chan_of(near_line);
        self.acquire_chan(chan, now);
        self.stats.dram_writes += 1;
    }

    /// Aggregated cache statistics over all L2 banks.
    pub fn l2_cache_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for b in &self.banks {
            agg.absorb(&b.stats);
        }
        agg
    }

    /// Work-model counters aggregated over every L2 bank.
    pub fn l2_work(&self) -> CacheWork {
        let mut agg = CacheWork::default();
        for b in &self.banks {
            agg.absorb(&b.work());
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    fn mem() -> MemorySystem {
        MemorySystem::new(&arch::gtx570())
    }

    #[test]
    fn first_read_goes_to_dram_second_hits_l2() {
        let mut m = mem();
        let (t1, lvl1) = m.read_line(0, 0);
        assert_eq!(lvl1, Level::Dram);
        assert!(t1 >= m.timings.dram as u64);
        let (t2, lvl2) = m.read_line(0, t1 + 1);
        assert_eq!(lvl2, Level::L2);
        assert_eq!(t2, t1 + 1 + m.timings.l2_hit as u64);
        assert_eq!(m.stats.l2_read_txns, 2);
        assert_eq!(m.stats.dram_reads, 1);
    }

    #[test]
    fn inflight_fill_is_shared_across_sms() {
        let mut m = mem();
        let (t1, _) = m.read_line(0, 0);
        // A second SM asks for the same line while the fill is in flight:
        // no extra DRAM read, completion no earlier than the fill.
        let (t2, lvl) = m.read_line(0, 5);
        assert_eq!(lvl, Level::Dram);
        assert!(t2 >= t1);
        assert_eq!(m.stats.dram_reads, 1);
    }

    #[test]
    fn bank_contention_queues() {
        let mut m = mem();
        let line = m.dec.line_bytes() as u64;
        // Find a second line hashing to bank 0 alongside line 0.
        let target = m.bank_of(0);
        let peer = (1u64..)
            .map(|i| i * line)
            .find(|&a| m.bank_of(a) == target)
            .unwrap();
        // Warm both lines.
        let (t_a, _) = m.read_line(0, 0);
        let (t_b, _) = m.read_line(peer, 0);
        let warm = t_a.max(t_b) + 1;
        let (h1, _) = m.read_line(0, warm);
        let (h2, _) = m.read_line(peer, warm);
        // Same bank, same cycle: the second hit starts one gap later.
        assert_eq!(h2, h1 + m.timings.l2_bank_gap as u64);
    }

    #[test]
    fn power_of_two_strides_spread_over_banks() {
        let m = mem();
        let mut banks = std::collections::BTreeSet::new();
        for r in 0..64u64 {
            banks.insert(m.bank_of(r * 1024));
        }
        assert!(banks.len() >= m.timings.l2_banks as usize - 1);
    }

    #[test]
    fn writes_count_transactions_without_blocking() {
        let mut m = mem();
        m.write_line(64, 0);
        assert_eq!(m.stats.l2_write_txns, 1);
        // write-allocate fetched from DRAM
        assert_eq!(m.stats.dram_reads, 1);
    }

    #[test]
    fn atomics_serialize_on_bank() {
        let mut m = mem();
        let (t1, _) = m.atomic_line(0, 0);
        let (t2, lvl) = m.atomic_line(0, t1 + 1);
        assert_eq!(lvl, Level::L2);
        assert!(t2 > t1);
        assert_eq!(m.stats.l2_atomic_txns, 2);
    }

    #[test]
    fn l2_transactions_sums_all_kinds() {
        let mut m = mem();
        m.read_line(0, 0);
        m.write_line(32, 0);
        m.atomic_line(64, 0);
        assert_eq!(m.stats.l2_transactions(), 3);
    }
}
