//! GPU hardware configuration: caches, memory system, SM resources.

use crate::error::SimError;
use std::fmt;

/// Write policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// On a write hit the line is *invalidated* and the write forwarded to
    /// the next level; write misses do not allocate. This is the GPU L1
    /// data-cache policy documented by the paper (§3.2-(D)): it is what
    /// makes the "write-related" locality category unexploitable.
    WriteEvict,
    /// Write-back with write-allocate — the GPU L2 policy.
    WriteBackAllocate,
}

/// Set-index function of a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexFn {
    /// Multiplicative (Fibonacci) hash of the line tag — the modeled
    /// hardware behavior (see [`crate::addrdec`]). Default everywhere.
    #[default]
    Hashed,
    /// Plain `tag % num_sets` indexing, the textbook scheme real GPUs
    /// avoid: power-of-two strides camp on a few sets. Exposed as a DSE
    /// axis so the sweep (and the CL3xx set-conflict analysis) can
    /// quantify what the hash buys per workload.
    Modulo,
}

impl IndexFn {
    /// The sweep-spec / config-file token (`hashed` / `modulo`).
    pub fn label(&self) -> &'static str {
        match self {
            IndexFn::Hashed => "hashed",
            IndexFn::Modulo => "modulo",
        }
    }
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Cache-line size in bytes. Fermi/Kepler L1: 128; Maxwell/Pascal
    /// L1/Tex and all L2: 32.
    pub line_bytes: u32,
    /// Set associativity.
    pub associativity: u32,
    /// Maximum outstanding misses (MSHR entries). Further misses stall
    /// until a fill retires.
    pub mshr_entries: u32,
    /// Write handling.
    pub write_policy: WritePolicy,
    /// Sector size in bytes; `0` (the conventional value everywhere)
    /// means unsectored — the sector is the whole line. When nonzero it
    /// must be a power of two dividing `line_bytes` into at most 32
    /// sectors (sector state is packed into per-line `u32` bitmasks).
    pub sector_bytes: u32,
    /// Aggregated-tag-array (ATA) variant: the cache keeps a compact
    /// per-set ghost array of recently evicted tags, probed on every
    /// miss *before* the data state is touched, and uses the probe to
    /// pick the insertion priority (ghost hit → MRU, ghost miss →
    /// LIP-style cold insert). Off by default; modeled architectures
    /// opt in via [`crate::arch::ata_variant`].
    pub aggregated_tags: bool,
    /// Set-index function. [`IndexFn::Hashed`] models the hardware and
    /// is the default for every preset; [`IndexFn::Modulo`] exists as a
    /// DSE axis.
    pub index_fn: IndexFn,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    /// The effective sector size: `sector_bytes`, or the full line when
    /// unsectored (`sector_bytes == 0`).
    pub fn effective_sector_bytes(&self) -> u32 {
        if self.sector_bytes == 0 {
            self.line_bytes
        } else {
            self.sector_bytes
        }
    }

    /// Sectors per line (1 when unsectored).
    pub fn sectors_per_line(&self) -> u32 {
        self.line_bytes / self.effective_sector_bytes()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any field is zero, the line
    /// size is not a power of two, or capacity is not divisible into whole
    /// sets.
    pub fn validate(&self, what: &str) -> Result<(), SimError> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.associativity == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{what}: zero-sized field in cache config"
            )));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(SimError::InvalidConfig(format!(
                "{what}: line size {} is not a power of two",
                self.line_bytes
            )));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes * self.associativity)
        {
            return Err(SimError::InvalidConfig(format!(
                "{what}: capacity {} not divisible by {}x{}",
                self.size_bytes, self.line_bytes, self.associativity
            )));
        }
        if self.mshr_entries == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{what}: zero MSHR entries"
            )));
        }
        if self.sector_bytes != 0 {
            if !self.sector_bytes.is_power_of_two()
                || !self.line_bytes.is_multiple_of(self.sector_bytes)
            {
                return Err(SimError::InvalidConfig(format!(
                    "{what}: sector size {} does not divide line size {}",
                    self.sector_bytes, self.line_bytes
                )));
            }
            if self.line_bytes / self.sector_bytes > 32 {
                return Err(SimError::InvalidConfig(format!(
                    "{what}: more than 32 sectors per line ({} / {})",
                    self.line_bytes, self.sector_bytes
                )));
            }
        }
        Ok(())
    }
}

/// Latency and bandwidth parameters of the memory hierarchy.
///
/// Latencies are round-trip cycles observed by a warp from issue to data
/// return, matching how the paper's microbenchmark (Listing 3) measures
/// them with `clock()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryTimings {
    /// L1 (or L1/Tex unified) hit latency.
    pub l1_hit: u32,
    /// Latency of a request served by the L2 (L1 miss, L2 hit).
    pub l2_hit: u32,
    /// Latency of a request served by DRAM (miss in both caches).
    pub dram: u32,
    /// Minimum cycles between two transactions serviced by one L2 bank
    /// (inverse bank throughput).
    pub l2_bank_gap: u32,
    /// Number of independent L2 banks (address-interleaved at L2-line
    /// granularity).
    pub l2_banks: u32,
    /// Minimum cycles between two DRAM transactions on one channel.
    pub dram_channel_gap: u32,
    /// Number of DRAM channels.
    pub dram_channels: u32,
}

impl MemoryTimings {
    fn validate(&self) -> Result<(), SimError> {
        if self.l2_banks == 0 || self.dram_channels == 0 {
            return Err(SimError::InvalidConfig(
                "memory timings: zero banks or channels".into(),
            ));
        }
        if !(self.l1_hit < self.l2_hit && self.l2_hit < self.dram) {
            return Err(SimError::InvalidConfig(
                "memory timings: latencies must satisfy l1 < l2 < dram".into(),
            ));
        }
        Ok(())
    }
}

/// The NVIDIA architecture generations evaluated by the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchGen {
    /// Fermi (CC 2.x): 128B-line configurable L1, static CTA→warp-slot binding.
    Fermi,
    /// Kepler (CC 3.x): 128B-line configurable L1, static CTA→warp-slot binding.
    Kepler,
    /// Maxwell (CC 5.x): 32B-line sectored L1/Tex unified cache, dynamic
    /// CTA→warp-slot binding.
    Maxwell,
    /// Pascal (CC 6.x): like Maxwell with more SMs.
    Pascal,
}

impl ArchGen {
    /// Whether CTAs bind to hardware warp slots statically (Fermi/Kepler),
    /// letting an agent derive its id from `%warpid` for free, or
    /// dynamically (Maxwell/Pascal), requiring a global atomic + shared
    /// memory broadcast (Listing 5).
    pub fn static_warp_slot_binding(&self) -> bool {
        matches!(self, ArchGen::Fermi | ArchGen::Kepler)
    }

    /// All four generations, in release order.
    pub const ALL: [ArchGen; 4] = [
        ArchGen::Fermi,
        ArchGen::Kepler,
        ArchGen::Maxwell,
        ArchGen::Pascal,
    ];
}

impl fmt::Display for ArchGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArchGen::Fermi => "Fermi",
            ArchGen::Kepler => "Kepler",
            ArchGen::Maxwell => "Maxwell",
            ArchGen::Pascal => "Pascal",
        };
        f.write_str(s)
    }
}

/// Complete description of a simulated GPU (one row of the paper's Table 1
/// plus the timing parameters inferred from its Figure 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Marketing name, e.g. `"GTX980"`.
    pub name: String,
    /// Architecture generation.
    pub arch: ArchGen,
    /// Compute capability `(major, minor)`.
    pub compute_capability: (u32, u32),
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Warp width (always 32 on NVIDIA hardware).
    pub warp_size: u32,
    /// Hardware warp slots per SM.
    pub warp_slots: u32,
    /// Hardware CTA slots per SM.
    pub cta_slots: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Shared-memory bytes per SM.
    pub smem_per_sm: u32,
    /// Per-SM L1 (or L1/Tex unified) cache.
    pub l1: CacheConfig,
    /// Number of independent L1 sectors. Maxwell/Pascal partition the
    /// unified cache into two sectors private to alternating CTA slots
    /// (paper §3.1-(1)); Fermi/Kepler have a single monolithic L1.
    pub l1_sectors: u32,
    /// Whether global loads are cached in L1 at all (compiler-selectable
    /// on real hardware; the framework's probe toggles this).
    pub l1_enabled: bool,
    /// Device-wide shared L2.
    pub l2: CacheConfig,
    /// Latency/bandwidth model.
    pub timings: MemoryTimings,
}

impl GpuConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a structural parameter is
    /// zero, a cache geometry is inconsistent — for the configured arrays
    /// and for the [`GpuConfig::l1_array`] and [`GpuConfig::l2_bank`]
    /// arrays the engine builds from them — or the L1 line is smaller
    /// than the L2 line (the paper notes L1 lines are always >= L2 lines,
    /// and the transaction accounting relies on it).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_sms == 0 {
            return Err(SimError::InvalidConfig("zero SMs".into()));
        }
        if self.warp_size == 0 || self.warp_slots == 0 || self.cta_slots == 0 {
            return Err(SimError::InvalidConfig("zero execution resources".into()));
        }
        if self.l1_sectors == 0 || !self.l1.size_bytes.is_multiple_of(self.l1_sectors) {
            return Err(SimError::InvalidConfig(format!(
                "L1 capacity {} not divisible into {} sectors",
                self.l1.size_bytes, self.l1_sectors
            )));
        }
        self.l1.validate("L1")?;
        self.l2.validate("L2")?;
        if self.l1.line_bytes < self.l2.line_bytes {
            return Err(SimError::InvalidConfig(format!(
                "L1 line ({}) smaller than L2 line ({})",
                self.l1.line_bytes, self.l2.line_bytes
            )));
        }
        self.timings.validate()?;
        if !self.l2.size_bytes.is_multiple_of(self.timings.l2_banks) {
            return Err(SimError::InvalidConfig(format!(
                "L2 capacity {} not divisible into {} banks",
                self.l2.size_bytes, self.timings.l2_banks
            )));
        }
        self.l1_array().validate("L1 sector array")?;
        self.l2_bank().validate("L2 bank")?;
        Ok(())
    }

    /// The geometry of each of the `l1_sectors` equal arrays an SM's L1
    /// is carved into.
    pub fn l1_array(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.l1.size_bytes.checked_div(self.l1_sectors).unwrap_or(0),
            ..self.l1.clone()
        }
    }

    /// The geometry of each of the `l2_banks` equal arrays the L2 is
    /// carved into.
    pub fn l2_bank(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self
                .l2
                .size_bytes
                .checked_div(self.timings.l2_banks)
                .unwrap_or(0),
            ..self.l2.clone()
        }
    }

    /// Number of L2 transactions generated by one L1 miss: the L1 fetches a
    /// whole L1 line in units of L2 lines (e.g. one 128B Fermi L1 miss is
    /// four 32B L2 read transactions — paper §3.1-(1)).
    pub fn l2_txns_per_l1_miss(&self) -> u32 {
        self.l1.line_bytes / self.l2.line_bytes
    }

    /// Returns a copy with the L1 disabled (all global loads served by L2),
    /// as the framework's cache-line probe does via compiler flags.
    pub fn with_l1_disabled(&self) -> GpuConfig {
        GpuConfig {
            l1_enabled: false,
            ..self.clone()
        }
    }

    /// Returns a copy with a different L1 capacity, modelling the
    /// configurable split between L1 and shared memory on Fermi/Kepler.
    pub fn with_l1_size(&self, size_bytes: u32) -> GpuConfig {
        let mut c = self.clone();
        c.l1.size_bytes = size_bytes;
        c
    }

    /// `cudaFuncCachePreferL1`: on the configurable architectures
    /// (Fermi/Kepler) selects the 48KB-L1 / 16KB-shared split when the
    /// kernel's shared-memory footprint permits; a no-op on Maxwell and
    /// Pascal, whose unified cache is fixed. The total L1+shared storage
    /// stays at 64KB.
    pub fn prefer_l1(&self, smem_per_cta_bytes: u32) -> GpuConfig {
        match self.arch {
            ArchGen::Fermi | ArchGen::Kepler if smem_per_cta_bytes <= 16 * 1024 => {
                let mut c = self.with_l1_size(48 * 1024);
                c.smem_per_sm = 16 * 1024;
                c
            }
            _ => self.clone(),
        }
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, CC {}.{}, {} SMs)",
            self.name,
            self.arch,
            self.compute_capability.0,
            self.compute_capability.1,
            self.num_sms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn presets_validate() {
        for cfg in arch::all_presets() {
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn l2_txn_ratio_matches_paper() {
        assert_eq!(arch::gtx570().l2_txns_per_l1_miss(), 4);
        assert_eq!(arch::tesla_k40().l2_txns_per_l1_miss(), 4);
        assert_eq!(arch::gtx980().l2_txns_per_l1_miss(), 1);
        assert_eq!(arch::gtx1080().l2_txns_per_l1_miss(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = arch::gtx570();
        cfg.num_sms = 0;
        assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));

        let mut cfg = arch::gtx570();
        cfg.l1.line_bytes = 16; // smaller than L2 line
        assert!(cfg.validate().is_err());

        let mut cfg = arch::gtx980();
        cfg.l1.size_bytes = 48 * 1024 + 32; // not divisible into sectors/sets
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cache_config_set_math() {
        let c = CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            associativity: 4,
            mshr_entries: 32,
            write_policy: WritePolicy::WriteEvict,
            sector_bytes: 0,
            aggregated_tags: false,
            index_fn: IndexFn::Hashed,
        };
        assert_eq!(c.num_sets(), 32);
        assert_eq!(c.sectors_per_line(), 1);
        assert_eq!(c.effective_sector_bytes(), 128);
        assert!(c.validate("test").is_ok());
    }

    #[test]
    fn sector_geometry_is_validated() {
        let base = CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            associativity: 4,
            mshr_entries: 32,
            write_policy: WritePolicy::WriteEvict,
            sector_bytes: 32,
            aggregated_tags: false,
            index_fn: IndexFn::Hashed,
        };
        assert!(base.validate("test").is_ok());
        assert_eq!(base.sectors_per_line(), 4);

        let mut c = base.clone();
        c.sector_bytes = 48; // not a power of two
        assert!(c.validate("test").is_err());

        let mut c = base.clone();
        c.sector_bytes = 256; // larger than the line
        assert!(c.validate("test").is_err());

        let mut c = base;
        c.line_bytes = 4096;
        c.size_bytes = 64 * 4096;
        c.sector_bytes = 4; // 1024 sectors: exceeds the u32 mask
        assert!(c.validate("test").is_err());
    }

    #[test]
    fn static_binding_split() {
        assert!(ArchGen::Fermi.static_warp_slot_binding());
        assert!(ArchGen::Kepler.static_warp_slot_binding());
        assert!(!ArchGen::Maxwell.static_warp_slot_binding());
        assert!(!ArchGen::Pascal.static_warp_slot_binding());
    }
}
