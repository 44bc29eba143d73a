//! Set-associative cache model with LRU replacement, MSHR-style
//! outstanding-fill tracking and *hit-reserved* semantics.
//!
//! The paper's Figure 2 shows that in the first turnaround only one CTA per
//! SM actually fetches from DRAM; its siblings *hit reserved*: they match a
//! line whose fill is still in flight and wait for it. This model
//! reproduces that by timestamping fills.
//!
//! The tag and recency state lives in one interleaved slab (`WaySlab`):
//! each set's block holds its tag row followed by its packed 32-bit LRU
//! stamps, padded to a 64-byte multiple and started on a 64-byte boundary,
//! so the hit path's probe + stamp update touch *one* host cache line for
//! assoc ≤ 5 (the 4-way L1) and stay within the tag row's lines for the
//! 16-way L2 banks — previously the separate `lru` slab cost a second
//! cold line per simulated hit. The tag-match scan walks the dense `u64`
//! row in fixed-width chunks of four ways with a branchless compare mask
//! per chunk (every preset associativity is a multiple of four), which
//! the compiler vectorizes. Validity is folded into the tag row
//! ([`INVALID_TAG`]), which is unreachable as a real tag because tags are
//! addresses divided by the line size. Fill/sector state (`fill_done`,
//! `valid`, `dirty`) stays in a parallel slab indexed `set * associativity
//! + way`: the pure hit path never loads it on unsectored geometries.
//!
//! Every access path also tallies [`CacheWork`] counters (tag-compare
//! chunks probed, victim-scan ways examined, valid-line displacements) —
//! the deterministic work model `sim_core --check` pins exactly in place
//! of noisy wall-clock gates.
//!
//! Sector state is packed into per-line `u32` bitmasks (`valid`, `dirty`):
//! a line of a sectored geometry ([`CacheConfig::sector_bytes`]) tracks
//! which sectors hold data and which are dirty with one bit per sector.
//! Unsectored geometries (every preset default) are the one-sector special
//! case — mask `0b1` — and behave bit-identically to line-granular
//! booleans; the golden differential tests pin that.
//!
//! The opt-in [`CacheConfig::aggregated_tags`] variant (ATA-Cache) keeps a
//! compact per-set ghost array of recently evicted tags. Every miss probes
//! it *before* the data state is touched and uses the answer to pick the
//! insertion priority: a ghost hit (recent eviction, reuse predicted)
//! inserts at MRU as usual, a ghost miss inserts LIP-style at the cold end
//! so streaming lines evict each other instead of the working set.

use crate::addrdec::AddrDec;
use crate::config::{CacheConfig, WritePolicy};
use crate::work::CacheWork;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

cta_obs::counters! {
    /// Per-level counters, updated on every access.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Read transactions presented to this level.
        pub reads: u64,
        /// Reads that hit a fully-arrived line.
        pub read_hits: u64,
        /// Reads that hit a line whose fill was still in flight (counted as
        /// hits for hit-rate purposes, but latency extends to the fill).
        pub read_reserved: u64,
        /// Reads that missed and allocated.
        pub read_misses: u64,
        /// Write transactions presented to this level.
        pub writes: u64,
        /// Writes that hit (write-back levels only).
        pub write_hits: u64,
        /// Writes that missed.
        pub write_misses: u64,
        /// Lines invalidated by the write-evict policy.
        pub write_evictions: u64,
        /// Valid lines replaced by an allocating miss (capacity/conflict
        /// evictions; dirty or clean).
        pub evictions: u64,
        /// Dirty lines written back on eviction.
        pub writebacks: u64,
        /// Misses that stalled for a free MSHR entry.
        pub mshr_stalls: u64,
        /// Total cycles spent in MSHR structural stalls.
        pub mshr_wait_cycles: u64,
    }
}

impl CacheStats {
    /// Read hit rate counting reserved hits as hits (profiler convention).
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        (self.read_hits + self.read_reserved) as f64 / self.reads as f64
    }

    /// Evictions of *clean* lines (no writeback traffic). Derived rather
    /// than stored: the struct layout (and its `Debug` repr, which the
    /// golden differential tests hash) stays unchanged.
    pub fn clean_evictions(&self) -> u64 {
        self.evictions - self.writebacks
    }

    /// Evictions of *dirty* lines — each one cost a writeback
    /// transaction. Alias of [`CacheStats::writebacks`], named for the
    /// clean/dirty split it forms with [`CacheStats::clean_evictions`].
    pub fn dirty_evictions(&self) -> u64 {
        self.writebacks
    }
}

/// Opt-in per-set profile, the ground truth the CL3xx set-conflict
/// analysis is machine-checked against. Kept *outside* [`CacheStats`]
/// (whose layout and `Debug` repr the golden differential tests hash)
/// and allocated only when a caller asks for it
/// ([`Cache::enable_set_profile`]), so the packed hot path of an
/// unprofiled run is untouched apart from a predictable `None` branch.
#[derive(Debug, Clone, Default)]
pub struct SetProfile {
    /// Per-set demand-read hits (arrived + reserved — the
    /// [`CacheStats::read_hit_rate`] convention).
    pub read_hits: Vec<u64>,
    /// Per-set demand-read misses, including sector misses on resident
    /// lines.
    pub read_misses: Vec<u64>,
    /// Per-set evictions of valid lines (the install path's
    /// [`CacheStats::evictions`], attributed to sets).
    pub evictions: Vec<u64>,
    /// Per-set distinct tags ever installed (read misses and
    /// write-allocate misses — exactly the install-capable lines the
    /// static model maps to sets).
    installed: Vec<HashSet<u64>>,
}

impl SetProfile {
    fn new(num_sets: usize) -> SetProfile {
        SetProfile {
            read_hits: vec![0; num_sets],
            read_misses: vec![0; num_sets],
            evictions: vec![0; num_sets],
            installed: (0..num_sets).map(|_| HashSet::new()).collect(),
        }
    }

    /// Number of sets profiled.
    pub fn num_sets(&self) -> usize {
        self.read_hits.len()
    }

    /// Distinct tags ever installed into `set` — the measured per-set
    /// footprint the decoder-computed one must match exactly.
    pub fn installed_footprint(&self, set: usize) -> u64 {
        self.installed[set].len() as u64
    }

    /// Merges another array's profile: counters add, installed-tag sets
    /// *union* (a shared line installed by several SMs is one line of
    /// the footprint, not several). Panics if the geometries differ.
    pub fn absorb(&mut self, other: &SetProfile) {
        assert_eq!(self.num_sets(), other.num_sets(), "set-profile geometry");
        for s in 0..self.num_sets() {
            self.read_hits[s] += other.read_hits[s];
            self.read_misses[s] += other.read_misses[s];
            self.evictions[s] += other.evictions[s];
            self.installed[s].extend(other.installed[s].iter().copied());
        }
    }
}

/// Result of presenting a read to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Data present and arrived.
    Hit,
    /// Line allocated but fill still in flight; data usable at `ready_at`.
    HitReserved {
        /// Absolute cycle at which the in-flight fill completes.
        ready_at: u64,
    },
    /// Not present. The caller must fetch from the next level and then
    /// call [`Cache::fill`].
    Miss {
        /// Extra cycles the request waited for a free MSHR before it could
        /// even be sent downstream (0 when MSHRs were available).
        mshr_wait: u64,
        /// Whether a dirty victim was evicted (write-back levels: the
        /// caller must account a writeback transaction).
        dirty_victim: bool,
    },
}

/// Result of presenting a write to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Write-evict level: the line (if present) was invalidated and the
    /// write must be forwarded downstream.
    Forwarded {
        /// Whether a matching line was evicted (cross-CTA write-related
        /// locality destruction, paper Fig. 4-(D)).
        evicted: bool,
    },
    /// Write-back level: absorbed by a present line (marked dirty).
    Absorbed,
    /// Write-back level: write-allocate fetched the line; the caller must
    /// account a read from the next level and call [`Cache::fill`].
    AllocateMiss {
        /// Whether a dirty victim was evicted.
        dirty_victim: bool,
    },
}

/// Tag-slab sentinel marking an invalid way. Unreachable as a real tag:
/// tags are `line_addr / line_bytes` with `line_bytes >= 32`, so real
/// tags never exceed `u64::MAX / 32`.
const INVALID_TAG: u64 = u64::MAX;

/// Fill-memo sentinel: no way is awaiting a fill.
const NO_WAY: u32 = u32::MAX;

/// LRU stamp of a LIP-style cold insert (aggregated-tag mode): below any
/// live line's stamp, so an un-retouched cold line is the next victim,
/// while still ranking above empty ways in the `(valid, lru)` order.
const COLD_STAMP: u32 = 1;

/// Per-way fill/sector state, packed into one 16-byte record so a probe
/// that needs any of it takes one cache-line touch instead of three.
/// Kept out of the interleaved [`WaySlab`]: the pure hit path of an
/// unsectored geometry never loads it, and widening every set block by
/// 16 bytes per way would push the 4-way L1's probe+stamp block past one
/// host cache line.
#[derive(Debug, Clone, Copy, Default)]
struct WayState {
    /// Fill-completion cycle; `u64::MAX` while the allocating miss has
    /// not been [`Cache::fill`]ed yet. Line-level: concurrent sector
    /// fills merge conservatively onto the latest horizon.
    fill_done: u64,
    /// Sector-valid bitmask: which sectors hold data (arrived or in
    /// flight). Meaningful only while the tag is valid.
    valid: u32,
    /// Sector-dirty bitmask (write-back levels).
    dirty: u32,
}

/// Interleaved per-set tag + recency storage — the "one-line hit path".
///
/// Each set owns a block of `stride` consecutive `u64` words: `assoc` tag
/// words, then `ceil(assoc/2)` words of packed 32-bit LRU stamps (way `w`
/// lives in the low or high half of word `assoc + w/2`), padded to a
/// multiple of 8 words. The backing slice is over-allocated by 7 words
/// and the first block starts at the first 64-byte boundary, so every
/// block is 64-byte aligned without any unsafe aliasing tricks. An
/// assoc-4 set (the L1 preset) is 8 words = exactly one host cache line
/// for the probe *and* the stamp write; the 16-way L2 banks take 24
/// words, with each way's stamp word on the same lines as its tag row
/// instead of in a separate megabyte-scale `lru` slab.
#[derive(Debug)]
struct WaySlab {
    buf: Box<[u64]>,
    /// Word index of set 0's block (aligns `buf` to a 64-byte boundary).
    first: usize,
    /// Words per set block.
    stride: usize,
    assoc: usize,
    sets: usize,
}

impl WaySlab {
    fn new(sets: usize, assoc: usize) -> WaySlab {
        let stride = (assoc + assoc.div_ceil(2)).next_multiple_of(8);
        let buf = vec![0u64; sets * stride + 7].into_boxed_slice();
        let first = buf.as_ptr().align_offset(64);
        assert!(first <= 7, "u64 allocations are 8-byte aligned");
        let mut slab = WaySlab {
            buf,
            first,
            stride,
            assoc,
            sets,
        };
        slab.reset();
        slab
    }

    /// Invalidates every tag and zeroes every stamp.
    fn reset(&mut self) {
        self.buf.fill(0);
        for set in 0..self.sets {
            let b = self.first + set * self.stride;
            self.buf[b..b + self.assoc].fill(INVALID_TAG);
        }
    }

    /// First word of the set's block.
    #[inline]
    fn block(&self, set: usize) -> usize {
        self.first + set * self.stride
    }

    #[inline]
    fn tag_row(&self, block: usize) -> &[u64] {
        &self.buf[block..block + self.assoc]
    }

    #[inline]
    fn tag(&self, block: usize, way: usize) -> u64 {
        self.buf[block + way]
    }

    #[inline]
    fn set_tag(&mut self, block: usize, way: usize, tag: u64) {
        self.buf[block + way] = tag;
    }

    #[inline]
    fn lru(&self, block: usize, way: usize) -> u32 {
        (self.buf[block + self.assoc + (way >> 1)] >> ((way & 1) * 32)) as u32
    }

    #[inline]
    fn set_lru(&mut self, block: usize, way: usize, stamp: u32) {
        let word = &mut self.buf[block + self.assoc + (way >> 1)];
        let shift = (way & 1) * 32;
        *word = (*word & !(0xFFFF_FFFFu64 << shift)) | ((stamp as u64) << shift);
    }
}

impl Clone for WaySlab {
    fn clone(&self) -> WaySlab {
        // A cloned allocation can land at a different 64-byte phase, so
        // copy block-by-block instead of deriving `Clone` (which would
        // reuse `first` against the wrong base address).
        let mut new = WaySlab::new(self.sets, self.assoc);
        for set in 0..self.sets {
            let src = self.block(set);
            let dst = new.block(set);
            new.buf[dst..dst + self.stride].copy_from_slice(&self.buf[src..src + self.stride]);
        }
        new
    }
}

/// Way holding `tag` within a set's tag row, if resident. A tag match
/// implies validity ([`INVALID_TAG`] never equals a real tag).
///
/// Two scan strategies by row width. Narrow rows (the 4-way L1, where
/// hits land a compare or two in) use a plain early-exit scan. Wide rows
/// (the 16-way L2 banks) use a fixed-width chunked scan: four ways per
/// step, compare results packed into a branchless match mask — one
/// predictable branch per chunk instead of an unpredictable one per way,
/// and a shape the compiler vectorizes. The scan itself carries no
/// instrumentation: the work model's chunk tally is derived arithmetically
/// from the outcome by [`scan_chunks`], keeping the hottest loop in the
/// simulator byte-identical to its uncounted form.
#[inline]
fn scan_row(row: &[u64], tag: u64) -> Option<usize> {
    if row.len() <= 4 {
        return row.iter().position(|&t| t == tag);
    }
    let mut i = 0;
    while i + 4 <= row.len() {
        let m = (row[i] == tag) as u32
            | (((row[i + 1] == tag) as u32) << 1)
            | (((row[i + 2] == tag) as u32) << 2)
            | (((row[i + 3] == tag) as u32) << 3);
        if m != 0 {
            return Some(i + m.trailing_zeros() as usize);
        }
        i += 4;
    }
    while i < row.len() {
        if row[i] == tag {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Number of tag-compare chunks a [`scan_row`] over `len` ways walked to
/// produce `way` (the [`CacheWork::tag_chunks`] unit), reconstructed from
/// the outcome instead of counted in the loop. Narrow rows are one chunk.
/// Wide rows count one chunk per 4-way group examined — a hit in group `g`
/// examined `g + 1` groups (the remainder tail, if entered, is the last
/// "group"), a miss examined them all.
#[inline]
fn scan_chunks(len: usize, way: Option<usize>) -> u64 {
    if len <= 4 {
        return 1;
    }
    match way {
        Some(w) => (w / 4 + 1) as u64,
        None => (len / 4 + usize::from(!len.is_multiple_of(4))) as u64,
    }
}

/// A single set-associative cache array (one L1 sector, or one L2 bank).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag/set/sector field extraction (shared hash model with the
    /// device-level bank/channel interleave).
    dec: AddrDec,
    assoc: usize,
    /// Sector mask covering every sector of a line (`0b1` unsectored).
    full_mask: u32,
    /// Interleaved per-set tags and packed LRU stamps (see [`WaySlab`]).
    /// Tags use [`INVALID_TAG`] for empty ways. Stamps are the low 32
    /// bits of [`tick`]; recency comparisons use wraparound-safe ages,
    /// `tick.wrapping_sub(stamp)`, so ordering survives a 32-bit rollover
    /// as long as the live stamps span less than 2^32 ticks — guaranteed
    /// trivially while `tick < u32::MAX`, which a debug assertion pins
    /// for every simulated run. Invalidation (write-evict) keeps the
    /// stamp, so a recently-invalidated way is a *worse* victim than a
    /// never-used one — matching LRU over `(valid, lru)` pairs.
    ///
    /// [`tick`]: Cache::tick
    ways: WaySlab,
    /// Per-way fill and sector state (see [`WayState`]).
    state: Box<[WayState]>,
    tick: u64,
    /// Completion times of outstanding fills (MSHR occupancy), min-first.
    /// Pruned lazily: retired entries linger until a miss actually finds
    /// the heap at capacity, which is the only moment occupancy matters.
    inflight: BinaryHeap<Reverse<u64>>,
    /// Set of the most recent allocation awaiting its fill (meaningful
    /// only while `last_fill_way != NO_WAY`).
    last_fill_set: u32,
    /// Way of the most recent allocation awaiting its fill. The engine
    /// always fills the miss it just took, so [`Cache::fill`] checks
    /// here before falling back to a tag scan.
    last_fill_way: u32,
    /// Ghost-tag array (aggregated-tag mode): per set, the last `assoc`
    /// evicted tags in a ring. Empty unless `cfg.aggregated_tags`.
    ghost_tags: Box<[u64]>,
    /// Per-set ring cursors into `ghost_tags`.
    ghost_cur: Box<[u32]>,
    /// Ghost probes performed (== misses taken in aggregated-tag mode).
    ata_probes: u64,
    /// Ghost probes that matched a recently evicted tag.
    ata_hits: u64,
    /// Opt-in per-set profile (see [`SetProfile`]); `None` — and off the
    /// hot path — unless [`Cache::enable_set_profile`] was called.
    profile: Option<Box<SetProfile>>,
    /// Deterministic work-model counters (see [`CacheWork`]).
    work: CacheWork,
    /// Observable counters.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate; construct configs through
    /// [`CacheConfig::validate`]-checked paths.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate("cache").expect("valid cache config");
        let num_sets = cfg.num_sets() as u64;
        let assoc = cfg.associativity as usize;
        let lines = (num_sets as usize) * assoc;
        let sectors = cfg.sectors_per_line();
        let (ghost_tags, ghost_cur) = if cfg.aggregated_tags {
            (
                vec![INVALID_TAG; lines].into_boxed_slice(),
                vec![0; num_sets as usize].into_boxed_slice(),
            )
        } else {
            (Box::default(), Box::default())
        };
        Cache {
            dec: AddrDec::for_cache_indexed(
                cfg.line_bytes,
                cfg.effective_sector_bytes(),
                num_sets,
                cfg.index_fn,
            ),
            assoc,
            full_mask: (((1u64 << sectors) - 1) & u32::MAX as u64) as u32,
            ways: WaySlab::new(num_sets as usize, assoc),
            state: vec![WayState::default(); lines].into_boxed_slice(),
            cfg,
            tick: 0,
            inflight: BinaryHeap::new(),
            last_fill_set: 0,
            last_fill_way: NO_WAY,
            ghost_tags,
            ghost_cur,
            ata_probes: 0,
            ata_hits: 0,
            profile: None,
            work: CacheWork::default(),
            stats: CacheStats::default(),
        }
    }

    /// Turns on per-set profiling (idempotent). Existing contents and
    /// stats are unaffected; profiling only observes accesses made after
    /// the call, so enable it before the first access.
    pub fn enable_set_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(SetProfile::new(self.cfg.num_sets() as usize)));
        }
    }

    /// The per-set profile, if profiling was enabled.
    pub fn set_profile(&self) -> Option<&SetProfile> {
        self.profile.as_deref()
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The decoder this array indexes through.
    pub fn decoder(&self) -> &AddrDec {
        &self.dec
    }

    /// Aggregated-tag probe counters `(probes, hits)`; both zero unless
    /// the cache runs with [`CacheConfig::aggregated_tags`].
    pub fn ata_counters(&self) -> (u64, u64) {
        (self.ata_probes, self.ata_hits)
    }

    /// Work-model counters this array accumulated (see [`CacheWork`]).
    pub fn work(&self) -> CacheWork {
        self.work
    }

    /// Set index of a line, using multiplicative (Fibonacci) hashing as a
    /// model of the address swizzling in real GPU L1/L2 arrays. Plain
    /// modulo indexing collapses the power-of-two row strides that
    /// dense-matrix kernels produce onto a handful of sets; NVIDIA
    /// hardware hashes higher address bits into the index to avoid
    /// exactly that pathology. Power-of-two set counts (every preset
    /// geometry) reduce the final modulo to a mask.
    #[inline]
    pub fn set_index(&self, line_addr: u64) -> u64 {
        self.dec.set_of_tag(self.dec.tag(line_addr))
    }

    /// Counted tag probe: way holding `tag` in `set`'s row (if resident),
    /// with the chunks walked tallied into the work model.
    #[inline]
    fn find(&mut self, block: usize, tag: u64) -> Option<usize> {
        let way = scan_row(self.ways.tag_row(block), tag);
        self.work.tag_chunks += scan_chunks(self.assoc, way);
        way
    }

    fn prune_inflight(&mut self, now: u64) {
        while let Some(&Reverse(t)) = self.inflight.peek() {
            if t > now {
                break;
            }
            self.inflight.pop();
        }
    }

    /// Admits a miss to the MSHRs, returning the structural-stall wait.
    /// Retired fills are only pruned when the heap is nominally at
    /// capacity: an under-capacity heap admits immediately whether or not
    /// stale entries linger, so the outcomes are identical to eager
    /// pruning.
    fn mshr_admit(&mut self, now: u64) -> u64 {
        let cap = self.cfg.mshr_entries as usize;
        if self.inflight.len() >= cap {
            self.prune_inflight(now);
        }
        if self.inflight.len() < cap {
            return 0;
        }
        // Structural stall: the request waits for the earliest
        // in-flight fill to retire and reuses its entry. The entry is
        // popped (it has completed by the time the request proceeds),
        // and the wait is bounded by one fill horizon so a burst of
        // same-cycle misses shares the stall rather than chaining it
        // (real hardware replays the instruction, it does not build an
        // unbounded queue in front of the MSHRs).
        let Reverse(earliest) = self.inflight.pop().expect("nonempty inflight");
        // Drain everything that retires alongside it.
        while let Some(&Reverse(t)) = self.inflight.peek() {
            if t > earliest {
                break;
            }
            self.inflight.pop();
        }
        let wait = earliest.saturating_sub(now);
        self.stats.mshr_stalls += 1;
        self.stats.mshr_wait_cycles += wait;
        wait
    }

    /// Presents a read of the line containing `line_addr` (already
    /// line-aligned by the coalescer), touching every sector.
    #[inline]
    pub fn read(&mut self, line_addr: u64, now: u64) -> ReadOutcome {
        self.read_sectors(line_addr, self.full_mask, now)
    }

    /// Presents a read of the given sectors of a line. `sectors` must be
    /// a nonempty subset of the line's sector mask. On unsectored
    /// geometries the only valid mask is `0b1`, and this is identical to
    /// [`Cache::read`].
    #[inline]
    pub fn read_sectors(&mut self, line_addr: u64, sectors: u32, now: u64) -> ReadOutcome {
        debug_assert!(sectors != 0 && sectors & !self.full_mask == 0);
        self.stats.reads += 1;
        self.tick += 1;
        debug_assert!(self.tick < u32::MAX as u64, "LRU stamp space exhausted");
        let tick = self.tick;
        let (tag, set) = self.dec.tag_and_set(line_addr);
        let block = self.ways.block(set);
        if let Some(w) = self.find(block, tag) {
            self.ways.set_lru(block, w, tick as u32);
            let i = set * self.assoc + w;
            // The sector-state load is skipped entirely on unsectored
            // geometries (every resident line is whole, the short-circuit
            // keeps the `valid` slab off the hit path).
            if self.full_mask != 0b1 && sectors & !self.state[i].valid != 0 {
                // Sector miss on a resident line: the tag match spares
                // the eviction, but the absent sectors must be fetched.
                // The line's fill horizon conservatively extends to the
                // new fill.
                self.stats.read_misses += 1;
                if let Some(p) = self.profile.as_deref_mut() {
                    p.read_misses[set] += 1;
                }
                let mshr_wait = self.mshr_admit(now);
                self.state[i].valid |= sectors;
                self.state[i].fill_done = u64::MAX;
                self.last_fill_set = set as u32;
                self.last_fill_way = w as u32;
                return ReadOutcome::Miss {
                    mshr_wait,
                    dirty_victim: false,
                };
            }
            if let Some(p) = self.profile.as_deref_mut() {
                p.read_hits[set] += 1;
            }
            if self.state[i].fill_done > now {
                self.stats.read_reserved += 1;
                return ReadOutcome::HitReserved {
                    ready_at: self.state[i].fill_done,
                };
            }
            self.stats.read_hits += 1;
            return ReadOutcome::Hit;
        }
        // Miss: check MSHR availability, then pick a victim.
        self.stats.read_misses += 1;
        if let Some(p) = self.profile.as_deref_mut() {
            p.read_misses[set] += 1;
        }
        let mshr_wait = self.mshr_admit(now);
        let (_, dirty_victim) = self.install(set, tag, tick, sectors);
        ReadOutcome::Miss {
            mshr_wait,
            dirty_victim,
        }
    }

    /// Installs `tag` into `set` with the given sectors pending,
    /// returning the claimed way and whether a dirty line was evicted.
    /// The victim is the first way maximizing `(empty, age)` with
    /// `age = tick - stamp` wraparound-safe — empty ways first (oldest
    /// stamp winning), then true LRU; identical to minimizing
    /// `(valid, lru)` while stamps fit the tick counter.
    fn install(&mut self, set: usize, tag: u64, tick: u64, sectors: u32) -> (usize, bool) {
        let block = self.ways.block(set);
        let now = tick as u32;
        // Victim ranking packed into one integer per way — empty bit above
        // the 32-bit wraparound-safe age — so "better victim" is a plain
        // `>` and the scan compiles to conditional moves instead of a
        // data-dependent branch per way (LRU stamps are close to random,
        // so that branch mispredicted constantly). First tie wins, and the
        // scan never exits early, which is outcome-identical: the packed
        // order equals the old `(empty, age)` lexicographic order, and the
        // only early exit the old loop took was on a key nothing later
        // could strictly beat.
        let key = |w: usize| {
            let empty = (self.ways.tag(block, w) == INVALID_TAG) as u64;
            let age = now.wrapping_sub(self.ways.lru(block, w)) as u64;
            (empty << 32) | age
        };
        let mut victim = 0;
        let mut best = key(0);
        for w in 1..self.assoc {
            let k = key(w);
            if k > best {
                best = k;
                victim = w;
            }
        }
        self.work.victim_ways += self.assoc as u64;
        // Aggregated-tag mode: probe the compact ghost array *before*
        // touching any data state, then record the eviction in it.
        let stamp = if self.cfg.aggregated_tags {
            self.ata_stamp(set, tag, now)
        } else {
            now
        };
        let victim_tag = self.ways.tag(block, victim);
        let was_valid = victim_tag != INVALID_TAG;
        let vi = set * self.assoc + victim;
        let dirty_victim = was_valid && self.state[vi].dirty != 0;
        if was_valid {
            self.stats.evictions += 1;
            self.work.set_conflicts += 1;
            if let Some(p) = self.profile.as_deref_mut() {
                p.evictions[set] += 1;
            }
            if self.cfg.aggregated_tags {
                self.ghost_push(set, victim_tag);
            }
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.installed[set].insert(tag);
        }
        if dirty_victim {
            self.stats.writebacks += 1;
        }
        self.ways.set_tag(block, victim, tag);
        self.state[vi] = WayState {
            fill_done: u64::MAX, // in flight until `fill` is called
            valid: sectors,
            dirty: 0,
        };
        self.ways.set_lru(block, victim, stamp);
        self.last_fill_set = set as u32;
        self.last_fill_way = victim as u32;
        (victim, dirty_victim)
    }

    /// Ghost probe for an incoming tag: a hit predicts reuse (the tag was
    /// evicted recently) and earns an MRU insert; a miss demotes the
    /// insert to the cold end (LIP), so one-touch streams displace each
    /// other instead of the resident working set.
    fn ata_stamp(&mut self, set: usize, tag: u64, tick: u32) -> u32 {
        self.ata_probes += 1;
        let base = set * self.assoc;
        if self.ghost_tags[base..base + self.assoc].contains(&tag) {
            self.ata_hits += 1;
            tick
        } else {
            COLD_STAMP
        }
    }

    /// Records an evicted tag in the set's ghost ring.
    fn ghost_push(&mut self, set: usize, tag: u64) {
        let cur = self.ghost_cur[set] as usize;
        self.ghost_tags[set * self.assoc + cur] = tag;
        self.ghost_cur[set] = ((cur + 1) % self.assoc) as u32;
    }

    /// Completes the fill started by a previous `Miss`, making the line's
    /// data available at absolute cycle `ready_at`. The common case — the
    /// engine fills the miss it just took — resolves through the one-entry
    /// install memo instead of a tag scan.
    #[inline]
    pub fn fill(&mut self, line_addr: u64, ready_at: u64) {
        let tag = self.dec.tag(line_addr);
        let memo_way = self.last_fill_way;
        let memo_set = self.last_fill_set as usize;
        if memo_way != NO_WAY && self.ways.tag(self.ways.block(memo_set), memo_way as usize) == tag
        {
            // A way holding `tag` is unique device-wide (the tag is the
            // full line number and determines its set), so the memo hit
            // names the same way a scan would find.
            self.state[memo_set * self.assoc + memo_way as usize].fill_done = ready_at;
        } else {
            let set = self.dec.set_of_tag(tag) as usize;
            let block = self.ways.block(set);
            if let Some(w) = self.find(block, tag) {
                self.state[set * self.assoc + w].fill_done = ready_at;
            }
        }
        self.inflight.push(Reverse(ready_at));
    }

    /// Presents a write of the line containing `line_addr`, touching
    /// every sector.
    #[inline]
    pub fn write(&mut self, line_addr: u64, now: u64) -> WriteOutcome {
        self.write_sectors(line_addr, self.full_mask, now)
    }

    /// Presents a write of the given sectors of a line.
    #[inline]
    pub fn write_sectors(&mut self, line_addr: u64, sectors: u32, _now: u64) -> WriteOutcome {
        debug_assert!(sectors != 0 && sectors & !self.full_mask == 0);
        self.stats.writes += 1;
        self.tick += 1;
        debug_assert!(self.tick < u32::MAX as u64, "LRU stamp space exhausted");
        let tick = self.tick;
        let (tag, set) = self.dec.tag_and_set(line_addr);
        let block = self.ways.block(set);
        match self.cfg.write_policy {
            WritePolicy::WriteEvict => {
                let evicted = if let Some(w) = self.find(block, tag) {
                    // Invalidate but keep the LRU stamp: the way ranks
                    // behind never-used ways for the next victim choice.
                    self.ways.set_tag(block, w, INVALID_TAG);
                    self.stats.write_evictions += 1;
                    true
                } else {
                    false
                };
                WriteOutcome::Forwarded { evicted }
            }
            WritePolicy::WriteBackAllocate => {
                if let Some(w) = self.find(block, tag) {
                    // The write itself fills any absent sectors it
                    // covers (no fetch needed for fully overwritten
                    // sectors); in-flight lines absorb the write too,
                    // the merge happens when the fill arrives. Unsectored
                    // lines are always whole, so the `valid` update is
                    // skipped with the slab load.
                    let i = set * self.assoc + w;
                    if self.full_mask != 0b1 {
                        self.state[i].valid |= sectors;
                    }
                    self.state[i].dirty |= sectors;
                    self.ways.set_lru(block, w, tick as u32);
                    self.stats.write_hits += 1;
                    return WriteOutcome::Absorbed;
                }
                self.stats.write_misses += 1;
                let (w, dirty_victim) = self.install(set, tag, tick, sectors);
                // Mark dirty immediately: the allocate fetch is accounted by
                // the caller, after which the line holds the merged write.
                self.state[set * self.assoc + w].dirty = sectors;
                WriteOutcome::AllocateMiss { dirty_victim }
            }
        }
    }

    /// Whether the line is currently resident with arrived data in every
    /// sector (test and probe helper; does not touch LRU state or
    /// statistics).
    pub fn probe(&self, line_addr: u64, now: u64) -> bool {
        let (tag, set) = self.dec.tag_and_set(line_addr);
        let way = scan_row(self.ways.tag_row(self.ways.block(set)), tag);
        way.is_some_and(|w| {
            let i = set * self.assoc + w;
            self.state[i].fill_done <= now && self.state[i].valid & self.full_mask == self.full_mask
        })
    }

    /// Invalidates all contents and outstanding fills; statistics are kept.
    pub fn flush(&mut self) {
        self.ways.reset();
        self.state.fill(WayState::default());
        self.ghost_tags.fill(INVALID_TAG);
        self.ghost_cur.fill(0);
        self.inflight.clear();
        self.last_fill_way = NO_WAY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: WritePolicy) -> CacheConfig {
        CacheConfig {
            size_bytes: 1024, // 4 sets x 2 ways x 128B
            line_bytes: 128,
            associativity: 2,
            mshr_entries: 2,
            write_policy: policy,
            sector_bytes: 0,
            aggregated_tags: false,
            index_fn: crate::config::IndexFn::Hashed,
        }
    }

    fn small(policy: WritePolicy) -> Cache {
        Cache::new(config(policy))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small(WritePolicy::WriteEvict);
        assert!(matches!(c.read(0, 0), ReadOutcome::Miss { .. }));
        c.fill(0, 100);
        // Before the fill arrives: hit-reserved.
        assert_eq!(c.read(0, 50), ReadOutcome::HitReserved { ready_at: 100 });
        // After: plain hit.
        assert_eq!(c.read(0, 200), ReadOutcome::Hit);
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_reserved, 1);
        assert_eq!(c.stats.read_misses, 1);
    }

    /// First n line addresses colliding with line 0's set.
    fn colliding(c: &Cache, n: usize) -> Vec<u64> {
        let target = c.set_index(0);
        (1u64..)
            .map(|i| i * 128)
            .filter(|&a| c.set_index(a) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small(WritePolicy::WriteEvict);
        let peers = colliding(&c, 2);
        c.read(0, 0);
        c.fill(0, 0);
        for &a in &peers {
            assert!(matches!(c.read(a, 1), ReadOutcome::Miss { .. }));
            c.fill(a, 1);
        }
        // Line 0 was LRU in a 2-way set and must be gone; peers remain.
        assert!(!c.probe(0, 10));
        assert!(c.probe(peers[0], 10));
        assert!(c.probe(peers[1], 10));
        // Only the replacement of line 0 displaced valid data.
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.stats.clean_evictions(), 1);
        assert_eq!(c.stats.dirty_evictions(), 0);
    }

    #[test]
    fn hashing_spreads_power_of_two_strides() {
        // 256 lines at a 1KB stride (the dense-matrix row stride that
        // collapses onto 4 sets under modulo indexing) must spread over
        // every set under XOR hashing.
        let c = Cache::new(CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            associativity: 4,
            mshr_entries: 32,
            write_policy: WritePolicy::WriteEvict,
            sector_bytes: 0,
            aggregated_tags: false,
            index_fn: crate::config::IndexFn::Hashed,
        });
        let mut sets = std::collections::BTreeSet::new();
        for r in 0..256u64 {
            sets.insert(c.set_index(r * 1024));
        }
        assert!(sets.len() >= 16, "only {} sets used", sets.len());
    }

    #[test]
    fn masked_set_index_matches_modulo() {
        // Every preset geometry has power-of-two sets, so the hot path
        // uses the mask; it must agree with the generic modulo on a dense
        // address sweep.
        let c = small(WritePolicy::WriteEvict);
        let num_sets = c.cfg.num_sets() as u64;
        assert!(num_sets.is_power_of_two());
        for a in (0..4096u64).map(|i| i * 128) {
            let ln = a / c.cfg.line_bytes as u64;
            let h = ln.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            assert_eq!(c.set_index(a), h % num_sets);
            assert!(c.set_index(a) < num_sets);
        }
    }

    #[test]
    fn write_evict_invalidates() {
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0);
        c.fill(0, 0);
        assert!(c.probe(0, 1));
        assert_eq!(c.write(0, 1), WriteOutcome::Forwarded { evicted: true });
        assert!(!c.probe(0, 2));
        // Write to an absent line forwards without eviction.
        assert_eq!(c.write(4096, 2), WriteOutcome::Forwarded { evicted: false });
        assert_eq!(c.stats.write_evictions, 1);
    }

    #[test]
    fn invalidated_way_ranks_behind_untouched_ways() {
        // After a write-evict invalidation, the way keeps its LRU stamp:
        // the next install in that set must prefer a never-used way (lru
        // 0) over the freshly-invalidated one.
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0); // occupies one way of set(0)
        c.fill(0, 0);
        c.write(0, 1); // invalidates it, keeping its stamp
        let peer = colliding(&c, 1)[0];
        c.read(peer, 2); // installs into the *other* (never-used) way
        c.fill(peer, 2);
        c.read(0, 3); // refetch line 0: must not displace the peer
        c.fill(0, 3);
        assert!(c.probe(peer, 10));
        assert!(c.probe(0, 10));
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn write_back_allocates_and_writes_back() {
        let mut c = small(WritePolicy::WriteBackAllocate);
        let peers = colliding(&c, 2);
        assert!(matches!(c.write(0, 0), WriteOutcome::AllocateMiss { .. }));
        c.fill(0, 0);
        assert_eq!(c.write(0, 1), WriteOutcome::Absorbed);
        // Evicting the dirty line reports a dirty victim.
        for (i, &a) in peers.iter().enumerate() {
            match c.read(a, 2) {
                ReadOutcome::Miss { dirty_victim, .. } if i == 1 => assert!(dirty_victim),
                ReadOutcome::Miss { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            c.fill(a, 2);
        }
        assert_eq!(c.stats.writebacks, 1);
        assert_eq!(c.stats.dirty_evictions(), 1);
        assert_eq!(c.stats.clean_evictions(), c.stats.evictions - 1);
    }

    #[test]
    fn mshr_saturation_delays() {
        let mut c = small(WritePolicy::WriteEvict);
        // Two fills in flight (mshr_entries = 2).
        c.read(0, 0);
        c.fill(0, 500);
        c.read(128, 0);
        c.fill(128, 600);
        // Third distinct miss at t=10 must wait for the earliest fill (500).
        match c.read(256, 10) {
            ReadOutcome::Miss { mshr_wait, .. } => assert_eq!(mshr_wait, 490),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lazy_inflight_pruning_matches_eager() {
        let mut c = small(WritePolicy::WriteEvict);
        // Two fills that retire early; a later miss at capacity must see
        // them as retired (pruned on demand) and pay no stall.
        c.read(0, 0);
        c.fill(0, 5);
        c.read(128, 0);
        c.fill(128, 6);
        match c.read(256, 100) {
            ReadOutcome::Miss { mshr_wait, .. } => assert_eq!(mshr_wait, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats.mshr_stalls, 0);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0);
        c.fill(0, 0);
        c.flush();
        assert!(!c.probe(0, 1));
        assert_eq!(c.stats.read_misses, 1);
    }

    #[test]
    fn hit_rate_counts_reserved() {
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0);
        c.fill(0, 100);
        c.read(0, 10);
        c.read(0, 200);
        assert!((c.stats.read_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fill_memo_survives_interleaved_misses() {
        // A fill issued after *another* line's miss overwrote the memo
        // must still land via the tag-scan fallback.
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0); // memo -> way of line 0
        c.read(4096, 0); // different set; memo -> way of line 4096
        c.fill(0, 70); // memo mismatch, fallback scan
        c.fill(4096, 80); // memo hit
        assert_eq!(c.read(0, 100), ReadOutcome::Hit);
        assert_eq!(c.read(4096, 100), ReadOutcome::Hit);
        assert_eq!(c.read(0, 60), ReadOutcome::HitReserved { ready_at: 70 });
    }

    fn sectored(policy: WritePolicy) -> Cache {
        Cache::new(CacheConfig {
            sector_bytes: 32, // 4 sectors per 128B line
            ..config(policy)
        })
    }

    #[test]
    fn sector_miss_fetches_without_eviction() {
        let mut c = sectored(WritePolicy::WriteBackAllocate);
        // Touch sector 0 only.
        assert!(matches!(
            c.read_sectors(0, 0b0001, 0),
            ReadOutcome::Miss { .. }
        ));
        c.fill(0, 10);
        assert_eq!(c.read_sectors(0, 0b0001, 20), ReadOutcome::Hit);
        // Sector 2 of the same line: tag hit, sector miss — a miss with
        // no victim, not an eviction.
        match c.read_sectors(0, 0b0100, 21) {
            ReadOutcome::Miss { dirty_victim, .. } => assert!(!dirty_victim),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats.evictions, 0);
        assert_eq!(c.stats.read_misses, 2);
        c.fill(0, 40);
        assert_eq!(c.read_sectors(0, 0b0101, 50), ReadOutcome::Hit);
        // The full line is resident only once every sector is valid.
        assert!(!c.probe(0, 60));
        c.read_sectors(0, 0b1010, 60);
        c.fill(0, 70);
        assert!(c.probe(0, 80));
    }

    #[test]
    fn writes_fill_the_sectors_they_cover() {
        let mut c = sectored(WritePolicy::WriteBackAllocate);
        assert!(matches!(
            c.write_sectors(0, 0b0011, 0),
            WriteOutcome::AllocateMiss { .. }
        ));
        c.fill(0, 5);
        // The written sectors are valid without a demand fetch.
        assert_eq!(c.read_sectors(0, 0b0011, 10), ReadOutcome::Hit);
        // An untouched sector still misses.
        assert!(matches!(
            c.read_sectors(0, 0b1000, 11),
            ReadOutcome::Miss { .. }
        ));
    }

    #[test]
    fn unsectored_default_has_one_sector() {
        let c = small(WritePolicy::WriteEvict);
        assert_eq!(c.full_mask, 0b1);
        assert_eq!(c.dec.sectors_per_line(), 1);
        let s = sectored(WritePolicy::WriteEvict);
        assert_eq!(s.full_mask, 0b1111);
    }

    fn ata(assoc: u32) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: assoc * 128, // a single set
            line_bytes: 128,
            associativity: assoc,
            mshr_entries: 32,
            write_policy: WritePolicy::WriteEvict,
            sector_bytes: 0,
            aggregated_tags: true,
            index_fn: crate::config::IndexFn::Hashed,
        })
    }

    #[test]
    fn ata_cold_inserts_protect_the_working_set() {
        // Fill a 4-way set with a working set, then stream 64 one-touch
        // lines through it. LIP insertion makes the streaming lines evict
        // each other: the working set must survive.
        let mut c = ata(4);
        let ws: Vec<u64> = (0..4u64).map(|i| i * 128).collect();
        for &a in &ws {
            c.read(a, 0);
            c.fill(a, 0);
        }
        // Re-touch to give the working set fresh MRU stamps.
        for &a in &ws {
            assert_eq!(c.read(a, 10), ReadOutcome::Hit);
        }
        for i in 0..64u64 {
            c.read((100 + i) * 128, 20);
            c.fill((100 + i) * 128, 20);
        }
        let survivors = ws.iter().filter(|&&a| c.probe(a, 100)).count();
        assert_eq!(survivors, 3, "only one way is sacrificed to the stream");
        let (probes, hits) = c.ata_counters();
        assert_eq!(probes, 68, "every miss probes the ghost array");
        assert!(hits < probes);
    }

    #[test]
    fn ata_ghost_hit_restores_mru_insertion() {
        // Evict a line, then refetch it: the ghost array remembers the
        // tag, so the refetch enters at MRU and survives a later stream.
        let mut c = ata(2);
        c.read(0, 0);
        c.fill(0, 0);
        c.read(128, 0);
        c.fill(128, 0);
        c.read(256, 1); // evicts one way -> ghost remembers it
        c.fill(256, 1);
        let (_, hits_before) = c.ata_counters();
        // Refetch whichever line was evicted.
        let evicted = if c.probe(0, 2) { 128 } else { 0 };
        c.read(evicted, 3);
        c.fill(evicted, 3);
        let (_, hits_after) = c.ata_counters();
        assert_eq!(hits_after, hits_before + 1, "refetch hits the ghost");
        // A later cold line must not displace the ghost-promoted one.
        c.read(512, 4);
        c.fill(512, 4);
        assert!(c.probe(evicted, 10));
    }

    #[test]
    fn ata_off_is_untouched_by_default() {
        let c = small(WritePolicy::WriteEvict);
        assert_eq!(c.ata_counters(), (0, 0));
        assert!(c.ghost_tags.is_empty());
    }

    #[test]
    fn modulo_indexing_changes_only_the_set_function() {
        let mut cfg = config(WritePolicy::WriteEvict);
        cfg.index_fn = crate::config::IndexFn::Modulo;
        let c = Cache::new(cfg);
        let num_sets = c.cfg.num_sets() as u64;
        for a in (0..1024u64).map(|i| i * 128) {
            assert_eq!(c.set_index(a), (a / 128) % num_sets);
        }
    }

    #[test]
    fn set_profile_tracks_hits_misses_and_footprints() {
        let mut c = small(WritePolicy::WriteEvict);
        c.enable_set_profile();
        c.enable_set_profile(); // idempotent

        // Two distinct lines in set(0)'s conflict group, one revisited.
        let peers = colliding(&c, 1);
        c.read(0, 0);
        c.fill(0, 0);
        c.read(0, 1); // hit
        c.read(peers[0], 2); // second way, no eviction
        c.fill(peers[0], 2);
        let set0 = c.set_index(0) as usize;
        let p = c.set_profile().expect("profiling enabled");
        assert_eq!(p.num_sets(), c.cfg.num_sets() as usize);
        assert_eq!(p.read_hits[set0], 1);
        assert_eq!(p.read_misses[set0], 2);
        assert_eq!(p.evictions[set0], 0);
        assert_eq!(p.installed_footprint(set0), 2);
        let per_set_total: u64 = p.read_hits.iter().chain(p.read_misses.iter()).sum();
        assert_eq!(per_set_total, c.stats.reads);
    }

    #[test]
    fn set_profile_absorb_unions_footprints() {
        // Two arrays (think: two SMs) both install line 0 — the merged
        // footprint counts it once, while counters add.
        let mut a = small(WritePolicy::WriteEvict);
        let mut b = small(WritePolicy::WriteEvict);
        a.enable_set_profile();
        b.enable_set_profile();
        a.read(0, 0);
        a.fill(0, 0);
        b.read(0, 0);
        b.fill(0, 0);
        let peer = colliding(&a, 1)[0];
        b.read(peer, 1);
        b.fill(peer, 1);
        let set0 = a.set_index(0) as usize;
        let mut merged = a.set_profile().unwrap().clone();
        merged.absorb(b.set_profile().unwrap());
        assert_eq!(merged.installed_footprint(set0), 2, "union, not sum");
        assert_eq!(merged.read_misses[set0], 3);
    }

    #[test]
    fn unprofiled_cache_allocates_no_profile() {
        let mut c = small(WritePolicy::WriteEvict);
        c.read(0, 0);
        assert!(c.set_profile().is_none());
    }
}
