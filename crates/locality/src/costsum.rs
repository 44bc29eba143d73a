//! Static cost summaries: the abstract interpretation behind the
//! analyzer's `CL2xx` performance lints and the `dse` pruning harness.
//!
//! [`AccessSummary::collect`] walks every warp program of a kernel once
//! (via [`gpu_sim::walk`], CTA-major order, no timing model) and folds
//! the demand-read line stream into an abstract state: per-line touch
//! counts, distinct-CTA and distinct-warp counts, written flags, and each
//! warp's line sequence. From that single walk,
//! [`AccessSummary::hit_interval`] derives a **sound** L1 read hit-rate
//! interval `[lo, hi]` for any cache geometry — sound meaning the
//! interval contains the hit rate the event-driven simulator measures
//! for *every* scheduler policy and CTA placement the engine can
//! produce.
//!
//! # Why the bounds are sound
//!
//! The engine presents a load to L1 only when the L1 is enabled and the
//! op's cache policy is `CacheAll` or `PrefetchL1` (prefetches are
//! counted as ordinary L1 reads; only the returned latency differs).
//! Each presented load is split into line transactions by the same
//! [`gpu_sim::coalesce_lines_into`] the engine uses, so the transaction
//! count `T` is a property of the access multiset alone. For suite
//! kernels, programs are context-independent; for agent-transformed
//! kernels the walker's idealized-RR dispatch covers every `(sm, slot)`
//! worklist exactly once, so the multiset — and the grouping of touches
//! by executing CTA/agent — is placement-invariant.
//!
//! **Upper bound.** Caches start empty and only demand/prefetch reads
//! install lines (under write-evict, stores *invalidate*; under
//! write-back-allocate, stores install, so written lines are excluded).
//! The device-wide first read of each of the `U` qualifying lines can
//! therefore neither hit nor hit-reserve anywhere: `hits ≤ T − U`, i.e.
//! `hi = (T − U) / T`.
//!
//! **Lower bound.** A CTA is pinned to one SM and one sector array for
//! its whole life. Call a line *stable* under a geometry when (a) the
//! number of distinct install-capable lines mapping to its set — via the
//! same [`AddrDec`] the hardware model indexes with (honouring the
//! config's [`IndexFn`]), over the per-sector sub-array — is at most the
//! associativity, and (b) under write-evict it is never stored to.
//! Victim selection always prefers invalid ways, so a set whose
//! device-wide footprint fits its ways never evicts; a stable line, once
//! read by a CTA, stays resident in that CTA's array. Every non-first
//! read of a stable line by the same CTA is then a guaranteed hit (or
//! hit-reserved, which the simulator's `read_hit_rate` also counts):
//! `hits ≥ Σ_stable (touches − ctas)`.
//!
//! **Conflict-aware lower bound (CL3xx refinement).** Sets whose
//! footprint overflows the ways can still guarantee reuse. A warp issues
//! its line transactions in program order, so for a read by warp `w`
//! re-touching line `L` in set `S`, the number `d` of *distinct other*
//! install-capable `S`-lines `w` itself touched since its previous touch
//! of `L` is exact, placement- and schedule-independent. Every other
//! warp that could share `w`'s array — under *any* placement — can only
//! ever touch lines of `S` that are not exclusive to `w`, at most
//! `O = footprint(S) − exclusive(S, w)` distinct lines across the whole
//! run. The array evicts `L` (true LRU, invalid ways preferred) only
//! after at least `associativity` distinct other lines are touched in
//! `S` while `L` sits untouched; each touch of `L` — read hit, read
//! miss (installs immediately), hit-reserved (refreshes the stamp), or
//! write-back-allocate store — leaves `L` resident or in flight. Hence
//! whenever `d + O ≤ associativity − 1`, the re-touch is a guaranteed
//! hit (or hit-reserved). Under write-evict, stores never install (they
//! only invalidate, freeing ways), so only read touches count toward
//! `d`/`O` and stored-to lines earn no credit; under write-back-allocate
//! stores install and are counted as touches. The refinement is skipped
//! entirely under [`CacheConfig::aggregated_tags`]: its LIP-style cold
//! inserts stamp new lines *below* the LRU order, so a cold-inserted
//! line can be victimized regardless of recency and the distance
//! argument does not apply (the footprint-fits bound above survives ATA,
//! because an install with a free or invalidatable way never evicts).
//!
//! [`AccessSummary::set_conflicts`] exposes the per-set domain itself —
//! install-capable footprints under the configured and the modulo
//! decoder, and per-set read counts — for the analyzer's CL3xx lints and
//! the `--verify-costmodel` machine check against the simulator's per-set
//! counters.
//!
//! [`CacheConfig::aggregated_tags`]: gpu_sim::CacheConfig
//! [`IndexFn`]: gpu_sim::IndexFn

use gpu_sim::{
    coalesce_lines_into, walk, AddrDec, CacheOp, FxHashMap, GpuConfig, IndexFn, KernelSpec, Op,
    WritePolicy,
};

/// Absolute slack allowed when testing measured rates against the
/// interval: covers the single rounding step of the simulator's
/// `hits / reads` division, nothing more.
pub const CONTAINMENT_EPS: f64 = 1e-9;

/// Per-line abstract state accumulated by the walk.
#[derive(Debug, Clone, Copy, Default)]
struct LineRec {
    /// Demand/prefetch read line transactions touching this line.
    touches: u64,
    /// Distinct CTAs among those touches (exact: the walk is CTA-major).
    ctas: u64,
    /// Last CTA that read-touched the line, for the distinct count.
    last_cta: u64,
    /// Touched by a cacheable (`CacheAll`/`PrefetchL1`) read.
    read: bool,
    /// Touched by a `CacheAll` store (write-evict: invalidates;
    /// write-back-allocate: installs).
    written: bool,
    /// Distinct warps among the read touches (exact: the walk is
    /// warp-contiguous).
    rwarps: u64,
    /// Walk-sequential id of the last warp that read-touched the line.
    last_rwarp: u32,
    /// Distinct warps among the `CacheAll` stores.
    swarps: u64,
    /// Walk-sequential id of the last warp that stored to the line.
    last_swarp: u32,
}

impl LineRec {
    /// The single warp that can ever have installed or touched this line
    /// on an L1 array, if one exists — the exclusivity witness of the
    /// conflict-aware bound. Under write-evict only readers install (and
    /// interfere); under write-back-allocate storers install too.
    fn exclusive_owner(&self, wba: bool) -> Option<u32> {
        if wba {
            match (self.rwarps, self.swarps) {
                (1, 0) => Some(self.last_rwarp),
                (0, 1) => Some(self.last_swarp),
                (1, 1) if self.last_rwarp == self.last_swarp => Some(self.last_rwarp),
                _ => None,
            }
        } else {
            (self.rwarps == 1).then_some(self.last_rwarp)
        }
    }
}

/// A sound L1 read hit-rate interval for one cache geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitInterval {
    /// Guaranteed-hit fraction: the measured rate cannot fall below.
    pub lo: f64,
    /// Cold-miss bound: the measured rate cannot exceed.
    pub hi: f64,
    /// Read transactions presented to the L1 (`T`); equals the
    /// simulator's `CacheStats::reads` for the same kernel and config.
    pub reads: u64,
    /// Lines whose first read provably misses (`U`).
    pub cold_lines: u64,
    /// Transactions provably hitting (stable-line reuse plus the
    /// conflict-aware per-warp credit).
    pub guaranteed_hits: u64,
    /// The subset of [`HitInterval::guaranteed_hits`] contributed by the
    /// conflict-aware refinement (reuse proven inside sets whose
    /// footprint overflows the ways). Zero under aggregated-tag mode.
    pub conflict_hits: u64,
}

impl HitInterval {
    /// Interval width `hi − lo` (the model's imprecision).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a measured hit rate lies inside the interval, allowing
    /// [`CONTAINMENT_EPS`] of floating-point slack.
    pub fn contains(&self, rate: f64) -> bool {
        rate >= self.lo - CONTAINMENT_EPS && rate <= self.hi + CONTAINMENT_EPS
    }
}

/// The walked abstract state of one kernel at one L1 line size.
///
/// Collection runs the walk exactly once; geometry queries
/// ([`AccessSummary::hit_interval`]) are pure functions of the summary
/// and can be evaluated for any number of candidate configurations.
#[derive(Debug)]
pub struct AccessSummary {
    /// L1 line size the stream was coalesced at.
    line_bytes: u32,
    /// Total cacheable read line transactions (`T`).
    reads: u64,
    /// Read transactions that bypass the L1 (`BypassL1` ops), counted at
    /// the same line granularity. Reporting only.
    bypassed_reads: u64,
    /// Store ops walked. Reporting only.
    stores: u64,
    /// Atomic ops walked (never touch the L1). Reporting only.
    atomics: u64,
    /// Memory ops of any kind (loads, stores, atomics).
    mem_ops: u64,
    /// Per-line abstract state, keyed by line number (`addr >> log2`).
    lines: FxHashMap<u64, LineRec>,
    /// Line tags of every cacheable access in walk order (CTA-major,
    /// warp-minor, per-warp program order — the engine's issue order for
    /// each individual warp). Bypassed reads and atomics are excluded.
    warp_tags: Vec<u64>,
    /// Parallel to `warp_tags`: `true` for `CacheAll` stores, `false`
    /// for cacheable reads.
    warp_stores: Vec<bool>,
    /// Start offset of each walked warp's slice in `warp_tags`; the
    /// vector length is the number of warps walked.
    warp_starts: Vec<usize>,
}

impl AccessSummary {
    /// Walks `kernel` under idealized-RR dispatch on `num_sms` SMs and
    /// folds its access stream at `line_bytes` granularity.
    pub fn collect<K: KernelSpec + ?Sized>(
        kernel: &K,
        num_sms: usize,
        warp_size: u32,
        line_bytes: u32,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let shift = line_bytes.trailing_zeros();
        let mut s = AccessSummary {
            line_bytes,
            reads: 0,
            bypassed_reads: 0,
            stores: 0,
            atomics: 0,
            mem_ops: 0,
            lines: FxHashMap::default(),
            warp_tags: Vec::new(),
            warp_stores: Vec::new(),
            warp_starts: Vec::new(),
        };
        let mut line_buf: Vec<u64> = Vec::new();
        walk::each_warp_program(kernel, num_sms, warp_size, |ctx, _warp, prog| {
            s.warp_starts.push(s.warp_tags.len());
            let wid = (s.warp_starts.len() - 1) as u32;
            for op in prog {
                match op {
                    Op::Load(a) => {
                        s.mem_ops += 1;
                        if a.cache_op == CacheOp::BypassL1 {
                            coalesce_lines_into(a, line_bytes, &mut line_buf);
                            s.bypassed_reads += line_buf.len() as u64;
                            continue;
                        }
                        // CacheAll and PrefetchL1 both present to the L1
                        // and count into its read statistics.
                        coalesce_lines_into(a, line_bytes, &mut line_buf);
                        for &line in line_buf.iter() {
                            let tag = line >> shift;
                            s.reads += 1;
                            s.warp_tags.push(tag);
                            s.warp_stores.push(false);
                            let rec = s.lines.entry(tag).or_default();
                            rec.touches += 1;
                            if rec.ctas == 0 || rec.last_cta != ctx.cta {
                                rec.ctas += 1;
                                rec.last_cta = ctx.cta;
                            }
                            if rec.rwarps == 0 || rec.last_rwarp != wid {
                                rec.rwarps += 1;
                                rec.last_rwarp = wid;
                            }
                            rec.read = true;
                        }
                    }
                    Op::Store(a) => {
                        s.mem_ops += 1;
                        s.stores += 1;
                        if a.cache_op == CacheOp::CacheAll {
                            coalesce_lines_into(a, line_bytes, &mut line_buf);
                            for &line in line_buf.iter() {
                                let tag = line >> shift;
                                s.warp_tags.push(tag);
                                s.warp_stores.push(true);
                                let rec = s.lines.entry(tag).or_default();
                                rec.written = true;
                                if rec.swarps == 0 || rec.last_swarp != wid {
                                    rec.swarps += 1;
                                    rec.last_swarp = wid;
                                }
                            }
                        }
                    }
                    Op::Atomic(_) => {
                        s.mem_ops += 1;
                        s.atomics += 1;
                    }
                    Op::Compute(_) | Op::Barrier => {}
                }
            }
        });
        s
    }

    /// [`AccessSummary::collect`] with geometry taken from a GPU preset
    /// (its SM count, warp size and L1 line size).
    pub fn collect_on<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig) -> Self {
        AccessSummary::collect(kernel, cfg.num_sms, cfg.warp_size, cfg.l1.line_bytes)
    }

    /// L1 line size the stream was coalesced at.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Cacheable read line transactions (`T`).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Read transactions carrying an explicit `BypassL1` op.
    pub fn bypassed_reads(&self) -> u64 {
        self.bypassed_reads
    }

    /// Store ops walked.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Atomic ops walked.
    pub fn atomics(&self) -> u64 {
        self.atomics
    }

    /// Memory ops of any kind (loads including bypassed, stores,
    /// atomics).
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    /// Distinct lines touched by cacheable reads — the read working set,
    /// in lines.
    pub fn read_working_set(&self) -> u64 {
        self.lines.values().filter(|r| r.read).count() as u64
    }

    /// Whether the kernel presents no reads to the L1 at all — cache
    /// geometry is then provably irrelevant to its hit statistics.
    pub fn geometry_irrelevant(&self) -> bool {
        self.reads == 0
    }

    /// Whether **every** cacheable read provably misses under `policy`,
    /// in every geometry and under every placement: each read line is
    /// touched exactly once device-wide, and (under write-back-allocate)
    /// never installed by a store first. Clustering, scheduling, L1
    /// capacity and associativity then cannot change the miss count.
    pub fn all_reads_cold(&self, policy: WritePolicy) -> bool {
        self.reads > 0
            && self.lines.values().all(|r| {
                !r.read || (r.touches == 1 && (policy == WritePolicy::WriteEvict || !r.written))
            })
    }

    /// The sound hit-rate interval for `cfg`'s L1 geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.l1.line_bytes` differs from the line size the
    /// summary was collected at — the transaction stream would not be
    /// the one the configuration coalesces.
    pub fn hit_interval(&self, cfg: &GpuConfig) -> HitInterval {
        assert_eq!(
            cfg.l1.line_bytes, self.line_bytes,
            "summary collected at {}B lines, queried at {}B",
            self.line_bytes, cfg.l1.line_bytes
        );
        let t = self.reads;
        if t == 0 || !cfg.l1_enabled {
            // No load is ever presented to the L1: the simulator reports
            // a 0/0 hit rate as 0.0.
            return HitInterval {
                lo: 0.0,
                hi: 0.0,
                reads: 0,
                cold_lines: 0,
                guaranteed_hits: 0,
                conflict_hits: 0,
            };
        }
        let wba = cfg.l1.write_policy == WritePolicy::WriteBackAllocate;
        // U: first read provably misses when no store can pre-install.
        let cold_lines = self
            .lines
            .values()
            .filter(|r| r.read && (!wba || !r.written))
            .count() as u64;
        let hi = (t - cold_lines) as f64 / t as f64;

        let dec = self.sub_decoder(cfg);
        let assoc = cfg.l1.associativity as u64;
        let footprint = self.set_footprints(&dec, wba);
        // A stable-set line is never evicted, so it misses at most once
        // per L1 array it is read on — and the device only has
        // `num_sms * l1_sectors` arrays. A line read by more CTAs than
        // there are arrays must co-locate readers, and every reader after
        // the array's first is a guaranteed hit under any placement.
        let arrays = cfg.num_sms as u64 * cfg.l1_sectors as u64;
        let mut guaranteed = 0u64;
        for (&tag, rec) in &self.lines {
            if !rec.read || (!wba && rec.written) {
                continue;
            }
            if footprint[dec.set_of_tag(tag) as usize] <= assoc {
                guaranteed += rec.touches - rec.ctas.min(arrays);
            }
        }
        let conflict = if cfg.l1.aggregated_tags {
            0
        } else {
            self.conflict_credit(&dec, assoc, wba, &footprint)
        };
        guaranteed += conflict;
        let lo = guaranteed as f64 / t as f64;
        debug_assert!(
            lo <= hi + CONTAINMENT_EPS,
            "interval inverted: lo {lo} > hi {hi}"
        );
        HitInterval {
            lo: lo.min(hi),
            hi,
            reads: t,
            cold_lines,
            guaranteed_hits: guaranteed,
            conflict_hits: conflict,
        }
    }

    /// The address decoder of `cfg`'s [`GpuConfig::l1_array`] — the
    /// same geometry and set-index function every L1 [`gpu_sim::Cache`]
    /// array of a simulation run is built with.
    fn sub_decoder(&self, cfg: &GpuConfig) -> AddrDec {
        let sub = cfg.l1_array();
        AddrDec::for_cache_indexed(
            sub.line_bytes,
            sub.effective_sector_bytes(),
            sub.num_sets() as u64,
            sub.index_fn,
        )
    }

    /// Install-capable lines per set under `dec`: lines a read installs,
    /// plus (under write-back-allocate) lines a store installs.
    fn set_footprints(&self, dec: &AddrDec, wba: bool) -> Vec<u64> {
        let mut footprint = vec![0u64; dec.num_sets() as usize];
        for (&tag, rec) in &self.lines {
            if rec.read || (wba && rec.written) {
                footprint[dec.set_of_tag(tag) as usize] += 1;
            }
        }
        footprint
    }

    /// The conflict-aware per-warp credit: read transactions provably
    /// hitting inside sets whose footprint overflows the ways (see the
    /// module docs for the `d + O ≤ assoc − 1` argument). Callers must
    /// gate out aggregated-tag configurations.
    fn conflict_credit(&self, dec: &AddrDec, assoc: u64, wba: bool, footprint: &[u64]) -> u64 {
        if assoc == 0 || !footprint.iter().any(|&f| f > assoc) {
            return 0;
        }
        // Exclusive install-capable lines per (warp, conflict set): the
        // lines no other warp can ever touch on the same array.
        let mut excl: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for (&tag, rec) in &self.lines {
            if !(rec.read || (wba && rec.written)) {
                continue;
            }
            let set = dec.set_of_tag(tag);
            if footprint[set as usize] <= assoc {
                continue;
            }
            if let Some(w) = rec.exclusive_owner(wba) {
                *excl.entry((w, set)).or_insert(0) += 1;
            }
        }
        let mut credit = 0u64;
        // Per-set MRU recency lists, capped at `assoc` entries: the
        // position of a re-touched tag is its exact distinct-line
        // distance `d` within this warp's stream.
        let mut recency: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for (w, start) in self.warp_starts.iter().enumerate() {
            let end = self
                .warp_starts
                .get(w + 1)
                .copied()
                .unwrap_or(self.warp_tags.len());
            recency.clear();
            for i in *start..end {
                let is_store = self.warp_stores[i];
                if is_store && !wba {
                    // Write-evict stores never install: invisible to the
                    // recency argument (they can only free ways).
                    continue;
                }
                let tag = self.warp_tags[i];
                let set = dec.set_of_tag(tag);
                let f = footprint[set as usize];
                if f <= assoc {
                    continue; // stable set: handled by the fits-ways bound
                }
                let list = recency.entry(set).or_default();
                match list.iter().position(|&t| t == tag) {
                    Some(d) => {
                        list.remove(d);
                        list.insert(0, tag);
                        if !is_store {
                            let rec = &self.lines[&tag];
                            // Write-evict: a stored-to line may be
                            // invalidated between the touches.
                            let creditable = wba || !rec.written;
                            let o = f - excl.get(&(w as u32, set)).copied().unwrap_or(0);
                            if creditable && d as u64 + o < assoc {
                                credit += 1;
                            }
                        }
                    }
                    None => {
                        if list.len() as u64 == assoc {
                            list.pop();
                        }
                        list.insert(0, tag);
                    }
                }
            }
        }
        credit
    }

    /// The per-set conflict domain of this kernel under `cfg`'s L1
    /// geometry: everything the CL3xx lints and the `--verify-costmodel`
    /// per-set machine check consume.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.l1.line_bytes` differs from the line size the
    /// summary was collected at (as [`AccessSummary::hit_interval`]).
    pub fn set_conflicts(&self, cfg: &GpuConfig) -> SetConflictModel {
        assert_eq!(
            cfg.l1.line_bytes, self.line_bytes,
            "summary collected at {}B lines, queried at {}B",
            self.line_bytes, cfg.l1.line_bytes
        );
        let dec = self.sub_decoder(cfg);
        let num_sets = dec.num_sets() as usize;
        let assoc = cfg.l1.associativity as u64;
        if !cfg.l1_enabled {
            // Nothing is ever presented to (or installed in) the L1.
            return SetConflictModel {
                associativity: assoc,
                index_fn: cfg.l1.index_fn,
                footprint: vec![0; num_sets],
                modulo_footprint: vec![0; num_sets],
                set_reads: vec![0; num_sets],
                conflict_hits: 0,
            };
        }
        let wba = cfg.l1.write_policy == WritePolicy::WriteBackAllocate;
        let footprint = self.set_footprints(&dec, wba);
        let modulo_dec = AddrDec::for_cache_indexed(
            dec.line_bytes(),
            dec.line_bytes() / dec.sectors_per_line(),
            num_sets as u64,
            IndexFn::Modulo,
        );
        let modulo_footprint = self.set_footprints(&modulo_dec, wba);
        let mut set_reads = vec![0u64; num_sets];
        for (&tag, rec) in &self.lines {
            if rec.read {
                set_reads[dec.set_of_tag(tag) as usize] += rec.touches;
            }
        }
        let conflict_hits = if cfg.l1.aggregated_tags {
            0
        } else {
            self.conflict_credit(&dec, assoc, wba, &footprint)
        };
        SetConflictModel {
            associativity: assoc,
            index_fn: cfg.l1.index_fn,
            footprint,
            modulo_footprint,
            set_reads,
            conflict_hits,
        }
    }
}

/// Per-set view of a kernel's install-capable footprint under one L1
/// geometry — the abstract domain of the analyzer's CL3xx lints and of
/// the per-set machine check in `analyze --verify-costmodel`.
///
/// All vectors are indexed by set of the per-sector sub-array (the
/// geometry every simulated [`gpu_sim::Cache`] array shares).
#[derive(Debug, Clone)]
pub struct SetConflictModel {
    /// Ways per set.
    pub associativity: u64,
    /// Set-index function of the configuration the model was built for.
    pub index_fn: IndexFn,
    /// Install-capable lines per set under the configured decoder. The
    /// simulator invariant: the union of distinct tags ever installed
    /// into set `s`, across every SM's sector arrays, equals
    /// `footprint[s]` exactly.
    pub footprint: Vec<u64>,
    /// The same lines pushed through the modulo twin decoder — the other
    /// end of the DSE indexing axis.
    pub modulo_footprint: Vec<u64>,
    /// Read transactions per set: the simulator's per-set
    /// `read_hits + read_misses`, summed over all arrays, equals this
    /// exactly.
    pub set_reads: Vec<u64>,
    /// Read transactions credited by the conflict-aware refinement at
    /// this geometry (zero under aggregated-tag mode).
    pub conflict_hits: u64,
}

impl SetConflictModel {
    /// Number of sets in the sub-array.
    pub fn num_sets(&self) -> u64 {
        self.footprint.len() as u64
    }

    /// Sets with at least one install-capable line.
    pub fn occupied_sets(&self) -> u64 {
        self.footprint.iter().filter(|&&f| f > 0).count() as u64
    }

    /// Sets whose footprint overflows the ways — where eviction is
    /// possible at all.
    pub fn conflict_sets(&self) -> u64 {
        self.footprint
            .iter()
            .filter(|&&f| f > self.associativity)
            .count() as u64
    }

    /// Whether every set's footprint fits its ways under the configured
    /// decoder — zero evictions in every array, under any scheduler.
    pub fn conflict_free(&self) -> bool {
        self.footprint.iter().all(|&f| f <= self.associativity)
    }

    /// [`SetConflictModel::conflict_free`] under the modulo decoder.
    pub fn modulo_conflict_free(&self) -> bool {
        self.modulo_footprint
            .iter()
            .all(|&f| f <= self.associativity)
    }

    /// Whether the hashed-vs-modulo indexing axis is provably dead for
    /// this kernel and geometry: the footprint fits the ways under
    /// *both* decoders, so neither configuration ever evicts and the run
    /// statistics are identical — the sound CL302 condition.
    pub fn indexing_insensitive(&self) -> bool {
        self.conflict_free() && self.modulo_conflict_free()
    }

    /// Largest per-set footprint.
    pub fn max_footprint(&self) -> u64 {
        self.footprint.iter().copied().max().unwrap_or(0)
    }

    /// Camping skew: the largest per-set footprint relative to a uniform
    /// spread of the whole footprint over *all* sets (`0.0` when nothing
    /// installs). Near `1.0` means the decoder spreads the working set
    /// evenly; `num_sets()` means everything camps on a single set.
    pub fn camping_ratio(&self) -> f64 {
        let total: u64 = self.footprint.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.max_footprint() as f64 * self.num_sets() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Program};

    /// CTAs re-read a private slice `reps` times; optionally every CTA
    /// also reads one shared table line.
    #[derive(Debug, Clone)]
    struct Slices {
        ctas: u64,
        reps: u64,
        shared: bool,
    }

    impl KernelSpec for Slices {
        fn name(&self) -> String {
            "slices".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(self.ctas as u32), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            let mut prog = Vec::new();
            if self.shared {
                prog.push(Op::Load(MemAccess::coalesced(0, 0, 32, 4)));
            }
            let own = (1 << 20) + ctx.cta * 128;
            for _ in 0..self.reps {
                prog.push(Op::Load(MemAccess::coalesced(1, own, 32, 4)));
            }
            prog
        }
    }

    #[test]
    fn counts_and_working_set() {
        let k = Slices {
            ctas: 4,
            reps: 3,
            shared: true,
        };
        let s = AccessSummary::collect(&k, 2, 32, 128);
        // Per CTA: 1 shared line + 3 touches of its own line.
        assert_eq!(s.reads(), 4 * 4);
        assert_eq!(s.read_working_set(), 5);
        assert_eq!(s.stores(), 0);
        assert!(!s.geometry_irrelevant());
    }

    #[test]
    fn interval_brackets_private_reuse() {
        let k = Slices {
            ctas: 4,
            reps: 3,
            shared: false,
        };
        let s = AccessSummary::collect(&k, 2, 32, 128);
        let iv = s.hit_interval(&arch::gtx570());
        // 4 lines, 3 touches each: 12 reads, 4 cold, 8 guaranteed hits
        // (tiny footprint, so every line is stable).
        assert_eq!(iv.reads, 12);
        assert_eq!(iv.cold_lines, 4);
        assert_eq!(iv.guaranteed_hits, 8);
        assert!((iv.lo - 8.0 / 12.0).abs() < 1e-12);
        assert!((iv.hi - 8.0 / 12.0).abs() < 1e-12);
        assert!(iv.contains(8.0 / 12.0));
        assert!(!iv.contains(0.5));
    }

    #[test]
    fn shared_line_loosens_lower_bound() {
        let k = Slices {
            ctas: 4,
            reps: 1,
            shared: true,
        };
        let s = AccessSummary::collect(&k, 2, 32, 128);
        let iv = s.hit_interval(&arch::gtx570());
        // Shared line: 4 touches by 4 distinct CTAs — no guaranteed
        // reuse; own lines are cold. hi still credits the 3 potential
        // shared-line hits.
        assert_eq!(iv.reads, 8);
        assert_eq!(iv.cold_lines, 5);
        assert_eq!(iv.guaranteed_hits, 0);
        assert!((iv.hi - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(iv.lo, 0.0);
    }

    #[test]
    fn streaming_kernel_is_provably_cold() {
        let k = Slices {
            ctas: 8,
            reps: 1,
            shared: false,
        };
        let s = AccessSummary::collect(&k, 2, 32, 128);
        assert!(s.all_reads_cold(WritePolicy::WriteEvict));
        let iv = s.hit_interval(&arch::gtx570());
        assert_eq!((iv.lo, iv.hi), (0.0, 0.0));
    }

    /// Store-then-read of one line: write-evict keeps the read cold,
    /// write-back-allocate may install it.
    #[derive(Debug, Clone)]
    struct WriteThenRead;

    impl KernelSpec for WriteThenRead {
        fn name(&self) -> String {
            "write-then-read".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(1), 32u32)
        }
        fn warp_program(&self, _ctx: &CtaContext, _warp: u32) -> Program {
            vec![
                Op::Store(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
            ]
        }
    }

    #[test]
    fn write_policy_changes_both_bounds() {
        let s = AccessSummary::collect(&WriteThenRead, 1, 32, 128);
        let we = arch::gtx570();
        let iv = s.hit_interval(&we);
        // Write-evict: the store invalidates, the line is written — not
        // stable — so no guaranteed hits; first read still provably
        // misses.
        assert_eq!(iv.cold_lines, 1);
        assert_eq!(iv.guaranteed_hits, 0);
        assert!((iv.hi - 0.5).abs() < 1e-12);

        let mut wba = arch::gtx570();
        wba.l1.write_policy = WritePolicy::WriteBackAllocate;
        let iv = s.hit_interval(&wba);
        // Write-back-allocate: the store may install the line, so even
        // the first read may hit (hi = 1); reuse is guaranteed for the
        // second.
        assert_eq!(iv.cold_lines, 0);
        assert!((iv.hi - 1.0).abs() < 1e-12);
        assert_eq!(iv.guaranteed_hits, 1);
        assert!(!s.all_reads_cold(WritePolicy::WriteBackAllocate));
    }

    #[test]
    fn disabled_l1_collapses_interval() {
        let k = Slices {
            ctas: 2,
            reps: 2,
            shared: false,
        };
        let s = AccessSummary::collect(&k, 2, 32, 128);
        let cfg = arch::gtx570().with_l1_disabled();
        let iv = s.hit_interval(&cfg);
        assert_eq!((iv.lo, iv.hi, iv.reads), (0.0, 0.0, 0));
    }

    /// One CTA; warp `w` runs its tag sequence in order (128B lines),
    /// each entry a scalar read or (`true`) a `CacheAll` store.
    #[derive(Debug, Clone)]
    struct WarpTags {
        seqs: Vec<Vec<(u64, bool)>>,
    }

    impl WarpTags {
        fn reads(seqs: Vec<Vec<u64>>) -> Self {
            WarpTags {
                seqs: seqs
                    .into_iter()
                    .map(|s| s.into_iter().map(|t| (t, false)).collect())
                    .collect(),
            }
        }
    }

    impl KernelSpec for WarpTags {
        fn name(&self) -> String {
            "warp-tags".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(1), self.seqs.len() as u32 * 32)
        }
        fn warp_program(&self, _ctx: &CtaContext, warp: u32) -> Program {
            self.seqs[warp as usize]
                .iter()
                .map(|&(t, st)| {
                    let a = MemAccess::scalar(0, t * 128, 4);
                    if st {
                        Op::Store(a)
                    } else {
                        Op::Load(a)
                    }
                })
                .collect()
        }
    }

    /// A gtx570 variant with a tiny modulo-indexed L1: `sets` sets of
    /// `assoc` ways, so tag `t` lands in set `t % sets` predictably.
    fn modulo_cfg(assoc: u32, sets: u32) -> GpuConfig {
        let mut cfg = arch::gtx570();
        cfg.l1.size_bytes = 128 * assoc * sets;
        cfg.l1.associativity = assoc;
        cfg.l1.index_fn = gpu_sim::IndexFn::Modulo;
        cfg
    }

    #[test]
    fn conflict_credit_tight_reuse_in_overflowing_set() {
        // Tags 0, 4, 8 all land in set 0 of a 4-set modulo array: the
        // footprint (3) overflows the 2 ways, so the stable bound gives
        // nothing — but re-touching 0 with only one distinct line in
        // between (d = 1, O = 0) is a guaranteed hit.
        let cfg = modulo_cfg(2, 4);
        let k = WarpTags::reads(vec![vec![0, 4, 0, 8]]);
        let s = AccessSummary::collect(&k, 1, 32, 128);
        let iv = s.hit_interval(&cfg);
        assert_eq!(iv.reads, 4);
        assert_eq!(iv.cold_lines, 3);
        assert_eq!(iv.conflict_hits, 1);
        assert_eq!(iv.guaranteed_hits, 1);
        assert!((iv.lo - 0.25).abs() < 1e-12);
        assert!((iv.hi - 0.25).abs() < 1e-12);

        // Two distinct lines in between (d = 2 = assoc): the line may be
        // the LRU victim, no credit.
        let far = WarpTags::reads(vec![vec![0, 4, 8, 0]]);
        let s = AccessSummary::collect(&far, 1, 32, 128);
        let iv = s.hit_interval(&cfg);
        assert_eq!(iv.conflict_hits, 0);
        assert_eq!(iv.lo, 0.0);
        assert!((iv.hi - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shared_lines_veto_conflict_credit() {
        // Line 4 is shared with warp 1 and line 8 belongs to it: only
        // line 0 is exclusive to warp 0, so O = 3 − 1 = 2 and the
        // re-touch (d = 1) cannot be proven resident: d + O ≥ assoc.
        let cfg = modulo_cfg(2, 4);
        let k = WarpTags::reads(vec![vec![0, 4, 0], vec![4, 8]]);
        let s = AccessSummary::collect(&k, 1, 32, 128);
        let iv = s.hit_interval(&cfg);
        assert_eq!(iv.conflict_hits, 0);
        assert_eq!(iv.lo, 0.0);
    }

    #[test]
    fn aggregated_tags_disable_conflict_credit() {
        // LIP-style cold inserts stamp below the LRU order, so the
        // distance argument does not hold: the refinement must vanish.
        let mut cfg = modulo_cfg(2, 4);
        cfg.l1.aggregated_tags = true;
        let k = WarpTags::reads(vec![vec![0, 4, 0, 8]]);
        let s = AccessSummary::collect(&k, 1, 32, 128);
        let iv = s.hit_interval(&cfg);
        assert_eq!(iv.conflict_hits, 0);
        assert_eq!(iv.guaranteed_hits, 0);
        assert_eq!(iv.lo, 0.0);
    }

    #[test]
    fn wba_stores_install_and_count_toward_distance() {
        let k = WarpTags {
            seqs: vec![vec![(8, false), (0, false), (4, true), (0, false)]],
        };
        let s = AccessSummary::collect(&k, 1, 32, 128);

        // Write-evict: the store never installs, so the read footprint
        // {8, 0} fits the 2 ways and the stable bound credits the
        // re-touch of line 0.
        let we = modulo_cfg(2, 4);
        let iv = s.hit_interval(&we);
        assert_eq!(iv.guaranteed_hits, 1);
        assert_eq!(iv.conflict_hits, 0);

        // Write-back-allocate: the store installs line 4, the footprint
        // {8, 0, 4} overflows — but the conflict credit still proves the
        // re-touch (d = 1 across the store, O = 0).
        let mut wba = modulo_cfg(2, 4);
        wba.l1.write_policy = WritePolicy::WriteBackAllocate;
        let iv = s.hit_interval(&wba);
        assert_eq!(iv.conflict_hits, 1);
        assert_eq!(iv.guaranteed_hits, 1);
    }

    #[test]
    fn set_model_reports_footprints_and_axis() {
        let cfg = modulo_cfg(2, 4);
        let k = WarpTags::reads(vec![vec![0, 4, 8, 1, 5]]);
        let s = AccessSummary::collect(&k, 1, 32, 128);
        let m = s.set_conflicts(&cfg);
        assert_eq!(m.num_sets(), 4);
        assert_eq!(m.associativity, 2);
        assert_eq!(m.footprint, vec![3, 2, 0, 0]);
        assert_eq!(m.modulo_footprint, m.footprint, "config is already modulo");
        assert_eq!(m.set_reads, vec![3, 2, 0, 0]);
        assert_eq!(m.conflict_sets(), 1);
        assert_eq!(m.occupied_sets(), 2);
        assert_eq!(m.max_footprint(), 3);
        assert!(!m.conflict_free());
        assert!(!m.indexing_insensitive());
        assert!((m.camping_ratio() - 3.0 * 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(m.conflict_hits, 0, "no re-touches in the stream");

        // A tiny footprint fits the ways under both decoders: the
        // indexing axis is provably dead.
        let small = AccessSummary::collect(&WarpTags::reads(vec![vec![0, 1]]), 1, 32, 128);
        assert!(small.set_conflicts(&cfg).indexing_insensitive());
        assert!(small.set_conflicts(&arch::gtx570()).indexing_insensitive());

        // Disabled L1: nothing installs, the model is all-zero.
        let off = s.set_conflicts(&cfg.clone().with_l1_disabled());
        assert_eq!(off.footprint, vec![0; 4]);
        assert_eq!(off.occupied_sets(), 0);
        assert_eq!(off.camping_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "collected at")]
    fn line_size_mismatch_panics() {
        let k = Slices {
            ctas: 1,
            reps: 1,
            shared: false,
        };
        let s = AccessSummary::collect(&k, 1, 32, 32);
        let _ = s.hit_interval(&arch::gtx570()); // 128B lines
    }
}
