//! Differential battery for the per-event folds: the word profilers and
//! the cost summary must produce exactly what straightforward reference
//! folds produce — hash maps keyed by word or line, lanes deduplicated in
//! first-touch order with a linear scan, one hash probe per lane and per
//! transaction, per-(warp, set) recency `Vec`s.
//!
//! The references below are written for clarity, not speed: each
//! processes lanes in the order the event lists them, so agreement also
//! shows that the optimized folds' reordering of lanes (address order)
//! and of lines (dense ids) changes no result.

use gpu_sim::{
    arch, coalesce_lines_into, walk, AccessEvent, AddrDec, CacheOp, CtaContext, Dim3, GpuConfig,
    IndexFn, KernelSpec, LaunchConfig, Level, MemAccess, Op, Program, TraceSink, WritePolicy,
};
use locality::{
    classify, AccessSummary, CategoryProfiler, HitInterval, ReuseProfiler, ReuseSummary,
    SetConflictModel, Signature, TagReuseProfiler, TagSummary, REFERENCE_LINE_BYTES,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Deterministic stream stretching one proptest seed into a case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// Reference word profilers.
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct RefLine {
    first_cta: u64,
    read_cta: Option<u64>,
    writer_cta: Option<u64>,
    multi_cta: bool,
    written_by_other: bool,
    touched: bool,
    present: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct RefWord {
    first_cta: u64,
    multi_cta: bool,
    seen: bool,
}

/// Reference [`CategoryProfiler`].
#[derive(Debug, Default)]
struct RefCategory {
    words: HashMap<u64, RefWord>,
    lines: HashMap<u64, RefLine>,
    lines_touched: u64,
    lines_interfered: u64,
    word_accesses: u64,
    word_reuses: u64,
    word_inter: u64,
    line_inter_spatial: u64,
    line_inter_word: u64,
    read_line_touches: u64,
    txns: u64,
    lanes: u64,
    stores: u64,
    accesses: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl RefCategory {
    fn signature(&self) -> Signature {
        let line_inter_total = (self.line_inter_spatial + self.line_inter_word).max(1);
        Signature {
            word_inter_share: ratio(self.word_inter, self.word_reuses),
            word_reuse_rate: ratio(self.word_reuses, self.word_accesses),
            word_inter_rate: ratio(self.word_inter, self.word_accesses),
            line_inter_spatial_share: self.line_inter_spatial as f64 / line_inter_total as f64,
            line_spatial_rate: ratio(self.line_inter_spatial, self.read_line_touches),
            write_interference: self.lines_interfered as f64 / self.lines_touched.max(1) as f64,
            avg_coalescing: ratio(self.lanes, self.txns),
            write_fraction: ratio(self.stores, self.accesses),
        }
    }
}

impl TraceSink for RefCategory {
    fn record(&mut self, e: &AccessEvent<'_>) {
        self.accesses += 1;
        if e.is_write {
            self.stores += 1;
        }
        let mut seen_lines: Vec<u64> = Vec::new();
        let mut seen_words: Vec<u64> = Vec::new();
        for &addr in e.addrs {
            let line = addr / REFERENCE_LINE_BYTES;
            if !seen_lines.contains(&line) {
                seen_lines.push(line);
            }
            let word = addr / 4;
            if !seen_words.contains(&word) {
                seen_words.push(word);
            }
        }
        self.txns += seen_lines.len() as u64;
        self.lanes += e.addrs.len() as u64;
        for &word in &seen_words {
            self.word_accesses += 1;
            let entry = self.words.entry(word).or_default();
            if !entry.seen {
                entry.first_cta = e.cta;
            }
            if entry.first_cta != e.cta {
                entry.multi_cta = true;
            }
            if entry.seen {
                self.word_reuses += 1;
                if entry.multi_cta {
                    self.word_inter += 1;
                }
            }
            entry.seen = true;
        }
        for &line in &seen_lines {
            // Scans every word of the event, after the whole word pass.
            let word_shared = seen_words
                .iter()
                .filter(|w| **w / (REFERENCE_LINE_BYTES / 4) == line)
                .all(|w| self.words.get(w).is_some_and(|s| s.multi_cta));
            let info = self.lines.entry(line).or_default();
            if !info.present {
                info.present = true;
                info.first_cta = e.cta;
                self.lines_touched += 1;
            }
            if !e.is_write {
                self.read_line_touches += 1;
                if info.first_cta != e.cta {
                    info.multi_cta = true;
                }
                if info.touched && info.multi_cta {
                    if word_shared {
                        self.line_inter_word += 1;
                    } else {
                        self.line_inter_spatial += 1;
                    }
                }
                info.touched = true;
            }
            if e.is_write {
                if let Some(reader) = info.read_cta {
                    if reader != e.cta && !info.written_by_other {
                        info.written_by_other = true;
                        self.lines_interfered += 1;
                    }
                }
                info.writer_cta = Some(e.cta);
            } else {
                if let Some(writer) = info.writer_cta {
                    if writer != e.cta && !info.written_by_other {
                        info.written_by_other = true;
                        self.lines_interfered += 1;
                    }
                }
                if info.read_cta.is_none() {
                    info.read_cta = Some(e.cta);
                }
            }
        }
    }
}

/// Reference [`TagReuseProfiler`]: per-tag word accesses and reuses.
#[derive(Debug, Default)]
struct RefTags {
    tags: HashMap<u16, TagSummary>,
    seen: HashSet<(u16, u64)>,
}

impl RefTags {
    fn streaming_tags(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .tags
            .iter()
            .filter(|(_, s)| s.accesses >= 64 && (s.reuses as f64) < 0.02 * s.accesses as f64)
            .map(|(&t, _)| t)
            .collect();
        v.sort_unstable();
        v
    }
}

impl TraceSink for RefTags {
    fn record(&mut self, e: &AccessEvent<'_>) {
        let entry = self.tags.entry(e.tag).or_default();
        let mut seen_words: Vec<u64> = Vec::new();
        for &addr in e.addrs {
            let word = addr / 4;
            if seen_words.contains(&word) {
                continue;
            }
            seen_words.push(word);
            entry.accesses += 1;
            if !self.seen.insert((e.tag, word)) {
                entry.reuses += 1;
            }
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct RefWordInfo {
    last: Option<(u64, u32)>,
    first_cta: u64,
    multi_cta: bool,
    touches: u64,
}

/// Reference [`ReuseProfiler`].
#[derive(Debug, Default)]
struct RefReuse {
    words: HashMap<u64, RefWordInfo>,
    summary: ReuseSummary,
}

impl TraceSink for RefReuse {
    fn record(&mut self, e: &AccessEvent<'_>) {
        let mut seen_words: Vec<u64> = Vec::new();
        for &addr in e.addrs {
            let word = addr / 4;
            if seen_words.contains(&word) {
                continue;
            }
            seen_words.push(word);
            self.summary.accesses += 1;
            let info = self.words.entry(word).or_default();
            if info.touches == 0 {
                info.first_cta = e.cta;
                self.summary.words += 1;
            } else if info.touches == 1 {
                self.summary.words_reused += 1;
            }
            info.touches += 1;
            if info.first_cta != e.cta && !info.multi_cta {
                info.multi_cta = true;
                self.summary.words_multi_cta += 1;
            }
            if let Some((cta, warp)) = info.last {
                if cta != e.cta {
                    self.summary.inter_cta += 1;
                } else if warp != e.warp {
                    self.summary.intra_cta += 1;
                } else {
                    self.summary.intra_warp += 1;
                }
            }
            info.last = Some((e.cta, e.warp));
        }
    }
}

// ---------------------------------------------------------------------
// Random event streams.
// ---------------------------------------------------------------------

/// One random access event: its fields and lane addresses.
#[derive(Debug, Clone)]
struct Event {
    cta: u64,
    warp: u32,
    tag: u16,
    is_write: bool,
    is_atomic: bool,
    bytes_per_lane: u32,
    addrs: Vec<u64>,
}

/// `n` events over `ctas` CTAs. Lanes come unsorted, repeated,
/// strided by 1/4/8/16 bytes, straddling lines and `WordMap` pages, and
/// near `u64::MAX`; a small shared window makes CTAs share words and
/// lines. Tag 3 streams fresh lines, so streaming tags occur.
fn events(seed: u64, ctas: u64, n: usize) -> Vec<Event> {
    let mut r = Lcg(seed | 1);
    (0..n as u64)
        .map(|i| {
            let tag = r.below(4) as u16;
            let kind = r.below(4);
            let bytes_per_lane = [1u32, 4, 8, 16][r.below(4) as usize];
            let lanes = 1 + r.below(40);
            let base = match r.below(5) {
                0 => r.below(1024),
                1 => 4096 * (1 + r.below(4)) - 4 * r.below(24), // page straddle
                2 => 128 * (1 + r.below(8)) - 4 * r.below(8),   // line straddle
                3 => u64::MAX - (1 << 14) - r.below(4096),      // near the top
                _ => (1 << 32) + r.below(1 << 16),
            };
            let mut addrs: Vec<u64> = match r.below(6) {
                0 => (0..lanes)
                    .map(|l| base + l * bytes_per_lane as u64)
                    .collect(),
                1 => (0..lanes).rev().map(|l| base + l * 4).collect(),
                2 => (0..lanes).map(|_| base + r.below(512)).collect(),
                3 => (0..lanes).map(|l| base + l * (1 + r.below(300))).collect(),
                4 => vec![base; lanes as usize],
                _ => {
                    let mut a: Vec<u64> = (0..lanes).map(|l| base + l * 4).collect();
                    for k in (1..a.len()).rev() {
                        a.swap(k, r.below(k as u64 + 1) as usize);
                    }
                    a
                }
            };
            if tag == 3 {
                let fresh = (1 << 40) + i * 4096;
                addrs = (0..lanes).map(|l| fresh + l * 4).collect();
            }
            Event {
                cta: r.below(ctas),
                warp: r.below(3) as u32,
                tag,
                is_write: kind >= 2,
                is_atomic: kind == 3,
                bytes_per_lane,
                addrs,
            }
        })
        .collect()
}

fn feed(sink: &mut dyn TraceSink, e: &Event) {
    sink.record(&AccessEvent {
        time: 0,
        sm_id: 0,
        slot: 0,
        cta: e.cta,
        warp: e.warp,
        tag: e.tag,
        is_write: e.is_write,
        is_atomic: e.is_atomic,
        bytes_per_lane: e.bytes_per_lane,
        addrs: &e.addrs,
        latency: 1,
        served_by: Level::L1,
    });
}

proptest! {
    /// The category, tag-reuse and reuse profilers agree exactly with
    /// their references on random event streams over 1–8 CTAs.
    #[test]
    fn word_profilers_match_their_references(
        (seed, ctas, n) in (0u64..1 << 48, 1u64..9, 1usize..80),
    ) {
        let evs = events(seed, ctas, n);
        let (mut cat, mut tags, mut reuse) =
            (CategoryProfiler::new(), TagReuseProfiler::new(), ReuseProfiler::new());
        let (mut ref_cat, mut ref_tags, mut ref_reuse) =
            (RefCategory::default(), RefTags::default(), RefReuse::default());
        for e in &evs {
            for sink in [
                &mut cat as &mut dyn TraceSink,
                &mut tags,
                &mut reuse,
                &mut ref_cat,
                &mut ref_tags,
                &mut ref_reuse,
            ] {
                feed(sink, e);
            }
        }
        prop_assert_eq!(cat.signature(), ref_cat.signature());
        prop_assert_eq!(cat.classify(), classify(&ref_cat.signature()));
        for tag in 0..4 {
            let expect = ref_tags.tags.get(&tag).copied().unwrap_or_default();
            prop_assert_eq!(tags.summary(tag), expect);
        }
        prop_assert_eq!(tags.streaming_tags(), ref_tags.streaming_tags());
        prop_assert_eq!(reuse.summary(), ref_reuse.summary);
    }
}

/// The battery's stream shapes reach every signal that matters:
/// cross-CTA word reuse, cross-CTA line reuse of both kinds, write
/// interference, and a streaming tag.
#[test]
fn event_streams_exercise_the_signals() {
    let mut ref_cat = RefCategory::default();
    let mut streamed = 0;
    for seed in 0..16 {
        let mut ref_tags = RefTags::default();
        for e in &events(seed, 4, 80) {
            feed(&mut ref_cat, e);
            feed(&mut ref_tags, e);
        }
        streamed += usize::from(ref_tags.streaming_tags() == [3]);
    }
    assert!(ref_cat.word_inter > 0);
    assert!(ref_cat.line_inter_word > 0);
    assert!(ref_cat.line_inter_spatial > 0);
    assert!(ref_cat.lines_interfered > 0);
    assert!(streamed > 0);
}

// ---------------------------------------------------------------------
// Reference cost summary.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct RefLineRec {
    touches: u64,
    ctas: u64,
    last_cta: u64,
    read: bool,
    written: bool,
    rwarps: u64,
    last_rwarp: u32,
    swarps: u64,
    last_swarp: u32,
}

impl RefLineRec {
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

/// Reference [`AccessSummary`]: one hash-map entry per line, probed per
/// transaction, and per-(warp, set) recency `Vec`s.
struct RefSummary {
    line_bytes: u32,
    reads: u64,
    lines: HashMap<u64, RefLineRec>,
    warp_tags: Vec<u64>,
    warp_stores: Vec<bool>,
    warp_starts: Vec<usize>,
}

impl RefSummary {
    fn collect<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig) -> Self {
        let line_bytes = cfg.l1.line_bytes;
        let shift = line_bytes.trailing_zeros();
        let mut s = RefSummary {
            line_bytes,
            reads: 0,
            lines: HashMap::new(),
            warp_tags: Vec::new(),
            warp_stores: Vec::new(),
            warp_starts: Vec::new(),
        };
        let mut buf = Vec::new();
        walk::each_warp_program(kernel, cfg.num_sms, cfg.warp_size, |ctx, _, prog| {
            s.warp_starts.push(s.warp_tags.len());
            let wid = (s.warp_starts.len() - 1) as u32;
            for op in prog {
                match op {
                    Op::Load(a) if a.cache_op != CacheOp::BypassL1 => {
                        coalesce_lines_into(a, line_bytes, &mut buf);
                        for &line in &buf {
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
                    Op::Store(a) if a.cache_op == CacheOp::CacheAll => {
                        coalesce_lines_into(a, line_bytes, &mut buf);
                        for &line in &buf {
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
                    _ => {}
                }
            }
        });
        s
    }

    fn decoder(cfg: &GpuConfig, index_fn: IndexFn) -> AddrDec {
        let sub = cfg.l1_array();
        AddrDec::for_cache_indexed(
            sub.line_bytes,
            sub.effective_sector_bytes(),
            sub.num_sets() as u64,
            index_fn,
        )
    }

    fn footprints(&self, dec: &AddrDec, wba: bool) -> Vec<u64> {
        let mut f = vec![0u64; dec.num_sets() as usize];
        for (&tag, rec) in &self.lines {
            if rec.read || (wba && rec.written) {
                f[dec.set_of_tag(tag) as usize] += 1;
            }
        }
        f
    }

    fn conflict_credit(&self, dec: &AddrDec, assoc: u64, wba: bool, footprint: &[u64]) -> u64 {
        if assoc == 0 || !footprint.iter().any(|&f| f > assoc) {
            return 0;
        }
        let mut excl: HashMap<(u32, u64), u64> = HashMap::new();
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
        let mut credit = 0;
        for (w, &start) in self.warp_starts.iter().enumerate() {
            let end = self
                .warp_starts
                .get(w + 1)
                .copied()
                .unwrap_or(self.warp_tags.len());
            let mut recency: HashMap<u64, Vec<u64>> = HashMap::new();
            for i in start..end {
                let is_store = self.warp_stores[i];
                if is_store && !wba {
                    continue;
                }
                let tag = self.warp_tags[i];
                let set = dec.set_of_tag(tag);
                let f = footprint[set as usize];
                if f <= assoc {
                    continue;
                }
                let list = recency.entry(set).or_default();
                match list.iter().position(|&t| t == tag) {
                    Some(d) => {
                        list.remove(d);
                        list.insert(0, tag);
                        if !is_store {
                            let creditable = wba || !self.lines[&tag].written;
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

    fn hit_interval(&self, cfg: &GpuConfig) -> HitInterval {
        assert_eq!(cfg.l1.line_bytes, self.line_bytes);
        let t = self.reads;
        if t == 0 || !cfg.l1_enabled {
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
        let cold_lines = self
            .lines
            .values()
            .filter(|r| r.read && (!wba || !r.written))
            .count() as u64;
        let hi = (t - cold_lines) as f64 / t as f64;
        let dec = Self::decoder(cfg, cfg.l1.index_fn);
        let assoc = cfg.l1.associativity as u64;
        let footprint = self.footprints(&dec, wba);
        let arrays = cfg.num_sms as u64 * cfg.l1_sectors as u64;
        let mut guaranteed = 0;
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
        HitInterval {
            lo: lo.min(hi),
            hi,
            reads: t,
            cold_lines,
            guaranteed_hits: guaranteed,
            conflict_hits: conflict,
        }
    }

    /// `(footprint, modulo_footprint, set_reads)` of the set model.
    fn set_model(&self, cfg: &GpuConfig) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let dec = Self::decoder(cfg, cfg.l1.index_fn);
        let n = dec.num_sets() as usize;
        if !cfg.l1_enabled {
            return (vec![0; n], vec![0; n], vec![0; n]);
        }
        let wba = cfg.l1.write_policy == WritePolicy::WriteBackAllocate;
        let mut set_reads = vec![0u64; n];
        for (&tag, rec) in &self.lines {
            if rec.read {
                set_reads[dec.set_of_tag(tag) as usize] += rec.touches;
            }
        }
        (
            self.footprints(&dec, wba),
            self.footprints(&Self::decoder(cfg, IndexFn::Modulo), wba),
            set_reads,
        )
    }
}

// ---------------------------------------------------------------------
// Random kernels and geometries.
// ---------------------------------------------------------------------

/// A kernel whose warps run seeded random programs over small line
/// pools: coalesced, scalar and gathered loads (cached, prefetched or
/// bypassing), cached and bypassing stores, atomics, compute and
/// barriers. Each op addresses either a pool all warps share or the
/// warp's private pool, so lines are reused within and across warps and
/// CTAs, some lines have one exclusive owner, and sets overflow at small
/// geometries.
#[derive(Debug, Clone)]
struct RandKernel {
    seed: u64,
    ctas: u32,
    warps: u32,
    ops: u32,
    pool_lines: u64,
}

impl KernelSpec for RandKernel {
    fn name(&self) -> String {
        "fold-rand".into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(Dim3::linear(self.ctas), self.warps * 32)
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let mut r = Lcg(self.seed ^ ((ctx.cta << 8) | warp as u64).wrapping_mul(0x9E37_79B9));
        let range = self.pool_lines * 128;
        let private = (1 + ctx.cta * self.warps as u64 + warp as u64) * range;
        (0..self.ops)
            .map(|_| {
                let pool = if r.below(4) == 0 { 0 } else { private };
                let addr = pool + (r.below(range) & !3);
                let cache_op = [CacheOp::CacheAll, CacheOp::PrefetchL1, CacheOp::BypassL1]
                    [r.below(3) as usize];
                match r.below(9) {
                    0 => Op::Load(MemAccess::coalesced(0, addr, 32, 4).with_cache_op(cache_op)),
                    1 => Op::Load(MemAccess::scalar(1, addr, 4).with_cache_op(cache_op)),
                    2 | 3 => {
                        let addrs = (0..1 + r.below(8)).map(|_| pool + r.below(range)).collect();
                        Op::Load(MemAccess::gather(2, addrs, 4).with_cache_op(cache_op))
                    }
                    4 => Op::Store(MemAccess::coalesced(0, addr, 32, 4)),
                    5 => Op::Store(MemAccess::scalar(1, addr, 4).with_cache_op(
                        if r.below(4) == 0 {
                            CacheOp::BypassL1
                        } else {
                            CacheOp::CacheAll
                        },
                    )),
                    6 => Op::Atomic(MemAccess::scalar(3, addr, 4)),
                    7 => Op::Compute(2),
                    _ => Op::Barrier,
                }
            })
            .collect()
    }
}

proptest! {
    /// On random kernels and L1 geometries — hashed and modulo indexing,
    /// write-evict and write-back-allocate, aggregated tags, 1–8 ways —
    /// the cost summary's hit interval and set model equal the
    /// reference's.
    #[test]
    fn cost_summary_matches_its_reference(
        (seed, ctas, warps, ops, pool_lines) in (
            0u64..1 << 48,
            // Mostly lone CTAs: a set owned by one warp is what the
            // conflict-aware credit needs.
            prop::sample::select(vec![1u32, 1, 1, 2, 5]),
            1u32..3,
            1u32..24,
            1u64..16,
        ),
        fermi in 0u32..2,
        geoms in prop::collection::vec(
            (
                1u32..9,
                0u32..5,
                0u32..2,
                prop::sample::select(vec![0u32, 0, 0, 1]),
                0u32..2,
                1usize..5,
            ),
            4..12,
        ),
    ) {
        let kernel = RandKernel { seed, ctas, warps, ops, pool_lines };
        let base = if fermi == 1 { arch::gtx570() } else { arch::gtx980() };
        let summary = AccessSummary::collect_on(&kernel, &base);
        let reference = RefSummary::collect(&kernel, &base);
        prop_assert_eq!(summary.reads(), reference.reads);
        let read_lines = reference.lines.values().filter(|r| r.read).count() as u64;
        prop_assert_eq!(summary.read_working_set(), read_lines);
        for (assoc, sets_exp, wba, ata, modulo, sms) in geoms {
            let mut cfg = base.clone();
            cfg.num_sms = sms;
            cfg.l1.associativity = assoc;
            cfg.l1.size_bytes = cfg.l1.line_bytes * assoc * (1 << sets_exp) * cfg.l1_sectors;
            cfg.l1.write_policy = if wba == 1 {
                WritePolicy::WriteBackAllocate
            } else {
                WritePolicy::WriteEvict
            };
            cfg.l1.aggregated_tags = ata == 1;
            cfg.l1.index_fn = if modulo == 1 { IndexFn::Modulo } else { IndexFn::Hashed };
            prop_assert_eq!(summary.hit_interval(&cfg), reference.hit_interval(&cfg));
            let model: SetConflictModel = summary.set_conflicts(&cfg);
            let (footprint, modulo_footprint, set_reads) = reference.set_model(&cfg);
            prop_assert_eq!(model.associativity, assoc as u64);
            prop_assert_eq!(model.index_fn, cfg.l1.index_fn);
            prop_assert_eq!(model.footprint, footprint);
            prop_assert_eq!(model.modulo_footprint, modulo_footprint);
            prop_assert_eq!(model.set_reads, set_reads);
            let policy = cfg.l1.write_policy;
            let cold = reference.reads > 0
                && reference.lines.values().all(|r| {
                    !r.read
                        || (r.touches == 1 && (policy == WritePolicy::WriteEvict || !r.written))
                });
            prop_assert_eq!(summary.all_reads_cold(policy), cold);
        }
    }
}

/// The random kernels reach the conflict-aware credit: a lone warp
/// owns every line of its overflowing sets, so close re-touches are
/// credited.
#[test]
fn random_kernels_reach_the_conflict_credit() {
    let mut credited = 0;
    for seed in 0..32 {
        let kernel = RandKernel {
            seed,
            ctas: 1,
            warps: 1,
            ops: 16,
            pool_lines: 12,
        };
        let mut cfg = arch::gtx570();
        cfg.l1.associativity = 2;
        cfg.l1.size_bytes = 128 * 2 * 2;
        cfg.l1.index_fn = IndexFn::Modulo;
        credited += RefSummary::collect(&kernel, &cfg)
            .hit_interval(&cfg)
            .conflict_hits;
    }
    assert!(credited > 0);
}
