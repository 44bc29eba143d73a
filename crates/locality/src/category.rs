//! Locality-source classification: the five application categories of the
//! paper's Figure 4, detected from the pre-L1 access stream.

use crate::wordmap::WordMap;
use crate::REFERENCE_LINE_BYTES;
use gpu_sim::{AccessEvent, TraceSink};
use std::fmt;

/// The paper's five sources of inter-CTA locality (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// (A) Algorithm related: the algorithm itself reuses the same words
    /// from different CTAs (MM, KMN, DCT, ...). Exploitable before runtime.
    Algorithm,
    /// (B) Cache-line related: reuse is introduced by long L1 lines — a
    /// different CTA touches other words of the same fetched line
    /// (SYK, NBO, ATX, ...). Exploitable before runtime.
    CacheLine,
    /// (C) Data related: reuse exists but depends on irregular runtime
    /// data organization (BFS, HST, BTR). Not exploitable in general.
    Data,
    /// (D) Write related: potential reuse is destroyed by the write-evict
    /// L1 when another CTA writes the same line (NW). Not exploitable.
    Write,
    /// (E) Streaming: coalesced, aligned, used-once accesses (BS, SAD,
    /// DXT). No inter-CTA reuse to exploit.
    Streaming,
}

impl Category {
    /// Whether the paper considers this category's inter-CTA locality
    /// *exploitable* by CTA-Clustering (§4.1): identifiable before runtime
    /// and worth clustering for.
    pub fn exploitable(&self) -> bool {
        matches!(self, Category::Algorithm | Category::CacheLine)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Algorithm => "algorithm",
            Category::CacheLine => "cache-line",
            Category::Data => "data",
            Category::Write => "write",
            Category::Streaming => "streaming",
        })
    }
}

/// Signature metrics feeding the classification decision.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Signature {
    /// Fraction of word reuses that cross the CTA boundary.
    pub word_inter_share: f64,
    /// Fraction of word accesses that are reuses at all.
    pub word_reuse_rate: f64,
    /// Cross-CTA word reuses per word access (absolute intensity).
    pub word_inter_rate: f64,
    /// Fraction of *line* reuses crossing CTAs where the two CTAs touched
    /// **different words** of the line (pure spatial, cache-line-sourced).
    /// Reads only: write-sharing belongs to the write-related category.
    pub line_inter_spatial_share: f64,
    /// Cross-CTA spatial line reuses per read-line touch (absolute
    /// intensity of the cache-line signal).
    pub line_spatial_rate: f64,
    /// Fraction of touched lines both read by one CTA and written by a
    /// different CTA (write-evict interference, Fig. 4-(D)).
    pub write_interference: f64,
    /// Mean lanes-per-transaction (32 = perfectly coalesced against the
    /// reference 128B line, ~1 = fully divergent).
    pub avg_coalescing: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct LineInfo {
    first_cta: u64,
    read_cta: Option<u64>,
    writer_cta: Option<u64>,
    multi_cta: bool,
    written_by_other: bool,
    /// Read-touched (reads only feed the sharing signals).
    touched: bool,
    /// Touched at all — the [`WordMap`] presence sentinel.
    present: bool,
}

/// Per-word sharing state. `seen` is the [`WordMap`] presence sentinel
/// ("touched before", the reuse predicate).
#[derive(Debug, Default, Clone, Copy)]
struct WordState {
    first_cta: u64,
    multi_cta: bool,
    seen: bool,
}

/// Trace sink computing a [`Signature`] and deriving a [`Category`].
///
/// The classifier mirrors the coarse-grained estimation flow of the
/// paper's Figure 11 framework: word-level inter-CTA sharing indicates
/// algorithm-related locality; line-level-only sharing indicates
/// cache-line-related locality; cross-CTA read/write mixing on a line
/// indicates write-related; low coalescing with some reuse indicates
/// data-related; everything else is streaming.
#[derive(Debug)]
pub struct CategoryProfiler {
    words: WordMap<WordState>,
    lines: WordMap<LineInfo>,
    // Per-record scratch (reused to keep the hot path allocation-free).
    seen_lines: Vec<u64>,
    seen_words: Vec<u64>,
    // Line-population counts, maintained incrementally so `signature`
    // never scans the paged stores.
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

impl Default for CategoryProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CategoryProfiler {
    /// Creates a classifier over the [`REFERENCE_LINE_BYTES`] line.
    pub fn new() -> Self {
        CategoryProfiler {
            words: WordMap::default(),
            lines: WordMap::default(),
            seen_lines: Vec::new(),
            seen_words: Vec::new(),
            lines_touched: 0,
            lines_interfered: 0,
            word_accesses: 0,
            word_reuses: 0,
            word_inter: 0,
            line_inter_spatial: 0,
            line_inter_word: 0,
            read_line_touches: 0,
            txns: 0,
            lanes: 0,
            stores: 0,
            accesses: 0,
        }
    }

    /// The computed signature so far.
    pub fn signature(&self) -> Signature {
        let lines_touched = self.lines_touched.max(1) as f64;
        let interfered = self.lines_interfered as f64;
        let line_inter_total = (self.line_inter_spatial + self.line_inter_word).max(1);
        Signature {
            word_inter_share: if self.word_reuses == 0 {
                0.0
            } else {
                self.word_inter as f64 / self.word_reuses as f64
            },
            word_reuse_rate: if self.word_accesses == 0 {
                0.0
            } else {
                self.word_reuses as f64 / self.word_accesses as f64
            },
            word_inter_rate: if self.word_accesses == 0 {
                0.0
            } else {
                self.word_inter as f64 / self.word_accesses as f64
            },
            line_inter_spatial_share: self.line_inter_spatial as f64 / line_inter_total as f64,
            line_spatial_rate: if self.read_line_touches == 0 {
                0.0
            } else {
                self.line_inter_spatial as f64 / self.read_line_touches as f64
            },
            write_interference: interfered / lines_touched,
            avg_coalescing: if self.txns == 0 {
                0.0
            } else {
                self.lanes as f64 / self.txns as f64
            },
            write_fraction: if self.accesses == 0 {
                0.0
            } else {
                self.stores as f64 / self.accesses as f64
            },
        }
    }

    /// Classifies the kernel from the accumulated signature.
    pub fn classify(&self) -> Category {
        classify(&self.signature())
    }
}

/// Thresholded decision tree over a [`Signature`].
pub fn classify(sig: &Signature) -> Category {
    let has_word_inter = sig.word_inter_share > 0.15 && sig.word_reuse_rate > 0.05;
    let has_line_inter = sig.line_inter_spatial_share > 0.30 && sig.line_spatial_rate > 0.02;
    // Write-related first: cross-CTA read/write mixing on a line destroys
    // any locality under the write-evict L1 even when word sharing exists
    // (NW's shifted read/write references are exactly this shape).
    if sig.write_interference > 0.05 && sig.write_fraction > 0.15 {
        return Category::Write;
    }
    // Cache-line-related: the *spatial* line-sharing signal dominates the
    // word-sharing signal. This holds even when a broadcast vector adds a
    // sliver of word sharing (ATX/MVT/BC read small shared vectors next
    // to their dominant panel walks).
    if has_line_inter && sig.line_spatial_rate > 2.0 * sig.word_inter_rate {
        return Category::CacheLine;
    }
    if has_word_inter {
        // Word-level sharing under divergent, irregular access is
        // data-related: the sharing exists but cannot be predicted before
        // runtime. Regular strided kernels keep higher coalescing.
        if sig.avg_coalescing < 6.0 {
            return Category::Data;
        }
        return Category::Algorithm;
    }
    if has_line_inter {
        return Category::CacheLine;
    }
    if sig.avg_coalescing < 6.0 && sig.word_reuse_rate > 0.01 {
        return Category::Data;
    }
    Category::Streaming
}

impl TraceSink for CategoryProfiler {
    fn record(&mut self, e: &AccessEvent<'_>) {
        self.accesses += 1;
        if e.is_write {
            self.stores += 1;
        }
        // Coalescing accounting against the reference line size. The
        // dedup scratch lives on `self` so the per-access hot path stays
        // allocation-free.
        let mut seen_lines = std::mem::take(&mut self.seen_lines);
        let mut seen_words = std::mem::take(&mut self.seen_words);
        seen_lines.clear();
        seen_words.clear();
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
            let entry = self.words.slot(word);
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
            let info = self.lines.slot(line);
            if !info.present {
                info.present = true;
                info.first_cta = e.cta;
                self.lines_touched += 1;
            }
            // Only reads feed the sharing signals: write-sharing without
            // read reuse is not cache-line locality (it is at best the
            // write-related pattern, tracked below).
            if !e.is_write {
                self.read_line_touches += 1;
                if info.first_cta != e.cta {
                    info.multi_cta = true;
                }
                if info.touched && info.multi_cta {
                    // A cross-CTA line reuse: spatial if the word is new
                    // to the line's history, word-level otherwise.
                    // Approximate with the word maps: if every word of
                    // this access was already multi-CTA-shared, count
                    // word-level.
                    let word_shared = seen_words
                        .iter()
                        .filter(|w| **w / (REFERENCE_LINE_BYTES / 4) == line)
                        .all(|w| self.words.get(*w).map(|s| s.multi_cta).unwrap_or(false));
                    if word_shared {
                        self.line_inter_word += 1;
                    } else {
                        self.line_inter_spatial += 1;
                    }
                }
                info.touched = true;
            }
            if e.is_write {
                // Write after a read by another CTA: the write-evict L1
                // will invalidate that reader's line.
                if let Some(reader) = info.read_cta {
                    if reader != e.cta && !info.written_by_other {
                        info.written_by_other = true;
                        self.lines_interfered += 1;
                    }
                }
                info.writer_cta = Some(e.cta);
            } else {
                // Read after a write by another CTA: the produced data
                // can never be served from the producer's L1.
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
        self.seen_lines = seen_lines;
        self.seen_words = seen_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut CategoryProfiler, cta: u64, warp: u32, addrs: &[u64], is_write: bool) {
        p.record(&AccessEvent {
            time: 0,
            sm_id: 0,
            slot: 0,
            cta,
            warp,
            tag: 0,
            is_write,
            is_atomic: false,
            bytes_per_lane: 4,
            addrs,
            latency: 1,
            served_by: gpu_sim::Level::L1,
        });
    }

    fn coalesced(base: u64) -> Vec<u64> {
        (0..32).map(|l| base + l * 4).collect()
    }

    #[test]
    fn algorithm_pattern_detected() {
        let mut p = CategoryProfiler::new();
        // Many CTAs read the same words, coalesced.
        for cta in 0..8 {
            feed(&mut p, cta, 0, &coalesced(0), false);
            feed(&mut p, cta, 0, &coalesced(4096 + cta * 128), false);
        }
        assert_eq!(p.classify(), Category::Algorithm);
        assert!(p.classify().exploitable());
    }

    #[test]
    fn cache_line_pattern_detected() {
        let mut p = CategoryProfiler::new();
        // Each CTA reads a distinct 32B quarter of shared 128B lines:
        // line-level sharing without word-level sharing.
        for cta in 0..4u64 {
            for row in 0..16u64 {
                let addrs: Vec<u64> = (0..8).map(|l| row * 128 + cta * 32 + l * 4).collect();
                feed(&mut p, cta, 0, &addrs, false);
            }
        }
        assert_eq!(p.classify(), Category::CacheLine);
    }

    #[test]
    fn streaming_pattern_detected() {
        let mut p = CategoryProfiler::new();
        for cta in 0..8 {
            feed(&mut p, cta, 0, &coalesced(cta * 1024), false);
            feed(&mut p, cta, 0, &coalesced(65536 + cta * 1024), true);
        }
        assert_eq!(p.classify(), Category::Streaming);
        assert!(!p.classify().exploitable());
    }

    #[test]
    fn write_pattern_detected() {
        let mut p = CategoryProfiler::new();
        // CTA i reads line i and writes into line i+1 (read by CTA i+1).
        for cta in 0..16u64 {
            feed(&mut p, cta, 0, &coalesced(cta * 128), false);
            feed(&mut p, cta, 0, &[(cta + 1) * 128], true);
        }
        assert_eq!(p.classify(), Category::Write);
    }

    #[test]
    fn data_pattern_detected() {
        let mut p = CategoryProfiler::new();
        // Divergent gathers with accidental cross-CTA sharing.
        for cta in 0..8u64 {
            let addrs: Vec<u64> = (0..32u64)
                .map(|l| ((l * 2654435761 + cta * 97) % 64) * 512)
                .collect();
            feed(&mut p, cta, 0, &addrs, false);
        }
        assert_eq!(p.classify(), Category::Data);
    }

    #[test]
    fn display_names() {
        assert_eq!(Category::Algorithm.to_string(), "algorithm");
        assert_eq!(Category::CacheLine.to_string(), "cache-line");
        assert_eq!(Category::Streaming.to_string(), "streaming");
    }
}
