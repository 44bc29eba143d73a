//! Paged word-indexed storage for the stream profilers.
//!
//! The profilers key their state by *word index* (`addr / 4`), and the
//! access streams they observe are overwhelmingly dense: a coalesced warp
//! instruction touches 32 consecutive words, and successive instructions
//! walk consecutive lines. A general-purpose hash map serves that pattern
//! one cache miss per lane — on streaming kernels the map grows to
//! millions of entries and the probe run costs more than the simulation
//! it observes. `WordMap` stores values in fixed-size pages indexed by
//! the high bits of the word index, so neighbouring words share cache
//! lines, and memoizes the last page so the per-lane fast path is a
//! compare plus an array index, no hashing at all.
//!
//! The map is insert-only and value slots are materialized eagerly per
//! page: a freshly-created slot is `V::default()`, and callers encode
//! presence in the value itself (every profiler already carries a
//! "touched" sentinel). Aggregation results are therefore identical to a
//! hash-map-backed implementation; only the memory layout differs.
//!
//! Pages are recycled through a thread-local, per-value-type pool: a
//! matrix run builds and drops one profiler per probe (90+ probes per
//! figure), and without pooling every probe re-pays the allocator for the
//! same few megabytes of page storage. Dropping a `WordMap` returns its
//! pages to the pool; creating a page prefers the pool and re-zeroes the
//! recycled storage (`V::default()` per slot), so pooled and fresh pages
//! are indistinguishable to callers — the differential property test pins
//! that.
//!
//! The word profilers read an event's lanes in address order
//! ([`ordered`], [`distinct_words`]): duplicate lanes then sit next to
//! each other, so deduplication is one compare with the previous word,
//! and a reference line's words are contiguous, so a profiler can
//! resolve the line's page once ([`WordMap::line_slots`]). Each profiler
//! updates a word or a line at most once per event and every counter it
//! keeps is a sum, so the lane order within an event never changes a
//! result.

use crate::REFERENCE_LINE_BYTES;
use gpu_sim::FxHashMap;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// log2 of the page size in words: 1024 words = 4 KiB of address space.
const PAGE_SHIFT: u32 = 10;
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const NO_PAGE: u32 = u32::MAX;

/// Words per [`REFERENCE_LINE_BYTES`] line: the slots
/// [`WordMap::line_slots`] returns.
pub(crate) const LINE_WORDS: u64 = REFERENCE_LINE_BYTES / 4;

// A reference line never straddles a page.
const _: () = assert!((PAGE_WORDS as u64).is_multiple_of(LINE_WORDS));

/// Most pages the pool retains per value type on one thread: 4096 pages
/// of 1024 slots, i.e. 4096 × 1024 × `size_of::<V>()` bytes — 32 MiB of
/// 8-byte word states, 192 MiB of 48-byte line records. That covers the
/// biggest single-probe footprint seen in the matrix. The pool only ever
/// holds pages the thread's own dropped maps returned, so it never holds
/// more than the thread has already used.
const POOL_CAP: usize = 4096;

thread_local! {
    /// Retired pages by value type, awaiting reuse. Thread-local so the
    /// parallel figure harness needs no locking; each worker thread
    /// recycles the pages of the probes it runs.
    static PAGE_POOL: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> =
        RefCell::new(HashMap::new());
}

/// A page for `V` slots: recycled from the pool when available (re-zeroed
/// to `V::default()`), freshly allocated otherwise.
fn acquire_page<V: Default + Clone + 'static>() -> Box<[V]> {
    let recycled = PAGE_POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let page = pool.get_mut(&TypeId::of::<V>())?.pop()?;
            page.downcast::<Box<[V]>>().ok()
        })
        .ok()
        .flatten();
    match recycled {
        Some(mut page) => {
            page.fill(V::default());
            *page
        }
        None => vec![V::default(); PAGE_WORDS].into_boxed_slice(),
    }
}

/// Insert-only sparse array keyed by word index (or another dense key,
/// such as a line number), paged for locality.
#[derive(Debug)]
pub(crate) struct WordMap<V: Default + Clone + 'static> {
    /// Page id (`word >> PAGE_SHIFT`) to index into `pages`.
    index: FxHashMap<u64, u32>,
    pages: Vec<Box<[V]>>,
    /// Memoized resolution of the most recent page lookup.
    last_page: u64,
    last_idx: u32,
}

impl<V: Default + Clone + 'static> Default for WordMap<V> {
    fn default() -> Self {
        WordMap {
            index: FxHashMap::default(),
            pages: Vec::new(),
            last_page: 0,
            last_idx: NO_PAGE,
        }
    }
}

impl<V: Default + Clone + 'static> Drop for WordMap<V> {
    fn drop(&mut self) {
        if self.pages.is_empty() {
            return;
        }
        // Return pages to the thread's pool, up to the cap. try_with:
        // during thread teardown the pool may already be gone, in which
        // case the pages just drop.
        let _ = PAGE_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let stack = pool.entry(TypeId::of::<V>()).or_default();
            for page in self.pages.drain(..) {
                if stack.len() >= POOL_CAP {
                    break;
                }
                stack.push(Box::new(page));
            }
        });
    }
}

impl<V: Default + Clone + 'static> WordMap<V> {
    /// The slots of page `page`, creating it on first touch.
    #[inline]
    fn page(&mut self, page: u64) -> &mut [V] {
        if self.last_idx == NO_PAGE || self.last_page != page {
            let pages = &mut self.pages;
            let idx = *self.index.entry(page).or_insert_with(|| {
                pages.push(acquire_page::<V>());
                (pages.len() - 1) as u32
            });
            self.last_page = page;
            self.last_idx = idx;
        }
        &mut self.pages[self.last_idx as usize]
    }

    /// The value slot for `word`, creating its page on first touch.
    #[inline]
    pub(crate) fn slot(&mut self, word: u64) -> &mut V {
        &mut self.page(word >> PAGE_SHIFT)[(word & (PAGE_WORDS as u64 - 1)) as usize]
    }

    /// The [`LINE_WORDS`] slots of reference line `line` (words
    /// `line * LINE_WORDS ..`), resolving their one page once.
    #[inline]
    pub(crate) fn line_slots(&mut self, line: u64) -> &mut [V] {
        let first = line * LINE_WORDS;
        let off = (first & (PAGE_WORDS as u64 - 1)) as usize;
        &mut self.page(first >> PAGE_SHIFT)[off..off + LINE_WORDS as usize]
    }

    /// Pages currently pooled for this value type on this thread
    /// (test observability).
    #[cfg(test)]
    fn pooled_pages() -> usize {
        PAGE_POOL
            .try_with(|pool| pool.borrow().get(&TypeId::of::<V>()).map_or(0, |s| s.len()))
            .unwrap_or(0)
    }
}

/// An event's lanes in ascending address order: `addrs` itself when it
/// is already sorted (coalesced accesses are), otherwise a sorted copy
/// in the caller's reused `scratch`.
pub(crate) fn ordered<'a>(addrs: &'a [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
    if addrs.is_sorted() {
        return addrs;
    }
    scratch.clear();
    scratch.extend_from_slice(addrs);
    scratch.sort_unstable();
    scratch
}

/// The distinct word indices (`addr / 4`) of ascending `lanes`, in
/// ascending order: a duplicate word can only follow itself.
pub(crate) fn distinct_words(lanes: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let mut prev = None;
    lanes
        .iter()
        .map(|&a| a / 4)
        .filter(move |&w| prev.replace(w) != Some(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read-only probe: the slot for `word` if its page exists. A slot
    /// that was never written reads as `V::default()`.
    fn get<V: Default + Clone + 'static>(m: &WordMap<V>, word: u64) -> Option<&V> {
        let idx = *m.index.get(&(word >> PAGE_SHIFT))?;
        Some(&m.pages[idx as usize][(word & (PAGE_WORDS as u64 - 1)) as usize])
    }

    #[test]
    fn slots_persist_and_default() {
        let mut m: WordMap<u64> = WordMap::default();
        assert_eq!(get(&m, 7), None);
        *m.slot(7) = 42;
        assert_eq!(get(&m, 7), Some(&42));
        // Same page, untouched slot: default, not absent.
        assert_eq!(get(&m, 8), Some(&0));
        // Different page.
        assert_eq!(get(&m, 7 + (1 << 20)), None);
        *m.slot(7 + (1 << 20)) = 9;
        assert_eq!(get(&m, 7 + (1 << 20)), Some(&9));
        // The memoized page still resolves correctly after switching back.
        assert_eq!(*m.slot(7), 42);
    }

    #[test]
    fn page_boundaries_do_not_alias() {
        let mut m: WordMap<u32> = WordMap::default();
        let last_of_page = (PAGE_WORDS - 1) as u64;
        *m.slot(last_of_page) = 1;
        *m.slot(last_of_page + 1) = 2;
        assert_eq!(get(&m, last_of_page), Some(&1));
        assert_eq!(get(&m, last_of_page + 1), Some(&2));
    }

    #[test]
    fn line_slots_alias_word_slots() {
        let mut m: WordMap<u32> = WordMap::default();
        // The last line of a page and the first of the next.
        let line = PAGE_WORDS as u64 / LINE_WORDS - 1;
        for l in [line, line + 1] {
            let slots = m.line_slots(l);
            assert_eq!(slots.len(), LINE_WORDS as usize);
            for (i, s) in slots.iter_mut().enumerate() {
                *s = (l * LINE_WORDS) as u32 + i as u32;
            }
        }
        for w in line * LINE_WORDS..(line + 2) * LINE_WORDS {
            assert_eq!(*m.slot(w), w as u32);
        }
    }

    #[test]
    fn ordered_lanes_dedup_adjacent_words() {
        let mut scratch = Vec::new();
        let sorted = [0u64, 1, 4, 4, 8];
        assert!(std::ptr::eq(ordered(&sorted, &mut scratch), &sorted[..]));
        let lanes = ordered(&[9, 0, 4, 3, u64::MAX, 4], &mut scratch);
        assert_eq!(lanes, [0, 3, 4, 4, 9, u64::MAX]);
        let words: Vec<u64> = distinct_words(lanes).collect();
        assert_eq!(words, [0, 1, 2, u64::MAX / 4]);
    }

    use proptest::prelude::*;
    use std::collections::HashMap as StdHashMap;

    /// A value type no other test uses, so the pool accounting below is
    /// not perturbed by tests running on the same thread.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct PoolProbe(u64);

    #[test]
    fn dropped_pages_are_recycled_zeroed() {
        let before = WordMap::<PoolProbe>::pooled_pages();
        {
            let mut m: WordMap<PoolProbe> = WordMap::default();
            *m.slot(0) = PoolProbe(0xDEAD);
            *m.slot(1 << 20) = PoolProbe(0xBEEF);
        } // drop returns 2 pages
        assert_eq!(WordMap::<PoolProbe>::pooled_pages(), before + 2);
        let mut m2: WordMap<PoolProbe> = WordMap::default();
        // Reuses a pooled page...
        let v = m2.slot(0);
        assert_eq!(*v, PoolProbe::default(), "recycled slot must be zeroed");
        assert_eq!(WordMap::<PoolProbe>::pooled_pages(), before + 1);
        // ...and the whole recycled page reads as default.
        for w in 1..PAGE_WORDS as u64 {
            assert_eq!(get(&m2, w), Some(&PoolProbe::default()));
        }
    }

    /// Isolated value type for the pooled-vs-fresh differential below.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct DiffProbe(u64);

    /// Deterministic per-case random stream: proptest drives the seed,
    /// the LCG stretches it into a write sequence.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    proptest! {
        /// Pool recycling is invisible to callers: a map built from
        /// deliberately polluted recycled pages agrees slot-for-slot with
        /// a hash-map reference over the whole address domain — written
        /// slots hold the written value, untouched slots of touched pages
        /// read as `default()` (never as stale garbage from the previous
        /// owner), and untouched pages stay absent.
        #[test]
        fn pooled_pages_behave_like_fresh(
            (seed, polluted_pages, n_writes) in (0u64..u64::MAX, 1usize..8, 1usize..256),
        ) {
            let domain = 6 * PAGE_WORDS as u64;
            let mut rng = Lcg(seed | 1);
            // Pollute the pool: scatter garbage values over several
            // pages, then drop the map so the dirty pages are recycled.
            {
                let mut m: WordMap<DiffProbe> = WordMap::default();
                for p in 0..polluted_pages as u64 {
                    for _ in 0..32 {
                        let w = (p << PAGE_SHIFT) | (rng.next() % PAGE_WORDS as u64);
                        *m.slot(w) = DiffProbe(rng.next() | 1);
                    }
                }
            }
            // Differential: a map that prefers those recycled pages vs a
            // plain hash map.
            let mut m: WordMap<DiffProbe> = WordMap::default();
            let mut reference: StdHashMap<u64, DiffProbe> = StdHashMap::new();
            for _ in 0..n_writes {
                let w = rng.next() % domain;
                let v = DiffProbe(rng.next());
                *m.slot(w) = v.clone();
                reference.insert(w, v);
            }
            let absent = DiffProbe::default();
            for w in 0..domain {
                match get(&m, w) {
                    Some(v) => prop_assert_eq!(v, reference.get(&w).unwrap_or(&absent)),
                    // Page never materialized: the reference cannot hold
                    // a value there either.
                    None => prop_assert!(!reference.contains_key(&w)),
                }
            }
        }
    }
}
