//! Exact LRU reuse-distance (stack-distance) analysis over cache-line
//! streams, using a Fenwick tree for O(log n) per access.
//!
//! The paper's §5.2-(6) explains MM's weak clustering gains by its
//! inter-CTA *reuse distance* exceeding the 48KB L1 capacity; this module
//! provides the measurement behind that style of argument.

use std::collections::HashMap;

/// Fenwick (binary indexed) tree over access timestamps, growable.
///
/// Growth rebuilds the tree from the retained point values: a Fenwick
/// node covers a range that can include older indices, so zero-padding
/// alone would corrupt prefix sums.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<i64>,
    raw: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
            raw: vec![0; n],
        }
    }

    fn grow(&mut self, n: usize) {
        if n <= self.raw.len() {
            return;
        }
        let cap = n.next_power_of_two();
        self.raw.resize(cap, 0);
        self.tree = vec![0; cap + 1];
        for i in 0..cap {
            let v = self.raw[i];
            if v != 0 {
                self.add_tree(i, v);
            }
        }
    }

    fn add_tree(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    fn add(&mut self, i: usize, delta: i64) {
        self.grow(i + 1);
        self.raw[i] += delta;
        self.add_tree(i, delta);
    }

    /// Sum of entries in `[0, i]`.
    fn prefix(&self, i: usize) -> i64 {
        let mut s = 0;
        let mut j = (i + 1).min(self.tree.len() - 1);
        while j > 0 {
            s += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        s
    }
}

/// Streaming LRU stack-distance calculator over line addresses.
///
/// Feed line-granularity addresses with [`access`](Self::access); each call
/// returns the number of *distinct* lines touched since that line's
/// previous access (`None` for a cold first touch).
///
/// # Examples
///
/// ```
/// use locality::ReuseDistance;
///
/// let mut rd = ReuseDistance::new();
/// assert_eq!(rd.access(10), None);       // cold
/// assert_eq!(rd.access(20), None);       // cold
/// assert_eq!(rd.access(10), Some(1));    // one distinct line in between
/// assert_eq!(rd.access(10), Some(0));    // immediate re-touch
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseDistance {
    last_seen: HashMap<u64, usize>,
    fenwick: Option<Fenwick>,
    time: usize,
    histogram: HashMap<u64, u64>,
    cold: u64,
}

impl ReuseDistance {
    /// Creates an empty calculator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `line` and returns its stack distance.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let fw = self.fenwick.get_or_insert_with(|| Fenwick::new(1024));
        let t = self.time;
        self.time += 1;
        let dist = match self.last_seen.insert(line, t) {
            None => {
                self.cold += 1;
                None
            }
            Some(prev) => {
                // Distinct lines since prev = live markers in (prev, t).
                let d = (fw.prefix(t.max(1) - 1) - fw.prefix(prev)) as u64;
                fw.add(prev, -1);
                Some(d)
            }
        };
        fw.add(t, 1);
        if let Some(d) = dist {
            *self.histogram.entry(d).or_insert(0) += 1;
        }
        dist
    }

    /// Cold (first-touch) accesses so far.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Total re-accesses measured.
    pub fn reuses(&self) -> u64 {
        self.histogram.values().sum()
    }

    /// The full distance histogram, sorted by distance.
    pub fn histogram(&self) -> Vec<(u64, u64)> {
        let mut h: Vec<(u64, u64)> = self.histogram.iter().map(|(&d, &n)| (d, n)).collect();
        h.sort_unstable();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_sequence() {
        // a b c b a -> b at distance 1, a at distance 2
        let mut rd = ReuseDistance::new();
        assert_eq!(rd.access(0), None);
        assert_eq!(rd.access(1), None);
        assert_eq!(rd.access(2), None);
        assert_eq!(rd.access(1), Some(1));
        assert_eq!(rd.access(0), Some(2));
        assert_eq!(rd.cold_misses(), 3);
        assert_eq!(rd.reuses(), 2);
    }

    #[test]
    fn repeated_touch_distance_zero() {
        let mut rd = ReuseDistance::new();
        rd.access(5);
        assert_eq!(rd.access(5), Some(0));
        assert_eq!(rd.access(5), Some(0));
    }

    #[test]
    fn duplicates_between_touches_count_once() {
        // a b b b a -> a's distance is 1 (only b is distinct between).
        let mut rd = ReuseDistance::new();
        rd.access(0);
        rd.access(1);
        rd.access(1);
        rd.access(1);
        assert_eq!(rd.access(0), Some(1));
    }

    #[test]
    fn hit_fraction_thresholds() {
        let mut rd = ReuseDistance::new();
        for round in 0..2 {
            for line in 0..8u64 {
                rd.access(line);
            }
            let _ = round;
        }
        // Each of the 8 reuses has distance 7.
        assert_eq!(rd.reuses(), 8);
        assert_eq!(rd.histogram(), vec![(7, 8)]);
    }

    #[test]
    fn histogram_sorted() {
        let mut rd = ReuseDistance::new();
        rd.access(0);
        rd.access(1);
        rd.access(0); // d=1
        rd.access(0); // d=0
        assert_eq!(rd.histogram(), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn scales_past_initial_capacity() {
        let mut rd = ReuseDistance::new();
        for i in 0..5000u64 {
            rd.access(i);
        }
        for i in 0..5000u64 {
            assert_eq!(rd.access(i), Some(4999));
        }
    }
}
