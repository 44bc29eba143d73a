//! Telemetry trace sink: streams per-`(tag, cluster)` reuse-distance
//! histograms and per-level service counters onto a [`cta_obs::Obs`]
//! recorder.
//!
//! The sink accumulates everything locally while the simulation runs —
//! exact LRU stack distances via [`ReuseDistance`], latencies and
//! service levels in plain maps — and touches the recorder once, in
//! [`ObsSink::finish`]. The hot loop therefore costs the same whether
//! the recorder is the process-global one or a test-local one, and a
//! run traced through this sink produces byte-identical [`RunStats`] to
//! an untraced run ([`gpu_sim::TraceSink`]s observe, they cannot steer).
//!
//! [`RunStats`]: gpu_sim::RunStats

use crate::distance::ReuseDistance;
use crate::REFERENCE_LINE_BYTES;
use cta_obs::Hist;
use gpu_sim::{AccessEvent, Level, TraceSink};
use std::collections::BTreeMap;

/// Trace sink that renders the access stream into `cta-obs` metrics.
///
/// Metric names and keys (all under the scope string given at
/// construction, conventionally `{gpu}/{app}/{variant}`):
///
/// * `locality/reuse_distance` keyed `{scope}/tag{T}/c{C}` — log2-bucketed
///   exact LRU stack distances of read lines, per array tag and cluster.
/// * `locality/cold_lines` keyed `{scope}/tag{T}/c{C}` — first-touch
///   accesses (no defined distance; excluded from the histogram).
/// * `sim/load_latency` keyed `{scope}` — warp-visible load latencies in
///   cycles (deterministic: simulated time, not wall-clock).
/// * `sim/served_l1` / `sim/served_l2` / `sim/served_dram` keyed
///   `{scope}` — loads by the deepest level that serviced them.
pub struct ObsSink<F> {
    scope: String,
    cluster_of: F,
    dists: BTreeMap<(u16, u32), ReuseDistance>,
    latency: Hist,
    served: [u64; 3],
    line_buf: Vec<u64>,
}

impl<F: Fn(u64, usize) -> u32> std::fmt::Debug for ObsSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSink")
            .field("scope", &self.scope)
            .field("keys", &self.dists.len())
            .finish_non_exhaustive()
    }
}

impl<F: Fn(u64, usize) -> u32> ObsSink<F> {
    /// Creates a sink for one run. `cluster_of` maps `(cta, sm_id)` to a
    /// cluster id: baseline runs typically use the partition assignment
    /// of the CTA's data, agent-based runs use the SM (the paper binds
    /// one cluster per SM), and runs without a meaningful clustering can
    /// pass `|_, _| 0`.
    pub fn new(scope: impl Into<String>, cluster_of: F) -> Self {
        ObsSink {
            scope: scope.into(),
            cluster_of,
            dists: BTreeMap::new(),
            latency: Hist::new(),
            served: [0; 3],
            line_buf: Vec::new(),
        }
    }

    /// Flushes everything accumulated onto `obs`. Call once, after the
    /// simulation completes.
    pub fn finish(self, obs: &cta_obs::Obs) {
        let scope = &self.scope;
        obs.hist_absorb("sim/load_latency", scope, &self.latency);
        for (level, n) in ["sim/served_l1", "sim/served_l2", "sim/served_dram"]
            .iter()
            .zip(self.served)
        {
            if n > 0 {
                obs.counter(level, scope, n);
            }
        }
        for ((tag, cluster), dist) in &self.dists {
            let key = format!("{scope}/tag{tag}/c{cluster}");
            let mut h = Hist::new();
            for (d, n) in dist.histogram() {
                h.record_n(d, n);
            }
            obs.hist_absorb("locality/reuse_distance", &key, &h);
            obs.counter("locality/cold_lines", &key, dist.cold_misses());
        }
    }
}

impl<F: Fn(u64, usize) -> u32> TraceSink for ObsSink<F> {
    fn record(&mut self, e: &AccessEvent<'_>) {
        if e.is_write || e.is_atomic {
            return;
        }
        self.latency.record(e.latency);
        self.served[match e.served_by {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::Dram => 2,
        }] += 1;
        let cluster = (self.cluster_of)(e.cta, e.sm_id);
        let dist = self.dists.entry((e.tag, cluster)).or_default();
        // One distance sample per distinct line per warp instruction
        // (lanes hitting the same line are one request).
        self.line_buf.clear();
        for &addr in e.addrs {
            let line = addr / REFERENCE_LINE_BYTES;
            if !self.line_buf.contains(&line) {
                self.line_buf.push(line);
                dist.access(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_event(cta: u64, tag: u16, addrs: Vec<u64>, served_by: Level) -> OwnedEvent {
        OwnedEvent {
            cta,
            tag,
            addrs,
            served_by,
        }
    }

    struct OwnedEvent {
        cta: u64,
        tag: u16,
        addrs: Vec<u64>,
        served_by: Level,
    }

    fn feed<F: Fn(u64, usize) -> u32>(sink: &mut ObsSink<F>, ev: &OwnedEvent, is_write: bool) {
        sink.record(&AccessEvent {
            time: 0,
            sm_id: 0,
            slot: 0,
            cta: ev.cta,
            warp: 0,
            tag: ev.tag,
            is_write,
            is_atomic: false,
            bytes_per_lane: 4,
            addrs: &ev.addrs,
            latency: 7,
            served_by: ev.served_by,
        });
    }

    #[test]
    fn distances_are_keyed_by_tag_and_cluster() {
        let obs = cta_obs::Obs::new();
        let mut sink = ObsSink::new("T/APP/BSL", |cta, _sm| (cta % 2) as u32);
        // CTA 0 (cluster 0) touches line 0 twice with one line between:
        // distance 1. CTA 1 (cluster 1) touches line 0 once: cold only.
        for ev in [
            read_event(0, 3, vec![0], Level::Dram),
            read_event(0, 3, vec![128], Level::Dram),
            read_event(0, 3, vec![0], Level::L1),
            read_event(1, 3, vec![0], Level::L2),
        ] {
            feed(&mut sink, &ev, false);
        }
        feed(&mut sink, &read_event(0, 3, vec![256], Level::Dram), true); // write: ignored
        sink.finish(&obs);
        let snap = obs.snapshot();
        let h = snap
            .hist("locality/reuse_distance", "T/APP/BSL/tag3/c0")
            .expect("cluster 0 histogram");
        assert_eq!(h.count, 1); // the distance-1 reuse
        assert_eq!(snap.counter("locality/cold_lines", "T/APP/BSL/tag3/c0"), 2);
        assert_eq!(snap.counter("locality/cold_lines", "T/APP/BSL/tag3/c1"), 1);
        assert!(snap
            .hist("locality/reuse_distance", "T/APP/BSL/tag3/c1")
            .is_none_or(|h| h.count == 0));
        assert_eq!(snap.counter("sim/served_l1", "T/APP/BSL"), 1);
        assert_eq!(snap.counter("sim/served_l2", "T/APP/BSL"), 1);
        assert_eq!(snap.counter("sim/served_dram", "T/APP/BSL"), 2);
        // 4 reads recorded, writes excluded.
        assert_eq!(snap.hist("sim/load_latency", "T/APP/BSL").unwrap().count, 4);
    }

    #[test]
    fn lanes_on_one_line_are_one_sample() {
        let obs = cta_obs::Obs::new();
        let mut sink = ObsSink::new("s", |_, _| 0);
        feed(
            &mut sink,
            &read_event(0, 0, vec![0, 4, 8, 128], Level::L2),
            false,
        );
        sink.finish(&obs);
        let snap = obs.snapshot();
        // Two distinct lines, both cold.
        assert_eq!(snap.counter("locality/cold_lines", "s/tag0/c0"), 2);
    }
}
