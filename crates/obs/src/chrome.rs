//! Chrome `trace_event` exporter.
//!
//! Renders a snapshot's completed spans as a JSON array of complete
//! (`"ph":"X"`) events loadable in `chrome://tracing`, Perfetto, or
//! <https://ui.perfetto.dev>. Unlike the JSONL export this view carries
//! real wall-clock timestamps (microseconds since the recorder epoch)
//! and thread lanes, so it is *not* deterministic across runs — it is
//! the flamegraph view, not the golden-file view.

use crate::jsonl::{json_escape, TIME_PREFIX};
use crate::snapshot::Snapshot;

/// Renders the snapshot's trace as Chrome `trace_event` JSON.
///
/// `process` labels the single emitted process (pid 0); thread lanes map
/// to recorder sink indices. Wall-clock counters (`time/…`) are attached
/// as process-wide counter events at t=0 so queue-wait/busy totals show
/// up alongside the spans.
pub fn render_chrome_trace(snap: &Snapshot, process: &str) -> String {
    let mut events = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process)
    ));
    for span in &snap.trace {
        // trace_event timestamps are microseconds; keep sub-microsecond
        // spans visible by rounding the duration up to 1us.
        let ts_us = span.begin_ns / 1_000;
        let dur_us = ((span.end_ns - span.begin_ns) / 1_000).max(1);
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
            json_escape(&span.name),
            span.thread,
            ts_us,
            dur_us,
            span.depth
        ));
    }
    for ((name, key), v) in &snap.counters {
        if !name.starts_with(TIME_PREFIX) {
            continue;
        }
        let label = if key.is_empty() {
            name.clone()
        } else {
            format!("{name}[{key}]")
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{{\"ns\":{}}}}}",
            json_escape(&label),
            v
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{parse_json, Json};
    use crate::Obs;

    #[test]
    fn trace_is_valid_json_with_expected_events() {
        let obs = Obs::new();
        {
            let _outer = obs.span("matrix");
            let _inner = obs.span("GTX570/MM/BSL");
        }
        obs.counter("time/busy_ns", "", 42_000);
        let text = render_chrome_trace(&obs.snapshot(), "fig12_speedup");
        let doc = parse_json(&text).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents array");
        };
        // metadata + 2 spans + 1 counter
        assert_eq!(events.len(), 4);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert!(s.get("dur").and_then(Json::as_u64).unwrap() >= 1);
        }
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("time/busy_ns")
        );
    }

    #[test]
    fn logical_counters_stay_out_of_the_trace() {
        let obs = Obs::new();
        obs.counter("sim/l1_hits", "sm0", 5);
        let text = render_chrome_trace(&obs.snapshot(), "x");
        assert!(!text.contains("l1_hits"));
    }
}
