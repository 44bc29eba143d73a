//! The committed `BENCH_sim_core.json` must carry exactly the counters
//! `gpu_sim` declares: its `engine` section (minus the derived
//! `skip_ratio`) lists `EngineMetrics::counters` and its `work_model`
//! section lists `WorkModel::counters`, both in declaration order. A
//! counter added, renamed or reordered without regenerating the artifact
//! fails here, before `sim_core --check` would fail on a missing key.

use cta_obs::Json;
use gpu_sim::EngineMetrics;

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_core.json");

fn keys(doc: &Json, section: &str) -> Vec<String> {
    let Some(Json::Obj(fields)) = doc.get(section) else {
        panic!("BENCH_sim_core.json has no {section:?} object");
    };
    fields
        .iter()
        .map(|(k, _)| k.clone())
        .filter(|k| k != "skip_ratio")
        .collect()
}

fn names(counters: Vec<(String, u64)>) -> Vec<String> {
    counters.into_iter().map(|(name, _)| name).collect()
}

#[test]
fn committed_artifact_lists_every_declared_counter() {
    let text = std::fs::read_to_string(ARTIFACT).expect("BENCH_sim_core.json is readable");
    let doc = cta_obs::parse_json(&text).expect("BENCH_sim_core.json parses");
    let metrics = EngineMetrics::default();
    assert_eq!(keys(&doc, "engine"), names(metrics.counters()));
    assert_eq!(keys(&doc, "work_model"), names(metrics.work.counters()));
}
