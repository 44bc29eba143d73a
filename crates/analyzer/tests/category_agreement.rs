//! Agreement test: the statically derived locality category (walked
//! warp programs, no timing model) must match the dynamic one (the same
//! profiler fed from a traced simulation run) for the 23 Table 2 apps.
//!
//! The two feeds observe the same accesses in different interleavings
//! (static is CTA-major; the simulator interleaves by cycle), so this
//! test is the proof that the classification is order-robust on the
//! suite the paper evaluates. One architecture suffices — the
//! quantification is data-driven (paper §3.2); Kepler is the preset the
//! Figure 3 harness profiles on.
//!
//! The same loop pins the two streaming rules: the word-level set the
//! planner reads off the profile is the harness's
//! `Framework::streaming_tags_static`, and the analyzer's stricter set
//! (word rule minus line-reused tags) drops a tag on DCT and NBO only.

use cluster_bench::runner::SharedKernel;
use cta_analyzer::StaticProfile;
use cta_clustering::Framework;
use gpu_sim::{arch, ArrayTag, Simulation};
use locality::CategoryProfiler;

/// Reference line size the static profile is defined over.
const LINE_BYTES: u64 = 128;

#[test]
fn static_and_dynamic_categories_agree_on_table2() {
    let mut disagreements = Vec::new();
    let mut strict_differs: Vec<(&str, Vec<ArrayTag>, Vec<ArrayTag>)> = Vec::new();
    let base = arch::tesla_k40();
    for w in gpu_kernels::suite::table2_suite(base.arch) {
        let kernel = SharedKernel::new(w);
        let info = kernel.info();
        let cfg = base.prefer_l1(gpu_sim::KernelSpec::launch(&kernel).smem_per_cta);

        let profile = StaticProfile::collect(&kernel, &cfg);
        let static_cat = profile.category;

        let word = profile.word_streaming_tags();
        assert_eq!(
            word,
            Framework::new(cfg.clone()).streaming_tags_static(&kernel),
            "{}: planner and harness bypass sets differ",
            info.abbr
        );
        let strict = profile.streaming_tags();
        if strict != word {
            strict_differs.push((info.abbr, word, strict));
        }

        let mut dynamic = CategoryProfiler::with_line_bytes(LINE_BYTES);
        Simulation::new(cfg.clone(), &kernel)
            .run_traced(&mut dynamic)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", info.abbr, cfg.name));
        let dynamic_cat = dynamic.classify();

        if static_cat != dynamic_cat {
            disagreements.push(format!(
                "{}/{}: static {static_cat}, dynamic {dynamic_cat}",
                info.abbr, cfg.name
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "static vs dynamic category disagreements:\n{}",
        disagreements.join("\n")
    );
    assert_eq!(
        strict_differs,
        vec![("DCT", vec![0, 3], vec![3]), ("NBO", vec![0, 2], vec![2])],
        "(app, word-rule set, strict set) where the two streaming rules disagree"
    );
}
