//! Minimal, dependency-free JSON rendering of a [`Report`].
//!
//! The output is deterministic: lints appear in registry (code) order and
//! diagnostics in the report's canonical (subject, code, message) order,
//! so byte-identical inputs produce byte-identical JSON — the property CI
//! relies on when diffing analyzer output across runs.

use crate::diag::{Report, LINTS};
use cta_obs::json_escape;

/// Renders the full report as a JSON document (version, lint registry,
/// sorted diagnostics, counts).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"lints\": [\n");
    for (i, l) in LINTS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"code\": \"{}\", \"name\": \"{}\", \"default_level\": \"{}\", \"summary\": \"{}\"}}{}\n",
            l.code,
            l.name,
            l.default_level,
            json_escape(l.summary),
            if i + 1 < LINTS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"diagnostics\": [\n");
    let diags = report.diagnostics();
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"code\": \"{}\", \"name\": \"{}\", \"level\": \"{}\", \"subject\": \"{}\", \"message\": \"{}\"}}{}\n",
            d.code,
            d.name,
            d.level,
            json_escape(&d.subject),
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"subjects_checked\": {},\n  \"deny\": {},\n  \"warn\": {}\n}}\n",
        report.subjects_checked(),
        report.deny_count(),
        report.warn_count()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{AGENT_COVERAGE, PARTITION_COVERAGE};

    #[test]
    fn json_is_deterministic_across_emission_orders() {
        let mut a = Report::new();
        a.emit(&AGENT_COVERAGE, "s2", "m".into());
        a.emit(&PARTITION_COVERAGE, "s1", "m".into());
        let mut b = Report::new();
        b.emit(&PARTITION_COVERAGE, "s1", "m".into());
        b.emit(&AGENT_COVERAGE, "s2", "m".into());
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn json_contains_registry_and_counts() {
        let mut r = Report::new();
        r.note_subject();
        r.emit(&AGENT_COVERAGE, "MM/GTX570/CLU", "CTA 3 missing".into());
        let j = render_json(&r);
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("\"code\": \"CL012\""));
        assert!(j.contains("\"deny\": 1"));
        assert!(j.contains("\"subjects_checked\": 1"));
    }
}
