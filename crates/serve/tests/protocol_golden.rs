//! Protocol golden test: the committed request fixtures must produce
//! byte-exact committed responses, at every worker count.
//!
//! The fixture matrix covers the full protocol surface: valid named and
//! structural requests, a formatting twin (same digest, different id
//! and JSON shape), unknown fields, malformed JSON, a zero-CTA grid, an
//! unknown app, an unknown GPU, an oversize payload, an invalid mode
//! combination, and an ambiguous app+kernel request.
//!
//! Any intentional protocol change must regenerate the golden in the
//! same commit: `UPDATE_GOLDEN=1 cargo test -p cta-serve --test
//! protocol_golden`.

use cta_serve::{Server, ServerConfig};

const REQUESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/requests.jsonl");
const RESPONSES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/responses.jsonl");
const MIX_REQUESTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/mix_requests.jsonl"
);
const MIX_RESPONSES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/mix_responses.jsonl"
);

fn fixture_requests() -> Vec<String> {
    std::fs::read_to_string(REQUESTS)
        .expect("committed request fixtures present")
        .lines()
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect()
}

fn server(threads: usize) -> Server {
    Server::new(ServerConfig {
        threads,
        queue_cap: 0,
        ..ServerConfig::default()
    })
}

#[test]
fn fixtures_render_the_committed_golden_at_every_worker_count() {
    let lines = fixture_requests();
    assert!(lines.len() >= 14, "fixture matrix shrank");

    let baseline = server(1).handle_batch(&lines);
    for threads in [2, 8] {
        let parallel = server(threads).handle_batch(&lines);
        assert_eq!(
            baseline, parallel,
            "responses must be byte-identical at {threads} workers"
        );
    }

    let rendered: String = baseline.iter().map(|l| format!("{l}\n")).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(RESPONSES, &rendered).expect("rewrite golden");
        return;
    }
    let golden = std::fs::read_to_string(RESPONSES).expect(
        "golden responses missing; regenerate with UPDATE_GOLDEN=1 \
         cargo test -p cta-serve --test protocol_golden",
    );
    assert_eq!(
        rendered, golden,
        "protocol output drifted from tests/golden/responses.jsonl; if \
         the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_covers_the_error_matrix() {
    let golden = std::fs::read_to_string(RESPONSES).expect("golden responses present");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        lines.len(),
        fixture_requests().len(),
        "one response line per request line"
    );
    for code in [
        "\"error\":\"parse\"",
        "\"error\":\"bad-kernel\"",
        "\"error\":\"unknown-gpu\"",
        "\"error\":\"unknown-app\"",
        "\"error\":\"oversize\"",
        "\"error\":\"bad-request\"",
    ] {
        assert!(
            golden.contains(code),
            "golden must cover the {code} error path"
        );
    }
    // The formatting twin g2 answers with g1's plan under its own id.
    let g1 = lines[0];
    let g2 = lines[1];
    assert!(g1.contains("\"id\":\"g1\"") && g2.contains("\"id\":\"g2\""));
    assert_eq!(
        g1.replace("\"id\":\"g1\"", "\"id\":\"g2\""),
        g2.to_string(),
        "digest twins share one plan body"
    );
    // Same for the parameter-sweep twin g14 of the structural g3.
    let g3 = lines[2];
    let g14 = lines[13];
    assert_eq!(
        g3.replace("\"id\":\"g3\"", "\"id\":\"g14\""),
        g14.to_string(),
        "structural sweep twins share one plan body"
    );
    // Every success line carries the full plan/v1 field set.
    for line in &lines {
        assert!(line.starts_with("{\"proto\":\"plan/v1\",\"id\":\""));
        if !line.contains("\"error\"") {
            for field in [
                "\"category\"",
                "\"exploit\"",
                "\"axis\"",
                "\"active_agents\"",
                "\"max_agents\"",
                "\"bypass\"",
                "\"prefetch\"",
                "\"hit_lo\"",
                "\"hit_hi\"",
            ] {
                assert!(line.contains(field), "{line} lacks {field}");
            }
        }
    }
}

#[test]
fn stream_session_matches_the_batch_golden() {
    let lines = fixture_requests();
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut out = Vec::new();
    let s = server(3);
    let summary = s
        .serve_lines(input.as_bytes(), &mut out)
        .expect("stream session");
    assert_eq!(summary.requests, lines.len() as u64);
    assert_eq!(summary.responses, lines.len() as u64);
    let expect: String = server(1)
        .handle_batch(&lines)
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(String::from_utf8(out).expect("utf8"), expect);
}

/// The standard-mix fixture CI pipes through the `cta-serve` binary is
/// exactly the distinct request lines of [`cta_serve::bench::standard_mix`]
/// (the `BENCH_serve.json` mix), in mix order, and its pinned response
/// file answers each with a plan under the same id. Plans nothing, so it
/// stays cheap in debug builds.
#[test]
fn mix_fixture_is_the_standard_mix() {
    let (mut mix, distinct) = cta_serve::bench::standard_mix(4096);
    mix.truncate(distinct as usize);
    let rendered: String = mix.iter().map(|l| format!("{l}\n")).collect();
    let requests = std::fs::read_to_string(MIX_REQUESTS).expect("mix request fixture present");
    assert_eq!(
        requests, rendered,
        "mix_requests.jsonl drifted from standard_mix"
    );

    let responses = std::fs::read_to_string(MIX_RESPONSES).expect("mix responses present");
    let responses: Vec<&str> = responses.lines().collect();
    assert_eq!(responses.len(), mix.len(), "one response line per request");
    for (i, resp) in responses.iter().enumerate() {
        assert!(
            resp.starts_with(&format!(r#"{{"proto":"plan/v1","id":"b{i}","#)),
            "response {i} is not the plan for request b{i}: {resp}"
        );
    }
}
