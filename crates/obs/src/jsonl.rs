//! The deterministic JSONL exporter, plus a hand-rolled parser and
//! schema validator (no serde in the build environment — same rationale
//! as `cta_analyzer::json`).
//!
//! One JSON object per line: a header, then counters, histograms, span
//! aggregates and errors, each section sorted by its natural key. The
//! export contains *only* logical content — no wall-clock timestamps, no
//! thread ids — so a run's JSONL is byte-identical at any worker-thread
//! count. Wall-clock metrics (counter/histogram names starting with
//! `time/`) are excluded here and live in the Chrome trace instead.

use crate::snapshot::Snapshot;
use std::collections::BTreeMap;

/// Schema identifier emitted in (and required of) the header line.
pub const SCHEMA: &str = "cta-obs/v1";

/// Prefix marking wall-clock metrics excluded from deterministic export.
pub const TIME_PREFIX: &str = "time/";

/// Escapes a string for embedding in a JSON string literal: `"`, `\`
/// and the control characters, with `\n`, `\r` and `\t` in their short
/// forms and the rest as `\u00XX`. The workspace's one JSON escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as deterministic JSONL.
pub fn render_jsonl(snap: &Snapshot, bin: &str) -> String {
    let counters: Vec<_> = snap
        .counters
        .iter()
        .filter(|((n, _), _)| !n.starts_with(TIME_PREFIX))
        .collect();
    let hists: Vec<_> = snap
        .hists
        .iter()
        .filter(|((n, _), _)| !n.starts_with(TIME_PREFIX))
        .collect();
    // Errors aggregate by (kind, name): thread indices depend on
    // scheduling and must not reach the deterministic export.
    let mut errors: BTreeMap<(&'static str, &str), u64> = BTreeMap::new();
    for e in &snap.errors {
        *errors.entry((e.kind(), e.name())).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"bin\":\"{}\",\"counters\":{},\"hists\":{},\"spans\":{},\"errors\":{},\"dropped\":{}}}\n",
        SCHEMA,
        json_escape(bin),
        counters.len(),
        hists.len(),
        snap.spans.len(),
        errors.len(),
        snap.dropped,
    ));
    for ((name, key), v) in counters {
        out.push_str(&format!(
            "{{\"t\":\"counter\",\"name\":\"{}\",\"key\":\"{}\",\"value\":{}}}\n",
            json_escape(name),
            json_escape(key),
            v
        ));
    }
    for ((name, key), h) in hists {
        let buckets: Vec<String> = h
            .buckets()
            .iter()
            .map(|&(b, n)| format!("[{b},{n}]"))
            .collect();
        out.push_str(&format!(
            "{{\"t\":\"hist\",\"name\":\"{}\",\"key\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}\n",
            json_escape(name),
            json_escape(key),
            h.count,
            h.sum,
            buckets.join(",")
        ));
    }
    // Span lines carry counts only: nesting depth depends on which
    // thread ran the span relative to its parent (inline vs worker), so
    // like timestamps and thread ids it stays out of the deterministic
    // export (it is visible in the Chrome trace instead).
    for (name, agg) in &snap.spans {
        out.push_str(&format!(
            "{{\"t\":\"span\",\"name\":\"{}\",\"count\":{}}}\n",
            json_escape(name),
            agg.count
        ));
    }
    for ((kind, name), count) in errors {
        out.push_str(&format!(
            "{{\"t\":\"error\",\"kind\":\"{}\",\"name\":\"{}\",\"count\":{}}}\n",
            kind,
            json_escape(name),
            count
        ));
    }
    out
}

/// A parsed JSON value. Numbers keep their raw text so `u64` round-trips
/// without `f64` precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested field lookup: `doc.at(&["work_model", "l1_tag_chunks"])`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |cur, key| cur.get(key))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start}"));
        }
        Ok(Json::Num(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-UTF-8 number")?
                .to_string(),
        ))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-UTF-8 string")?;
                    let c = s.chars().next().ok_or("empty continuation")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parses one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after document at {}", p.pos));
    }
    Ok(v)
}

/// Section counts declared by (and checked against) a JSONL export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JsonlSummary {
    /// Counter lines.
    pub counters: u64,
    /// Histogram lines.
    pub hists: u64,
    /// Span lines.
    pub spans: u64,
    /// Error lines.
    pub errors: u64,
}

/// Validates a JSONL export against the `cta-obs/v1` schema: header
/// first, every line a well-formed object of a known type, sections in
/// order and sorted, section counts matching the header, no `time/`
/// metrics, and histogram bucket mass equal to the declared count.
pub fn validate(text: &str) -> Result<JsonlSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty document")?;
    let header = parse_json(header).map_err(|e| format!("header: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("header schema is not {SCHEMA:?}"));
    }
    let declared = JsonlSummary {
        counters: need_u64(&header, &["counters"])?,
        hists: need_u64(&header, &["hists"])?,
        spans: need_u64(&header, &["spans"])?,
        errors: need_u64(&header, &["errors"])?,
    };
    let mut seen = JsonlSummary::default();
    // Section order and intra-section sort keys.
    let section_rank = |t: &str| match t {
        "counter" => Ok(0u8),
        "hist" => Ok(1),
        "span" => Ok(2),
        "error" => Ok(3),
        other => Err(format!("unknown line type {other:?}")),
    };
    let mut last: Option<(u8, (String, String))> = None;
    for (i, line) in lines {
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = obj
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing \"t\"", i + 1))?
            .to_string();
        let rank = section_rank(&t).map_err(|e| format!("line {}: {e}", i + 1))?;
        let sort_key = match t.as_str() {
            "counter" | "hist" => {
                let name = need_str(&obj, &["name"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                if name.starts_with(TIME_PREFIX) {
                    return Err(format!(
                        "line {}: wall-clock metric {name:?} in deterministic export",
                        i + 1
                    ));
                }
                let key = need_str(&obj, &["key"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                if t == "counter" {
                    need_u64(&obj, &["value"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                    seen.counters += 1;
                } else {
                    let count =
                        need_u64(&obj, &["count"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                    let mass = bucket_mass(&obj).map_err(|e| format!("line {}: {e}", i + 1))?;
                    if mass != count {
                        return Err(format!(
                            "line {}: histogram mass {mass} != declared count {count}",
                            i + 1
                        ));
                    }
                    seen.hists += 1;
                }
                (name, key)
            }
            "span" => {
                let name = need_str(&obj, &["name"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                need_u64(&obj, &["count"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                seen.spans += 1;
                (name, String::new())
            }
            _ => {
                let kind = need_str(&obj, &["kind"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                let name = need_str(&obj, &["name"]).map_err(|e| format!("line {}: {e}", i + 1))?;
                seen.errors += 1;
                (kind, name)
            }
        };
        if let Some((prev_rank, prev_key)) = &last {
            if rank < *prev_rank || (rank == *prev_rank && sort_key < *prev_key) {
                return Err(format!("line {}: out of order", i + 1));
            }
        }
        last = Some((rank, sort_key));
    }
    if seen != declared {
        return Err(format!(
            "header declares {declared:?} but body has {seen:?}"
        ));
    }
    Ok(seen)
}

/// The string at `path` (see [`Json::at`]), or an error naming the path.
pub fn need_str(doc: &Json, path: &[&str]) -> Result<String, String> {
    doc.at(path)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {:?}", path.join(".")))
}

/// The unsigned integer at `path`, or an error naming the path.
pub fn need_u64(doc: &Json, path: &[&str]) -> Result<u64, String> {
    doc.at(path)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {:?}", path.join(".")))
}

/// The number at `path` as `f64`, or an error naming the path.
pub fn need_f64(doc: &Json, path: &[&str]) -> Result<f64, String> {
    doc.at(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field {:?}", path.join(".")))
}

fn bucket_mass(obj: &Json) -> Result<u64, String> {
    let Some(Json::Arr(buckets)) = obj.get("buckets") else {
        return Err("missing array field \"buckets\"".into());
    };
    let mut mass = 0u64;
    for b in buckets {
        let Json::Arr(pair) = b else {
            return Err("bucket is not a [index, count] pair".into());
        };
        if pair.len() != 2 {
            return Err("bucket is not a [index, count] pair".into());
        }
        mass += pair[1].as_u64().ok_or("bucket count is not an integer")?;
    }
    Ok(mass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_snapshot() -> Snapshot {
        let obs = Obs::new();
        obs.counter("sim/l1_hits", "GTX570/MM/BSL/sm0", 42);
        obs.counter("sim/l1_hits", "GTX570/MM/BSL/sm1", 7);
        obs.counter("time/busy_ns", "GTX570/MM/BSL", 123_456);
        obs.hist("reuse_distance", "GTX570/MM/BSL/tag0/c1", 5);
        obs.hist("reuse_distance", "GTX570/MM/BSL/tag0/c1", 900);
        {
            let _g = obs.span("GTX570/MM/BSL");
        }
        obs.snapshot()
    }

    #[test]
    fn render_validate_roundtrip() {
        let text = render_jsonl(&sample_snapshot(), "unit");
        let summary = validate(&text).expect("valid export");
        assert_eq!(
            summary,
            JsonlSummary {
                counters: 2, // time/busy_ns excluded
                hists: 1,
                spans: 1,
                errors: 0
            }
        );
        assert!(!text.contains("time/"), "wall-clock metric leaked:\n{text}");
    }

    #[test]
    fn validator_rejects_tampering() {
        let text = render_jsonl(&sample_snapshot(), "unit");
        // Flip a histogram count so mass no longer matches.
        let bad = text.replace("\"count\":2,\"sum\":905", "\"count\":3,\"sum\":905");
        assert_ne!(text, bad);
        assert!(validate(&bad).is_err());
        // Drop the header.
        let headless: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate(&headless).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"a":"x\"\nA","b":[1,2],"c":18446744073709551615}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\"\nA"));
        assert_eq!(v.get("c").unwrap().as_u64(), Some(u64::MAX));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2],").is_err());
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\"\\/ plain é\u{1F600}");
        let doc = format!("\"{}\"", json_escape(&text));
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(text.as_str()));
        assert_eq!(json_escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
        assert_eq!(json_escape("\u{1}\t"), r"\u0001\t");
    }

    #[test]
    fn path_lookup_and_accessors() {
        let doc = parse_json(r#"{"a":{"b":7,"s":"x","f":0.5}}"#).unwrap();
        assert_eq!(doc.at(&["a", "b"]), Some(&Json::Num("7".into())));
        assert_eq!(doc.at(&[]), Some(&doc));
        assert_eq!(need_u64(&doc, &["a", "b"]), Ok(7));
        assert_eq!(need_str(&doc, &["a", "s"]).as_deref(), Ok("x"));
        assert_eq!(need_f64(&doc, &["a", "f"]), Ok(0.5));
        assert_eq!(
            need_u64(&doc, &["a", "s"]),
            Err(r#"missing integer field "a.s""#.to_string())
        );
        assert!(need_str(&doc, &["a", "zz"]).is_err());
    }

    #[test]
    fn export_is_stable_across_recording_order() {
        let a = {
            let obs = Obs::new();
            obs.counter("m", "k1", 1);
            obs.counter("m", "k2", 2);
            obs.snapshot()
        };
        let b = {
            let obs = Obs::new();
            obs.counter("m", "k2", 2);
            obs.counter("m", "k1", 1);
            obs.snapshot()
        };
        assert_eq!(render_jsonl(&a, "x"), render_jsonl(&b, "x"));
    }
}
