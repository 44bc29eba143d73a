//! The `serve/v1` wire protocol: line-delimited JSON requests, `plan/v1`
//! responses.
//!
//! One request per line, one response line per request line, in request
//! order. A request names a kernel either by paper abbreviation
//! (`"app":"MM"`) or structurally (`"kernel":{...}` with grid geometry
//! and an access-pattern summary), plus the target GPU preset. The
//! response carries the locality category, the clustering plan, and the
//! predicted L1 hit-rate interval from the static cost model.
//!
//! ```text
//! -> {"id":"r1","gpu":"GTX570","app":"MM"}
//! <- {"proto":"plan/v1","id":"r1","gpu":"GTX570","app":"MM",
//!     "category":"algorithm","exploit":true,"axis":"Y-P", ...}
//! ```
//!
//! Error responses replace the plan fields with `"error"` (a stable
//! machine code) and `"message"`. Overload shedding answers with
//! `"error":"overload"` plus `"retry_after_ms"`, the 429 idiom.
//!
//! Protocol stability rules, pinned byte-exact by the golden tests:
//!
//! * Response field order is fixed; rates render with six decimals.
//! * Unknown request fields are **ignored** (forward compatibility — a
//!   newer client may send hints an older server does not know).
//! * A request line longer than [`MAX_LINE_BYTES`] is rejected with
//!   `"oversize"` before any parsing.
//! * Requests are answered in input order regardless of worker count.

use locality::{CanonHasher, Digest};

/// Hard cap on one request line, checked before the parser runs. Large
/// structural kernels fit comfortably; anything beyond this is a client
/// bug or an attack, not a kernel description.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Protocol version tag carried by every response.
pub const PROTO: &str = "plan/v1";

/// Upper bound on the accesses list of a structural kernel description.
pub const MAX_ACCESSES: usize = 256;

/// A protocol-level failure: a stable machine code plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (`parse`, `unknown-app`, `overload`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Builds an error with the given code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// Which planning path the request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Static classification + cost model only (the fast path).
    Static,
    /// Additionally sweep throttling degrees with real simulations.
    /// Orders of magnitude slower; only valid for named apps.
    Measured,
}

impl Mode {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Static => "static",
            Mode::Measured => "measured",
        }
    }
}

/// Whether a described access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Global-memory load.
    Load,
    /// Global-memory store.
    Store,
}

impl AccessKind {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        }
    }
}

/// One access pattern of a structural kernel description: every warp of
/// every CTA performs `reps` accesses of `lanes` consecutive
/// `bytes`-sized words starting at
/// `base + cta * cta_stride + warp * warp_stride + rep * rep_stride`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessDesc {
    /// Logical array tag.
    pub tag: u16,
    /// Load or store.
    pub kind: AccessKind,
    /// Base byte address of the array slice.
    pub base: u64,
    /// Byte stride between consecutive CTAs.
    pub cta_stride: u64,
    /// Byte stride between consecutive warps of one CTA.
    pub warp_stride: u64,
    /// Active lanes (1..=32).
    pub lanes: u32,
    /// Bytes per lane (1..=16).
    pub bytes: u32,
    /// Repetitions per warp (default 1).
    pub reps: u32,
    /// Byte stride between repetitions (default 0: re-access, i.e.
    /// temporal reuse within the warp).
    pub rep_stride: u64,
}

/// A structural kernel description: launch geometry plus access summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawKernel {
    /// Grid extent `[x, y, z]`.
    pub grid: [u32; 3],
    /// Threads per CTA.
    pub block: u32,
    /// Registers per thread.
    pub regs: u32,
    /// Shared memory bytes per CTA.
    pub smem: u32,
    /// The access patterns, in program order.
    pub accesses: Vec<AccessDesc>,
}

/// What kernel a request describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelRef {
    /// A suite workload by paper abbreviation (normalized uppercase).
    Named(String),
    /// A structural description.
    Raw(RawKernel),
}

/// A parsed `serve/v1` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Target GPU preset name (normalized: uppercase, spaces stripped).
    pub gpu: String,
    /// The kernel to plan for.
    pub kernel: KernelRef,
    /// Planning path.
    pub mode: Mode,
    /// Optional per-request deadline in milliseconds, measured from
    /// enqueue to planning start. Excluded from the content digest.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// The canonical content digest of the request's *semantic* fields:
    /// gpu, mode, and the kernel reference. The correlation id and the
    /// deadline do not affect the plan, so they are excluded — two
    /// tenants asking the same question share one cache entry.
    pub fn digest(&self) -> Digest {
        let mut h = CanonHasher::new("serve/req/v1");
        h.field("gpu").str(&self.gpu);
        h.field("mode").str(self.mode.as_str());
        match &self.kernel {
            KernelRef::Named(app) => {
                h.field("app").str(app);
            }
            KernelRef::Raw(k) => {
                h.field("grid")
                    .u64(k.grid[0] as u64)
                    .u64(k.grid[1] as u64)
                    .u64(k.grid[2] as u64);
                h.field("block").u64(k.block as u64);
                h.field("regs").u64(k.regs as u64);
                h.field("smem").u64(k.smem as u64);
                h.field("accesses").list_begin();
                for a in &k.accesses {
                    h.field("acc")
                        .u64(a.tag as u64)
                        .str(a.kind.as_str())
                        .u64(a.base)
                        .u64(a.cta_stride)
                        .u64(a.warp_stride)
                        .u64(a.lanes as u64)
                        .u64(a.bytes as u64)
                        .u64(a.reps as u64)
                        .u64(a.rep_stride);
                }
                h.list_end();
            }
        }
        h.digest()
    }
}

/// Normalizes a GPU preset name for lookup and digesting: uppercase,
/// spaces stripped (`"Tesla K40"` == `"teslak40"`).
pub fn normalize_gpu(name: &str) -> String {
    name.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_ascii_uppercase())
        .collect()
}

fn get_u64(
    obj: &cta_obs::Json,
    key: &str,
    default: Option<u64>,
    what: &str,
) -> Result<u64, ProtoError> {
    match obj.get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ProtoError::new("bad-request", format!("{what}.{key} must be a u64"))),
        None => {
            default.ok_or_else(|| ProtoError::new("bad-request", format!("{what}.{key} missing")))
        }
    }
}

fn get_u32(
    obj: &cta_obs::Json,
    key: &str,
    default: Option<u64>,
    what: &str,
) -> Result<u32, ProtoError> {
    let v = get_u64(obj, key, default, what)?;
    u32::try_from(v)
        .map_err(|_| ProtoError::new("bad-request", format!("{what}.{key} = {v} exceeds u32")))
}

fn parse_access(obj: &cta_obs::Json, idx: usize) -> Result<AccessDesc, ProtoError> {
    let what = format!("accesses[{idx}]");
    let kind = match obj.get("kind").and_then(|k| k.as_str()).unwrap_or("load") {
        "load" => AccessKind::Load,
        "store" => AccessKind::Store,
        other => {
            return Err(ProtoError::new(
                "bad-request",
                format!("{what}.kind: unknown kind {other:?}"),
            ))
        }
    };
    let lanes = get_u32(obj, "lanes", Some(32), &what)?;
    if lanes == 0 || lanes > 32 {
        return Err(ProtoError::new(
            "bad-request",
            format!("{what}.lanes = {lanes} outside 1..=32"),
        ));
    }
    let bytes = get_u32(obj, "bytes", Some(4), &what)?;
    if bytes == 0 || bytes > 16 {
        return Err(ProtoError::new(
            "bad-request",
            format!("{what}.bytes = {bytes} outside 1..=16"),
        ));
    }
    let reps = get_u32(obj, "reps", Some(1), &what)?;
    if reps == 0 || reps > 1024 {
        return Err(ProtoError::new(
            "bad-request",
            format!("{what}.reps = {reps} outside 1..=1024"),
        ));
    }
    let tag = get_u32(obj, "tag", Some(0), &what)?;
    let tag = u16::try_from(tag)
        .map_err(|_| ProtoError::new("bad-request", format!("{what}.tag = {tag} exceeds u16")))?;
    Ok(AccessDesc {
        tag,
        kind,
        base: get_u64(obj, "base", Some(0), &what)?,
        cta_stride: get_u64(obj, "cta_stride", Some(0), &what)?,
        warp_stride: get_u64(obj, "warp_stride", Some(0), &what)?,
        lanes,
        bytes,
        reps,
        rep_stride: get_u64(obj, "rep_stride", Some(0), &what)?,
    })
}

fn parse_raw_kernel(obj: &cta_obs::Json) -> Result<RawKernel, ProtoError> {
    let grid = match obj.get("grid") {
        Some(cta_obs::Json::Arr(dims)) if !dims.is_empty() && dims.len() <= 3 => {
            let mut g = [1u32; 3];
            for (i, d) in dims.iter().enumerate() {
                let v = d.as_u64().ok_or_else(|| {
                    ProtoError::new("bad-request", format!("kernel.grid[{i}] must be a u64"))
                })?;
                g[i] = u32::try_from(v).map_err(|_| {
                    ProtoError::new("bad-request", format!("kernel.grid[{i}] = {v} exceeds u32"))
                })?;
            }
            g
        }
        Some(_) => {
            return Err(ProtoError::new(
                "bad-request",
                "kernel.grid must be an array of 1..=3 extents",
            ))
        }
        None => return Err(ProtoError::new("bad-request", "kernel.grid missing")),
    };
    let block = get_u32(obj, "block", None, "kernel")?;
    let accesses = match obj.get("accesses") {
        Some(cta_obs::Json::Arr(items)) => {
            if items.len() > MAX_ACCESSES {
                return Err(ProtoError::new(
                    "bad-request",
                    format!(
                        "kernel.accesses: {} entries exceed the {MAX_ACCESSES} cap",
                        items.len()
                    ),
                ));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, a)| parse_access(a, i))
                .collect::<Result<Vec<_>, _>>()?
        }
        Some(_) => {
            return Err(ProtoError::new(
                "bad-request",
                "kernel.accesses must be an array",
            ))
        }
        None => Vec::new(),
    };
    Ok(RawKernel {
        grid,
        block,
        regs: get_u32(obj, "regs", Some(16), "kernel")?,
        smem: get_u32(obj, "smem", Some(0), "kernel")?,
        accesses,
    })
}

/// Parses one request line. On failure the returned error pairs with
/// the best-effort correlation id recovered from the line (empty when
/// even that is unreadable), so the error response still correlates.
pub fn parse_request(line: &str) -> Result<Request, (String, ProtoError)> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            String::new(),
            ProtoError::new(
                "oversize",
                format!(
                    "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
                    line.len()
                ),
            ),
        ));
    }
    let doc = cta_obs::parse_json(line)
        .map_err(|e| (String::new(), ProtoError::new("parse", e.to_string())))?;
    let id = doc
        .get("id")
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_string();
    let fail = |e: ProtoError| (id.clone(), e);
    if !matches!(doc, cta_obs::Json::Obj(_)) {
        return Err(fail(ProtoError::new(
            "bad-request",
            "request must be a JSON object",
        )));
    }
    let gpu = match doc.get("gpu").and_then(|v| v.as_str()) {
        Some(g) => normalize_gpu(g),
        None => {
            return Err(fail(ProtoError::new(
                "bad-request",
                "gpu (preset name) missing",
            )))
        }
    };
    let mode = match doc.get("mode").and_then(|v| v.as_str()).unwrap_or("static") {
        "static" => Mode::Static,
        "measured" => Mode::Measured,
        other => {
            return Err(fail(ProtoError::new(
                "bad-request",
                format!("unknown mode {other:?}"),
            )))
        }
    };
    let kernel = match (doc.get("app"), doc.get("kernel")) {
        (Some(_), Some(_)) => {
            return Err(fail(ProtoError::new(
                "bad-request",
                "request carries both app and kernel; pick one",
            )))
        }
        (Some(app), None) => match app.as_str() {
            Some(a) => KernelRef::Named(a.to_ascii_uppercase()),
            None => {
                return Err(fail(ProtoError::new(
                    "bad-request",
                    "app must be a string abbreviation",
                )))
            }
        },
        (None, Some(k)) => KernelRef::Raw(parse_raw_kernel(k).map_err(&fail)?),
        (None, None) => {
            return Err(fail(ProtoError::new(
                "bad-request",
                "request needs either app or kernel",
            )))
        }
    };
    if mode == Mode::Measured && matches!(kernel, KernelRef::Raw(_)) {
        return Err(fail(ProtoError::new(
            "bad-request",
            "measured mode requires a named app",
        )));
    }
    let deadline_ms = match doc.get("deadline_ms") {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| fail(ProtoError::new("bad-request", "deadline_ms must be a u64")))?,
        ),
        None => None,
    };
    Ok(Request {
        id,
        gpu,
        kernel,
        mode,
        deadline_ms,
    })
}

pub use cta_obs::json_escape;

/// Renders an error response line (no trailing newline).
pub fn render_error(id: &str, err: &ProtoError, retry_after_ms: Option<u64>) -> String {
    let mut out = format!(
        "{{\"proto\":\"{PROTO}\",\"id\":\"{}\",\"error\":\"{}\",\"message\":\"{}\"",
        json_escape(id),
        err.code,
        json_escape(&err.message)
    );
    if let Some(ms) = retry_after_ms {
        out.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_request_round_trip() {
        let r = parse_request(r#"{"id":"a","gpu":"gtx570","app":"mm"}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.gpu, "GTX570");
        assert_eq!(r.kernel, KernelRef::Named("MM".into()));
        assert_eq!(r.mode, Mode::Static);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let a = parse_request(r#"{"id":"a","gpu":"GTX570","app":"MM"}"#).unwrap();
        let b = parse_request(r#"{"id":"a","gpu":"GTX570","app":"MM","x-hint":42,"trace":true}"#)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_ignores_id_and_deadline_but_not_semantics() {
        let base = parse_request(r#"{"id":"a","gpu":"GTX570","app":"MM"}"#).unwrap();
        let other_id =
            parse_request(r#"{"id":"zz","gpu":"gtx 570","app":"mm","deadline_ms":5}"#).unwrap();
        assert_eq!(base.digest(), other_id.digest());
        let other_gpu = parse_request(r#"{"id":"a","gpu":"GTX980","app":"MM"}"#).unwrap();
        let other_app = parse_request(r#"{"id":"a","gpu":"GTX570","app":"NW"}"#).unwrap();
        assert_ne!(base.digest(), other_gpu.digest());
        assert_ne!(base.digest(), other_app.digest());
    }

    #[test]
    fn raw_kernel_defaults_and_bounds() {
        let r = parse_request(
            r#"{"id":"k","gpu":"GTX570","kernel":{"grid":[64,16],"block":64,
                "accesses":[{"tag":1,"base":4096,"cta_stride":256}]}}"#,
        )
        .unwrap();
        match &r.kernel {
            KernelRef::Raw(k) => {
                assert_eq!(k.grid, [64, 16, 1]);
                assert_eq!(k.regs, 16);
                let a = &k.accesses[0];
                assert_eq!((a.lanes, a.bytes, a.reps), (32, 4, 1));
                assert_eq!(a.kind, AccessKind::Load);
            }
            _ => panic!("expected raw kernel"),
        }
        let bad = parse_request(
            r#"{"id":"k","gpu":"GTX570","kernel":{"grid":[1],"block":32,
                "accesses":[{"lanes":33}]}}"#,
        );
        assert_eq!(bad.unwrap_err().1.code, "bad-request");
    }

    #[test]
    fn oversize_and_parse_failures() {
        let long = format!(r#"{{"id":"a","gpu":"{}"}}"#, "x".repeat(MAX_LINE_BYTES));
        assert_eq!(parse_request(&long).unwrap_err().1.code, "oversize");
        assert_eq!(parse_request("{nope").unwrap_err().1.code, "parse");
        let (id, err) = parse_request(r#"{"id":"r7","app":"MM"}"#).unwrap_err();
        assert_eq!(id, "r7", "id recovered for correlation");
        assert_eq!(err.code, "bad-request");
    }

    #[test]
    fn measured_mode_rejects_raw_kernels() {
        let e = parse_request(
            r#"{"id":"m","gpu":"GTX570","mode":"measured","kernel":{"grid":[1],"block":32}}"#,
        )
        .unwrap_err();
        assert_eq!(e.1.code, "bad-request");
    }

    #[test]
    fn error_rendering_escapes_and_orders_fields() {
        let e = ProtoError::new("parse", "broken \"line\"");
        assert_eq!(
            render_error("r\n1", &e, None),
            r#"{"proto":"plan/v1","id":"r\n1","error":"parse","message":"broken \"line\""}"#
        );
        let shed = ProtoError::new("overload", "queue full");
        assert!(render_error("x", &shed, Some(25)).ends_with(r#""retry_after_ms":25}"#));
    }
}
