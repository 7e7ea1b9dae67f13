//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests are parsed by hand from the `serde` [`Value`] model rather
//! than derived, so every malformed field produces a contextual message
//! (`"pattern: --width must be 1..=4096, got 0"`) instead of a generic
//! shape error, and optional fields can simply be omitted by clients.
//!
//! Parsing is also where names become types: schemes, patterns,
//! transpose kinds and synthesis modes are parsed by the types that own
//! them, and every check that depends only on the request (xor needs a
//! power-of-two width, `pattern_block` needs a sampled scheme, the
//! transpose width cap) runs here. A [`Command`] that parses is valid;
//! the handler only rejects what depends on server state.
//!
//! Every request receives **exactly one** response line. A response is
//! either `ok:true` with a `data` object (possibly `degraded:true` when
//! served from the static analyzer instead of the Monte-Carlo engine),
//! or `ok:false` with a structured `error` carrying a stable `kind` and
//! an HTTP-flavoured `code` — load shedding is `shed`/429, a missed
//! deadline is `timeout`/504, a panicked handler that exhausted its
//! retries is `panic`/500. Nothing is ever silently dropped.

use rap_access::MatrixPattern;
use rap_core::Scheme;
use rap_synthesize::Mode;
use rap_transpose::TransposeKind;
use serde::{Deserialize, Serialize, Value};

/// The widest matrix any query may name. Bounds both memory (a layout
/// render is `w²` cells) and CPU (a Monte-Carlo trial is `w` warps of
/// `w` lanes), so one hostile request cannot take the worker heap down.
pub const MAX_WIDTH: usize = 4096;

/// The widest matrix a `synthesize` request may name — the search
/// evaluates whole layouts per candidate, so it gets a tighter cap than
/// the per-warp commands (mirrors the transpose cap rationale).
pub const MAX_SYNTHESIZE_WIDTH: usize = 512;

/// Transpose simulates every DMM cycle over a `w × w` matrix; cap the
/// width so one request cannot monopolise a worker for minutes.
pub const MAX_TRANSPOSE_WIDTH: usize = 512;

/// A `layout` response renders all `w²` cells as text; at this cap the
/// response line is about 2.1 MB.
pub const MAX_LAYOUT_WIDTH: usize = 512;

/// Longest accepted `workload` spec string, in bytes: a plan costs a
/// dozen-odd bytes, so this bounds the plan count without a separate
/// knob.
pub const MAX_WORKLOAD_SPEC: usize = 4096;

/// The layout a `pattern` request is evaluated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternScheme {
    /// A named scheme (raw|ras|rap|xor|padded).
    Static(Scheme),
    /// `"adaptive"`: the adaptive controller's committed layout.
    Adaptive,
}

/// What a client asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Render a scheme's bank layout.
    Layout {
        /// The scheme (xor only at power-of-two widths).
        scheme: Scheme,
        /// Matrix width.
        width: usize,
        /// Mapping seed.
        seed: u64,
    },
    /// Analyze one concrete warp of addresses.
    Congestion {
        /// Bank-count width.
        width: usize,
        /// The warp's flat addresses.
        addresses: Vec<u64>,
    },
    /// Monte-Carlo expected congestion of a pattern family — the
    /// expensive path; sheds to analyzer bounds when the breaker is open.
    Pattern {
        /// Table II pattern family.
        pattern: MatrixPattern,
        /// The layout to evaluate under.
        scheme: PatternScheme,
        /// Matrix width.
        width: usize,
        /// Trial count.
        trials: u64,
        /// Seed domain root.
        seed: u64,
    },
    /// One fixed-size block of a `pattern` Monte-Carlo estimate — the
    /// distribution unit of `rap-cluster`. Returns the block's raw
    /// accumulator as IEEE-754 bit patterns so a coordinator merging
    /// blocks in index order reproduces the single-process result bit
    /// for bit.
    ///
    /// With `blocks: k` it is a run of blocks `[block, block + k)` of the
    /// same decomposition, answered with `raw_stats` as an array of `k`
    /// accumulators in block order: one request and one answer carry a
    /// coordinator's whole batch. `k` is bounded by the last block, so
    /// the `trials` cap that bounds `pattern` bounds a run too. Without
    /// the field the request and its answer are a single block's.
    PatternBlock {
        /// Table II pattern family.
        pattern: MatrixPattern,
        /// A sampled scheme: raw|ras|rap.
        scheme: Scheme,
        /// Matrix width.
        width: usize,
        /// Total trials of the decomposition the block indexes into.
        trials: u64,
        /// Block index in `0..blocks_for(trials)`: the run's first block.
        block: u64,
        /// Run length `k`, `1..=blocks_for(trials) - block`; `None` for
        /// the single-block request and answer shape.
        blocks: Option<u64>,
        /// Seed domain root.
        seed: u64,
        /// Raw seed-domain state (overrides `seed` when present). This is
        /// the lossless transport form from [`rap_stats::SeedDomain::seed`]:
        /// a coordinator sends a *derived* cell domain (e.g. a Table II
        /// cell's) here, which cannot be expressed through the mixing
        /// `seed` constructor.
        domain_state: Option<u64>,
    },
    /// Static prover: certify Theorems 1 and 2 at a width.
    Analyze {
        /// Matrix width.
        width: usize,
    },
    /// DMM transpose timing run.
    Transpose {
        /// Algorithm kind.
        kind: TransposeKind,
        /// The scheme (xor only at power-of-two widths).
        scheme: Scheme,
        /// Matrix width, at most [`MAX_TRANSPOSE_WIDTH`].
        width: usize,
        /// DMM latency parameter.
        latency: u64,
        /// Mapping seed.
        seed: u64,
    },
    /// Layout synthesis: search for the shift table / σ minimizing the
    /// workload's certified worst-case congestion and return the
    /// checked certificate. Breaker-degradable: when the search path is
    /// shed, the best *known* static scheme's certified bound is served
    /// from the prover instead.
    Synthesize {
        /// `;`-separated plan specs (the `rap synthesize` grammar).
        workload: String,
        /// Layout family.
        mode: Mode,
        /// Matrix width.
        width: usize,
        /// Search seed (annealing path only).
        seed: u64,
    },
    /// Adaptive-remapping status snapshot: active scheme, epoch, phase,
    /// per-class windowed congestion vs. the certified bound, swap and
    /// rollback counts (served inline, never queued — it must answer
    /// mid-migration).
    AdaptStatus,
    /// Force an epoch swap to a named candidate. Queued like any
    /// mutating command: the full epoch protocol runs, every
    /// `adapt.*` failpoint fires, and every transition is ledgered.
    AdaptForce {
        /// Target candidate name (`raw|ras|rap|xor|padded` or a
        /// synthesized `synth:…` table).
        target: String,
        /// Migration steps before commit; omitted → controller default,
        /// `0` commits inline.
        steps: Option<u64>,
    },
    /// Freeze (`true`) or thaw (`false`) automatic swapping; forced
    /// swaps still work while frozen (served inline, never queued).
    AdaptFreeze {
        /// Desired freeze state.
        frozen: bool,
    },
    /// Liveness + queue/breaker snapshot (served inline, never queued).
    Health,
    /// Full counter snapshot (served inline, never queued).
    Stats,
    /// Begin graceful drain: stop accepting, finish in-flight, exit 0.
    Shutdown,
}

impl Command {
    /// Stable lower-case name (used for failpoint sites and metrics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Command::Layout { .. } => "layout",
            Command::Congestion { .. } => "congestion",
            Command::Pattern { .. } => "pattern",
            Command::PatternBlock { .. } => "pattern_block",
            Command::Analyze { .. } => "analyze",
            Command::Transpose { .. } => "transpose",
            Command::Synthesize { .. } => "synthesize",
            Command::AdaptStatus => "adapt_status",
            Command::AdaptForce { .. } => "adapt_force",
            Command::AdaptFreeze { .. } => "adapt_freeze",
            Command::Health => "health",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// The command to run.
    pub cmd: Command,
    /// Per-request deadline override in milliseconds (clamped by the
    /// server's configured maximum).
    pub timeout_ms: Option<u64>,
}

fn lookup<'v>(pairs: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn opt_u64(pairs: &[(String, Value)], key: &str) -> Result<Option<u64>, String> {
    match lookup(pairs, key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => u64::from_value(v)
            .map(Some)
            .map_err(|_| format!("field '{key}' must be a non-negative integer")),
    }
}

fn opt_string(pairs: &[(String, Value)], key: &str) -> Result<Option<String>, String> {
    match lookup(pairs, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field '{key}' must be a string")),
    }
}

fn required_string(pairs: &[(String, Value)], key: &str) -> Result<String, String> {
    opt_string(pairs, key)?.ok_or_else(|| format!("missing required field '{key}'"))
}

fn width_field(pairs: &[(String, Value)], default: usize) -> Result<usize, String> {
    let w = opt_u64(pairs, "width")?.map_or(default, |v| v as usize);
    if w == 0 || w > MAX_WIDTH {
        return Err(format!("field 'width' must be 1..={MAX_WIDTH}, got {w}"));
    }
    Ok(w)
}

fn seed_field(pairs: &[(String, Value)]) -> Result<u64, String> {
    Ok(opt_u64(pairs, "seed")?.unwrap_or(2014))
}

fn trials_field(pairs: &[(String, Value)]) -> Result<u64, String> {
    Ok(opt_u64(pairs, "trials")?
        .unwrap_or(1000)
        .clamp(1, 1_000_000))
}

/// A scheme that can lay out a `width`-wide matrix.
fn scheme_at(name: &str, width: usize) -> Result<Scheme, String> {
    let scheme: Scheme = name.parse()?;
    if scheme == Scheme::Xor && !width.is_power_of_two() {
        return Err(format!(
            "scheme 'xor' needs a power-of-two width, got {width}"
        ));
    }
    Ok(scheme)
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    /// A contextual message naming the offending field or value; the
    /// server turns it into a `bad_request`/400 response.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
        let pairs = value
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let id = opt_u64(pairs, "id")?;
        let timeout_ms = opt_u64(pairs, "timeout_ms")?;
        let cmd_name = required_string(pairs, "cmd")?;
        // Each arm reads its fields first and parses names after, so a
        // malformed field is reported before an unknown name.
        let cmd = match cmd_name.as_str() {
            "layout" => {
                let scheme = required_string(pairs, "scheme")?;
                let width = width_field(pairs, 8)?;
                if width > MAX_LAYOUT_WIDTH {
                    return Err(format!(
                        "layout renders every cell; width is capped at \
                         {MAX_LAYOUT_WIDTH}, got {width}"
                    ));
                }
                Command::Layout {
                    seed: seed_field(pairs)?,
                    scheme: scheme_at(&scheme, width)?,
                    width,
                }
            }
            "congestion" => {
                let addresses = match lookup(pairs, "addresses") {
                    Some(v) => Vec::<u64>::from_value(v).map_err(|_| {
                        "field 'addresses' must be an array of non-negative integers".to_string()
                    })?,
                    None => return Err("missing required field 'addresses'".to_string()),
                };
                if addresses.is_empty() {
                    return Err("field 'addresses' must not be empty".to_string());
                }
                if addresses.len() > MAX_WIDTH {
                    return Err(format!(
                        "field 'addresses' lists {} addresses (max {MAX_WIDTH})",
                        addresses.len()
                    ));
                }
                Command::Congestion {
                    width: width_field(pairs, 32)?,
                    addresses,
                }
            }
            "pattern" => {
                let pattern = required_string(pairs, "pattern")?;
                let scheme = required_string(pairs, "scheme")?;
                let width = width_field(pairs, 32)?;
                let (trials, seed) = (trials_field(pairs)?, seed_field(pairs)?);
                Command::Pattern {
                    pattern: pattern.parse()?,
                    scheme: if scheme.eq_ignore_ascii_case("adaptive") {
                        PatternScheme::Adaptive
                    } else {
                        PatternScheme::Static(scheme_at(&scheme, width)?)
                    },
                    width,
                    trials,
                    seed,
                }
            }
            "pattern_block" => {
                let trials = trials_field(pairs)?;
                let block = opt_u64(pairs, "block")?
                    .ok_or_else(|| "missing required field 'block'".to_string())?;
                let blocks = rap_access::montecarlo::blocks_for(trials);
                if block >= blocks {
                    return Err(format!(
                        "field 'block' must be 0..{blocks} for {trials} trials, got {block}"
                    ));
                }
                let run = opt_u64(pairs, "blocks")?;
                if let Some(k) = run.filter(|&k| k == 0 || k > blocks - block) {
                    return Err(format!(
                        "field 'blocks' must be 1..={} from block {block} of {trials} trials, \
                         got {k}",
                        blocks - block
                    ));
                }
                let pattern = required_string(pairs, "pattern")?;
                let scheme = required_string(pairs, "scheme")?;
                let width = width_field(pairs, 32)?;
                let (seed, domain_state) = (seed_field(pairs)?, opt_u64(pairs, "domain_state")?);
                let pattern = pattern.parse()?;
                let scheme: Scheme = scheme.parse()?;
                if !matches!(scheme, Scheme::Raw | Scheme::Ras | Scheme::Rap) {
                    return Err(format!(
                        "scheme '{scheme}' is deterministic and has no Monte-Carlo block \
                         decomposition; use 'pattern'"
                    ));
                }
                Command::PatternBlock {
                    pattern,
                    scheme,
                    width,
                    trials,
                    block,
                    blocks: run,
                    seed,
                    domain_state,
                }
            }
            "analyze" => Command::Analyze {
                width: width_field(pairs, 32)?,
            },
            "transpose" => {
                let kind = required_string(pairs, "kind")?;
                let scheme = required_string(pairs, "scheme")?;
                let width = width_field(pairs, 32)?;
                let latency = opt_u64(pairs, "latency")?.unwrap_or(8).max(1);
                let seed = seed_field(pairs)?;
                let kind = kind.parse()?;
                let scheme = scheme_at(&scheme, width)?;
                if width > MAX_TRANSPOSE_WIDTH {
                    return Err(format!(
                        "transpose simulates every DMM cycle; width is capped at \
                         {MAX_TRANSPOSE_WIDTH}, got {width}"
                    ));
                }
                Command::Transpose {
                    kind,
                    scheme,
                    width,
                    latency,
                    seed,
                }
            }
            "synthesize" => {
                let workload = required_string(pairs, "workload")?;
                if workload.len() > MAX_WORKLOAD_SPEC {
                    return Err(format!(
                        "field 'workload' is {} bytes (max {MAX_WORKLOAD_SPEC})",
                        workload.len()
                    ));
                }
                let mode = opt_string(pairs, "mode")?.unwrap_or_else(|| "sigma".to_string());
                let mode = Mode::parse(&mode).map_err(|_| {
                    format!("field 'mode' must be 'sigma' or 'table', got '{mode}'")
                })?;
                let width = width_field(pairs, 8)?;
                if width > MAX_SYNTHESIZE_WIDTH {
                    return Err(format!(
                        "field 'width' must be 1..={MAX_SYNTHESIZE_WIDTH} for synthesize \
                         (the search is superlinear in w), got {width}"
                    ));
                }
                Command::Synthesize {
                    workload,
                    mode,
                    width,
                    seed: seed_field(pairs)?,
                }
            }
            "adapt_status" => Command::AdaptStatus,
            "adapt_force" => Command::AdaptForce {
                target: required_string(pairs, "target")?,
                steps: opt_u64(pairs, "steps")?,
            },
            "adapt_freeze" => Command::AdaptFreeze {
                frozen: match lookup(pairs, "frozen") {
                    None | Some(Value::Null) => true,
                    Some(Value::Bool(b)) => *b,
                    Some(_) => return Err("field 'frozen' must be a boolean".to_string()),
                },
            },
            "health" => Command::Health,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            other => {
                return Err(format!(
                    "unknown cmd '{other}' (expected layout|congestion|pattern|pattern_block|\
                     analyze|transpose|synthesize|adapt_status|adapt_force|adapt_freeze|\
                     health|stats|shutdown)"
                ))
            }
        };
        Ok(Request {
            id,
            cmd,
            timeout_ms,
        })
    }
}

/// Stable error kinds a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was malformed (400).
    BadRequest,
    /// Admission control rejected the request: queue full (429).
    Shed,
    /// The deadline passed before or during execution (504).
    Timeout,
    /// The handler panicked past its retry budget (500).
    Panic,
    /// The handler hit an infrastructure error past its retries (500).
    HandlerFailed,
    /// The server is draining and will not start new work (503).
    Draining,
    /// The breaker is open and this command has no degraded path (503).
    Unavailable,
}

impl ErrorKind {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::Shed => "shed",
            Self::Timeout => "timeout",
            Self::Panic => "panic",
            Self::HandlerFailed => "handler_failed",
            Self::Draining => "draining",
            Self::Unavailable => "unavailable",
        }
    }

    /// HTTP-flavoured status code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Self::BadRequest => 400,
            Self::Shed => 429,
            Self::Timeout => 504,
            Self::Panic | Self::HandlerFailed => 500,
            Self::Draining | Self::Unavailable => 503,
        }
    }
}

/// The structured error payload of a failed response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable kind (see [`ErrorKind::name`]).
    pub kind: String,
    /// HTTP-flavoured status code.
    pub code: u16,
    /// Human-readable context.
    pub message: String,
}

/// One response line. Exactly one of `data`/`error` is non-null.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request's correlation id.
    pub id: Option<u64>,
    /// Whether the request produced a result.
    pub ok: bool,
    /// True when `data` came from a fallback path (static analyzer
    /// bounds, partial estimate) rather than the full computation.
    pub degraded: bool,
    /// Circuit-breaker state at response time (`closed|open|half-open`).
    pub breaker: String,
    /// The result payload (null on errors).
    pub data: Option<Value>,
    /// The structured error (null on success).
    pub error: Option<WireError>,
}

impl Response {
    /// A successful response.
    #[must_use]
    pub fn ok(id: Option<u64>, breaker: &str, data: Value) -> Self {
        Self {
            id,
            ok: true,
            degraded: false,
            breaker: breaker.to_string(),
            data: Some(data),
            error: None,
        }
    }

    /// A successful but explicitly degraded response.
    #[must_use]
    pub fn degraded(id: Option<u64>, breaker: &str, data: Value) -> Self {
        Self {
            degraded: true,
            ..Self::ok(id, breaker, data)
        }
    }

    /// A structured failure response.
    #[must_use]
    pub fn error(
        id: Option<u64>,
        breaker: &str,
        kind: ErrorKind,
        message: impl Into<String>,
    ) -> Self {
        Self {
            id,
            ok: false,
            degraded: false,
            breaker: breaker.to_string(),
            data: None,
            error: Some(WireError {
                kind: kind.name().to_string(),
                code: kind.code(),
                message: message.into(),
            }),
        }
    }

    /// Serialize to one newline-terminated wire line: the derived
    /// serialization's bytes, written from the borrowed payload rather
    /// than from a copy of it.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = serde_json::object_to_string(&[
            ("id", &self.id.to_value()),
            ("ok", &Value::Bool(self.ok)),
            ("degraded", &Value::Bool(self.degraded)),
            ("breaker", &self.breaker.to_value()),
            ("data", self.data.as_ref().unwrap_or(&Value::Null)),
            ("error", &self.error.to_value()),
        ]);
        line.push('\n');
        line
    }

    /// Parse a response line (clients and tests).
    ///
    /// # Errors
    /// A message describing the malformed line.
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line.trim()).map_err(|e| format!("invalid response JSON: {e}"))
    }

    /// The error kind name, if this is a failure response.
    #[must_use]
    pub fn error_kind(&self) -> Option<&str> {
        self.error.as_ref().map(|e| e.kind.as_str())
    }
}

/// Build a JSON object value from key/value pairs (helper for handlers).
#[must_use]
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_pattern_request() {
        let r = Request::parse(
            r#"{"cmd":"pattern","id":7,"pattern":"stride","scheme":"rap","width":16,"trials":50,"seed":3,"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.timeout_ms, Some(250));
        match r.cmd {
            Command::Pattern {
                pattern,
                scheme,
                width,
                trials,
                seed,
            } => {
                assert_eq!(pattern, MatrixPattern::Stride);
                assert_eq!(scheme, PatternScheme::Static(Scheme::Rap));
                assert_eq!((width, trials, seed), (16, 50, 3));
            }
            other => panic!("wrong cmd: {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_in() {
        let r = Request::parse(r#"{"cmd":"analyze"}"#).unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.cmd, Command::Analyze { width: 32 });
    }

    #[test]
    fn rejects_malformed_lines_with_context() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":1}"#, "missing required field 'cmd'"),
            (r#"{"cmd":"fly"}"#, "unknown cmd 'fly'"),
            (r#"{"cmd":"layout"}"#, "missing required field 'scheme'"),
            (r#"{"cmd":"layout","scheme":"rap","width":0}"#, "1..=4096"),
            (
                r#"{"cmd":"layout","scheme":"rap","width":5000}"#,
                "1..=4096",
            ),
            (
                r#"{"cmd":"layout","scheme":"rap","width":"wide"}"#,
                "field 'width'",
            ),
            (
                r#"{"cmd":"congestion","width":4}"#,
                "missing required field 'addresses'",
            ),
            (
                r#"{"cmd":"congestion","width":4,"addresses":[]}"#,
                "must not be empty",
            ),
            (
                r#"{"cmd":"congestion","width":4,"addresses":["x"]}"#,
                "array of non-negative integers",
            ),
            (
                r#"{"cmd":"pattern","pattern":"stride","scheme":1}"#,
                "field 'scheme' must be a string",
            ),
            (r#"{"cmd":"analyze","id":-3}"#, "non-negative integer"),
            (
                r#"{"cmd":"pattern_block","pattern":"stride","scheme":"rap"}"#,
                "missing required field 'block'",
            ),
            (
                r#"{"cmd":"pattern_block","pattern":"stride","scheme":"rap","trials":64,"block":2}"#,
                "field 'block' must be 0..2 for 64 trials",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn names_parse_case_insensitively_into_types() {
        let r = Request::parse(
            r#"{"cmd":"pattern","pattern":"Contiguous","scheme":"ADAPTIVE","width":8}"#,
        )
        .unwrap();
        match r.cmd {
            Command::Pattern {
                pattern, scheme, ..
            } => {
                assert_eq!(pattern, MatrixPattern::Contiguous);
                assert_eq!(scheme, PatternScheme::Adaptive);
            }
            other => panic!("wrong cmd: {other:?}"),
        }
        let r = Request::parse(r#"{"cmd":"transpose","kind":"Drdw","scheme":"Padded","width":12}"#)
            .unwrap();
        assert_eq!(
            r.cmd,
            Command::Transpose {
                kind: TransposeKind::Drdw,
                scheme: Scheme::Padded,
                width: 12,
                latency: 8,
                seed: 2014,
            }
        );
        let r = Request::parse(r#"{"cmd":"layout","scheme":"XOR","width":16}"#).unwrap();
        assert_eq!(
            r.cmd,
            Command::Layout {
                scheme: Scheme::Xor,
                width: 16,
                seed: 2014,
            }
        );
    }

    /// Every check that depends only on the request rejects at parse
    /// time with the message the handler used to return.
    #[test]
    fn request_only_checks_reject_at_parse_time() {
        for (line, message) in [
            (
                r#"{"cmd":"layout","scheme":"zzz","width":8}"#,
                "unknown scheme 'zzz' (expected raw|ras|rap|xor|padded)",
            ),
            (
                r#"{"cmd":"layout","scheme":"xor","width":12}"#,
                "scheme 'xor' needs a power-of-two width, got 12",
            ),
            (
                r#"{"cmd":"layout","scheme":"adaptive"}"#,
                "unknown scheme 'adaptive' (expected raw|ras|rap|xor|padded)",
            ),
            (
                r#"{"cmd":"pattern","pattern":"zigzag","scheme":"rap","width":16}"#,
                "unknown pattern 'zigzag' (expected contiguous|stride|diagonal|random)",
            ),
            (
                r#"{"cmd":"pattern","pattern":"zigzag","scheme":"adaptive"}"#,
                "unknown pattern 'zigzag' (expected contiguous|stride|diagonal|random)",
            ),
            (
                r#"{"cmd":"pattern","pattern":"broadcast","scheme":"rap"}"#,
                "unknown pattern 'broadcast' (expected contiguous|stride|diagonal|random)",
            ),
            (
                r#"{"cmd":"pattern","pattern":"Stride","scheme":"BOGUS"}"#,
                "unknown scheme 'bogus' (expected raw|ras|rap|xor|padded)",
            ),
            (
                r#"{"cmd":"pattern","pattern":"stride","scheme":"xor","width":12}"#,
                "scheme 'xor' needs a power-of-two width, got 12",
            ),
            (
                r#"{"cmd":"pattern_block","pattern":"zigzag","scheme":"rap","trials":32,"block":0}"#,
                "unknown pattern 'zigzag' (expected contiguous|stride|diagonal|random)",
            ),
            (
                r#"{"cmd":"pattern_block","pattern":"stride","scheme":"adaptive","trials":32,"block":0}"#,
                "unknown scheme 'adaptive' (expected raw|ras|rap|xor|padded)",
            ),
            (
                r#"{"cmd":"pattern_block","pattern":"stride","scheme":"padded","trials":32,"block":0}"#,
                "scheme 'Padded' is deterministic and has no Monte-Carlo block \
                 decomposition; use 'pattern'",
            ),
            (
                r#"{"cmd":"transpose","kind":"zzz","scheme":"raw"}"#,
                "unknown kind 'zzz' (expected crsw|srcw|drdw)",
            ),
            (
                r#"{"cmd":"transpose","kind":"crsw","scheme":"zzz"}"#,
                "unknown scheme 'zzz' (expected raw|ras|rap|xor|padded)",
            ),
            (
                r#"{"cmd":"transpose","kind":"crsw","scheme":"xor","width":24}"#,
                "scheme 'xor' needs a power-of-two width, got 24",
            ),
            (
                r#"{"cmd":"transpose","kind":"crsw","scheme":"rap","width":513}"#,
                "transpose simulates every DMM cycle; width is capped at 512, got 513",
            ),
            // Malformed fields are reported before unknown names.
            (
                r#"{"cmd":"layout","scheme":"zzz","width":0}"#,
                "field 'width' must be 1..=4096, got 0",
            ),
            (
                r#"{"cmd":"pattern_block","pattern":"zigzag","scheme":"zzz","trials":64,"block":2}"#,
                "field 'block' must be 0..2 for 64 trials, got 2",
            ),
        ] {
            assert_eq!(Request::parse(line), Err(message.to_string()), "{line}");
        }
        // The cap is inclusive, and xor is fine at a power of two.
        assert!(
            Request::parse(r#"{"cmd":"transpose","kind":"crsw","scheme":"xor","width":512}"#)
                .is_ok()
        );
    }

    #[test]
    fn parses_a_pattern_block_request() {
        let r = Request::parse(
            r#"{"cmd":"pattern_block","id":3,"pattern":"random","scheme":"ras","width":16,"trials":100,"block":3,"seed":5}"#,
        )
        .unwrap();
        assert_eq!(
            r.cmd,
            Command::PatternBlock {
                pattern: MatrixPattern::Random,
                scheme: Scheme::Ras,
                width: 16,
                trials: 100,
                block: 3,
                blocks: None,
                seed: 5,
                domain_state: None,
            }
        );
        assert_eq!(r.cmd.name(), "pattern_block");
        let r = Request::parse(
            r#"{"cmd":"pattern_block","pattern":"random","scheme":"rap","trials":64,"block":1,"domain_state":12345}"#,
        )
        .unwrap();
        match r.cmd {
            Command::PatternBlock { domain_state, .. } => {
                assert_eq!(domain_state, Some(12345));
            }
            other => panic!("wrong cmd: {other:?}"),
        }
    }

    #[test]
    fn pattern_block_runs_are_bounded_by_the_last_block() {
        let run = |extra: &str| {
            Request::parse(&format!(
                r#"{{"cmd":"pattern_block","pattern":"random","scheme":"rap","trials":100,"block":1{extra}}}"#
            ))
            .map(|r| match r.cmd {
                Command::PatternBlock { blocks, .. } => blocks,
                other => panic!("wrong cmd: {other:?}"),
            })
        };
        // 100 trials are 4 blocks, so a run from block 1 holds 1..=3.
        assert_eq!(run(""), Ok(None));
        assert_eq!(run(r#","blocks":null"#), Ok(None));
        assert_eq!(run(r#","blocks":1"#), Ok(Some(1)));
        assert_eq!(run(r#","blocks":3"#), Ok(Some(3)));
        let bounds = "field 'blocks' must be 1..=3 from block 1 of 100 trials";
        assert_eq!(run(r#","blocks":0"#), Err(format!("{bounds}, got 0")));
        assert_eq!(run(r#","blocks":4"#), Err(format!("{bounds}, got 4")));
        for bad in [r#","blocks":1.5"#, r#","blocks":"2""#, r#","blocks":-1"#] {
            assert_eq!(
                run(bad),
                Err("field 'blocks' must be a non-negative integer".to_string()),
                "{bad}"
            );
        }
    }

    #[test]
    fn parses_a_synthesize_request_with_defaults() {
        let r = Request::parse(r#"{"cmd":"synthesize","workload":"column:0;diagonal:1"}"#).unwrap();
        assert_eq!(
            r.cmd,
            Command::Synthesize {
                workload: "column:0;diagonal:1".into(),
                mode: Mode::Sigma,
                width: 8,
                seed: 2014,
            }
        );
        let r = Request::parse(
            r#"{"cmd":"synthesize","workload":"column:0","mode":"table","width":4,"seed":9}"#,
        )
        .unwrap();
        assert_eq!(
            r.cmd,
            Command::Synthesize {
                workload: "column:0".into(),
                mode: Mode::Table,
                width: 4,
                seed: 9,
            }
        );
    }

    #[test]
    fn synthesize_requests_are_validated() {
        for (line, needle) in [
            (
                r#"{"cmd":"synthesize"}"#.to_string(),
                "missing required field 'workload'",
            ),
            (
                r#"{"cmd":"synthesize","workload":"column:0","mode":"zigzag"}"#.to_string(),
                "'sigma' or 'table'",
            ),
            (
                r#"{"cmd":"synthesize","workload":"column:0","width":513}"#.to_string(),
                "superlinear",
            ),
            (
                format!(
                    r#"{{"cmd":"synthesize","workload":"{}"}}"#,
                    "x".repeat(MAX_WORKLOAD_SPEC + 1)
                ),
                "bytes (max",
            ),
        ] {
            let err = Request::parse(&line).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
        // The spec's *content* is the handler's concern, not the
        // protocol's: a syntactically bogus plan still parses here.
        assert!(Request::parse(r#"{"cmd":"synthesize","workload":"bogus:9"}"#).is_ok());
    }

    #[test]
    fn parses_adapt_commands() {
        let r = Request::parse(r#"{"cmd":"adapt_status","id":4}"#).unwrap();
        assert_eq!(r.cmd, Command::AdaptStatus);
        assert_eq!(r.cmd.name(), "adapt_status");

        let r = Request::parse(r#"{"cmd":"adapt_force","target":"padded","steps":3}"#).unwrap();
        assert_eq!(
            r.cmd,
            Command::AdaptForce {
                target: "padded".into(),
                steps: Some(3),
            }
        );
        let r = Request::parse(r#"{"cmd":"adapt_force","target":"rap"}"#).unwrap();
        assert_eq!(
            r.cmd,
            Command::AdaptForce {
                target: "rap".into(),
                steps: None,
            }
        );
        assert!(Request::parse(r#"{"cmd":"adapt_force"}"#)
            .unwrap_err()
            .contains("missing required field 'target'"));

        let r = Request::parse(r#"{"cmd":"adapt_freeze"}"#).unwrap();
        assert_eq!(r.cmd, Command::AdaptFreeze { frozen: true });
        let r = Request::parse(r#"{"cmd":"adapt_freeze","frozen":false}"#).unwrap();
        assert_eq!(r.cmd, Command::AdaptFreeze { frozen: false });
        assert!(Request::parse(r#"{"cmd":"adapt_freeze","frozen":"yes"}"#)
            .unwrap_err()
            .contains("must be a boolean"));
    }

    #[test]
    fn oversized_address_lists_are_rejected() {
        let addrs: Vec<String> = (0..=MAX_WIDTH as u64).map(|a| a.to_string()).collect();
        let line = format!(
            r#"{{"cmd":"congestion","width":32,"addresses":[{}]}}"#,
            addrs.join(",")
        );
        let err = Request::parse(&line).unwrap_err();
        assert!(err.contains("max 4096"), "{err}");
    }

    #[test]
    fn response_lines_match_the_derived_serialization() {
        let payload = object(vec![
            ("rendered", Value::String("RAP layout\n\"·\"".into())),
            ("stats", Value::Array(vec![Value::F64(3.0), Value::I64(-2)])),
        ]);
        for response in [
            Response::ok(Some(3), "closed", payload.clone()),
            Response::ok(None, "half-open", Value::Null),
            Response::degraded(Some(u64::MAX), "open", payload),
            Response::error(None, "open", ErrorKind::Shed, "queue \"full\""),
            Response::error(Some(9), "closed", ErrorKind::Timeout, "late"),
        ] {
            let derived = serde_json::to_string(&response).unwrap() + "\n";
            assert_eq!(response.to_line(), derived);
        }
    }

    #[test]
    fn response_roundtrips_and_terminates_lines() {
        let ok = Response::ok(Some(3), "closed", object(vec![("mean", Value::F64(1.5))]));
        let line = ok.to_line();
        assert!(line.ends_with('\n'));
        assert!(
            !line.trim_end_matches('\n').contains('\n'),
            "one response per line: no interior newlines"
        );
        let back = Response::parse(&line).unwrap();
        assert_eq!(back, ok);

        let err = Response::error(None, "open", ErrorKind::Shed, "queue full");
        let back = Response::parse(&err.to_line()).unwrap();
        assert_eq!(back.error_kind(), Some("shed"));
        assert_eq!(back.error.as_ref().unwrap().code, 429);
        assert_eq!(back.breaker, "open");
        assert!(!back.ok);
    }

    #[test]
    fn error_kinds_have_stable_codes() {
        assert_eq!(ErrorKind::Shed.code(), 429);
        assert_eq!(ErrorKind::Timeout.code(), 504);
        assert_eq!(ErrorKind::BadRequest.code(), 400);
        assert_eq!(ErrorKind::Panic.code(), 500);
        assert_eq!(ErrorKind::Draining.code(), 503);
        assert_eq!(ErrorKind::Shed.name(), "shed");
    }

    #[test]
    fn trials_are_clamped() {
        let r = Request::parse(
            r#"{"cmd":"pattern","pattern":"stride","scheme":"rap","trials":99000000}"#,
        )
        .unwrap();
        match r.cmd {
            Command::Pattern { trials, .. } => assert_eq!(trials, 1_000_000),
            other => panic!("wrong cmd: {other:?}"),
        }
    }
}
