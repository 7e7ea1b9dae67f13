//! Golden corpus: `Request::parse` followed by `handler::execute`, byte
//! for byte.
//!
//! Each request line is parsed and, when it parses, executed in-process
//! with a never-cancelled token. The outcome is rendered as the response
//! line a worker would write with the breaker closed (a parse error as
//! the transport writes it: no id, `bad_request`/400), and the whole
//! transcript is compared against the committed `tests/golden/wire.txt`.
//! Lines carry no `id` when they are rejected, so a rejection answers
//! the same whether it happens at parse time or in the handler.
//!
//! The corpus covers every command, every scheme, pattern and transpose
//! kind (mixed case included), the line shape `rap-cluster` sends for a
//! sweep block, adaptive requests against a frozen controller (static
//! and synthesized candidates), and the request-only error paths.
//!
//! On a mismatch the actual transcript is written to the test binary's
//! scratch directory (the path is in the panic message).

use rap_access::CancelToken;
use rap_adapt::{AdaptConfig, AdaptiveController};
use rap_serve::handler::{execute, Outcome};
use rap_serve::{ErrorKind, Request, Response};
use std::fmt::Write as _;

const SCHEMES: [&str; 5] = ["raw", "ras", "rap", "xor", "padded"];
const PATTERNS: [&str; 4] = ["contiguous", "stride", "diagonal", "random"];
const KINDS: [&str; 3] = ["crsw", "srcw", "drdw"];

fn static_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for w in [4, 8, 12, 16] {
        for scheme in SCHEMES {
            lines.push(format!(
                r#"{{"cmd":"layout","scheme":"{scheme}","width":{w},"seed":5}}"#
            ));
            for pattern in PATTERNS {
                lines.push(format!(
                    r#"{{"cmd":"pattern","pattern":"{pattern}","scheme":"{scheme}","width":{w},"trials":40,"seed":3}}"#
                ));
            }
            for kind in KINDS {
                lines.push(format!(
                    r#"{{"cmd":"transpose","kind":"{kind}","scheme":"{scheme}","width":{w},"latency":2,"seed":1}}"#
                ));
            }
        }
        for scheme in ["raw", "ras", "rap"] {
            for pattern in PATTERNS {
                lines.push(format!(
                    r#"{{"cmd":"pattern_block","pattern":"{pattern}","scheme":"{scheme}","width":{w},"trials":70,"block":2,"seed":9}}"#
                ));
            }
        }
    }
    lines.extend(
        [
            // Mixed case, ids and defaults.
            r#"{"cmd":"layout","id":1,"scheme":"RAP"}"#,
            r#"{"cmd":"layout","scheme":"Padded","width":4}"#,
            r#"{"cmd":"pattern","id":2,"pattern":"Stride","scheme":"RAS","width":8,"trials":8}"#,
            r#"{"cmd":"pattern","pattern":"RANDOM","scheme":"Xor","width":8,"trials":3,"seed":11}"#,
            r#"{"cmd":"pattern","pattern":"diagonal","scheme":"rap"}"#,
            r#"{"cmd":"transpose","kind":"CRSW","scheme":"Rap","width":8}"#,
            r#"{"cmd":"transpose","kind":"Drdw","scheme":"PADDED","width":12,"latency":0}"#,
            // The line shape a rap-cluster sweep cell sends (it now also
            // carries the id its pipelined answer is matched by).
            r#"{"cmd":"pattern_block","pattern":"Contiguous","scheme":"RAP","width":16,"trials":64,"block":1,"domain_state":12345}"#,
            r#"{"cmd":"pattern_block","pattern":"Random","scheme":"RAS","width":32,"trials":100,"block":3,"domain_state":987654321}"#,
            r#"{"cmd":"pattern_block","pattern":"Stride","scheme":"RAW","width":16,"trials":32,"block":0,"domain_state":7}"#,
            r#"{"cmd":"pattern_block","id":17,"pattern":"random","scheme":"rap","width":16,"trials":96,"block":2,"domain_state":4242}"#,
            // congestion / analyze / synthesize
            r#"{"cmd":"congestion","width":4,"addresses":[0,4,8,1]}"#,
            r#"{"cmd":"congestion","id":3,"addresses":[0,32,64,96]}"#,
            r#"{"cmd":"analyze","width":8}"#,
            r#"{"cmd":"analyze","width":12}"#,
            r#"{"cmd":"synthesize","workload":"column:0;diagonal:1;contiguous:0","width":5}"#,
            r#"{"cmd":"synthesize","workload":"column:0;diagonal:1","mode":"table","width":4,"seed":9}"#,
            r#"{"cmd":"synthesize","workload":"column:0;bogus:9","width":4}"#,
            r#"{"cmd":"synthesize","workload":"column:0","mode":"zigzag"}"#,
            r#"{"cmd":"synthesize","workload":"column:0","mode":"Table"}"#,
            r#"{"cmd":"synthesize","workload":"column:0","width":513}"#,
            // Adaptive commands on a server without a controller.
            r#"{"cmd":"pattern","pattern":"stride","scheme":"adaptive","width":16,"trials":8}"#,
            r#"{"cmd":"adapt_force","target":"rap"}"#,
            // Inline commands never reach the handler's dispatch.
            r#"{"cmd":"adapt_status"}"#,
            r#"{"cmd":"adapt_freeze","frozen":false}"#,
            r#"{"cmd":"health"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"shutdown"}"#,
            // Unknown names.
            r#"{"cmd":"layout","scheme":"zzz"}"#,
            r#"{"cmd":"layout","scheme":"ZZZ","width":8}"#,
            r#"{"cmd":"layout","scheme":"adaptive","width":8}"#,
            r#"{"cmd":"pattern","pattern":"zigzag","scheme":"rap"}"#,
            r#"{"cmd":"pattern","pattern":"Broadcast","scheme":"rap"}"#,
            r#"{"cmd":"pattern","pattern":"stride","scheme":"Bogus"}"#,
            r#"{"cmd":"pattern_block","pattern":"zigzag","scheme":"rap","trials":32,"block":0}"#,
            r#"{"cmd":"pattern_block","pattern":"stride","scheme":"zzz","trials":32,"block":0}"#,
            r#"{"cmd":"pattern_block","pattern":"stride","scheme":"adaptive","trials":32,"block":0}"#,
            r#"{"cmd":"transpose","kind":"zzz","scheme":"raw"}"#,
            r#"{"cmd":"transpose","kind":"crsw","scheme":"zzz"}"#,
            // xor needs a power-of-two width.
            r#"{"cmd":"layout","scheme":"xor","width":12}"#,
            r#"{"cmd":"pattern","pattern":"stride","scheme":"XOR","width":12}"#,
            r#"{"cmd":"transpose","kind":"crsw","scheme":"xor","width":24}"#,
            // Deterministic schemes have no block decomposition.
            r#"{"cmd":"pattern_block","pattern":"stride","scheme":"padded","width":8,"trials":32,"block":0}"#,
            r#"{"cmd":"pattern_block","pattern":"random","scheme":"Xor","width":8,"trials":32,"block":0}"#,
            // Transpose width cap.
            r#"{"cmd":"transpose","kind":"crsw","scheme":"rap","width":513}"#,
            // Layout width cap.
            r#"{"cmd":"layout","scheme":"rap","width":513}"#,
            r#"{"cmd":"layout","id":4,"scheme":"padded","width":4096}"#,
            // Structural errors, checked before any name.
            r#"{"cmd":"layout","scheme":"zzz","width":0}"#,
            r#"{"cmd":"pattern","pattern":"zigzag","scheme":1}"#,
            r#"{"cmd":"pattern_block","pattern":"zigzag","scheme":"zzz","trials":64,"block":2}"#,
            r#"{"cmd":"transpose","kind":"crsw"}"#,
        ]
        .map(str::to_string),
    );
    lines
}

fn adaptive_lines(synth: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for pattern in PATTERNS {
        lines.push(format!(
            r#"{{"cmd":"pattern","pattern":"{pattern}","scheme":"adaptive","width":16,"trials":40,"seed":7}}"#
        ));
    }
    lines.extend(
        [
            r#"{"cmd":"pattern","pattern":"Stride","scheme":"ADAPTIVE","width":16,"trials":8}"#,
            r#"{"cmd":"pattern","pattern":"stride","scheme":"adaptive","width":8,"trials":8}"#,
            r#"{"cmd":"pattern","pattern":"zigzag","scheme":"adaptive","width":16}"#,
            r#"{"cmd":"adapt_force","target":"bogus"}"#,
            r#"{"cmd":"adapt_force","target":"padded","steps":0}"#,
            r#"{"cmd":"pattern","pattern":"stride","scheme":"adaptive","width":16,"trials":8,"seed":7}"#,
            r#"{"cmd":"pattern","pattern":"random","scheme":"adaptive","width":16,"trials":8,"seed":7}"#,
        ]
        .map(str::to_string),
    );
    lines.push(format!(
        r#"{{"cmd":"adapt_force","target":"{synth}","steps":0}}"#
    ));
    for pattern in PATTERNS {
        lines.push(format!(
            r#"{{"cmd":"pattern","pattern":"{pattern}","scheme":"adaptive","width":16,"trials":12,"seed":4}}"#
        ));
    }
    lines
}

/// The deterministic commands at the shapes serve-mix sends them: every
/// `layout` scheme and the `raw`/`ras`/`rap` transposes at w = 32 (latency
/// 8), and `analyze` at w = 16.
fn serve_mix_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for scheme in SCHEMES {
        lines.push(format!(
            r#"{{"cmd":"layout","scheme":"{scheme}","width":32,"seed":77}}"#
        ));
    }
    for kind in KINDS {
        for scheme in ["raw", "ras", "rap"] {
            lines.push(format!(
                r#"{{"cmd":"transpose","kind":"{kind}","scheme":"{scheme}","width":32,"latency":8,"seed":123}}"#
            ));
        }
    }
    lines.push(r#"{"cmd":"analyze","width":16}"#.to_string());
    lines
}

fn render(out: &mut String, line: &str, adapt: Option<&AdaptiveController>) {
    let response = match Request::parse(line) {
        Err(message) => Response::error(None, "closed", ErrorKind::BadRequest, message),
        Ok(request) => {
            let id = request.id;
            match execute(&request.cmd, &CancelToken::never(), adapt) {
                Outcome::Ok(data) => Response::ok(id, "closed", data),
                Outcome::Degraded(data, _) => Response::degraded(id, "closed", data),
                Outcome::BadRequest(m) => Response::error(id, "closed", ErrorKind::BadRequest, m),
                Outcome::TimedOut(m) => Response::error(id, "closed", ErrorKind::Timeout, m),
                Outcome::Failed(m) => Response::error(id, "closed", ErrorKind::HandlerFailed, m),
            }
        }
    };
    let _ = write!(out, "{line}\n{}", response.to_line());
}

#[test]
fn wire_responses_match_the_golden_corpus() {
    let mut actual = String::new();
    for line in static_lines() {
        render(&mut actual, &line, None);
    }
    let ctl = AdaptiveController::new(AdaptConfig {
        width: 16,
        initial: "rap".to_string(),
        synth_workload: Some("column:0;contiguous:0".to_string()),
        start_frozen: true,
        ..AdaptConfig::default()
    })
    .expect("in-memory controller");
    let synth = ctl
        .status()
        .candidates
        .iter()
        .find(|(name, ..)| name.starts_with("synth:"))
        .map(|(name, ..)| name.clone())
        .expect("a synthesized candidate");
    for line in adaptive_lines(&synth) {
        render(&mut actual, &line, Some(&ctl));
    }
    for line in serve_mix_lines() {
        render(&mut actual, &line, None);
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");
    let expected = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_wire.actual");
        std::fs::write(&dump, &actual).unwrap();
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "wire transcript diverges from {golden_path} at line {}; actual written to {}",
            line + 1,
            dump.display()
        );
    }
}
