//! Golden corpus: `rap_cli::run` output, byte for byte.
//!
//! Every argv below is run in-process and its result — `ok` or `err`
//! plus the exact rendered text — is compared against the committed
//! `tests/golden/argv.txt`. The corpus covers every scheme, pattern and
//! transpose kind at w = 4, 8, 12 and 16 (mixed-case names included),
//! `congestion`, `analyze --plans --scheme all` and `--access`,
//! `synthesize` in both modes, the name/width error paths, and
//! `pattern --scheme padded` at serve-mix's request shape (w = 32).
//!
//! On a mismatch the actual corpus is written next to the test binary's
//! scratch directory (the path is in the panic message); diff it against
//! the committed file, and copy it over only when the change in output
//! is intended.

use std::fmt::Write as _;

const SCHEMES: [&str; 5] = ["raw", "ras", "rap", "xor", "padded"];
const PATTERNS: [&str; 4] = ["contiguous", "stride", "diagonal", "random"];
const KINDS: [&str; 3] = ["crsw", "srcw", "drdw"];
const WIDTHS: [&str; 4] = ["4", "8", "12", "16"];

fn corpus() -> Vec<Vec<String>> {
    let mut argvs: Vec<Vec<&str>> = Vec::new();
    for w in WIDTHS {
        for scheme in SCHEMES {
            argvs.push(vec![
                "layout", "--scheme", scheme, "--width", w, "--seed", "1",
            ]);
            for pattern in PATTERNS {
                argvs.push(vec![
                    "pattern",
                    "--pattern",
                    pattern,
                    "--scheme",
                    scheme,
                    "--width",
                    w,
                    "--trials",
                    "6",
                    "--seed",
                    "3",
                ]);
            }
            for kind in KINDS {
                argvs.push(vec![
                    "transpose",
                    "--kind",
                    kind,
                    "--scheme",
                    scheme,
                    "--width",
                    w,
                    "--latency",
                    "2",
                    "--seed",
                    "1",
                ]);
                argvs.push(vec![
                    "trace",
                    "--kind",
                    kind,
                    "--scheme",
                    scheme,
                    "--width",
                    w,
                    "--latency",
                    "2",
                    "--seed",
                    "1",
                ]);
            }
        }
    }
    argvs.extend([
        // Mixed-case names parse like their lower-case spellings.
        vec!["layout", "--scheme", "RAP", "--width", "8"],
        vec!["layout", "--scheme", "Padded", "--width", "4"],
        vec![
            "pattern",
            "--pattern",
            "Contiguous",
            "--scheme",
            "RAS",
            "--width",
            "8",
            "--trials",
            "4",
        ],
        vec![
            "pattern",
            "--pattern",
            "RANDOM",
            "--scheme",
            "Xor",
            "--width",
            "8",
            "--trials",
            "5",
        ],
        vec![
            "pattern",
            "--pattern",
            "Stride",
            "--scheme",
            "PADDED",
            "--width",
            "12",
        ],
        vec![
            "transpose",
            "--kind",
            "CRSW",
            "--scheme",
            "Rap",
            "--width",
            "8",
        ],
        vec!["trace", "--kind", "Drdw", "--scheme", "RAW", "--width", "4"],
        vec![
            "trace", "--kind", "srcw", "--scheme", "rap", "--width", "4", "--gantt", "40",
        ],
        // Default widths, trials and seeds.
        vec!["layout", "--scheme", "ras"],
        vec![
            "pattern",
            "--pattern",
            "diagonal",
            "--scheme",
            "rap",
            "--width",
            "16",
        ],
        // congestion
        vec!["congestion", "--width", "4", "--addresses", "0,4,8,1"],
        vec!["congestion", "--width", "32", "--addresses", "0,32,64,96"],
        vec!["congestion", "--width", "8", "--addresses", "1,2,3,3,11"],
        // analyze
        vec!["analyze", "--width", "8"],
        vec!["analyze", "--width", "8", "--plans", "--scheme", "all"],
        vec!["analyze", "--width", "16", "--plans", "--scheme", "RAS"],
        vec!["analyze", "--width", "8", "--plans", "--json"],
        vec![
            "analyze",
            "--width",
            "8",
            "--access",
            "column:0;contiguous:1;diagonal:2",
        ],
        vec![
            "analyze",
            "--width",
            "8",
            "--scheme",
            "all",
            "--access",
            "column:0;flat:9,0",
        ],
        vec!["analyze", "--width", "4", "--access", "column:0", "--json"],
        // synthesize, both modes
        vec![
            "synthesize",
            "--width",
            "5",
            "--workload",
            "column:0;diagonal:1;contiguous:0",
        ],
        vec![
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0;diagonal:1",
            "--mode",
            "table",
        ],
        vec![
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--json",
        ],
        vec![
            "synthesize",
            "--width",
            "5",
            "--workload",
            "column:0",
            "--lint",
            "RAW",
        ],
        // Unknown names.
        vec!["layout", "--scheme", "zzz"],
        vec!["layout", "--scheme", "ZZZ", "--width", "4"],
        vec!["pattern", "--pattern", "zigzag", "--scheme", "raw"],
        vec!["pattern", "--pattern", "stride", "--scheme", "Bogus"],
        vec!["transpose", "--kind", "zzz", "--scheme", "raw"],
        vec!["trace", "--kind", "XYZW", "--scheme", "rap"],
        vec!["analyze", "--width", "8", "--scheme", "zzz"],
        vec![
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--lint",
            "zzz",
        ],
        vec![
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--mode",
            "zigzag",
        ],
        vec!["cluster", "--scheme", "zzz"],
        vec!["cluster", "--pattern", "zzz"],
        vec!["cluster", "--scheme", "padded"],
        // xor needs a power-of-two width.
        vec!["analyze", "--width", "12", "--plans", "--scheme", "xor"],
        // Missing names.
        vec!["layout", "--width", "4"],
        vec!["pattern", "--scheme", "rap"],
        vec!["transpose", "--scheme", "rap"],
    ]);
    argvs
        .into_iter()
        .map(|argv| argv.into_iter().map(str::to_string).collect())
        .collect()
}

/// Traffic-class errors come from `rap adapt --trace`, which reads a
/// file; the path is replaced by `<trace>` so the corpus is portable.
fn adapt_cases(out: &mut String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-argv-adapt");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, body) in [
        "bogus 3.0\n",
        "STRIDE 17.0\nContiguous 1.0\n",
        "stride 17.0\nforce padded 0\ncontiguous 1.0\n",
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!("trace-{i}.txt"));
        std::fs::write(&path, body).unwrap();
        let path = path.to_string_lossy().to_string();
        let argv = vec![
            "adapt".to_string(),
            "--trace".to_string(),
            path.clone(),
            "--frozen".to_string(),
        ];
        let shown = format!("adapt --trace <trace-{i}> --frozen");
        record(out, &shown, &rap_cli::run(&argv), Some((&path, "<trace>")));
    }
}

/// `pattern --scheme padded` at the serve-mix request shapes (w = 32,
/// 64 trials) and one wider random run, recorded after the rest.
fn padded_pattern_cases(out: &mut String) {
    let runs = PATTERNS
        .map(|pattern| (pattern, "32", "64", "21"))
        .into_iter()
        .chain([("random", "64", "9", "22")]);
    for (pattern, w, trials, seed) in runs {
        let argv = [
            "pattern",
            "--pattern",
            pattern,
            "--scheme",
            "padded",
            "--width",
            w,
            "--trials",
            trials,
            "--seed",
            seed,
        ]
        .map(str::to_string);
        record(out, &argv.join(" "), &rap_cli::run(&argv), None);
    }
}

fn record(
    out: &mut String,
    shown: &str,
    result: &Result<String, String>,
    redact: Option<(&str, &str)>,
) {
    let (tag, text) = match result {
        Ok(text) => ("ok", text),
        Err(text) => ("err", text),
    };
    let text = match redact {
        Some((from, to)) => text.replace(from, to),
        None => text.clone(),
    };
    // Exactly one newline after the text keeps the encoding injective
    // whether or not the output ends in one.
    let _ = writeln!(out, "=== rap {shown} -> {tag}\n{text}");
}

#[test]
fn cli_output_matches_the_golden_corpus() {
    let mut actual = String::new();
    for argv in corpus() {
        record(&mut actual, &argv.join(" "), &rap_cli::run(&argv), None);
    }
    adapt_cases(&mut actual);
    padded_pattern_cases(&mut actual);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/argv.txt");
    let expected = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_argv.actual");
        std::fs::write(&dump, &actual).unwrap();
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "CLI output diverges from {golden_path} at line {}; actual corpus written to {}",
            line + 1,
            dump.display()
        );
    }
}
