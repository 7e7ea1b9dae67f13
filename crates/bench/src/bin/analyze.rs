//! Experiment ANALYZE: the static prover sweep.
//!
//! Certifies Theorem 1 and Theorem 2 statically at every width of the
//! conformance ladder — no simulation, the RAS shifts and the RAP
//! permutation stay symbolic — then lints the declared access plans of
//! the transpose algorithms and application kernels at representative
//! widths, and writes `results/analyze.json`. Exits non-zero if any
//! theorem is unproven or any plan carries an `Error`-severity
//! diagnostic (the RAW warnings are the expected, documented conflicts).
//!
//! Usage: `cargo run -p rap-bench --bin analyze --release`

use rap_analyze::{
    certify_theorem1, certify_theorem2, lint_plans, LintReport, Severity, TheoremReport,
};
use rap_bench::output;
use rap_conformance::WIDTH_LADDER;
use rap_core::Scheme;
use serde::Serialize;
use std::time::Instant;

/// Widths the (quadratic) plan lint runs at — small enough to stay
/// instant, wide enough to be representative.
const LINT_WIDTHS: &[usize] = &[8, 32];

/// What lands in `results/analyze.json`.
#[derive(Debug, Serialize)]
struct AnalyzeArtifact {
    widths: Vec<usize>,
    theorems: Vec<TheoremReport>,
    lint: Vec<LintReport>,
    claims_proven: usize,
    claims_total: usize,
    diagnostics_total: usize,
    wall_seconds: f64,
    proven: bool,
}

fn main() {
    if let Err(err) = run() {
        eprintln!("analyze: {err}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    println!("ANALYZE — static prover sweep (no simulation)");
    let _failpoints = rap_bench::failpoints_from_env()?;
    let start = Instant::now();

    let mut theorems = Vec::new();
    for &w in WIDTH_LADDER {
        for certify in [certify_theorem1, certify_theorem2] {
            match certify(w, &|| false) {
                Ok(report) => {
                    println!(
                        "  {:9} w = {:>3}: {} ({} claim(s))",
                        report.theorem,
                        w,
                        if report.proven { "proven" } else { "UNPROVEN" },
                        report.claims.len()
                    );
                    theorems.push(report);
                }
                Err(e) => return Err(format!("certification failed at w = {w}: {e}")),
            }
        }
    }

    let mut lint = Vec::new();
    for &w in LINT_WIDTHS {
        for scheme in Scheme::extended() {
            if scheme == Scheme::Xor && !w.is_power_of_two() {
                continue;
            }
            match lint_plans(w, scheme) {
                Ok(report) => {
                    println!(
                        "  lint {scheme:>6} w = {:>3}: {} finding(s), worst {:?}",
                        w,
                        report.diagnostics.len(),
                        report.worst_severity()
                    );
                    lint.push(report);
                }
                Err(e) => return Err(format!("lint failed at w = {w} under {scheme}: {e}")),
            }
        }
    }

    let claims_total: usize = theorems.iter().map(|t| t.claims.len()).sum();
    let claims_proven: usize = theorems
        .iter()
        .flat_map(|t| &t.claims)
        .filter(|c| c.proven)
        .count();
    let diagnostics_total: usize = lint.iter().map(|r| r.diagnostics.len()).sum();
    let lint_clean = lint
        .iter()
        .all(|r| r.worst_severity().is_none_or(|s| s > Severity::Error));
    let proven = theorems.iter().all(|t| t.proven) && lint_clean;
    let wall_seconds = start.elapsed().as_secs_f64();

    println!(
        "\n{claims_proven}/{claims_total} claims proven across {} widths, \
         {diagnostics_total} lint finding(s), {:.2}s",
        WIDTH_LADDER.len(),
        wall_seconds
    );

    let artifact = AnalyzeArtifact {
        widths: WIDTH_LADDER.to_vec(),
        theorems,
        lint,
        claims_proven,
        claims_total,
        diagnostics_total,
        wall_seconds,
        proven,
    };
    let path = output::results_dir().join("analyze.json");
    rap_resilience::write_json_atomic(&path, &artifact)
        .map_err(|e| format!("writing results: {e}"))?;
    println!("wrote {}", path.display());

    if !proven {
        return Err("static analysis FAILED".into());
    }
    Ok(())
}
