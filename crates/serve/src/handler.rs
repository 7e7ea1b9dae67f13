//! Command execution: dispatch parsed requests into the workspace crates.
//!
//! Handlers run inside a worker's `catch_unwind` boundary and start by
//! firing the `serve.handler` failpoint, so the chaos suite can inject
//! panics, I/O errors, and delays at exactly the spot where real handler
//! bugs would surface. Outcomes are a closed enum the worker maps onto
//! wire responses and metrics — a handler never writes to the socket
//! itself.
//!
//! The expensive path (`pattern` Monte-Carlo) takes a [`CancelToken`]
//! carrying the request deadline and polls it between trials; on expiry
//! it returns whatever blocks completed as an honest, `degraded:true`
//! partial estimate instead of either blocking past the deadline or
//! discarding finished work.

use crate::protocol::{object, Command, PatternScheme};
use rap_access::montecarlo::{
    blocks_for, fixed_layout_congestion, matrix_block_stats, matrix_congestion_cancellable,
};
use rap_access::{CancelToken, MatrixPattern, PartialStats};
use rap_adapt::{AdaptiveController, CandidateKind, TrafficClass};
use rap_analyze::{certify_theorem1, certify_theorem2, fallback_bounds, AnalyzeError};
use rap_core::modern::build_mapping;
use rap_core::{diagnostics::render_layout, BankLoads, RowShift, Scheme};
use rap_resilience::failpoint;
use rap_stats::{OnlineStats, SeedDomain};
use rap_synthesize::Mode;
use rap_transpose::{run_transpose, TransposeKind};
use serde::{Serialize, Value};

/// What running a command produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Full-fidelity result.
    Ok(Value),
    /// A result from a fallback path (partial Monte-Carlo estimate);
    /// carries the payload and a human-readable reason.
    Degraded(Value, String),
    /// The request cannot run against this server's state — adaptation
    /// off, a tile-width mismatch, a refused force, a prover or search
    /// rejection (→ `bad_request`/400). Request-only checks happen in
    /// [`crate::Request::parse`].
    BadRequest(String),
    /// The deadline expired with no usable partial result (→ 504).
    TimedOut(String),
    /// Infrastructure failure, worth a retry (→ 500 after retries).
    Failed(String),
}

fn stats_value(stats: &OnlineStats) -> Value {
    object(vec![
        ("mean", Value::F64(stats.mean())),
        ("std_error", Value::F64(stats.std_error())),
        ("min", stats.min().map_or(Value::Null, Value::F64)),
        ("max", stats.max().map_or(Value::Null, Value::F64)),
        ("count", Value::U64(stats.count())),
    ])
}

/// The accumulator as IEEE-754 bit patterns: lossless over the wire, so
/// a coordinator's block merge is bit-identical to a local one.
fn raw_stats_value(raw: &rap_stats::RawOnlineStats) -> Value {
    object(vec![
        ("count", Value::U64(raw.count)),
        ("mean_bits", Value::U64(raw.mean_bits)),
        ("m2_bits", Value::U64(raw.m2_bits)),
        ("min_bits", Value::U64(raw.min_bits)),
        ("max_bits", Value::U64(raw.max_bits)),
    ])
}

/// Execute one command. Must be called inside a `catch_unwind` boundary:
/// the `serve.handler` failpoint (and any real handler bug) may panic —
/// as may the `adapt.*` epoch failpoints reached through `adapt` on
/// `pattern scheme:"adaptive"` and `adapt_force` requests.
///
/// Every handler runs on the calling thread — in the server, the worker
/// that dequeued the job — and never fans out: the worker pool is the
/// only parallelism on the request path, so a request costs no thread
/// spawns. What this gives up: one very large `pattern` on an idle
/// server uses one core, not all of them. Large sweeps belong on
/// `rap cluster`, which shards them into `pattern_block`s across
/// workers.
#[must_use]
pub fn execute(cmd: &Command, token: &CancelToken, adapt: Option<&AdaptiveController>) -> Outcome {
    // The chaos injection point: panics unwind to the worker's isolation
    // boundary, ENOSPC becomes a retryable failure, delays just happen.
    if let Err(e) = failpoint::fire("serve.handler") {
        return Outcome::Failed(format!("handler I/O fault: {e}"));
    }
    match cmd {
        Command::Layout {
            scheme,
            width,
            seed,
        } => layout(*scheme, *width, *seed),
        Command::Congestion { width, addresses } => congestion(*width, addresses),
        Command::Pattern {
            pattern,
            scheme,
            width,
            trials,
            seed,
        } => match scheme {
            PatternScheme::Static(scheme) => {
                pattern_mc(*pattern, *scheme, *width, *trials, *seed, token)
            }
            PatternScheme::Adaptive => {
                pattern_adaptive(*pattern, *width, *trials, *seed, token, adapt)
            }
        },
        Command::PatternBlock {
            pattern,
            scheme,
            width,
            trials,
            block,
            seed,
            domain_state,
        } => pattern_block(
            *pattern,
            *scheme,
            *width,
            *trials,
            *block,
            *seed,
            *domain_state,
        ),
        Command::Analyze { width } => analyze(*width, token),
        Command::Transpose {
            kind,
            scheme,
            width,
            latency,
            seed,
        } => transpose(*kind, *scheme, *width, *latency, *seed),
        Command::Synthesize {
            workload,
            mode,
            width,
            seed,
        } => synthesize_layout(workload, *mode, *width, *seed),
        Command::AdaptForce { target, steps } => adapt_force(adapt, target, *steps),
        // Inline commands never reach the worker pool.
        Command::AdaptStatus
        | Command::AdaptFreeze { .. }
        | Command::Health
        | Command::Stats
        | Command::Shutdown => {
            Outcome::Failed(format!("command '{}' is served inline", cmd.name()))
        }
    }
}

fn layout(scheme: Scheme, width: usize, seed: u64) -> Outcome {
    let mut rng = SeedDomain::new(seed).rng(0);
    let mapping = build_mapping(scheme, &mut rng, width);
    Outcome::Ok(object(vec![
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("seed", Value::U64(seed)),
        ("rendered", Value::String(render_layout(mapping.as_ref()))),
    ]))
}

fn congestion(width: usize, addresses: &[u64]) -> Outcome {
    let loads = BankLoads::analyze_fast(width, addresses);
    Outcome::Ok(object(vec![
        ("width", Value::U64(width as u64)),
        ("congestion", Value::U64(u64::from(loads.congestion()))),
        ("busy_banks", Value::U64(loads.busy_banks() as u64)),
        (
            "unique_requests",
            Value::U64(loads.unique_requests() as u64),
        ),
        ("conflict_free", Value::Bool(loads.is_conflict_free())),
        (
            "loads",
            Value::Array(
                loads
                    .loads()
                    .iter()
                    .map(|&l| Value::U64(u64::from(l)))
                    .collect(),
            ),
        ),
    ]))
}

fn pattern_mc(
    pattern: MatrixPattern,
    scheme: Scheme,
    width: usize,
    trials: u64,
    seed: u64,
    token: &CancelToken,
) -> Outcome {
    let domain = SeedDomain::new(seed);
    let partial = match scheme {
        Scheme::Raw | Scheme::Ras | Scheme::Rap => {
            matrix_congestion_cancellable(scheme, pattern, width, trials, &domain, token)
        }
        // Deterministic layouts draw nothing from the rng: build once.
        Scheme::Xor | Scheme::Padded => {
            let mapping = build_mapping(scheme, &mut domain.rng(0), width);
            fixed_layout_congestion(mapping.as_ref(), pattern, trials, &domain, token)
        }
    };
    pattern_outcome(pattern, scheme.name(), width, trials, &partial)
}

/// The `pattern` payload for an estimate under the layout named
/// `scheme`: full when it ran to completion, an honest partial
/// (`Degraded`) when the deadline cut it short, a timeout when nothing
/// finished.
fn pattern_outcome(
    pattern: MatrixPattern,
    scheme: &str,
    width: usize,
    trials: u64,
    partial: &PartialStats,
) -> Outcome {
    let data = object(vec![
        (
            "pattern",
            Value::String(pattern.name().to_ascii_lowercase()),
        ),
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("trials_requested", Value::U64(trials)),
        ("stats", stats_value(&partial.stats)),
        ("completed_blocks", Value::U64(partial.completed_blocks)),
        ("total_blocks", Value::U64(partial.total_blocks)),
        ("cancelled", Value::Bool(partial.cancelled)),
        ("source", Value::String("monte-carlo".into())),
    ]);
    if !partial.cancelled {
        return Outcome::Ok(data);
    }
    if partial.completed_blocks == 0 {
        return Outcome::TimedOut("deadline expired before any Monte-Carlo block completed".into());
    }
    Outcome::Degraded(
        data,
        format!(
            "deadline expired after {}/{} blocks; partial estimate",
            partial.completed_blocks, partial.total_blocks
        ),
    )
}

/// Serve a `pattern` query for scheme `"adaptive"`: resolve the
/// controller's committed layout, answer **exactly** as the static path
/// for that layout would (bit-identical payload — the `adapt:stable-vs-
/// static` oracle holds the serve layer to this), then feed the measured
/// congestion back into the monitor. During a migration the committed
/// layout is still the *old* one, so in-flight swaps never leak a torn
/// hybrid into a response.
fn pattern_adaptive(
    pattern: MatrixPattern,
    width: usize,
    trials: u64,
    seed: u64,
    token: &CancelToken,
    adapt: Option<&AdaptiveController>,
) -> Outcome {
    let Some(ctl) = adapt else {
        return Outcome::BadRequest(
            "scheme 'adaptive' needs adaptive remapping enabled on this server \
             (start with --adapt)"
                .to_string(),
        );
    };
    if width != ctl.width() {
        return Outcome::BadRequest(format!(
            "scheme 'adaptive' serves the controller's tile width {}, got {width}",
            ctl.width()
        ));
    }
    let active = ctl.active();
    let outcome = match &active.kind {
        CandidateKind::Scheme(scheme) => pattern_mc(pattern, *scheme, width, trials, seed, token),
        CandidateKind::Table(layout) => {
            pattern_table(pattern, &active.name, layout, width, trials, seed, token)
        }
    };
    // Close the loop: the response's own mean congestion is the
    // observation. This may advance the epoch machine (and, under an
    // installed fail plan, panic at an `adapt.*` site) — by then the
    // payload above is computed, and a retried request recomputes it
    // deterministically from the same seed.
    if let Outcome::Ok(data) | Outcome::Degraded(data, _) = &outcome {
        if let Some(mean) = observed_mean(data) {
            ctl.observe(traffic_class(pattern), mean);
        }
    }
    outcome
}

/// Evaluate a pattern family under a fixed synthesized shift table —
/// the deterministic-scheme branch of `pattern_mc`, with the table
/// standing in for the sampled layout. The payload's `scheme` field
/// carries the candidate name (`synth:…`), the only name the layout has.
fn pattern_table(
    pattern: MatrixPattern,
    name: &str,
    layout: &[u32],
    width: usize,
    trials: u64,
    seed: u64,
    token: &CancelToken,
) -> Outcome {
    // The table was validated when the candidate was built; a rejection
    // here is an internal invariant violation, not a client error.
    let mapping = match RowShift::ras_from(width, layout.to_vec()) {
        Ok(m) => m,
        Err(e) => return Outcome::Failed(format!("active synthesized table rejected: {e}")),
    };
    let partial = fixed_layout_congestion(&mapping, pattern, trials, &SeedDomain::new(seed), token);
    pattern_outcome(pattern, name, width, trials, &partial)
}

fn traffic_class(pattern: MatrixPattern) -> TrafficClass {
    match pattern {
        MatrixPattern::Contiguous => TrafficClass::Contiguous,
        MatrixPattern::Stride => TrafficClass::Stride,
        MatrixPattern::Diagonal => TrafficClass::Diagonal,
        // The wire grammar has no broadcast pattern; bucket it under the
        // trivial-envelope class if one ever reaches here.
        MatrixPattern::Random | MatrixPattern::Broadcast => TrafficClass::Random,
    }
}

/// Pull `data.stats.mean` back out of a finished pattern payload.
fn observed_mean(data: &Value) -> Option<f64> {
    let field = |v: &Value, key: &str| -> Option<Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    match field(&field(data, "stats")?, "mean")? {
        Value::F64(mean) if mean.is_finite() => Some(mean),
        _ => None,
    }
}

/// Run a forced epoch swap through the controller: the full protocol —
/// propose, migrate, commit, every failpoint, every ledger append.
fn adapt_force(adapt: Option<&AdaptiveController>, target: &str, steps: Option<u64>) -> Outcome {
    let Some(ctl) = adapt else {
        return Outcome::BadRequest(
            "adapt_force needs adaptive remapping enabled on this server (start with --adapt)"
                .to_string(),
        );
    };
    let steps = steps.unwrap_or(ctl.config().migrate_steps);
    match ctl.force(target, steps) {
        Ok(()) => {
            let active = ctl.active();
            Outcome::Ok(object(vec![
                ("forced", Value::Bool(true)),
                ("target", Value::String(target.to_string())),
                ("steps", Value::U64(steps)),
                ("phase", Value::String(ctl.phase_name().to_string())),
                ("scheme", Value::String(active.name)),
                ("epoch", Value::U64(active.epoch)),
            ]))
        }
        // A fault-aborted attempt rolled back cleanly and is worth a
        // retry; a refused target/phase is the client's to fix.
        Err(e) if e.contains("fault") || e.contains("durable") || e.contains("unflushed") => {
            Outcome::Failed(e)
        }
        Err(e) => Outcome::BadRequest(e),
    }
}

/// Evaluate exactly one 32-trial block of the decomposition `pattern`
/// uses over `trials` total trials, returning the raw accumulator.
///
/// No cancellation token: a block is 32 trials, the unit the deadline
/// machinery itself is built from — it either completes quickly or the
/// request deadline fails the whole job. `scheme` is a sampled scheme:
/// the protocol refuses a block of a deterministic one.
fn pattern_block(
    pattern: MatrixPattern,
    scheme: Scheme,
    width: usize,
    trials: u64,
    block: u64,
    seed: u64,
    domain_state: Option<u64>,
) -> Outcome {
    // A raw domain state (from `SeedDomain::seed`) transports a *derived*
    // domain losslessly; the mixing `seed` form cannot express one.
    let domain = domain_state.map_or_else(|| SeedDomain::new(seed), SeedDomain::from_state);
    let stats = matrix_block_stats(scheme, pattern, width, trials, block, &domain);
    Outcome::Ok(object(vec![
        (
            "pattern",
            Value::String(pattern.name().to_ascii_lowercase()),
        ),
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("trials", Value::U64(trials)),
        ("block", Value::U64(block)),
        ("total_blocks", Value::U64(blocks_for(trials))),
        ("raw_stats", raw_stats_value(&stats.to_raw())),
        ("source", Value::String("monte-carlo-block".into())),
    ]))
}

/// Certification grows about ×4.8 per width doubling (tens of seconds at
/// `MAX_WIDTH`), so the token is polled before every prover call.
fn analyze(width: usize, token: &CancelToken) -> Outcome {
    let should_stop = || token.is_cancelled();
    let mut theorems = Vec::with_capacity(2);
    for certify in [certify_theorem1, certify_theorem2] {
        match certify(width, &should_stop) {
            Ok(report) => theorems.push(report),
            Err(AnalyzeError::Stopped) => {
                return Outcome::TimedOut(
                    "deadline expired before the theorems were certified".into(),
                )
            }
            Err(e) => return Outcome::BadRequest(e.to_string()),
        }
    }
    let proven = theorems.iter().all(|t| t.proven);
    Outcome::Ok(object(vec![
        ("width", Value::U64(width as u64)),
        (
            "theorems",
            Value::Array(theorems.iter().map(Serialize::to_value).collect()),
        ),
        ("proven", Value::Bool(proven)),
    ]))
}

fn transpose(
    kind: TransposeKind,
    scheme: Scheme,
    width: usize,
    latency: u64,
    seed: u64,
) -> Outcome {
    let mut rng = SeedDomain::new(seed).rng(0);
    let mapping = build_mapping(scheme, &mut rng, width);
    let data: Vec<f64> = (0..width * width).map(|x| x as f64).collect();
    let run = run_transpose(kind, mapping.as_ref(), latency.max(1), &data);
    Outcome::Ok(object(vec![
        ("kind", Value::String(kind.to_string())),
        ("scheme", Value::String(run.scheme.clone())),
        ("width", Value::U64(width as u64)),
        ("latency", Value::U64(latency.max(1))),
        ("cycles", Value::U64(run.report.cycles)),
        ("read_congestion", Value::F64(run.read_congestion())),
        ("write_congestion", Value::F64(run.write_congestion())),
        ("verified", Value::Bool(run.verified)),
    ]))
}

fn synthesize_layout(workload_str: &str, mode: Mode, width: usize, seed: u64) -> Outcome {
    let workload = match rap_synthesize::parse_workload(workload_str, width) {
        Ok(w) => w,
        Err(e) => return Outcome::BadRequest(e),
    };
    let synthesis = match rap_synthesize::synthesize(&workload, mode, seed) {
        Ok(s) => s,
        Err(e) => return Outcome::BadRequest(e),
    };
    // Every certificate the service emits is gated by the independent
    // checker; a rejection here is an internal invariant violation (the
    // search produced a bad certificate), not a client error.
    if let Err(e) = rap_synthesize::check_certificate(&synthesis.certificate) {
        return Outcome::Failed(format!(
            "synthesized certificate rejected by the independent checker: {e}"
        ));
    }
    let cert = &synthesis.certificate;
    Outcome::Ok(object(vec![
        ("mode", Value::String(cert.mode.clone())),
        ("width", Value::U64(cert.width as u64)),
        ("method", Value::String(cert.method.clone())),
        ("optimal", Value::Bool(cert.optimal)),
        ("objective", Value::U64(u64::from(cert.objective))),
        ("explored", Value::U64(synthesis.explored)),
        ("checked", Value::Bool(true)),
        ("certificate", cert.to_value()),
        ("source", Value::String("synthesis".into())),
    ]))
}

/// The analyzer-backed degraded path for `synthesize` requests: no layout
/// search runs; instead the prover certifies the workload under every
/// applicable *known* static scheme and the best (lowest worst-case
/// congestion) envelope is served.
///
/// Runs **outside** the failpoint-instrumented handler path on purpose —
/// the fallback must stay available precisely when handlers are failing.
///
/// # Errors
/// A `bad_request`-worthy message for a malformed workload spec or a
/// width the prover rejects.
pub fn degraded_synthesize(workload_str: &str, width: usize) -> Result<Value, String> {
    let workload = rap_synthesize::parse_workload(workload_str, width)?;
    let prover = rap_analyze::Prover::new(width).map_err(|e| e.to_string())?;
    let mut candidates = vec![Scheme::Padded, Scheme::Rap, Scheme::Ras, Scheme::Raw];
    if width.is_power_of_two() {
        candidates.push(Scheme::Xor);
    }
    let mut best: Option<(Scheme, u32, u32, Vec<Value>)> = None;
    for scheme in candidates {
        let mut hi = 0u32;
        let mut lo = 0u32;
        let mut plans = Vec::with_capacity(workload.plans.len());
        for plan in &workload.plans {
            let analysis = prover
                .analyze(&plan.warp, scheme)
                .map_err(|e| format!("plan `{}`: {e}", plan.name))?;
            hi = hi.max(analysis.hi);
            lo = lo.max(analysis.lo);
            plans.push(object(vec![
                ("plan", Value::String(plan.name.clone())),
                ("lo", Value::U64(u64::from(analysis.lo))),
                ("hi", Value::U64(u64::from(analysis.hi))),
            ]));
        }
        if best.as_ref().is_none_or(|(_, best_hi, ..)| hi < *best_hi) {
            best = Some((scheme, hi, lo, plans));
        }
    }
    let (scheme, hi, lo, plans) = best.ok_or_else(|| "empty workload".to_string())?;
    Ok(object(vec![
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("lo", Value::U64(u64::from(lo))),
        ("hi", Value::U64(u64::from(hi))),
        ("plans", Value::Array(plans)),
        (
            "reason",
            Value::String(format!(
                "layout search shed by the circuit breaker; serving the best \
                 known static scheme's certified bound ({scheme}: worst-case \
                 congestion {hi})"
            )),
        ),
        ("source", Value::String("static-analyzer".into())),
    ]))
}

/// The analyzer-backed degraded path for `pattern` requests: a certified
/// `[lo, hi]` congestion envelope in place of the Monte-Carlo estimate.
///
/// Runs **outside** the failpoint-instrumented handler path on purpose —
/// the fallback must stay available precisely when handlers are failing.
///
/// # Errors
/// A `bad_request`-worthy message for a scheme/width pair the prover
/// rejects (which [`crate::Request::parse`] never lets through).
pub fn degraded_pattern(
    pattern: MatrixPattern,
    scheme: Scheme,
    width: usize,
) -> Result<Value, String> {
    let analysis = fallback_bounds(scheme, pattern, width).map_err(|e| e.to_string())?;
    Ok(object(vec![
        (
            "pattern",
            Value::String(pattern.name().to_ascii_lowercase()),
        ),
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("lo", Value::U64(u64::from(analysis.lo))),
        ("hi", Value::U64(u64::from(analysis.hi))),
        ("reason", Value::String(analysis.reason.clone())),
        ("source", Value::String("static-analyzer".into())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::time::Instant;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn get<'v>(data: &'v Value, key: &str) -> &'v Value {
        match data.as_object().unwrap().iter().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("missing key {key}"),
        }
    }

    #[test]
    fn layout_renders_for_every_scheme() {
        let _g = test_lock::handlers();
        for scheme in Scheme::extended() {
            let out = execute(
                &Command::Layout {
                    scheme,
                    width: 8,
                    seed: 1,
                },
                &never(),
                None,
            );
            match out {
                Outcome::Ok(data) => {
                    let Value::String(s) = get(&data, "rendered") else {
                        panic!("rendered must be a string")
                    };
                    assert!(s.contains("layout"), "{scheme}: {s}");
                }
                other => panic!("{scheme}: {other:?}"),
            }
        }
    }

    #[test]
    fn congestion_counts_banks() {
        let _g = test_lock::handlers();
        let out = execute(
            &Command::Congestion {
                width: 4,
                addresses: vec![0, 4, 8, 1],
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(get(&data, "congestion"), &Value::U64(3));
                assert_eq!(get(&data, "conflict_free"), &Value::Bool(false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_matches_the_plain_engine_when_uncancelled() {
        let _g = test_lock::handlers();
        let out = execute(
            &Command::Pattern {
                pattern: MatrixPattern::Stride,
                scheme: PatternScheme::Static(Scheme::Rap),
                width: 16,
                trials: 64,
                seed: 7,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                let stats = get(&data, "stats");
                assert_eq!(get(stats, "mean"), &Value::F64(1.0), "Theorem 2");
                assert_eq!(get(&data, "cancelled"), &Value::Bool(false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_expired_deadline_times_out_or_degrades() {
        let _g = test_lock::handlers();
        let token = CancelToken::with_deadline(Instant::now());
        let out = execute(
            &Command::Pattern {
                pattern: MatrixPattern::Random,
                scheme: PatternScheme::Static(Scheme::Ras),
                width: 32,
                trials: 10_000,
                seed: 7,
            },
            &token,
            None,
        );
        match out {
            Outcome::TimedOut(_) => {}
            Outcome::Degraded(data, _) => {
                assert_eq!(get(&data, "cancelled"), &Value::Bool(true));
            }
            other => panic!("expected timeout/degraded, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_schemes_answer_pattern_queries() {
        let _g = test_lock::handlers();
        let out = execute(
            &Command::Pattern {
                pattern: MatrixPattern::Stride,
                scheme: PatternScheme::Static(Scheme::Padded),
                width: 8,
                trials: 4,
                seed: 7,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(get(get(&data, "stats"), "mean"), &Value::F64(1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_block_merge_matches_the_plain_engine_bit_for_bit() {
        let _g = test_lock::handlers();
        let trials = 77; // 3 blocks, ragged tail
        let mut merged = OnlineStats::new();
        for block in 0..rap_access::montecarlo::blocks_for(trials) {
            let out = execute(
                &Command::PatternBlock {
                    pattern: MatrixPattern::Random,
                    scheme: Scheme::Rap,
                    width: 16,
                    trials,
                    block,
                    seed: 2014,
                    domain_state: None,
                },
                &never(),
                None,
            );
            let Outcome::Ok(data) = out else {
                panic!("{out:?}");
            };
            let raw = get(&data, "raw_stats");
            let bits = |key: &str| match get(raw, key) {
                Value::U64(v) => *v,
                other => panic!("{key}: {other:?}"),
            };
            merged.merge(&OnlineStats::from_raw(&rap_stats::RawOnlineStats {
                count: bits("count"),
                mean_bits: bits("mean_bits"),
                m2_bits: bits("m2_bits"),
                min_bits: bits("min_bits"),
                max_bits: bits("max_bits"),
            }));
        }
        let full = rap_access::montecarlo::matrix_congestion(
            rap_core::Scheme::Rap,
            MatrixPattern::Random,
            16,
            trials,
            &SeedDomain::new(2014),
        );
        assert_eq!(
            merged.to_raw(),
            full.to_raw(),
            "wire round trip is lossless"
        );
    }

    #[test]
    fn pattern_block_domain_state_ships_derived_domains_bit_exactly() {
        let _g = test_lock::handlers();
        // A Table II-style derived cell domain, unreachable through the
        // mixing `seed` field.
        let cell = SeedDomain::new(2014)
            .child("table2")
            .child("random")
            .child("RAP")
            .child_idx(16);
        let out = execute(
            &Command::PatternBlock {
                pattern: MatrixPattern::Random,
                scheme: Scheme::Rap,
                width: 16,
                trials: 32,
                block: 0,
                seed: 0,
                domain_state: Some(cell.seed()),
            },
            &never(),
            None,
        );
        let Outcome::Ok(data) = out else {
            panic!("{out:?}");
        };
        let local = matrix_block_stats(
            rap_core::Scheme::Rap,
            MatrixPattern::Random,
            16,
            32,
            0,
            &cell,
        );
        let raw = get(&data, "raw_stats");
        assert_eq!(get(raw, "mean_bits"), &Value::U64(local.to_raw().mean_bits));
        assert_eq!(get(raw, "m2_bits"), &Value::U64(local.to_raw().m2_bits));
    }

    #[test]
    fn analyze_certifies_both_theorems() {
        let _g = test_lock::handlers();
        let out = execute(&Command::Analyze { width: 8 }, &never(), None);
        match out {
            Outcome::Ok(data) => assert_eq!(get(&data, "proven"), &Value::Bool(true)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transpose_reports_cycles_and_verifies() {
        let _g = test_lock::handlers();
        let out = execute(
            &Command::Transpose {
                kind: TransposeKind::Crsw,
                scheme: Scheme::Rap,
                width: 8,
                latency: 2,
                seed: 1,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(get(&data, "verified"), &Value::Bool(true));
                assert_eq!(get(&data, "write_congestion"), &Value::F64(1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthesize_returns_a_checked_certificate() {
        let _g = test_lock::handlers();
        let out = execute(
            &Command::Synthesize {
                workload: "column:0;contiguous:0".into(),
                mode: Mode::Sigma,
                width: 4,
                seed: 2014,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(get(&data, "checked"), &Value::Bool(true));
                assert_eq!(get(&data, "optimal"), &Value::Bool(true));
                // Columns are conflict-free under every permutation shift
                // and rows under any shift at all, so the exhaustive
                // search must certify objective 1.
                assert_eq!(get(&data, "objective"), &Value::U64(1));
                let cert = get(&data, "certificate");
                assert_eq!(get(cert, "width"), &Value::U64(4));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthesize_semantic_errors_are_bad_requests() {
        let _g = test_lock::handlers();
        // An unknown mode is a parse error now (see the protocol tests);
        // the plan grammar is checked here, at search time.
        let bad_plan = execute(
            &Command::Synthesize {
                workload: "column:0;bogus:9".into(),
                mode: Mode::Sigma,
                width: 4,
                seed: 1,
            },
            &never(),
            None,
        );
        assert!(
            matches!(bad_plan, Outcome::BadRequest(ref e) if e.contains("plan 2 of 2")),
            "{bad_plan:?}"
        );
    }

    #[test]
    fn degraded_synthesize_serves_best_known_scheme() {
        // A pure column workload: Padded certifies congestion 1, so the
        // degraded path must pick it over RAW's worst-case w.
        let data = degraded_synthesize("column:0", 8).unwrap();
        assert_eq!(get(&data, "hi"), &Value::U64(1));
        assert_eq!(get(&data, "scheme"), &Value::String("Padded".into()));
        assert_eq!(
            get(&data, "source"),
            &Value::String("static-analyzer".into())
        );
        assert!(degraded_synthesize("bogus:1", 8).is_err());
        assert!(degraded_synthesize("column:0", 0).is_err());
    }

    #[test]
    fn degraded_synthesize_ignores_handler_failpoints() {
        use rap_resilience::{FailPlan, Fault, HitSchedule};
        let _l = test_lock::fail_plans();
        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        assert!(degraded_synthesize("column:0;diagonal:1", 8).is_ok());
        drop(guard);
    }

    #[test]
    fn degraded_pattern_returns_certified_bounds() {
        // Unknown names and xor at a non-power-of-two width never get
        // this far: `Request::parse` rejects them (see the protocol
        // tests).
        let data = degraded_pattern(MatrixPattern::Stride, Scheme::Rap, 16).unwrap();
        assert_eq!(get(&data, "pattern"), &Value::String("stride".into()));
        assert_eq!(get(&data, "lo"), &Value::U64(1));
        assert_eq!(get(&data, "hi"), &Value::U64(1), "Theorem 2 bound");
        let raw = degraded_pattern(MatrixPattern::Stride, Scheme::Raw, 16).unwrap();
        assert_eq!(get(&raw, "hi"), &Value::U64(16));
        let random = degraded_pattern(MatrixPattern::Random, Scheme::Xor, 16).unwrap();
        assert_eq!(get(&random, "hi"), &Value::U64(16), "trivial envelope");
    }

    fn controller(width: usize, initial: &str) -> rap_adapt::AdaptiveController {
        rap_adapt::AdaptiveController::new(rap_adapt::AdaptConfig {
            width,
            initial: initial.to_string(),
            start_frozen: true, // no organic swaps under test traffic
            ..rap_adapt::AdaptConfig::default()
        })
        .expect("in-memory controller")
    }

    #[test]
    fn adaptive_pattern_is_bit_identical_to_the_static_path() {
        let _g = test_lock::handlers();
        let ctl = controller(16, "rap");
        for pattern in MatrixPattern::table2() {
            let cmd = |scheme| Command::Pattern {
                pattern,
                scheme,
                width: 16,
                trials: 64,
                seed: 7,
            };
            let adaptive = execute(&cmd(PatternScheme::Adaptive), &never(), Some(&ctl));
            let static_run = execute(&cmd(PatternScheme::Static(Scheme::Rap)), &never(), None);
            assert_eq!(adaptive, static_run, "{pattern}: payloads must match");
        }
        // The controller really observed the served traffic.
        let status = ctl.status();
        let samples: u64 = status.classes.iter().map(|(_, w, _)| w.samples).sum();
        assert_eq!(samples, 4, "one observation per adaptive request");
    }

    #[test]
    fn adaptive_pattern_needs_a_controller_and_the_right_width() {
        let _g = test_lock::handlers();
        let cmd = Command::Pattern {
            pattern: MatrixPattern::Stride,
            scheme: PatternScheme::Adaptive,
            width: 16,
            trials: 8,
            seed: 1,
        };
        let out = execute(&cmd, &never(), None);
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("--adapt")));
        let ctl = controller(8, "rap");
        let out = execute(&cmd, &never(), Some(&ctl));
        assert!(
            matches!(out, Outcome::BadRequest(ref e) if e.contains("tile width 8")),
            "{out:?}"
        );
    }

    #[test]
    fn adapt_force_runs_the_epoch_protocol() {
        let _g = test_lock::handlers();
        let ctl = controller(16, "rap");
        let out = execute(
            &Command::AdaptForce {
                target: "padded".into(),
                steps: Some(0),
            },
            &never(),
            Some(&ctl),
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(get(&data, "scheme"), &Value::String("padded".into()));
                assert_eq!(get(&data, "phase"), &Value::String("stable".into()));
                assert_eq!(get(&data, "epoch"), &Value::U64(1));
            }
            other => panic!("{other:?}"),
        }
        // After the commit, the adaptive path serves the new layout.
        let adaptive = execute(
            &Command::Pattern {
                pattern: MatrixPattern::Stride,
                scheme: PatternScheme::Adaptive,
                width: 16,
                trials: 8,
                seed: 7,
            },
            &never(),
            Some(&ctl),
        );
        let fresh = execute(
            &Command::Pattern {
                pattern: MatrixPattern::Stride,
                scheme: PatternScheme::Static(Scheme::Padded),
                width: 16,
                trials: 8,
                seed: 7,
            },
            &never(),
            None,
        );
        assert_eq!(
            adaptive, fresh,
            "post-commit responses track the new layout"
        );
        // Refusals are client errors, not infrastructure failures.
        let out = execute(
            &Command::AdaptForce {
                target: "bogus".into(),
                steps: None,
            },
            &never(),
            Some(&ctl),
        );
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("unknown candidate")));
        let out = execute(
            &Command::AdaptForce {
                target: "rap".into(),
                steps: None,
            },
            &never(),
            None,
        );
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("--adapt")));
    }

    #[test]
    fn adaptive_serves_synthesized_tables_deterministically() {
        let _g = test_lock::handlers();
        let ctl = rap_adapt::AdaptiveController::new(rap_adapt::AdaptConfig {
            width: 8,
            initial: "raw".to_string(),
            synth_workload: Some("column:0;contiguous:0".to_string()),
            start_frozen: true,
            ..rap_adapt::AdaptConfig::default()
        })
        .expect("controller with synthesized candidates");
        let synth = ctl
            .status()
            .candidates
            .iter()
            .find(|(name, ..)| name.starts_with("synth:"))
            .map(|(name, ..)| name.clone())
            .expect("a synthesized candidate");
        let out = execute(
            &Command::AdaptForce {
                target: synth.clone(),
                steps: Some(0),
            },
            &never(),
            Some(&ctl),
        );
        assert!(matches!(out, Outcome::Ok(_)), "{out:?}");
        let run = |seed: u64| {
            execute(
                &Command::Pattern {
                    pattern: MatrixPattern::Contiguous,
                    scheme: PatternScheme::Adaptive,
                    width: 8,
                    trials: 4,
                    seed,
                },
                &never(),
                Some(&ctl),
            )
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a, b, "table evaluation is deterministic");
        match a {
            Outcome::Ok(data) => {
                assert_eq!(get(&data, "scheme"), &Value::String(synth));
                // The synthesized table was optimized for this workload:
                // contiguous rows stay conflict-free.
                assert_eq!(get(get(&data, "stats"), "mean"), &Value::F64(1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn handler_failpoint_injects_all_fault_kinds() {
        use rap_resilience::{FailPlan, Fault, HitSchedule};
        let _l = test_lock::fail_plans();
        let cmd = Command::Analyze { width: 8 };

        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Enospc,
            HitSchedule::Always,
        ));
        let out = execute(&cmd, &never(), None);
        assert!(matches!(out, Outcome::Failed(ref e) if e.contains("ENOSPC")));
        drop(guard);

        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| execute(&cmd, &CancelToken::never(), None));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "panic failpoint must unwind");
        drop(guard);

        // Fallback bounds stay available while the handler site is hot.
        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        assert!(degraded_pattern(MatrixPattern::Stride, Scheme::Rap, 16).is_ok());
        drop(guard);
    }
}
