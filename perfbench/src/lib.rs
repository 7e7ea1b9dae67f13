//! **perfbench** — the repository's benchmark.
//!
//! One command runs a workload, checks every output for correctness and
//! prints every metric by name with its unit; see `NOTES.md` for the
//! workloads, what each metric means on each, and recorded results.
//!
//! * [`workloads`] — `mc-narrow`, `paper-tables`, `serve-mix`,
//!   `cluster-sweep`;
//! * [`probe`] — per-layer timings of direct calls into each layer;
//! * [`trace`] — the span recorder and self-time attribution;
//! * [`loadgen`] — the open-loop load generator;
//! * [`checks`] — the correctness checks;
//! * [`metrics`] — the contract rendered into `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod checks;
pub mod loadgen;
pub mod machine;
pub mod metrics;
pub mod probe;
pub mod server;
pub mod trace;
pub mod util;
pub mod workloads;

use metrics::{RunResult, SELF_LAYERS};
use std::time::{Duration, Instant};
use trace::{self_times, Tracer};
use util::{median, windowed_percentile};
use workloads::Ctx;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Per-layer counters owned by one workload; the others report 0 for
/// them (the layer does no work there).
const WORKLOAD_COUNTERS: [&str; 12] = [
    "serve.requests",
    "serve.shed",
    "serve.timeouts",
    "serve.degraded",
    "serve.breaker_trips",
    "adapt.swaps",
    "adapt.rollbacks",
    "loadgen.late_p99_ms",
    "cluster.efficiency",
    "cluster.redispatched",
    "cluster.hedged",
    "cluster.useful_ratio",
];

/// The span layer a span name belongs to (`None` for the root `op`).
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "access.matrix_congestion" => "access",
        "tables.t2.narrow" => "t2_narrow",
        "tables.t2.wide" => "t2_wide",
        "tables.t3" => "t3",
        "tables.t4" => "t4",
        "serve.request" => "serve_client",
        "cluster.run_sweep" => "cluster",
        _ => return None,
    })
}

/// Self-time shares of the traced operations: each layer's self time,
/// and the root spans' own (unexplained) time, over the root spans'
/// total duration.
fn attribution(tracer: &Tracer, out: &mut RunResult) {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut total = 0u64;
    let mut unexplained = 0u64;
    let mut by_layer = std::collections::BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.name == "op" && s.parent.is_none() {
            total += s.end_ns - s.start_ns;
            unexplained += t;
        } else if let Some(layer) = layer_of(s.name) {
            *by_layer.entry(layer).or_insert(0u64) += t;
        }
    }
    let share = |ns: u64| ns as f64 / total.max(1) as f64;
    for layer in SELF_LAYERS {
        out.set(
            format!("self_share.{layer}"),
            share(by_layer.get(layer).copied().unwrap_or(0)),
        );
    }
    out.set("trace.unexplained_share", share(unexplained));
    let engine: u64 = ["access", "t2_narrow", "t2_wide", "t4"]
        .iter()
        .map(|l| by_layer.get(l).copied().unwrap_or(0))
        .sum();
    let wide = by_layer.get("t2_wide").copied().unwrap_or(0);
    out.set(
        "engine.wide_share",
        if engine == 0 {
            0.0
        } else {
            wide as f64 / engine as f64
        },
    );
}

/// Run workload `name` for `seconds`. Untraced (`trace == false`): the
/// end-to-end metrics, with set-up repeated [`SETUP_REPS`] times. Traced:
/// half the time untraced and half traced (their latency ratio is
/// `trace.overhead`), the self-time attribution of the traced half, and
/// the layer probes. Returns the result and the recorded spans.
///
/// # Errors
/// Infrastructure failures; correctness failures are counted in the
/// result instead.
pub fn run(
    ctx: &Ctx,
    name: &str,
    seconds: f64,
    trace: bool,
) -> Result<(RunResult, Tracer), String> {
    let mut workload = workloads::by_name(name)?;
    let mut out = RunResult::default();
    out.set("info.host.ref_ns", machine::host_reference_ns());
    let budget = Duration::from_secs_f64(seconds);
    let mut off = Tracer::new(false);
    if !trace {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            workload.setup(ctx)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        let m = workload.measure(ctx, budget, &mut off, &mut out, true)?;
        workload.finish(ctx, &mut out)?;
        out.set("setup_s", median(&setups));
        out.set("latency_ms", m.latency_ms);
        out.set("throughput_per_s", m.throughput);
        out.set("info.latency_samples", m.latencies_ms.len() as f64);
        return Ok((out, off));
    }
    for counter in WORKLOAD_COUNTERS {
        out.set(counter, 0.0);
    }
    workload.setup(ctx)?;
    let plain = workload.measure(ctx, budget / 2, &mut off, &mut out, false)?;
    let mut tracer = Tracer::new(true);
    let traced = workload.measure(ctx, budget / 2, &mut tracer, &mut out, false)?;
    workload.finish(ctx, &mut out)?;
    out.set("op.p50_ms", windowed_percentile(&traced.latencies_ms, 50.0));
    out.set("op.p99_ms", windowed_percentile(&traced.latencies_ms, 99.0));
    out.set(
        "trace.overhead",
        median(&traced.latencies_ms) / median(&plain.latencies_ms),
    );
    attribution(&tracer, &mut out);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    probe::run(
        ctx.seed,
        ctx.scale,
        ctx.machine.nproc(),
        &ctx.launcher,
        &mut tracer,
        &mut out,
    )?;
    Ok((out, tracer))
}
