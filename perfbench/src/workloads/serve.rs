//! `serve-mix`: an open-loop, fixed-rate mix sent over loopback to a
//! spawned `rap serve --workers <nproc> --adapt --adapt-width 32`.
//!
//! The mix shares one worker queue between cheap reads (`layout`,
//! `congestion`) and compute requests (`pattern` at w = 32 with small
//! trial counts, `pattern_block`, `transpose`, `analyze`); a share of the
//! `pattern` requests use `scheme:"adaptive"`, which feeds the adapt
//! monitor and can start epoch swaps while static reads go on beside
//! them.
//!
//! Unit operation: one request at the nominal rate, timed from when it
//! was due; reported as the median over time windows of each window's
//! median. Throughput: the highest rate of a fixed ladder that meets the
//! p99 limit with every request answered `ok` (the achieved rate at that
//! step). Every deterministic response must equal what
//! `handler::execute` returns in-process for the same request; adaptive
//! responses depend on the live epoch and are checked for `ok` only.

use super::{Ctx, Measured, Scale, Workload};
use crate::checks::{check_line, expected_suffix};
use crate::loadgen::{self, Outcome};
use crate::metrics::RunResult;
use crate::server::{field, num, query, ServerProc};
use crate::trace::Tracer;
use crate::util::{percentile, windowed_percentile};
use rand::rngs::SmallRng;
use rand::Rng;
use rap_access::CancelToken;
use rap_serve::handler::{self, Outcome as HandlerOutcome};
use rap_serve::Request;
use rap_stats::SeedDomain;
use serde::Value;
use std::time::{Duration, Instant};

/// Nominal request rate, per second. Rates near half of the ladder's
/// `serve.max_rps` (2000 and 3000 req/s on a two-core host shared with
/// other tenants) shed requests whenever the host stalls the server for a
/// few tens of milliseconds, which fails the run; at this rate the 64-slot
/// queue absorbs such stalls. The loaded queue is measured by the ladder.
pub const NOMINAL_RPS: f64 = 1000.0;
/// Share of a full run spent at the nominal rate; the ladder gets the rest.
pub const NOMINAL_SHARE: f64 = 0.4;
/// The ladder's rates are the fixed grid `LADDER_BASE_RPS · LADDER_FACTOR^k`.
pub const LADDER_BASE_RPS: f64 = 1000.0;
/// Ratio between neighbouring ladder rates.
pub const LADDER_FACTOR: f64 = 1.04;
/// Grid points skipped per step until the first failing step.
pub const LADDER_COARSE: i32 = 12;
/// Seconds per ladder step.
pub const LADDER_STEP_S: f64 = 0.25;
/// p99 latency limit of the ladder, ms.
pub const P99_LIMIT_MS: f64 = 50.0;

/// Mix weights per command (see [`crate::metrics::SERVE_CMDS`]).
pub const MIX: [(&str, u64); 7] = [
    ("layout", 20),
    ("congestion", 25),
    ("pattern", 15),
    ("pattern_adaptive", 10),
    ("pattern_block", 10),
    ("transpose", 10),
    ("analyze", 10),
];

/// Variants per command. The shape parameters (pattern, scheme, kind,
/// width) cycle through fixed lists across the variants, so
/// every seed's pool has the same cost profile; only seeds and addresses
/// are drawn at random.
const VARIANTS: usize = 12;

/// One request template of the mix.
#[derive(Debug, Clone)]
pub struct Template {
    /// Command name (`pattern_adaptive` for adaptive `pattern`).
    pub cmd: &'static str,
    /// The request line, without an id.
    pub line: String,
}

/// Variant `v` of the request line for `cmd`, with seeds and addresses
/// drawn from `rng`.
#[must_use]
pub fn request_line(cmd: &str, v: usize, rng: &mut SmallRng) -> String {
    const PATTERNS: [&str; 4] = ["contiguous", "stride", "diagonal", "random"];
    const SCHEMES: [&str; 3] = ["raw", "ras", "rap"];
    let seed = rng.gen_range(0..1u64 << 20);
    let pattern = PATTERNS[v % 4];
    let scheme = SCHEMES[v % 3];
    match cmd {
        "layout" => {
            let scheme = ["raw", "ras", "rap", "xor", "padded"][v % 5];
            format!(r#"{{"cmd":"layout","scheme":"{scheme}","width":32,"seed":{seed}}}"#)
        }
        "congestion" => {
            let addrs: Vec<String> = (0..32)
                .map(|_| rng.gen_range(0..1024u32).to_string())
                .collect();
            format!(
                r#"{{"cmd":"congestion","width":32,"addresses":[{}]}}"#,
                addrs.join(",")
            )
        }
        // Static and adaptive `pattern` requests at 64 trials are the
        // heavy quarter of the mix.
        "pattern" => format!(
            r#"{{"cmd":"pattern","pattern":"{pattern}","scheme":"{scheme}","width":32,"trials":64,"seed":{seed}}}"#
        ),
        "pattern_adaptive" => format!(
            r#"{{"cmd":"pattern","pattern":"{pattern}","scheme":"adaptive","width":32,"trials":64,"seed":{seed}}}"#
        ),
        "pattern_block" => {
            let block = v % 8;
            format!(
                r#"{{"cmd":"pattern_block","pattern":"{pattern}","scheme":"{scheme}","width":32,"trials":256,"block":{block},"seed":{seed}}}"#
            )
        }
        "transpose" => {
            let kind = ["crsw", "srcw", "drdw"][(v / 3) % 3];
            format!(
                r#"{{"cmd":"transpose","kind":"{kind}","scheme":"{scheme}","width":32,"latency":8,"seed":{seed}}}"#
            )
        }
        "analyze" => {
            let width = [8, 16][v % 2];
            format!(r#"{{"cmd":"analyze","width":{width}}}"#)
        }
        other => panic!("no template for command {other}"),
    }
}

/// The template pool for `seed`: [`VARIANTS`] per command of the mix.
#[must_use]
pub fn templates(seed: u64) -> Vec<Template> {
    let mut rng = SeedDomain::new(seed).child("serve-mix templates").rng(0);
    let mut out = Vec::new();
    for (cmd, _) in MIX {
        for v in 0..VARIANTS {
            out.push(Template {
                cmd,
                line: request_line(cmd, v, &mut rng),
            });
        }
    }
    out
}

/// Run a request line through `handler::execute` in-process.
///
/// # Errors
/// An unparseable line or a handler outcome other than `Ok`.
pub fn execute_in_process(
    line: &str,
    adapt: Option<&rap_adapt::AdaptiveController>,
) -> Result<Value, String> {
    let request = Request::parse(line).map_err(|e| format!("{line}: {e}"))?;
    match handler::execute(&request.cmd, &CancelToken::never(), adapt) {
        HandlerOutcome::Ok(v) => Ok(v),
        other => Err(format!("{line}: handler returned {other:?}")),
    }
}

/// See the module docs.
#[derive(Default)]
pub struct ServeMix {
    server: Option<ServerProc>,
    templates: Vec<Template>,
    /// In-process response line per template, minus its id (`None` for
    /// adaptive requests).
    expected: Vec<Option<String>>,
    schedule_rng: Option<SmallRng>,
}

impl ServeMix {
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<loadgen::Slot> {
        let total: u64 = MIX.iter().map(|(_, w)| w).sum();
        let rng = self.schedule_rng.as_mut().expect("setup ran");
        let n = ((rate * seconds).round() as usize).max(1);
        loadgen::fixed_rate(rate, n, || {
            let mut r = rng.gen_range(0..total);
            let mut cmd_idx = 0;
            for (i, (_, w)) in MIX.iter().enumerate() {
                if r < *w {
                    cmd_idx = i;
                    break;
                }
                r -= w;
            }
            cmd_idx * VARIANTS + rng.gen_range(0..VARIANTS)
        })
    }

    /// Check every outcome; count refused/missing separately from wrong
    /// payloads. Returns (refused or missing, wrong payload messages).
    fn evaluate(&self, outcomes: &[Outcome]) -> (u64, Vec<String>) {
        let (mut refused, mut wrong) = (0, Vec::new());
        for (id, o) in outcomes.iter().enumerate() {
            match &o.line {
                Some(line) if o.succeeded() => {
                    if let Err(e) =
                        check_line(self.expected[o.template].as_deref(), id as u64, line)
                    {
                        wrong.push(format!("{}: {e}", self.templates[o.template].line));
                    }
                }
                _ => refused += 1,
            }
        }
        (refused, wrong)
    }

    /// One climb of the ladder from grid point `k` in strides of
    /// `stride` (dropping to single steps at the first miss) until two
    /// points in a row miss the p99 limit — a refused or unanswered
    /// request counts as missing it — or the time runs out. Returns the
    /// best achieved rate (0 if none passed) and its grid point.
    #[allow(clippy::too_many_arguments)]
    fn climb(
        &mut self,
        ctx: &Ctx,
        out: &mut RunResult,
        mut k: i32,
        mut stride: i32,
        step: Duration,
        deadline: Instant,
        steps: &mut u32,
    ) -> Result<(f64, i32), String> {
        let (mut best, mut top, mut misses) = (0.0f64, k, 0);
        while misses < 2 && Instant::now() + step <= deadline {
            let outcomes = self.run_schedule(
                ctx,
                LADDER_BASE_RPS * LADDER_FACTOR.powi(k),
                step.as_secs_f64(),
            )?;
            *steps += 1;
            let (refused, wrong) = self.evaluate(&outcomes);
            out.attempted += outcomes.len() as u64 - refused;
            for w in &wrong {
                out.fail(w.clone());
            }
            let lat: Vec<f64> = outcomes
                .iter()
                .map(|o| if o.succeeded() { o.latency_ms() } else { None }.unwrap_or(f64::INFINITY))
                .collect();
            if !wrong.is_empty() || percentile(&lat, 99.0) > P99_LIMIT_MS {
                if stride > 1 {
                    k -= stride - 1;
                    stride = 1;
                } else {
                    misses += 1;
                    k += 1;
                }
                continue;
            }
            let first = outcomes.first().map(|o| o.due).expect("non-empty step");
            let last = outcomes
                .iter()
                .filter_map(|o| o.recv)
                .max()
                .expect("answered");
            let achieved = outcomes.len() as f64 / last.duration_since(first).as_secs_f64();
            if achieved > best {
                (best, top) = (achieved, k);
            }
            misses = 0;
            k += stride;
        }
        Ok((best, top))
    }

    fn run_schedule(&mut self, ctx: &Ctx, rate: f64, seconds: f64) -> Result<Vec<Outcome>, String> {
        let schedule = self.schedule(rate, seconds);
        let lines: Vec<String> = self.templates.iter().map(|t| t.line.clone()).collect();
        let addr = self.server.as_ref().expect("setup ran").addr;
        // Two threads per connection keep the generator within `nproc`
        // threads.
        let connections = (ctx.machine.nproc() / 2).max(1);
        loadgen::run(addr, &lines, &schedule, connections, Duration::from_secs(3))
    }
}

impl Workload for ServeMix {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        if let Some(old) = self.server.take() {
            old.stop();
        }
        self.templates = templates(ctx.seed);
        self.expected = self
            .templates
            .iter()
            .map(|t| {
                if t.cmd == "pattern_adaptive" {
                    Ok(None)
                } else {
                    execute_in_process(&t.line, None).map(|v| Some(expected_suffix(v)))
                }
            })
            .collect::<Result<_, _>>()?;
        self.schedule_rng = Some(SeedDomain::new(ctx.seed).child("serve-mix schedule").rng(0));
        let server = ctx.launcher.start(ctx.machine.nproc(), true)?;
        // Warm-up: every template once, closed loop.
        let mut client =
            rap_serve::Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        for (t, want) in self.templates.iter().zip(&self.expected) {
            let line = format!("{{\"id\":0,{}", &t.line[1..]);
            let got = client
                .send(&line)
                .and_then(|()| client.recv_line())
                .map_err(|e| format!("warm-up {}: {e}", t.line))?
                .ok_or_else(|| format!("warm-up {}: connection closed", t.line))?;
            check_line(want.as_deref(), 0, got.trim_end())
                .map_err(|e| format!("warm-up {}: {e}", t.line))?;
        }
        self.server = Some(server);
        Ok(())
    }

    fn measure(
        &mut self,
        ctx: &Ctx,
        budget: Duration,
        tracer: &mut Tracer,
        out: &mut RunResult,
        full: bool,
    ) -> Result<Measured, String> {
        let budget_s = budget.as_secs_f64();
        let nominal_s = if full {
            budget_s * NOMINAL_SHARE
        } else {
            budget_s
        };
        let outcomes = tracer.span("op", 0, |tr| {
            let outcomes = self.run_schedule(ctx, NOMINAL_RPS, nominal_s)?;
            for (i, o) in outcomes.iter().enumerate() {
                if let Some(recv) = o.recv {
                    tr.record("serve.request", o.due, recv, i as u64);
                }
            }
            Ok::<_, String>(outcomes)
        })?;
        let (refused, wrong) = self.evaluate(&outcomes);
        out.attempted += outcomes.len() as u64;
        for _ in 0..refused {
            out.fail("nominal-rate request refused, degraded or unanswered");
        }
        for w in wrong {
            out.fail(w);
        }
        let latencies: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_ms).collect();
        let late: Vec<f64> = outcomes.iter().filter_map(Outcome::late_ms).collect();
        out.set("loadgen.late_p99_ms", percentile(&late, 99.0));
        out.set("info.serve.nominal_rps", NOMINAL_RPS);
        for (cmd, _) in MIX {
            let lat: Vec<f64> = outcomes
                .iter()
                .filter(|o| self.templates[o.template].cmd == cmd)
                .filter_map(Outcome::latency_ms)
                .collect();
            out.set(format!("info.serve.p50_ms.{cmd}"), percentile(&lat, 50.0));
        }
        if !full {
            return Ok(Measured {
                latency_ms: windowed_percentile(&latencies, 50.0),
                latencies_ms: latencies,
                throughput: 0.0,
            });
        }
        // The ladder: repeated climbs over the fixed rate grid. The first
        // climb starts one grid point above the nominal rate in coarse
        // strides; each later one starts a few points below the previous
        // result in single steps. The median climb is the result, so one
        // burst of host interference near the top does not decide it.
        let deadline = Instant::now() + budget.mul_f64(1.0 - NOMINAL_SHARE);
        let step = Duration::from_secs_f64(match ctx.scale {
            Scale::Full => LADDER_STEP_S,
            Scale::Tiny => 0.1,
        });
        let mut k = (NOMINAL_RPS / LADDER_BASE_RPS).log(LADDER_FACTOR).floor() as i32 + 1;
        let mut stride = LADDER_COARSE;
        let (mut climbs, mut steps) = (Vec::new(), 0);
        while Instant::now() + step * 4 <= deadline {
            let (best, top) = self.climb(ctx, out, k, stride, step, deadline, &mut steps)?;
            stride = 1;
            if best == 0.0 {
                // Nothing passed: a burst of interference; retry lower.
                k -= 6;
                continue;
            }
            climbs.push(best);
            k = top - 3;
        }
        let best = crate::util::median(&climbs);
        out.set("info.serve.ladder_steps", f64::from(steps));
        out.set("info.serve.ladder_climbs", climbs.len() as f64);
        out.set("info.serve.max_rps", best);
        Ok(Measured {
            latency_ms: windowed_percentile(&latencies, 50.0),
            latencies_ms: latencies,
            throughput: best,
        })
    }

    fn finish(&mut self, _ctx: &Ctx, out: &mut RunResult) -> Result<(), String> {
        let server = self.server.take().expect("setup ran");
        let stats = query(server.addr, r#"{"cmd":"stats"}"#)?;
        let data = stats.data.ok_or("stats returned no data")?;
        if field(&data, "conserves_responses") != Some(&Value::Bool(true)) {
            out.fail("stats no longer reports conserves_responses:true");
        }
        let m = field(&data, "metrics").ok_or("stats has no metrics")?;
        let count = |k: &str| num(m, k).unwrap_or(0.0);
        out.set("serve.requests", count("received"));
        out.set("serve.shed", count("shed"));
        out.set(
            "serve.timeouts",
            count("timeouts_queue") + count("timeouts_handler"),
        );
        out.set("serve.degraded", count("degraded_served"));
        out.set(
            "serve.breaker_trips",
            num(&data, "breaker_trips").unwrap_or(0.0),
        );
        let adapt = field(&data, "adapt").ok_or("stats has no adapt section")?;
        out.set("adapt.swaps", num(adapt, "swaps").unwrap_or(0.0));
        out.set("adapt.rollbacks", num(adapt, "rollbacks").unwrap_or(0.0));
        out.set("peak_rss_mb", server.peak_rss_mb());
        server.stop();
        Ok(())
    }
}
