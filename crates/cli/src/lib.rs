//! # rap-cli — command-line explorer for the RAP toolkit
//!
//! A small, dependency-free CLI over the workspace:
//!
//! ```text
//! rap layout    --scheme rap --width 8 [--seed 1]
//! rap congestion --width 32 --addresses 0,32,64,96
//! rap pattern   --pattern stride --scheme ras --width 32 [--trials 1000]
//! rap transpose --kind crsw --scheme rap [--width 32] [--latency 8]
//! rap trace     --kind drdw --scheme raw [--width 8] [--latency 3]
//! rap permute   --family transpose [--width 16] [--latency 8]
//! rap analyze   --width 32 [--scheme rap|all] [--plans] [--access <specs>] [--json]
//! rap synthesize --width 8 --workload <specs> [--mode sigma|table] [--emit cert.json]
//! rap chaos     [--width 32] [--trials 256] [--fault panic|enospc|delay]
//! rap serve     [--addr 127.0.0.1:7414] [--workers 4] [--queue 64] [--adapt]
//! rap query     --addr <host:port> --json '<request>'
//! rap cluster   --pattern random --scheme rap [--workers 2|--addrs a,b]
//! rap adapt     --trace observations.txt [--ledger epochs.jsonl] [--json]
//! ```
//!
//! All logic lives in [`run`], which returns the rendered output so the
//! whole surface is unit-testable; `main` just prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rap_access::montecarlo::{fixed_layout_congestion, matrix_congestion};
use rap_access::{CancelToken, MatrixPattern};
use rap_analyze::{certify_theorem1, certify_theorem2, lint_plans, LintReport, TheoremReport};
use rap_core::diagnostics::{render_bank_loads, render_layout};
use rap_core::modern::build_mapping;
use rap_core::{BankLoads, MatrixMapping, Scheme};
use rap_dmm::{trace as dmm_trace, Dmm, Machine};
use rap_permute::{run_permutation, transpose_permutation, RapArrayMapping, Strategy};
use rap_stats::SeedDomain;
use rap_transpose::{run_transpose, transpose_program, TransposeKind};
use std::collections::HashMap;

/// Usage text shown on errors and `rap help`.
pub const USAGE: &str = "\
rap — Random Address Permute-Shift explorer

USAGE:
  rap layout     --scheme <raw|ras|rap|xor|padded> --width <w> [--seed <n>]
  rap congestion --width <w> --addresses <a,b,c,...>
  rap pattern    --pattern <contiguous|stride|diagonal|random> --scheme <s>
                 --width <w> [--trials <n>] [--seed <n>]
  rap transpose  --kind <crsw|srcw|drdw> --scheme <s> [--width 32]
                 [--latency 8] [--seed <n>]
  rap trace      --kind <crsw|srcw|drdw> --scheme <s> [--width 8]
                 [--latency 3] [--seed <n>] [--gantt <cols>]
  rap permute    --family <identity|transpose|random|bitrev> [--width 16]
                 [--latency 8] [--seed <n>]
  rap analyze    --width <w> [--scheme <raw|ras|rap|xor|padded|all>]
                 [--plans] [--access <spec;spec;...>] [--json]
                 (static prover: certify Theorems 1 and 2, optionally
                 lint the declared plans and/or analyze an explicit
                 plan batch — one bad plan fails the whole batch)
  rap synthesize --width <w> --workload <spec;spec;...>
                 [--mode <sigma|table>] [--seed <n>] [--emit <path>]
                 [--lint <raw|ras|rap|xor|padded>] [--json]
                 (search for the layout minimizing worst-case congestion
                 over the workload; the result is accepted only after
                 the independent certificate checker passes. Plan specs:
                 contiguous:<row>  column:<col>  diagonal:<off>
                 broadcast:<i>,<j>  flat:<stride>,<off>
                 coord:<ic>,<io>,<jc>,<jo>)
  rap chaos      [--width 32] [--trials 256] [--seed <n>] [--rate 3]
                 [--fault <panic|enospc|delay>]   (inject faults into the
                 Monte-Carlo engine and verify the recovered estimate is
                 bit-identical to the fault-free run)
  rap serve      [--addr 127.0.0.1:7414] [--workers 4] [--queue 64]
                 [--connections 64] [--timeout-ms 2000] [--drain-ms 2000]
                 [--adapt] [--adapt-ledger <path>] [--adapt-width 32]
                 [--adapt-initial rap] [--adapt-workload <specs>]
                 [--adapt-frozen] [--adapt-window 256] [--adapt-eval-every 64]
                 [--adapt-min-samples 32] [--adapt-migrate-steps 16]
                 (hardened query service; line-delimited JSON over TCP;
                 send {\"cmd\":\"shutdown\"} for a graceful drain. --adapt
                 enables self-healing remapping: scheme \"adaptive\"
                 resolves to the committed candidate, observed congestion
                 drives certified epoch swaps, and --adapt-ledger makes
                 every transition durable so a killed server resumes
                 bit-identically)
  rap query      --addr <host:port> --json '<request>' [--timeout-ms 10000]
                 (send one request line, print the one response line; a
                 dropped connection gets exactly one seeded-backoff
                 reconnect attempt before a contextual exit-1 error)
  rap cluster    --pattern <p> --scheme <raw|ras|rap> [--width 32]
                 [--trials 1000] [--seed <n>] [--workers 2 | --addrs
                 <host:port,...>] [--in-process] [--quorum 1]
                 [--checkpoint <path>] [--verify]
                 (shard the Monte-Carlo estimate across rap-serve
                 workers — spawned processes by default, or external
                 --addrs — and merge bit-identically to a local run;
                 --verify recomputes locally and checks the bits)
  rap adapt      --trace <path> [--width 32] [--initial rap] [--seed <n>]
                 [--workload <specs>] [--window 256] [--eval-every 64]
                 [--min-samples 32] [--migrate-steps 16] [--frozen]
                 [--ledger <path>] [--json]
                 (replay a congestion trace through the adaptive epoch
                 controller. Trace lines: '<class> <congestion>' feeds an
                 observation (class: contiguous|stride|diagonal|random);
                 'force <candidate> [steps]' runs a forced swap;
                 'freeze on|off' toggles automatic swaps; '#' comments.
                 --ledger makes epochs durable: rerun the same command to
                 resume — interrupted migrations roll back on open)
  rap help

Widths are capped at 4096 everywhere (one request must not exhaust the
process); transpose simulates full DMM cycles and is capped at 512.
";

/// Parsed `--key value` options.
#[derive(Debug, Default)]
struct Opts {
    map: HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(k) = args[i].strip_prefix("--") {
                // `--key value` consumes the value; a trailing `--key` or
                // `--key --next` is a boolean flag.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        map.insert(k.to_string(), v.clone());
                        i += 2;
                    }
                    _ => {
                        map.insert(k.to_string(), "true".to_string());
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Self { map }
    }

    fn flag(&self, key: &str) -> bool {
        self.map
            .get(key)
            .is_some_and(|v| v != "false" && v != "0" && v != "no")
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected a number, got '{v}'")),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected a number, got '{v}'")),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }
}

/// Widest matrix any CLI command accepts — mirrors the serve-side cap:
/// a width names `w²` cells and `w`-lane warps, so an unbounded value is
/// a one-request memory/CPU exhaustion vector, not a bigger experiment.
pub const MAX_CLI_WIDTH: usize = rap_serve::MAX_WIDTH;

/// Parse and validate `--width`: a number in `1..=MAX_CLI_WIDTH`.
fn checked_width(opts: &Opts, default: usize) -> Result<usize, String> {
    let width = opts.usize("width", default)?;
    if width == 0 || width > MAX_CLI_WIDTH {
        return Err(format!("--width must be 1..={MAX_CLI_WIDTH}, got {width}"));
    }
    Ok(width)
}

/// Execute a command line (without the program name) and return the
/// rendered output.
///
/// # Errors
/// Returns a user-facing message for unknown commands or bad options.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let opts = Opts::parse(&args[1..]);
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "layout" => cmd_layout(&opts),
        "congestion" => cmd_congestion(&opts),
        "pattern" => cmd_pattern(&opts),
        "transpose" => cmd_transpose(&opts),
        "trace" => cmd_trace(&opts),
        "permute" => cmd_permute(&opts),
        "analyze" => cmd_analyze(&opts),
        "synthesize" => cmd_synthesize(&opts),
        "chaos" => cmd_chaos(&opts),
        "serve" => cmd_serve(&opts),
        "query" => cmd_query(&opts),
        "cluster" => cmd_cluster(&opts),
        "adapt" => cmd_adapt(&opts),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn mapping_for(
    opts: &Opts,
    default_width: usize,
) -> Result<(Box<dyn MatrixMapping>, usize), String> {
    let scheme: Scheme = opts.required("scheme")?.parse()?;
    let width = checked_width(opts, default_width)?;
    if scheme == Scheme::Xor && !width.is_power_of_two() {
        return Err("--scheme xor needs a power-of-two --width".into());
    }
    let seed = opts.u64("seed", 2014)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    Ok((build_mapping(scheme, &mut rng, width), width))
}

fn cmd_layout(opts: &Opts) -> Result<String, String> {
    let (mapping, _) = mapping_for(opts, 8)?;
    Ok(render_layout(mapping.as_ref()))
}

fn cmd_congestion(opts: &Opts) -> Result<String, String> {
    let width = checked_width(opts, 32)?;
    let raw = opts.required("addresses")?;
    let addresses: Vec<u64> = raw
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| format!("bad address '{t}' in --addresses"))
        })
        .collect::<Result<_, _>>()?;
    let loads = BankLoads::analyze(width, &addresses);
    Ok(render_bank_loads(&loads))
}

fn cmd_pattern(opts: &Opts) -> Result<String, String> {
    let pattern: MatrixPattern = opts.required("pattern")?.parse()?;
    let scheme: Scheme = opts.required("scheme")?.parse()?;
    let width = checked_width(opts, 32)?;
    let trials = opts.u64("trials", 1000)?.max(1);
    let domain = SeedDomain::new(opts.u64("seed", 2014)?);
    let stats = match scheme {
        Scheme::Raw | Scheme::Ras | Scheme::Rap => {
            matrix_congestion(scheme, pattern, width, trials, &domain)
        }
        // Deterministic layouts draw nothing from the rng: build once.
        Scheme::Xor | Scheme::Padded => {
            if scheme == Scheme::Xor && !width.is_power_of_two() {
                return Err("--scheme xor needs a power-of-two --width".into());
            }
            let mapping = build_mapping(scheme, &mut domain.rng(0), width);
            let never = CancelToken::never();
            fixed_layout_congestion(mapping.as_ref(), pattern, trials, &domain, &never).stats
        }
    };
    Ok(format!(
        "{pattern} access under {scheme}, w={width}, {trials} trials:\n\
         expected congestion {:.4} (stderr {:.4}), range [{:.0}, {:.0}]\n",
        stats.mean(),
        stats.std_error(),
        stats.min().unwrap_or(0.0),
        stats.max().unwrap_or(0.0),
    ))
}

fn cmd_transpose(opts: &Opts) -> Result<String, String> {
    let kind: TransposeKind = opts.required("kind")?.parse()?;
    let (mapping, width) = mapping_for(opts, 32)?;
    let latency = opts.u64("latency", 8)?.max(1);
    let data: Vec<f64> = (0..width * width).map(|x| x as f64).collect();
    let run = run_transpose(kind, mapping.as_ref(), latency, &data);
    Ok(format!(
        "{kind} transpose of a {width}x{width} matrix under {} (DMM, l={latency}):\n\
         cycles {}, read congestion {:.2}, write congestion {:.2}, verified: {}\n",
        run.scheme,
        run.report.cycles,
        run.read_congestion(),
        run.write_congestion(),
        run.verified,
    ))
}

fn cmd_trace(opts: &Opts) -> Result<String, String> {
    let kind: TransposeKind = opts.required("kind")?.parse()?;
    let (mapping, width) = mapping_for(opts, 8)?;
    let latency = opts.u64("latency", 3)?.max(1);
    let machine: Dmm = Machine::new(width, latency);
    let program =
        transpose_program::<f64>(kind, mapping.as_ref(), 0, mapping.storage_words() as u64);
    let tl = dmm_trace(&machine, &program);
    let mut out = tl.render();
    out.push_str(&format!("total: {} cycles\n", tl.cycles()));
    if opts.usize("gantt", 0)? > 0 {
        out.push('\n');
        out.push_str(&tl.render_gantt(opts.usize("gantt", 0)?));
    }
    Ok(out)
}

fn cmd_permute(opts: &Opts) -> Result<String, String> {
    let width = checked_width(opts, 16)?;
    let latency = opts.u64("latency", 8)?.max(1);
    let seed = opts.u64("seed", 2014)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = width * width;
    let family = opts.required("family")?.to_ascii_lowercase();
    let pi = match family.as_str() {
        "identity" => rap_core::Permutation::identity(n),
        "transpose" => transpose_permutation(width),
        "random" => rap_core::Permutation::random(&mut rng, n),
        "bitrev" => {
            if !n.is_power_of_two() {
                return Err("bitrev needs a power-of-two w²".into());
            }
            let bits = n.trailing_zeros();
            rap_core::Permutation::from_table(
                (0..n as u32)
                    .map(|t| t.reverse_bits() >> (32 - bits))
                    .collect(),
            )
            .expect("bit reversal is a permutation")
        }
        other => {
            return Err(format!(
                "unknown family '{other}' (expected identity|transpose|random|bitrev)"
            ))
        }
    };
    let data: Vec<u64> = (0..n as u64).collect();
    let mut out = format!("offline permutation '{family}' of {n} words, w={width}, l={latency}:\n");
    for strategy in Strategy::all() {
        let mapping = RapArrayMapping::random(&mut rng, width);
        let run = run_permutation(strategy, width, &pi, latency, &data, Some(&mapping));
        out.push_str(&format!(
            "  {:<13} {:>7} cycles  max congestion {:>3}  verified {}\n",
            strategy.name(),
            run.report.cycles,
            run.report.max_congestion(),
            run.verified,
        ));
    }
    Ok(out)
}

fn cmd_chaos(opts: &Opts) -> Result<String, String> {
    use rap_access::resilient::{matrix_congestion_resilient, ResilientConfig};
    use rap_resilience::{failpoint, FailPlan, Fault, HitSchedule, Ledger, RetryPolicy, RunBudget};

    let width = checked_width(opts, 32)?;
    let trials = opts.u64("trials", 256)?.max(1);
    let seed = opts.u64("seed", 2014)?;
    let rate = opts.u64("rate", 3)?.max(2);
    let fault = match opts.map.get("fault").map_or("panic", String::as_str) {
        "panic" => Fault::Panic,
        "enospc" => Fault::Enospc,
        "delay" => Fault::Delay,
        other => {
            return Err(format!(
                "unknown fault '{other}' (expected panic|enospc|delay)"
            ))
        }
    };

    let domain = SeedDomain::new(seed);
    let plain = matrix_congestion(Scheme::Rap, MatrixPattern::Stride, width, trials, &domain);

    let ledger = Ledger::in_memory();
    let cfg = ResilientConfig {
        ledger: &ledger,
        budget: RunBudget::unlimited(),
        retry: RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        },
    };
    let guard = rap_resilience::install(FailPlan::new(seed).rule(
        "mc.block",
        fault,
        HitSchedule::Rate { num: 1, den: rate },
    ));
    // The injected panics are the demo, not noise the user should wade
    // through: silence the default hook while the faulty run executes.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = matrix_congestion_resilient(
        Scheme::Rap,
        MatrixPattern::Stride,
        width,
        trials,
        &domain,
        "cli/chaos",
        &cfg,
    );
    std::panic::set_hook(prev_hook);
    let events = failpoint::drain_log();
    drop(guard);

    let identical = run.stats.to_raw() == plain.to_raw();
    let mut out = format!(
        "chaos: stride access under RAP, w={width}, {trials} trials, \
         fault={fault:?} on 1/{rate} of blocks (seed {seed})\n\
         injected {} fault(s) into {} block(s); {} retr{} spent\n",
        events.len(),
        run.report.total_blocks,
        run.report.retries,
        if run.report.retries == 1 { "y" } else { "ies" },
    );
    if run.report.degraded() {
        out.push_str(&format!(
            "DEGRADED: {} block(s) failed past the retry budget — {:?}\n",
            run.report.failed, run.report.notes
        ));
    }
    out.push_str(&format!(
        "fault-free estimate:  {:.6}\nrecovered estimate:   {:.6}\nbit-identical: {}\n",
        plain.mean(),
        run.stats.mean(),
        if identical { "yes" } else { "NO" },
    ));
    if !identical {
        return Err(out);
    }
    Ok(out)
}

/// Build an [`rap_adapt::AdaptConfig`] from options. `prefix` is `""`
/// for `rap adapt` (bare `--width`, `--initial`, …) and `"adapt"` for
/// `rap serve` (`--adapt-width`, `--adapt-initial`, … — the bare names
/// already belong to the server).
fn adapt_config(opts: &Opts, prefix: &str) -> Result<rap_adapt::AdaptConfig, String> {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}-{k}")
        }
    };
    let width_key = key("width");
    let width = opts.usize(&width_key, 32)?;
    if width == 0 || width > MAX_CLI_WIDTH {
        return Err(format!(
            "--{width_key} must be 1..={MAX_CLI_WIDTH}, got {width}"
        ));
    }
    Ok(rap_adapt::AdaptConfig {
        width,
        initial: opts
            .map
            .get(&key("initial"))
            .cloned()
            .unwrap_or_else(|| "rap".to_string()),
        seed: opts.u64(&key("seed"), 2014)?,
        window: opts.usize(&key("window"), 256)?.max(1),
        eval_every: opts.u64(&key("eval-every"), 64)?.max(1),
        min_samples: opts.u64(&key("min-samples"), 32)?,
        migrate_steps: opts.u64(&key("migrate-steps"), 16)?,
        synth_workload: opts.map.get(&key("workload")).cloned(),
        start_frozen: opts.flag(&key("frozen")),
        ..rap_adapt::AdaptConfig::default()
    })
}

fn cmd_serve(opts: &Opts) -> Result<String, String> {
    use rap_serve::{AdaptOptions, Server, ServerConfig};
    let addr = opts
        .map
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7414".to_string());
    let adapt = if opts.flag("adapt") || opts.map.keys().any(|k| k.starts_with("adapt-")) {
        Some(AdaptOptions {
            config: adapt_config(opts, "adapt")?,
            ledger: opts.map.get("adapt-ledger").map(std::path::PathBuf::from),
        })
    } else {
        None
    };
    let config = ServerConfig {
        addr: addr.clone(),
        workers: opts.usize("workers", 4)?.clamp(1, 64),
        queue_capacity: opts.usize("queue", 64)?.clamp(1, 100_000),
        max_connections: opts.usize("connections", 64)?.clamp(1, 10_000),
        default_timeout_ms: opts.u64("timeout-ms", 2_000)?.max(1),
        drain_budget_ms: opts.u64("drain-ms", 2_000)?,
        adapt,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    // Announce readiness on stdout *before* blocking so scripts can wait
    // for this line instead of polling the port.
    println!("rap-serve listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = handle.join();
    let m = &report.metrics;
    Ok(format!(
        "drained {} (aborted {} queued job(s))\n\
         received {}, ok {}, degraded {}, errors {} (shed {}, timeouts {}, \
         panics {}), responses conserved: {}\n",
        if report.clean {
            "clean"
        } else {
            "with leftovers"
        },
        report.aborted_jobs,
        m.received,
        m.completed_ok,
        m.degraded_served,
        m.errors_total(),
        m.shed,
        m.timeouts_queue + m.timeouts_handler,
        m.handler_panics,
        m.conserves_responses(),
    ))
}

/// Human description of a query I/O failure: name the common shapes
/// (mid-response close, read timeout) instead of leaking raw errno text.
fn describe_query_error(e: &std::io::Error) -> String {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            "the server closed the connection before responding".to_string()
        }
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            "the read timed out".to_string()
        }
        std::io::ErrorKind::InvalidData => format!("malformed response line ({e})"),
        _ => e.to_string(),
    }
}

fn cmd_query(opts: &Opts) -> Result<String, String> {
    let addr = opts.required("addr")?.to_string();
    let line = opts.required("json")?.to_string();
    let timeout = std::time::Duration::from_millis(opts.u64("timeout-ms", 10_000)?.max(1));
    let seed = opts.u64("seed", 2014)?;
    let attempt = || -> std::io::Result<rap_serve::Response> {
        rap_serve::Client::connect_with_timeout(&addr, timeout)?.roundtrip(&line)
    };
    match attempt() {
        Ok(response) => Ok(response.to_line()),
        Err(first) => {
            // A dropped or mid-response-closed connection gets exactly
            // one seeded-backoff reconnect (a worker restarting or a
            // draining acceptor is often back within milliseconds);
            // a second failure is a contextual exit-1 error, never a
            // panic and never an unbounded retry loop.
            std::thread::sleep(rap_resilience::RetryPolicy::default().backoff(
                "cli.query",
                seed,
                1,
            ));
            match attempt() {
                Ok(response) => Ok(response.to_line()),
                Err(second) => Err(format!(
                    "query {addr}: {}; after one reconnect attempt: {}",
                    describe_query_error(&first),
                    describe_query_error(&second),
                )),
            }
        }
    }
}

/// Everything `rap cluster` needs, validated up front.
struct ClusterOptions {
    pattern: MatrixPattern,
    scheme: Scheme,
    width: usize,
    trials: u64,
    seed: u64,
    workers: usize,
    addrs: Option<Vec<std::net::SocketAddr>>,
}

/// Parse and validate every `rap cluster` option **before** anything is
/// spawned: worker counts, external addresses (rejecting duplicates —
/// two workers cannot share a port), and the sampled-scheme requirement.
fn cluster_options(opts: &Opts) -> Result<ClusterOptions, String> {
    let pattern: MatrixPattern = opts
        .map
        .get("pattern")
        .map_or("random", String::as_str)
        .parse()?;
    let scheme: Scheme = opts
        .map
        .get("scheme")
        .map_or("rap", String::as_str)
        .parse()?;
    if !matches!(scheme, Scheme::Raw | Scheme::Ras | Scheme::Rap) {
        return Err(format!(
            "--scheme {scheme} is deterministic — there are no Monte-Carlo trials to distribute \
             (use raw, ras, or rap)"
        ));
    }
    let width = checked_width(opts, 32)?;
    let trials = opts.u64("trials", 1000)?.max(1);
    let seed = opts.u64("seed", 2014)?;
    let addrs = match opts.map.get("addrs") {
        None => None,
        Some(spec) => {
            let mut parsed = Vec::new();
            for token in spec.split(',') {
                let addr: std::net::SocketAddr = token
                    .trim()
                    .parse()
                    .map_err(|_| format!("--addrs: '{token}' is not a host:port address"))?;
                if parsed.contains(&addr) {
                    return Err(format!(
                        "--addrs: port collision — {addr} is listed more than once; \
                         every worker needs its own address"
                    ));
                }
                parsed.push(addr);
            }
            if parsed.is_empty() {
                return Err("--addrs: need at least one worker address".to_string());
            }
            Some(parsed)
        }
    };
    let workers = opts.usize("workers", 2)?;
    if addrs.is_none() && !(1..=64).contains(&workers) {
        return Err(format!("--workers must be 1..=64, got {workers}"));
    }
    Ok(ClusterOptions {
        pattern,
        scheme,
        width,
        trials,
        seed,
        workers,
        addrs,
    })
}

fn cmd_cluster(opts: &Opts) -> Result<String, String> {
    use rap_cluster::{Cluster, ClusterConfig, SweepCell, WorkerPool};

    // Every option is validated before a single worker exists, so a bad
    // invocation costs a message, not a spawned fleet.
    let ClusterOptions {
        pattern,
        scheme,
        width,
        trials,
        seed,
        workers,
        addrs,
    } = cluster_options(opts)?;
    let quorum = opts.usize("quorum", 1)?.max(1);

    let pool = match &addrs {
        Some(addrs) => WorkerPool::connect(addrs),
        None if opts.flag("in-process") => {
            WorkerPool::in_process(workers).map_err(|e| format!("spawning workers: {e}"))?
        }
        None => {
            let binary =
                std::env::current_exe().map_err(|e| format!("resolving the rap binary: {e}"))?;
            WorkerPool::spawn_processes(&binary, workers)
                .map_err(|e| format!("spawning {workers} worker process(es): {e}"))?
        }
    };

    let domain = SeedDomain::new(seed);
    let cell = SweepCell::new(
        format!("{}/{}/w={width}", pattern.name(), scheme.name()),
        pattern,
        scheme,
        width,
        trials,
        &domain,
    );
    let ledger = match opts.map.get("checkpoint") {
        None => rap_resilience::Ledger::in_memory(),
        Some(path) => {
            let fp = rap_resilience::fingerprint([
                "cli-cluster".to_string(),
                cell.key.clone(),
                format!("trials={trials}"),
                format!("seed={seed}"),
            ]);
            rap_resilience::Ledger::open(
                std::path::Path::new(path),
                fp,
                rap_resilience::SyncPolicy::EveryEntry,
            )
            .map_err(|e| format!("--checkpoint {path}: {e}"))?
        }
    };

    let cluster = Cluster::new(
        pool,
        ClusterConfig {
            quorum,
            ..ClusterConfig::default()
        },
    );
    let cells = vec![cell];
    let (merged, report) = cluster.run_sweep(&cells, &ledger);
    cluster.pool().shutdown();
    let stats = &merged[0];

    let mut out = format!(
        "{pattern} access under {scheme}, w={width}, {trials} trials over {} worker(s):\n\
         expected congestion {:.4} (stderr {:.4}), range [{:.0}, {:.0}]\n\
         blocks: {} total = {} on workers + {} local + {} from checkpoint; \
         {} redispatched, {} hedged, {} duplicate(s) deduped\n\
         source {}, degraded: {}, workers died {}, reconnects {}\n",
        report.workers,
        stats.mean(),
        stats.std_error(),
        stats.min().unwrap_or(0.0),
        stats.max().unwrap_or(0.0),
        report.blocks_total,
        report.executed,
        report.local_blocks,
        report.from_checkpoint,
        report.redispatched,
        report.hedged,
        report.hedge_wasted,
        report.source,
        if report.degraded { "yes" } else { "no" },
        report.workers_died,
        report.reconnects,
    );
    if opts.flag("verify") {
        let local = matrix_congestion(scheme, pattern, width, trials, &domain);
        let identical = local.to_raw() == stats.to_raw();
        out.push_str(&format!(
            "bit-identical to single-process: {}\n",
            if identical { "yes" } else { "NO" }
        ));
        if !identical {
            return Err(out);
        }
    }
    Ok(out)
}

/// Serializable payload of `rap analyze --json`.
#[derive(serde::Serialize)]
struct AnalyzeOutput {
    width: usize,
    theorems: Vec<TheoremReport>,
    lint: Vec<LintReport>,
    access: Vec<AccessOutput>,
    proven: bool,
}

/// One `--access` batch plan's verdict.
#[derive(serde::Serialize)]
struct AccessOutput {
    plan: String,
    analysis: rap_analyze::Analysis,
}

fn cmd_adapt(opts: &Opts) -> Result<String, String> {
    use rap_adapt::AdaptiveController;
    let trace_path = opts.required("trace")?.to_string();
    let config = adapt_config(opts, "")?;
    let controller = match opts.map.get("ledger") {
        Some(path) => AdaptiveController::open(config, std::path::Path::new(path))
            .map_err(|e| format!("--ledger {path}: {e}"))?,
        None => AdaptiveController::new(config)?,
    };
    let text =
        std::fs::read_to_string(&trace_path).map_err(|e| format!("--trace {trace_path}: {e}"))?;
    let mut observations = 0u64;
    let mut log = String::new();
    for (idx, raw) in text.lines().enumerate() {
        // Strip comments; a trace is hand-written and hand-annotated.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("{trace_path}:{}: {msg}", idx + 1);
        let mut parts = line.split_whitespace();
        let head = parts.next().unwrap_or_default();
        match head {
            "force" => {
                let target = parts
                    .next()
                    .ok_or_else(|| at("force needs a candidate name".to_string()))?;
                let steps = match parts.next() {
                    None => controller.config().migrate_steps,
                    Some(s) => s.parse().map_err(|_| at(format!("bad step count '{s}'")))?,
                };
                // A rejected force is replay-visible output, not an
                // error: the trace documents what the operator tried.
                match controller.force(target, steps) {
                    Ok(()) => log.push_str(&format!(
                        "force {target}: accepted (phase {})\n",
                        controller.phase_name()
                    )),
                    Err(e) => log.push_str(&format!("force {target}: rejected — {e}\n")),
                }
            }
            "freeze" => {
                let on = match parts.next() {
                    None | Some("on") => true,
                    Some("off") => false,
                    Some(other) => return Err(at(format!("freeze takes on|off, got '{other}'"))),
                };
                controller.freeze(on);
                log.push_str(&format!("freeze {}\n", if on { "on" } else { "off" }));
            }
            class => {
                let class: rap_adapt::TrafficClass = class.parse().map_err(at)?;
                let value: f64 = parts
                    .next()
                    .ok_or_else(|| at("observation needs a congestion value".to_string()))?
                    .parse()
                    .map_err(|_| at("congestion must be a number".to_string()))?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(at(format!(
                        "congestion must be a finite positive number, got {value}"
                    )));
                }
                controller.observe(class, value);
                observations += 1;
            }
        }
        if let Some(extra) = parts.next() {
            return Err(at(format!("unexpected trailing token '{extra}'")));
        }
    }
    let status = controller.status();
    if opts.flag("json") {
        return serde_json::to_string_pretty(&status.to_value()).map_err(|e| e.to_string());
    }
    let mut out = log;
    out.push_str(&format!(
        "replayed {observations} observation(s); active {} (epoch {}, phase {}{})\n\
         swaps {}, rollbacks {}, resumed {} record(s){}\n",
        status.scheme,
        status.epoch,
        status.phase,
        status
            .pending
            .as_ref()
            .map_or(String::new(), |p| format!(" -> {p}")),
        status.swaps,
        status.rollbacks,
        status.resumed_records,
        if status.resumed_interrupted {
            " (rolled back an interrupted epoch)"
        } else {
            ""
        },
    ));
    for (class, w, bound) in &status.classes {
        out.push_str(&format!(
            "  {:<12} samples {:>4}  mean {:.3}  max {:.3}  ewma {:.3}  certified bound {}\n",
            class.name(),
            w.samples,
            w.mean,
            w.max,
            w.ewma,
            bound,
        ));
    }
    for (name, source, bounds) in &status.candidates {
        out.push_str(&format!(
            "  candidate {name:<16} [{source}] bounds {bounds:?}\n"
        ));
    }
    Ok(out)
}

fn cmd_analyze(opts: &Opts) -> Result<String, String> {
    let width = checked_width(opts, 32)?;
    let scheme_arg = opts.map.get("scheme").map_or("rap", String::as_str);
    let lint_schemes: Vec<Scheme> = if scheme_arg.eq_ignore_ascii_case("all") {
        Scheme::all().to_vec()
    } else {
        vec![scheme_arg.parse()?]
    };
    let theorems = vec![
        certify_theorem1(width).map_err(|e| e.to_string())?,
        certify_theorem2(width).map_err(|e| e.to_string())?,
    ];
    let mut lint = Vec::new();
    if opts.flag("plans") {
        for &scheme in &lint_schemes {
            lint.push(lint_plans(width, scheme).map_err(|e| e.to_string())?);
        }
    }
    // `--access "<spec;spec>"`: analyze an explicit plan batch. Parsing
    // and analysis are all-or-error — a malformed or out-of-domain plan
    // anywhere fails the whole command with a contextual message (exit
    // 1), it is never silently skipped.
    let mut access = Vec::new();
    if let Some(spec) = opts.map.get("access") {
        let workload = rap_synthesize::parse_workload(spec, width)?;
        let prover = rap_analyze::Prover::new(width).map_err(|e| e.to_string())?;
        for &scheme in &lint_schemes {
            for plan in &workload.plans {
                let analysis = prover
                    .analyze(&plan.warp, scheme)
                    .map_err(|e| format!("plan `{}`: {e}", plan.name))?;
                access.push(AccessOutput {
                    plan: plan.name.clone(),
                    analysis,
                });
            }
        }
    }
    let proven = theorems.iter().all(|t| t.proven);
    if opts.flag("json") {
        let out = AnalyzeOutput {
            width,
            theorems,
            lint,
            access,
            proven,
        };
        return serde_json::to_string_pretty(&out).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    for t in &theorems {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    for report in &lint {
        out.push_str(&report.render());
        out.push('\n');
    }
    for a in &access {
        out.push_str(&format!(
            "access {:<24} under {}: congestion in [{}, {}] — {}\n",
            a.plan, a.analysis.scheme, a.analysis.lo, a.analysis.hi, a.analysis.reason
        ));
    }
    Ok(out)
}

fn cmd_synthesize(opts: &Opts) -> Result<String, String> {
    use rap_synthesize::{
        check_certificate, lint_against_optimum, parse_workload, synthesize, Mode,
    };
    let width = checked_width(opts, 8)?;
    let spec = opts.required("workload")?;
    let mode = Mode::parse(opts.map.get("mode").map_or("sigma", String::as_str))?;
    let seed = opts.u64("seed", 2014)?;
    let workload = parse_workload(spec, width)?;
    let synth = synthesize(&workload, mode, seed)?;
    let cert = &synth.certificate;
    // Never trust the search: the result is only surfaced after the
    // independent checker accepts its certificate.
    check_certificate(cert)
        .map_err(|e| format!("certificate REJECTED by the independent checker: {e}"))?;
    let emit_path = opts.map.get("emit");
    if let Some(path) = emit_path {
        std::fs::write(path, cert.to_json()).map_err(|e| format!("--emit {path}: {e}"))?;
    }
    if opts.flag("json") {
        return Ok(cert.to_json());
    }
    let mut out = format!(
        "synthesized {} layout, w = {} via {} ({} candidate(s)/node(s) explored)\n\
         certified objective {}{} — independent checker: ACCEPTED\n\
         layout: {:?}\n",
        cert.mode,
        cert.width,
        cert.method,
        synth.explored,
        cert.objective,
        if cert.optimal { " (optimal)" } else { "" },
        cert.layout,
    );
    for claim in &cert.claims {
        out.push_str(&format!(
            "  {:<24} congestion {} (hot bank {})\n",
            claim.name, claim.bound, claim.witness.bank
        ));
    }
    if let Some(path) = emit_path {
        out.push_str(&format!("certificate written to {path}\n"));
    }
    if let Some(scheme_arg) = opts.map.get("lint") {
        let scheme: Scheme = scheme_arg.parse()?;
        let cert_ref = emit_path.map_or("<in-memory certificate>", String::as_str);
        let diags = lint_against_optimum(cert, scheme, cert_ref)?;
        if diags.is_empty() {
            out.push_str(&format!(
                "lint vs {scheme}: no findings — the scheme already matches the synthesized bounds\n"
            ));
        }
        for d in &diags {
            out.push_str(&format!("{} | {} | {}\n", d.rule, d.plan, d.message));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, String> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        run(&v)
    }

    #[test]
    fn help_and_empty() {
        assert!(call(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap_err().contains("USAGE"));
        assert!(call(&["bogus"]).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn layout_renders() {
        let out = call(&["layout", "--scheme", "rap", "--width", "4", "--seed", "1"]).unwrap();
        assert!(out.contains("RAP layout, w = 4"));
        assert_eq!(out.lines().count(), 2 + 4);
    }

    #[test]
    fn layout_requires_scheme() {
        let err = call(&["layout", "--width", "4"]).unwrap_err();
        assert!(err.contains("--scheme"));
    }

    #[test]
    fn congestion_analyzes_lists() {
        let out = call(&["congestion", "--width", "4", "--addresses", "0,4,8,1"]).unwrap();
        assert!(out.contains("congestion 3"));
        let err = call(&["congestion", "--width", "4", "--addresses", "0,x"]).unwrap_err();
        assert!(err.contains("bad address"));
    }

    #[test]
    fn pattern_reports_expectation() {
        let out = call(&[
            "pattern",
            "--pattern",
            "stride",
            "--scheme",
            "rap",
            "--width",
            "16",
            "--trials",
            "10",
        ])
        .unwrap();
        assert!(out.contains("expected congestion 1.0000"));
        let raw = call(&[
            "pattern",
            "--pattern",
            "stride",
            "--scheme",
            "raw",
            "--width",
            "16",
            "--trials",
            "2",
        ])
        .unwrap();
        assert!(raw.contains("expected congestion 16"));
    }

    #[test]
    fn transpose_runs_and_verifies() {
        let out = call(&[
            "transpose",
            "--kind",
            "crsw",
            "--scheme",
            "rap",
            "--width",
            "8",
            "--latency",
            "2",
        ])
        .unwrap();
        assert!(out.contains("verified: true"));
        assert!(out.contains("write congestion 1.00"));
    }

    #[test]
    fn trace_prints_timeline() {
        let out = call(&["trace", "--kind", "drdw", "--scheme", "raw", "--width", "4"]).unwrap();
        assert!(out.starts_with("start"));
        assert!(out.contains("total:"));
        assert!(!out.contains("cycles 0.."), "no gantt unless requested");
    }

    #[test]
    fn trace_gantt_on_request() {
        let out = call(&[
            "trace", "--kind", "drdw", "--scheme", "raw", "--width", "4", "--gantt", "60",
        ])
        .unwrap();
        assert!(out.contains("cycles 0.."));
        assert!(out.contains("warp   0 |"));
    }

    #[test]
    fn permute_compares_strategies() {
        let out = call(&["permute", "--family", "transpose", "--width", "8"]).unwrap();
        assert!(out.contains("Direct"));
        assert!(out.contains("ConflictFree"));
        assert!(out.contains("RAP"));
        assert!(!out.contains("verified false"));
    }

    #[test]
    fn modern_schemes_supported() {
        let out = call(&["layout", "--scheme", "xor", "--width", "4"]).unwrap();
        assert!(out.contains("XOR layout"));
        let out = call(&[
            "pattern",
            "--pattern",
            "stride",
            "--scheme",
            "padded",
            "--width",
            "8",
        ])
        .unwrap();
        assert!(out.contains("expected congestion 1.0000"));
        let out = call(&[
            "transpose",
            "--kind",
            "crsw",
            "--scheme",
            "xor",
            "--width",
            "8",
            "--latency",
            "2",
        ])
        .unwrap();
        assert!(out.contains("verified: true"));
        let err = call(&["layout", "--scheme", "xor", "--width", "12"]).unwrap_err();
        assert!(err.contains("power-of-two"));
    }

    #[test]
    fn bad_enum_values_reported() {
        assert!(call(&["transpose", "--kind", "zzz", "--scheme", "raw"])
            .unwrap_err()
            .contains("unknown kind"));
        assert!(call(&["layout", "--scheme", "zzz"])
            .unwrap_err()
            .contains("unknown scheme"));
        assert!(call(&["pattern", "--pattern", "zzz", "--scheme", "raw"])
            .unwrap_err()
            .contains("unknown pattern"));
        assert!(call(&["permute", "--family", "zzz"])
            .unwrap_err()
            .contains("unknown family"));
    }

    #[test]
    fn analyze_certifies_theorems() {
        let out = call(&["analyze", "--width", "8"]).unwrap();
        assert!(out.contains("theorem1 @ w = 8: PROVEN"));
        assert!(out.contains("theorem2 @ w = 8: PROVEN"));
        assert!(out.contains("EVERY permutation"));
        assert!(!out.contains("lint"), "no lint without --plans");
    }

    #[test]
    fn analyze_lints_plans_on_request() {
        let out = call(&["analyze", "--width", "8", "--plans"]).unwrap();
        assert!(out.contains("RAP lint, w = 8"));
        assert!(out.contains("RAP-I001"));
        let all = call(&["analyze", "--width", "8", "--plans", "--scheme", "all"]).unwrap();
        assert!(all.contains("RAW lint, w = 8"));
        assert!(all.contains("RAP-W001"), "RAW column phases warn");
    }

    #[test]
    fn analyze_emits_json() {
        let out = call(&["analyze", "--width", "8", "--plans", "--json"]).unwrap();
        assert!(out.trim_start().starts_with('{'));
        assert!(out.contains("\"proven\": true"));
        assert!(out.contains("\"theorem\": \"theorem2\""));
        assert!(out.contains("\"diagnostics\""));
    }

    #[test]
    fn analyze_validates_options() {
        assert!(call(&["analyze", "--width", "0"])
            .unwrap_err()
            .contains("1..=4096"));
        assert!(call(&["analyze", "--width", "8", "--scheme", "zzz"])
            .unwrap_err()
            .contains("unknown scheme"));
        // XOR lint at non-pow2 widths is a user-facing error, not a panic.
        let err = call(&["analyze", "--width", "12", "--plans", "--scheme", "xor"]).unwrap_err();
        assert!(err.contains("power-of-two"));
    }

    #[test]
    fn analyze_access_batch_reports_bounds() {
        let out = call(&[
            "analyze",
            "--width",
            "8",
            "--access",
            "column:0;contiguous:1;diagonal:2",
        ])
        .unwrap();
        assert!(out.contains("access column:0"), "{out}");
        assert!(out.contains("congestion in [1, 1]"), "{out}");
        let json = call(&["analyze", "--width", "8", "--access", "column:0", "--json"]).unwrap();
        assert!(json.contains("\"access\""), "{json}");
        assert!(json.contains("column:0"), "{json}");
    }

    #[test]
    fn analyze_access_bad_plan_fails_whole_batch() {
        // A malformed plan inside a multi-plan batch is a contextual
        // error (exit 1), never a silent skip.
        let err = call(&[
            "analyze",
            "--width",
            "8",
            "--access",
            "column:0;bogus:9;diagonal:1",
        ])
        .unwrap_err();
        assert!(err.contains("plan 2 of 3"), "{err}");
        assert!(err.contains("bogus"), "{err}");
        // Same for an empty slot and an out-of-domain flat plan.
        let err = call(&["analyze", "--width", "8", "--access", "column:0;;flat:2,0"]).unwrap_err();
        assert!(err.contains("plan 2 of 3"), "{err}");
        let err = call(&["analyze", "--width", "4", "--access", "flat:64,0"]).unwrap_err();
        assert!(err.contains("flat:64,0"), "{err}");
    }

    #[test]
    fn synthesize_finds_checked_optimum() {
        let out = call(&[
            "synthesize",
            "--width",
            "5",
            "--workload",
            "column:0;diagonal:1;contiguous:0",
        ])
        .unwrap();
        assert!(out.contains("certified objective 1 (optimal)"), "{out}");
        assert!(out.contains("ACCEPTED"), "{out}");
        assert!(out.contains("exhaustive"), "{out}");
    }

    #[test]
    fn synthesize_emits_json_certificate() {
        let out = call(&[
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--json",
        ])
        .unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"layout\""), "{out}");
        let cert = rap_synthesize::Certificate::from_json(&out).unwrap();
        rap_synthesize::check_certificate(&cert).unwrap();
    }

    #[test]
    fn synthesize_lints_against_a_scheme() {
        let out = call(&[
            "synthesize",
            "--width",
            "5",
            "--workload",
            "column:0",
            "--lint",
            "raw",
        ])
        .unwrap();
        assert!(out.contains("RAP-S001"), "{out}");
        assert!(out.contains("strictly better layout"), "{out}");
    }

    #[test]
    fn synthesize_validates_options() {
        assert!(call(&["synthesize", "--width", "4"])
            .unwrap_err()
            .contains("--workload"));
        assert!(call(&["synthesize", "--width", "4", "--workload", "zzz:1"])
            .unwrap_err()
            .contains("unknown plan family"));
        assert!(call(&[
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--mode",
            "zigzag"
        ])
        .unwrap_err()
        .contains("unknown mode"));
        assert!(call(&[
            "synthesize",
            "--width",
            "4",
            "--workload",
            "column:0",
            "--lint",
            "zzz"
        ])
        .unwrap_err()
        .contains("unknown scheme"));
    }

    #[test]
    fn flags_parse_in_any_position() {
        let out = call(&["analyze", "--plans", "--width", "4"]).unwrap();
        assert!(out.contains("RAP lint, w = 4"));
    }

    /// The failpoint registry is process-global; chaos tests must not
    /// interleave with each other.
    static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn chaos_recovers_bit_identically_from_panics() {
        let _l = CHAOS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = call(&["chaos", "--width", "16", "--trials", "128"]).unwrap();
        assert!(out.contains("bit-identical: yes"), "{out}");
        assert!(!out.contains("DEGRADED"), "{out}");
    }

    #[test]
    fn chaos_supports_io_and_delay_faults() {
        let _l = CHAOS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for fault in ["enospc", "delay"] {
            let out =
                call(&["chaos", "--width", "16", "--trials", "64", "--fault", fault]).unwrap();
            assert!(out.contains("bit-identical: yes"), "{fault}: {out}");
        }
    }

    #[test]
    fn chaos_rejects_unknown_faults() {
        assert!(call(&["chaos", "--fault", "zzz"])
            .unwrap_err()
            .contains("unknown fault"));
    }

    #[test]
    fn numeric_validation() {
        assert!(call(&["layout", "--scheme", "raw", "--width", "abc"])
            .unwrap_err()
            .contains("expected a number"));
        assert!(call(&["layout", "--scheme", "raw", "--width", "0"])
            .unwrap_err()
            .contains("1..=4096"));
    }

    #[test]
    fn width_is_capped_everywhere() {
        // --width 0, > 4096, and u64-overflowing values are contextual
        // errors on every width-taking command, never panics or OOM.
        for args in [
            vec!["layout", "--scheme", "raw"],
            vec!["congestion", "--addresses", "0,1"],
            vec!["pattern", "--pattern", "stride", "--scheme", "raw"],
            vec!["transpose", "--kind", "crsw", "--scheme", "raw"],
            vec!["trace", "--kind", "crsw", "--scheme", "raw"],
            vec!["permute", "--family", "identity"],
            vec!["analyze"],
            vec!["synthesize", "--workload", "column:0"],
            vec!["chaos"],
        ] {
            for bad in ["0", "4097", "99999999999"] {
                let mut argv = args.clone();
                argv.extend(["--width", bad]);
                let err = call(&argv).unwrap_err();
                assert!(err.contains("1..=4096"), "{args:?} --width {bad}: {err}");
            }
            let mut argv = args.clone();
            argv.extend(["--width", "99999999999999999999999999"]);
            let err = call(&argv).unwrap_err();
            assert!(err.contains("expected a number"), "{args:?}: {err}");
        }
    }

    #[test]
    fn addresses_validation_is_contextual() {
        for bad in ["0,x", "18446744073709551616", "1,,2", ""] {
            let err = call(&["congestion", "--width", "4", "--addresses", bad]).unwrap_err();
            assert!(err.contains("bad address"), "'{bad}': {err}");
        }
    }

    #[test]
    fn serve_validates_its_options() {
        assert!(call(&["serve", "--addr", "not-an-address"])
            .unwrap_err()
            .contains("bind"));
        assert!(call(&["serve", "--workers", "abc"])
            .unwrap_err()
            .contains("expected a number"));
    }

    #[test]
    fn query_requires_addr_and_fails_fast_when_unreachable() {
        assert!(call(&["query", "--json", "{}"])
            .unwrap_err()
            .contains("--addr"));
        assert!(call(&["query", "--addr", "127.0.0.1:9", "--json", "{}"])
            .unwrap_err()
            .contains("connect"));
    }

    #[test]
    fn query_reconnects_once_then_reports_mid_response_close() {
        // A server that accepts, reads the request, and slams the
        // connection shut — twice, so the single reconnect attempt also
        // sees a mid-response close.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                let mut reader = std::io::BufReader::new(stream);
                let _ = std::io::BufRead::read_line(&mut reader, &mut line);
                // dropped here: close before any response byte
            }
        });
        let err = call(&[
            "query",
            "--addr",
            &addr,
            "--json",
            r#"{"cmd":"health"}"#,
            "--timeout-ms",
            "2000",
        ])
        .unwrap_err();
        server.join().unwrap();
        assert!(err.contains("closed the connection"), "{err}");
        assert!(err.contains("reconnect"), "{err}");
    }

    #[test]
    fn cluster_validates_before_spawning() {
        // Every bad invocation must die in option validation — no worker
        // process or thread may ever be spawned for these.
        for (argv, needle) in [
            (
                vec!["cluster", "--workers", "0"],
                "--workers must be 1..=64",
            ),
            (
                vec!["cluster", "--workers", "65"],
                "--workers must be 1..=64",
            ),
            (vec!["cluster", "--workers", "abc"], "expected a number"),
            (vec!["cluster", "--scheme", "xor"], "deterministic"),
            (vec!["cluster", "--scheme", "padded"], "deterministic"),
            (vec!["cluster", "--scheme", "zzz"], "unknown scheme"),
            (vec!["cluster", "--pattern", "zzz"], "unknown pattern"),
            (vec!["cluster", "--width", "0"], "1..=4096"),
            (
                vec!["cluster", "--addrs", "127.0.0.1:7001,127.0.0.1:7001"],
                "port collision",
            ),
            (
                vec!["cluster", "--addrs", "not-an-address"],
                "not a host:port",
            ),
            (vec!["cluster", "--addrs", ""], "not a host:port"),
        ] {
            let err = call(&argv).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn cluster_in_process_verify_matches_local_bits() {
        let out = call(&[
            "cluster",
            "--pattern",
            "random",
            "--scheme",
            "rap",
            "--width",
            "16",
            "--trials",
            "96",
            "--workers",
            "2",
            "--in-process",
            "--verify",
        ])
        .unwrap();
        assert!(
            out.contains("bit-identical to single-process: yes"),
            "{out}"
        );
        assert!(out.contains("2 worker(s)"), "{out}");
    }

    #[test]
    fn query_roundtrips_against_a_live_server() {
        let server = rap_serve::Server::bind(rap_serve::ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.spawn().unwrap();
        let out = call(&[
            "query",
            "--addr",
            &addr,
            "--json",
            r#"{"cmd":"pattern","id":1,"pattern":"stride","scheme":"rap","width":16,"trials":16}"#,
        ])
        .unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"id\":1"), "{out}");
        let health = call(&["query", "--addr", &addr, "--json", r#"{"cmd":"health"}"#]).unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        handle.begin_shutdown();
        let report = handle.join();
        assert!(report.metrics.conserves_responses());
    }

    #[test]
    fn adapt_replays_a_trace_and_swaps() {
        let dir = std::env::temp_dir().join(format!("rap-cli-adapt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.txt");
        std::fs::write(
            &trace,
            "# operator-annotated congestion trace\n\
             stride 17.0\n\
             stride 17.0   # stride traffic is hot\n\
             force padded 0\n\
             contiguous 1.0\n",
        )
        .unwrap();
        let trace = trace.to_string_lossy().to_string();
        let out = call(&["adapt", "--trace", &trace, "--frozen"]).unwrap();
        assert!(out.contains("force padded: accepted"), "{out}");
        assert!(
            out.contains("active padded (epoch 1, phase stable)"),
            "{out}"
        );
        assert!(out.contains("replayed 3 observation(s)"), "{out}");
        assert!(out.contains("candidate"), "{out}");

        let json = call(&["adapt", "--trace", &trace, "--frozen", "--json"]).unwrap();
        assert!(json.contains("\"scheme\""), "{json}");
        assert!(json.contains("\"padded\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adapt_trace_errors_are_contextual() {
        assert!(call(&["adapt"]).unwrap_err().contains("--trace"));
        assert!(call(&["adapt", "--trace", "/nonexistent/trace.txt"])
            .unwrap_err()
            .contains("/nonexistent/trace.txt"));

        let dir = std::env::temp_dir().join(format!("rap-cli-adapt-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            ("bogus 3.0\n", "unknown traffic class"),
            ("stride\n", "needs a congestion value"),
            ("stride nan\n", "finite positive"),
            ("stride 2.0 extra\n", "trailing token"),
            ("freeze sideways\n", "freeze takes on|off"),
            ("force\n", "force needs a candidate name"),
        ];
        for (i, (body, needle)) in cases.iter().enumerate() {
            let trace = dir.join(format!("bad-{i}.txt"));
            std::fs::write(&trace, body).unwrap();
            let trace = trace.to_string_lossy().to_string();
            let err = call(&["adapt", "--trace", &trace]).unwrap_err();
            assert!(err.contains(needle), "case {i}: {err}");
            assert!(err.contains(":1:"), "case {i} must cite the line: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adapt_resumes_from_its_ledger() {
        let dir = std::env::temp_dir().join(format!("rap-cli-adapt-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("epochs.jsonl").to_string_lossy().to_string();
        let swap = dir.join("swap.txt");
        std::fs::write(&swap, "force padded 0\n").unwrap();
        let swap = swap.to_string_lossy().to_string();
        let out = call(&["adapt", "--trace", &swap, "--frozen", "--ledger", &ledger]).unwrap();
        assert!(out.contains("active padded (epoch 1"), "{out}");

        // Replaying an empty trace against the same ledger must land on
        // the committed layout, not the configured initial one.
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        let empty = empty.to_string_lossy().to_string();
        let out = call(&["adapt", "--trace", &empty, "--frozen", "--ledger", &ledger]).unwrap();
        assert!(out.contains("active padded (epoch 1"), "{out}");
        assert!(!out.contains("resumed 0 record"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_validates_adapt_options_before_binding() {
        let err = call(&["serve", "--adapt", "--adapt-width", "0"]).unwrap_err();
        assert!(err.contains("--adapt-width"), "{err}");
        let err = call(&["serve", "--adapt", "--adapt-width", "abc"]).unwrap_err();
        assert!(err.contains("expected a number"), "{err}");
    }
}
