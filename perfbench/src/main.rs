//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --rap-bin <path> [--root <dir>]
//! perfbench manifest                  # print BENCHMARK.json
//! perfbench legacy-sweep [--trials 2000] [--repeats 10]
//! ```
//!
//! A run prints `# machine …` (the host and build record), `# info …`
//! lines, and as its last line the JSON result. It exits 1 when any
//! output failed its correctness check, 2 on infrastructure errors.

use perfbench::machine::Machine;
use perfbench::metrics::{self, RunResult};
use perfbench::server::Launcher;
use perfbench::util::{percentile, Args};
use perfbench::workloads::{Ctx, Scale};
use std::path::PathBuf;

fn main() {
    let code = match Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => bench(&args),
            Some("manifest") => {
                print!("{}", metrics::manifest());
                Ok(0)
            }
            Some("legacy-sweep") => legacy_sweep(&args),
            Some(other) => Err(format!("unknown subcommand '{other}'")),
        }
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn bench(args: &Args) -> Result<i32, String> {
    let workload = args
        .get("workload")
        .ok_or("missing required option --workload")?
        .to_string();
    let seed = args.u64("seed", None)?;
    let seconds = args.u64("seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match args.u64("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let rap_bin = PathBuf::from(
        args.get("rap-bin")
            .ok_or("missing required option --rap-bin")?,
    );
    let root = PathBuf::from(args.get("root").unwrap_or("."));
    let machine = Machine::detect();
    println!("# machine {}", machine.to_json());
    let ctx = Ctx {
        seed,
        scale: Scale::Full,
        launcher: Launcher::Binary(rap_bin),
        machine: machine.clone(),
        root: root.clone(),
    };
    let (result, tracer) = perfbench::run(&ctx, &workload, seconds as f64, trace)?;
    for (k, v) in result.values.iter().filter(|(k, _)| k.starts_with("info.")) {
        println!("# {} = {v}", &k[5..]);
    }
    for f in result.failures.iter().take(10) {
        println!("# FAILED: {f}");
    }
    let defs = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = result.to_line(&defs)?;
    write_record(
        &root,
        &workload,
        seed,
        trace,
        &machine,
        &result,
        &tracer.to_jsonl(),
    )?;
    println!("{line}");
    Ok(i32::from(result.failed > 0))
}

/// Keep the run's record (machine, every value, spans) under
/// `perfbench/out/`.
fn write_record(
    root: &std::path::Path,
    workload: &str,
    seed: u64,
    trace: bool,
    machine: &Machine,
    result: &RunResult,
    spans: &str,
) -> Result<(), String> {
    let dir = root.join("perfbench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let values: Vec<String> = result
        .values
        .iter()
        .map(|(k, v)| format!("{k:?}:{v:?}"))
        .collect();
    let record = format!(
        "{{\"workload\":{workload:?},\"seed\":{seed},\"trace\":{trace},\"machine\":{},\"attempted\":{},\"failed\":{},\"values\":{{{}}}}}\n",
        machine.to_json(),
        result.attempted,
        result.failed,
        values.join(",")
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &record)?;
    if trace {
        write(format!("{stem}.spans.jsonl"), spans)?;
    }
    Ok(())
}

/// Repeat the old `perf_smoke`/`perf_gate` sweep (every Table II pattern ×
/// scheme at w = 32, seed 2014, on one thread) and report the spread.
fn legacy_sweep(args: &Args) -> Result<i32, String> {
    const W: usize = 32;
    const SEED: u64 = 2014;
    let trials = args.u64("trials", Some(2000))?;
    let repeats = args.u64("repeats", Some(10))?.max(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    println!("# machine {}", Machine::detect().to_json());
    let _ = pool.install(|| rap_bench::perf::run_sweep(W, trials.min(100), SEED));
    let mut rates = Vec::new();
    for i in 0..repeats {
        let t = pool.install(|| rap_bench::perf::run_sweep(W, trials, SEED));
        println!(
            "run {i}: {:.3} s, {:.0} trials/s",
            t.wall_seconds,
            t.trials_per_second()
        );
        rates.push(t.trials_per_second());
    }
    println!(
        "w={W} trials={trials} seed={SEED}: median {:.0}, quartiles {:.0}..{:.0}, min {:.0}, max {:.0} trials/s over {repeats} runs",
        percentile(&rates, 50.0),
        percentile(&rates, 25.0),
        percentile(&rates, 75.0),
        percentile(&rates, 0.0),
        percentile(&rates, 100.0)
    );
    Ok(0)
}
