//! Layer probes of the traced run: the benchmark times its own calls into
//! each layer's public functions on fixed, seed-derived inputs. Every
//! workload's traced run runs the same probe, so these per-layer figures
//! mean the same thing on every workload.

use crate::metrics::{RunResult, SERVE_CMDS};
use crate::server::Launcher;
use crate::trace::Tracer;
use crate::util::{median, percentile};
use crate::workloads::{mc, serve, Scale};
use rand::Rng;
use rap_access::array4d::Pattern4d;
use rap_access::matrix::{generate_warp_into, warp_congestion_fused, warp_congestion_with};
use rap_access::montecarlo::{array4d_congestion, matrix_block_stats};
use rap_access::{AccessScratch, MatrixPattern};
use rap_core::multidim::Scheme4d;
use rap_core::{CompactCongestion, RowShift, Scheme};
use rap_gpu_sim::{lower_program, simulate, SmConfig};
use rap_stats::SeedDomain;
use rap_transpose::{run_transpose, transpose_program, TransposeKind};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed batch; the median batch is reported.
const REPS: usize = 5;

/// Median over [`REPS`] batches of `f`'s time per item, in ns (`f`
/// returns how many items it processed).
fn per_item_ns(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|i| {
            tracer.span(name, i as u64, |_| {
                let t = Instant::now();
                let n = f();
                t.elapsed().as_nanos() as f64 / n.max(1) as f64
            })
        })
        .collect();
    median(&samples)
}

/// Individual call latencies of `f`, µs.
fn call_us(
    tracer: &mut Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        tracer.span(name, i as u64, |_| f())?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(out)
}

/// Run every probe and record its metric in `out`.
///
/// # Errors
/// A probe call that failed (server start, handler error, bad response).
pub fn run(
    seed: u64,
    scale: Scale,
    nproc: usize,
    launcher: &Launcher,
    tracer: &mut Tracer,
    out: &mut RunResult,
) -> Result<(), String> {
    let k: u64 = match scale {
        Scale::Full => 1,
        Scale::Tiny => 10,
    };
    let domain = SeedDomain::new(seed).child("probe");
    let mut rng = domain.rng(0);

    // core: the bit-parallel kernel on w=32 warps, the sort fallback on
    // w=256 warps.
    let lanes: Vec<(u32, u32)> = (0..32 * 1024)
        .map(|_| (rng.gen_range(0..32u32), rng.gen_range(0..32u32)))
        .collect();
    out.set(
        "core.compact_ns.w32",
        per_item_ns(tracer, "core.compact_congestion", || {
            for warp in lanes.chunks(32) {
                let mut cc = CompactCongestion::new(32);
                for &(tag, bank) in warp {
                    cc.lane(tag, bank);
                }
                black_box(cc.finish());
            }
            (lanes.len() / 32) as u64
        }),
    );
    let wide: Vec<u64> = (0..256 * 64)
        .map(|_| rng.gen_range(0..256 * 256u64))
        .collect();
    out.set(
        "core.congestion_ns.w256",
        per_item_ns(tracer, "core.congestion", || {
            for warp in wide.chunks(256) {
                black_box(rap_core::congestion::congestion(256, black_box(warp)));
            }
            (wide.len() / 256) as u64
        }),
    );

    // access: one fused w=32 warp, one unfused w=256 warp, whole blocks.
    let mut scratch = AccessScratch::new();
    let rap32 = RowShift::rap(&mut rng, 32);
    assert!(scratch.compose(&rap32), "w=32 composes");
    out.set(
        "access.fused_warp_ns.w32",
        per_item_ns(tracer, "access.warp_congestion_fused", || {
            for warp in 0..4096u32 {
                black_box(warp_congestion_fused(
                    MatrixPattern::Random,
                    32,
                    warp % 32,
                    &mut rng,
                    &mut scratch,
                ));
            }
            4096
        }),
    );
    let rap256 = RowShift::rap(&mut rng, 256);
    let mut coords = Vec::new();
    let mut scratch256 = AccessScratch::new();
    out.set(
        "access.warp_ns.w256",
        per_item_ns(tracer, "access.warp_congestion_with", || {
            for warp in 0..256u32 {
                generate_warp_into(MatrixPattern::Random, 256, warp, &mut rng, &mut coords);
                black_box(warp_congestion_with(&rap256, &coords, &mut scratch256));
            }
            256
        }),
    );
    for (w, name, blocks) in [
        (32usize, "access.block_us.w32", 32u64 / k),
        (256, "access.block_us.w256", 1),
    ] {
        let trials = 32 * blocks;
        let ns = per_item_ns(tracer, "access.matrix_block_stats", || {
            for b in 0..blocks {
                black_box(matrix_block_stats(
                    Scheme::Rap,
                    MatrixPattern::Random,
                    w,
                    trials,
                    b,
                    &domain,
                ));
            }
            blocks
        });
        out.set(name, ns / 1e3);
    }
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread count");
    let trials4d = 64 / k;
    let ns = per_item_ns(tracer, "access.array4d_congestion", || {
        pool1.install(|| {
            black_box(array4d_congestion(
                Scheme4d::OnePlusWSquaredR,
                Pattern4d::Random,
                32,
                trials4d,
                8,
                &domain,
            ))
        });
        trials4d
    });
    out.set("access.array4d_trial_us", ns / 1e3);
    let cells = mc::cells(seed);
    // The mc-narrow call size, where the parallel engine pays off.
    let trials = 1024 / k / k;
    let pass_ns = |threads: usize, tracer: &mut Tracer| {
        per_item_ns(tracer, "access.matrix_congestion", || {
            black_box(mc::pass(&cells, trials, threads, &mut Tracer::new(false)));
            1
        })
    };
    let one = pass_ns(1, tracer);
    let par = pass_ns(nproc, tracer);
    out.set("access.mc_speedup", one / par);

    // transpose and gpu-sim at w=32 over every Table III kernel.
    let data: Vec<f64> = (0..1024).map(f64::from).collect();
    let kernels: Vec<(TransposeKind, RowShift, Scheme)> = TransposeKind::all()
        .into_iter()
        .flat_map(|kind| Scheme::all().into_iter().map(move |s| (kind, s)))
        .map(|(kind, s)| (kind, RowShift::of_scheme(s, &mut rng, 32), s))
        .collect();
    let ns = per_item_ns(tracer, "transpose.run_transpose", || {
        for (kind, mapping, _) in &kernels {
            black_box(run_transpose(*kind, mapping, 8, &data));
        }
        kernels.len() as u64
    });
    out.set("transpose.run_us", ns / 1e3);
    let sm = SmConfig::gtx_titan();
    let lowered: Vec<_> = kernels
        .iter()
        .map(|(kind, mapping, s)| {
            let program = transpose_program::<f64>(*kind, mapping, 0, 1024);
            let alu = rap_gpu_sim::titan::transpose_alu_costs(*s, *kind == TransposeKind::Drdw);
            lower_program(&program, 32, &alu)
        })
        .collect();
    let ns = per_item_ns(tracer, "gpu-sim.simulate", || {
        for kernel in &lowered {
            black_box(simulate(kernel, &sm));
        }
        lowered.len() as u64
    });
    out.set("gpu-sim.simulate_us", ns / 1e3);

    // serve: handler::execute in-process per command, then round trips to
    // a spawned server (1 worker, adaptive) — the residual is what the
    // wire, parse, queue and write add to the handler.
    let controller = rap_adapt::AdaptiveController::new(rap_adapt::AdaptConfig {
        width: crate::server::ADAPT_WIDTH,
        ..rap_adapt::AdaptConfig::default()
    })?;
    let mut lines = Vec::new();
    let mut handler_p50 = std::collections::BTreeMap::new();
    // `pattern` and `pattern_adaptive` form a matched pair — the same
    // request, static `rap` against `adaptive` (whose initial candidate
    // is rap) — so their difference is the adapt layer's overhead.
    let pattern = |scheme: &str| {
        format!(
            r#"{{"cmd":"pattern","pattern":"random","scheme":"{scheme}","width":32,"trials":64,"seed":{seed}}}"#
        )
    };
    for cmd in SERVE_CMDS {
        let line = match cmd {
            "pattern" => pattern("rap"),
            "pattern_adaptive" => pattern("adaptive"),
            _ => serve::request_line(cmd, 0, &mut rng),
        };
        let n = (100 / k) as usize;
        let lat = call_us(tracer, "serve.handler_execute", n, || {
            serve::execute_in_process(&line, Some(&controller)).map(|v| drop(black_box(v)))
        })?;
        handler_p50.insert(cmd, median(&lat));
        out.set(format!("serve.handler_us.{cmd}"), median(&lat));
        out.set(
            format!("serve.handler_p99_us.{cmd}"),
            percentile(&lat, 99.0),
        );
        lines.push((cmd, line));
    }
    out.set(
        "adapt.overhead_us",
        handler_p50["pattern_adaptive"] - handler_p50["pattern"],
    );
    let server = launcher.start(1, true)?;
    let mut client =
        rap_serve::Client::connect(server.addr).map_err(|e| format!("probe connect: {e}"))?;
    for (cmd, line) in &lines {
        let n = (100 / k) as usize;
        let rtt = call_us(tracer, "serve.client_roundtrip", n, || {
            let resp = client
                .roundtrip(line)
                .map_err(|e| format!("probe {line}: {e}"))?;
            if resp.ok {
                Ok(())
            } else {
                Err(format!("probe {line}: {:?}", resp.error))
            }
        })?;
        let rtt = median(&rtt);
        if *cmd == "pattern_block" {
            out.set("cluster.block_rtt_us", rtt);
        } else {
            out.set(format!("serve.rtt_us.{cmd}"), rtt);
            out.set(format!("serve.residual_us.{cmd}"), rtt - handler_p50[cmd]);
        }
    }
    drop(client);
    server.stop();
    Ok(())
}
