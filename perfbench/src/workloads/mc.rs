//! `mc-narrow`: the Table II patterns × RAW/RAS/RAP at the paper's
//! headline width w = 32, run in-process through
//! `rap_access::montecarlo::matrix_congestion`, alternating one-thread
//! and `nproc`-thread passes over the twelve cells.
//!
//! Unit operation: one pass over the twelve cells on one thread.
//! Throughput: trials per second of those passes (the engine's
//! single-core rate); both as fast deciles (see [`fast_decile`]). The `nproc`-thread passes give the parallel rate,
//! reported beside the result (the host's second core is shared with
//! other tenants, which makes parallel timings too noisy to gate on).
//! Every pass must reproduce the seed's single-thread reference
//! checksum bit for bit, whatever the thread count.

use super::{fast_decile, Ctx, Measured, Scale, Workload};
use crate::checks::{check_checksum, stats_checksum};
use crate::metrics::RunResult;
use crate::trace::Tracer;
use crate::util::{median, ms};
use rap_access::montecarlo::matrix_congestion;
use rap_access::MatrixPattern;
use rap_core::Scheme;
use rap_stats::{OnlineStats, SeedDomain};
use std::time::{Duration, Instant};

/// Matrix width of every cell.
pub const WIDTH: usize = 32;

/// The twelve cells of one pass for `seed`.
#[must_use]
pub fn cells(seed: u64) -> Vec<(MatrixPattern, Scheme, SeedDomain)> {
    let domain = SeedDomain::new(seed).child("mc-narrow");
    let mut out = Vec::new();
    for pattern in MatrixPattern::table2() {
        for scheme in Scheme::all() {
            out.push((
                pattern,
                scheme,
                domain.child(pattern.name()).child(scheme.name()),
            ));
        }
    }
    out
}

/// Run every cell on a `threads`-thread pool; per-cell statistics.
pub fn pass(
    cells: &[(MatrixPattern, Scheme, SeedDomain)],
    trials: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Vec<OnlineStats> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the thread-count setting cannot fail");
    cells
        .iter()
        .enumerate()
        .map(|(i, (pattern, scheme, domain))| {
            tracer.span("access.matrix_congestion", i as u64, |_| {
                pool.install(|| matrix_congestion(*scheme, *pattern, WIDTH, trials, domain))
            })
        })
        .collect()
}

/// See the module docs.
#[derive(Default)]
pub struct McNarrow {
    cells: Vec<(MatrixPattern, Scheme, SeedDomain)>,
    trials: u64,
    reference: u64,
}

impl Workload for McNarrow {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.trials = match ctx.scale {
            Scale::Full => 1024,
            Scale::Tiny => 32,
        };
        self.cells = cells(ctx.seed);
        let mut off = Tracer::new(false);
        self.reference = stats_checksum(&pass(&self.cells, self.trials, 1, &mut off));
        // Warm the parallel path too (thread spawn, allocator arenas).
        let warm = pass(&self.cells, self.trials, ctx.machine.nproc(), &mut off);
        check_checksum("warm-up pass", self.reference, stats_checksum(&warm))
    }

    fn measure(
        &mut self,
        ctx: &Ctx,
        budget: Duration,
        tracer: &mut Tracer,
        out: &mut RunResult,
        _full: bool,
    ) -> Result<Measured, String> {
        let nproc = ctx.machine.nproc();
        let trials_per_pass = self.trials * self.cells.len() as u64;
        let (mut rate1, mut rate_n, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut op = 0u64;
        while start.elapsed() < budget || rate_n.is_empty() {
            for threads in [1, nproc] {
                let t = Instant::now();
                let stats = tracer.span("op", op, |tr| pass(&self.cells, self.trials, threads, tr));
                let wall = t.elapsed();
                op += 1;
                out.attempted += self.cells.len() as u64;
                let what = format!("{threads}-thread pass {op}");
                if let Err(e) = check_checksum(&what, self.reference, stats_checksum(&stats)) {
                    out.fail(e);
                }
                let rate = trials_per_pass as f64 / wall.as_secs_f64();
                if threads == 1 {
                    rate1.push(rate);
                    latencies.push(ms(wall));
                } else {
                    rate_n.push(rate);
                }
            }
        }
        let (r1, rn) = (fast_decile(&rate1, true), fast_decile(&rate_n, true));
        out.set("info.mc.trials_per_s", r1);
        out.set("info.mc.trials_per_s_median", median(&rate1));
        out.set("info.mc.trials_per_s_par", rn);
        out.set("info.mc.par_threads", nproc as f64);
        out.set(
            "info.mc.par_oversubscribed",
            f64::from(u8::from(ctx.machine.oversubscribed(nproc))),
        );
        Ok(Measured {
            latency_ms: fast_decile(&latencies, false),
            latencies_ms: latencies,
            throughput: r1,
        })
    }

    fn finish(&mut self, _ctx: &Ctx, out: &mut RunResult) -> Result<(), String> {
        out.set(
            "peak_rss_mb",
            crate::machine::peak_rss_mb(None).unwrap_or(0.0),
        );
        Ok(())
    }
}
