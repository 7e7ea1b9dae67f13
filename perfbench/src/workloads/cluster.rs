//! `cluster-sweep`: Table II cells at w = 16/32/64 sharded by
//! `rap_cluster::Cluster::run_sweep` across `nproc` spawned
//! `rap serve --workers 1` processes.
//!
//! A 32-trial block at w = 32 costs about one loopback round trip of
//! compute, so this workload is dominated by the coordinator's lease,
//! dispatch and merge work. Unit operation: one sharded sweep.
//! Throughput: blocks per second. Both are fast deciles (see
//! [`fast_decile`]). Every sweep must merge to statistics
//! bit-identical to the in-process `table2::run` of the same cells, with
//! no block run in-process.

use super::{fast_decile, Ctx, Measured, Scale, Workload};
use crate::checks::check_merge;
use crate::metrics::RunResult;
use crate::server::ServerProc;
use crate::trace::Tracer;
use crate::util::{median, ms};
use rap_access::montecarlo::{blocks_for, matrix_block_stats};
use rap_bench::experiments::table2::{self, Table2Config};
use rap_cluster::{Cluster, ClusterConfig, SweepCell, WorkerPool};
use rap_resilience::Ledger;
use rap_stats::{OnlineStats, SeedDomain};
use std::time::{Duration, Instant};

/// See the module docs.
#[derive(Default)]
pub struct ClusterSweep {
    workers: Vec<ServerProc>,
    cluster: Option<Cluster>,
    cells: Vec<SweepCell>,
    reference: Vec<OnlineStats>,
    counters: Counters,
}

#[derive(Default)]
struct Counters {
    blocks: u64,
    attempts: u64,
    redispatched: u64,
    hedged: u64,
    blocks_per_s: Vec<f64>,
}

fn config(ctx: &Ctx) -> Table2Config {
    Table2Config {
        widths: match ctx.scale {
            Scale::Full => vec![16, 32, 64],
            Scale::Tiny => vec![16, 32],
        },
        base_trials: 64,
        seed: ctx.seed,
    }
}

/// Blocks per second of the same cells run serially in-process on one
/// thread, block by block.
fn local_block_rate(cells: &[SweepCell]) -> f64 {
    let start = Instant::now();
    let mut blocks = 0u64;
    for c in cells {
        let domain = SeedDomain::from_state(c.domain_state);
        for b in 0..blocks_for(c.trials) {
            std::hint::black_box(matrix_block_stats(
                c.scheme, c.pattern, c.width, c.trials, b, &domain,
            ));
            blocks += 1;
        }
    }
    blocks as f64 / start.elapsed().as_secs_f64()
}

impl Workload for ClusterSweep {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.cluster = None;
        for w in self.workers.drain(..) {
            w.stop();
        }
        let cfg = config(ctx);
        self.cells = table2::sweep_cells(&cfg);
        self.reference = table2::run(&cfg).into_iter().map(|c| c.stats).collect();
        for _ in 0..ctx.machine.nproc() {
            self.workers.push(ctx.launcher.start(1, false)?);
        }
        let addrs: Vec<_> = self.workers.iter().map(|w| w.addr).collect();
        let cluster = Cluster::new(WorkerPool::connect(&addrs), ClusterConfig::default());
        // Warm-up: one sweep (connections, worker code paths).
        let (merged, report) = cluster.run_sweep(&self.cells, &Ledger::in_memory());
        check_merge(&self.reference, &merged, &report)
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        self.cluster = Some(cluster);
        self.counters = Counters::default();
        Ok(())
    }

    fn measure(
        &mut self,
        _ctx: &Ctx,
        budget: Duration,
        tracer: &mut Tracer,
        out: &mut RunResult,
        _full: bool,
    ) -> Result<Measured, String> {
        let cluster = self.cluster.as_ref().expect("setup ran");
        let mut latencies = Vec::new();
        let start = Instant::now();
        let mut op = 0;
        while start.elapsed() < budget || latencies.is_empty() {
            let t = Instant::now();
            let (merged, report) = tracer.span("op", op, |tr| {
                tr.span("cluster.run_sweep", op, |_| {
                    cluster.run_sweep(&self.cells, &Ledger::in_memory())
                })
            });
            let wall = t.elapsed();
            op += 1;
            latencies.push(ms(wall));
            let c = &mut self.counters;
            c.blocks += report.blocks_total;
            c.attempts += report.executed + report.local_blocks + report.hedge_wasted;
            c.redispatched += report.redispatched;
            c.hedged += report.hedged;
            c.blocks_per_s
                .push(report.blocks_total as f64 / wall.as_secs_f64());
            out.attempted += report.blocks_total;
            if let Err(e) = check_merge(&self.reference, &merged, &report) {
                out.fail(format!("sweep {op}: {e}"));
            }
        }
        Ok(Measured {
            latency_ms: fast_decile(&latencies, false),
            latencies_ms: latencies,
            throughput: fast_decile(&self.counters.blocks_per_s, true),
        })
    }

    fn finish(&mut self, _ctx: &Ctx, out: &mut RunResult) -> Result<(), String> {
        let c = &self.counters;
        let rate = median(&c.blocks_per_s);
        let local = local_block_rate(&self.cells);
        out.set(
            "cluster.efficiency",
            rate / (local * self.workers.len().max(1) as f64),
        );
        out.set("cluster.redispatched", c.redispatched as f64);
        out.set("cluster.hedged", c.hedged as f64);
        out.set(
            "cluster.useful_ratio",
            c.blocks as f64 / c.attempts.max(1) as f64,
        );
        out.set("info.cluster.local_blocks_per_s", local);
        out.set("info.cluster.workers", self.workers.len() as f64);
        out.set(
            "peak_rss_mb",
            self.workers
                .iter()
                .map(ServerProc::peak_rss_mb)
                .sum::<f64>(),
        );
        self.cluster = None;
        for w in self.workers.drain(..) {
            w.stop();
        }
        Ok(())
    }
}
