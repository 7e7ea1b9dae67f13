//! `paper-tables`: Tables II (w = 16…256, trials scaled 32/w), III and IV
//! recomputed through `rap_bench::experiments::{table2,table3,table4}::run`
//! on one thread and checked against the paper.
//!
//! Unit operation: one recompute of all three tables. Throughput:
//! Monte-Carlo trials (Tables II and IV) per second of recompute. Both
//! are fast deciles (see [`fast_decile`]). Table II
//! is run one width at a time — each cell's seed domain depends only on
//! its own (pattern, scheme, width), so the cells are bit-identical to a
//! single all-width run — which lets the trace split engine time between
//! the fused w ≤ 64 path and the wide w ≥ 128 path.
//!
//! The first recompute is checked cell by cell against the
//! `results/REPORT.md` bands; every later one must reproduce it bit for
//! bit.

use super::{fast_decile, Ctx, Measured, Scale, Workload};
use crate::checks::{check_checksum, check_record, stats_checksum, table2_copies, Bands};
use crate::metrics::RunResult;
use crate::trace::Tracer;
use crate::util::ms;
use rap_bench::experiments::table2::{self, Table2Config};
use rap_bench::experiments::table3::{self, Table3Config};
use rap_bench::experiments::table4::{self, Table4Config};
use rap_stats::OnlineStats;
use std::time::{Duration, Instant};

/// One recompute: per-table records' statistics, in table order.
pub struct Recompute {
    /// Table II cells, all widths.
    pub t2: Vec<table2::Table2Cell>,
    /// Table III rows.
    pub t3: Vec<table3::Table3Row>,
    /// Table IV cells.
    pub t4: Vec<table4::Table4Cell>,
}

impl Recompute {
    fn stats(&self) -> Vec<OnlineStats> {
        let mut v: Vec<OnlineStats> = self.t2.iter().map(|c| c.stats).collect();
        for r in &self.t3 {
            v.extend([
                r.read_congestion,
                r.write_congestion,
                r.time_ns,
                r.dmm_cycles,
            ]);
        }
        v.extend(self.t4.iter().map(|c| c.stats));
        v
    }
}

/// See the module docs.
#[derive(Default)]
pub struct PaperTables {
    t2: Option<Table2Config>,
    t3: Option<Table3Config>,
    t4: Option<Table4Config>,
    bands: Option<Bands>,
    reference: Option<u64>,
}

impl PaperTables {
    fn recompute(&self, tracer: &mut Tracer) -> Recompute {
        let t2 = self.t2.as_ref().expect("setup ran");
        let mut cells = Vec::new();
        for &w in &t2.widths {
            let cfg = Table2Config {
                widths: vec![w],
                ..t2.clone()
            };
            let name = if w >= 128 {
                "tables.t2.wide"
            } else {
                "tables.t2.narrow"
            };
            cells.extend(tracer.span(name, w as u64, |_| table2::run(&cfg)));
        }
        // Restore the all-width cell order (pattern, scheme, width).
        let order = |c: &table2::Table2Cell| {
            (
                rap_access::MatrixPattern::table2()
                    .iter()
                    .position(|p| *p == c.pattern),
                rap_core::Scheme::all().iter().position(|s| *s == c.scheme),
                c.w,
            )
        };
        cells.sort_by_key(order);
        let t3 = tracer.span("tables.t3", 3, |_| {
            table3::run(self.t3.as_ref().expect("setup ran"))
        });
        let t4 = tracer.span("tables.t4", 4, |_| {
            table4::run(self.t4.as_ref().expect("setup ran"))
        });
        Recompute { t2: cells, t3, t4 }
    }

    fn trials(&self) -> u64 {
        let t2 = self.t2.as_ref().expect("setup ran");
        let t4 = self.t4.as_ref().expect("setup ran");
        let per_width: u64 = t2.widths.iter().map(|&w| t2.trials_for(w)).sum();
        per_width * 12 + t4.trials * 42
    }

    /// Check a recompute: against the paper bands the first time, then
    /// bit-identity with the first. Returns (cells checked, failures).
    fn check(&mut self, r: &Recompute) -> (u64, Vec<String>) {
        let stats = r.stats();
        let got = stats_checksum(&stats);
        match self.reference {
            Some(reference) => (
                stats.len() as u64,
                check_checksum("recompute", reference, got)
                    .err()
                    .into_iter()
                    .collect(),
            ),
            None => {
                let bands = self.bands.expect("setup ran");
                let (t2, t3, t4) = (
                    self.t2.as_ref().expect("setup ran"),
                    self.t3.as_ref().expect("setup ran"),
                    self.t4.as_ref().expect("setup ran"),
                );
                // Table IV samples `warps_per_trial` warps under one
                // mapping and is widened as if they were all copies of one
                // draw; Table III's samples are independent instances.
                let warps = f64::from(t4.warps_per_trial);
                let mut failures =
                    check_record(&table2::to_record(t2, &r.t2), bands.t2, table2_copies);
                failures.extend(check_record(
                    &table3::to_record(t3, &r.t3),
                    bands.t3,
                    |_| 1.0,
                ));
                failures.extend(check_record(
                    &table4::to_record(t4, &r.t4),
                    bands.t4,
                    |_| warps,
                ));
                failures.extend(
                    r.t3.iter().filter(|row| !row.all_verified).map(|row| {
                        format!("T3 {}/{} transpose did not verify", row.kind, row.scheme)
                    }),
                );
                self.reference = Some(got);
                (stats.len() as u64, failures)
            }
        }
    }
}

impl Workload for PaperTables {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let path = ctx.root.join("results/REPORT.md");
        let report = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        self.bands = Some(Bands::parse(&report)?);
        let seed = ctx.seed;
        let (t2, t3, t4) = match ctx.scale {
            // Table IV as in the committed results/t4.json; Tables II and
            // III at half the committed trials, so a run holds enough
            // recomputes for a steady median.
            Scale::Full => (
                Table2Config {
                    base_trials: 200,
                    seed,
                    ..Table2Config::default()
                },
                Table3Config {
                    instances: 25,
                    seed,
                    ..Table3Config::default()
                },
                Table4Config {
                    trials: 150,
                    seed,
                    ..Table4Config::default()
                },
            ),
            Scale::Tiny => (
                Table2Config {
                    widths: vec![16, 128],
                    base_trials: 100,
                    seed,
                },
                Table3Config {
                    instances: 4,
                    seed,
                    ..Table3Config::default()
                },
                Table4Config {
                    trials: 64,
                    seed,
                    ..Table4Config::default()
                },
            ),
        };
        // Warm-up: page in every code path on a few trials.
        let _ = table2::run(&Table2Config {
            widths: vec![16, 128],
            base_trials: 8,
            seed,
        });
        let _ = table3::run(&Table3Config {
            instances: 1,
            ..t3.clone()
        });
        let _ = table4::run(&Table4Config {
            trials: 4,
            ..t4.clone()
        });
        self.t2 = Some(t2);
        self.t3 = Some(t3);
        self.t4 = Some(t4);
        self.reference = None;
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
        let trials = self.trials() as f64;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("the thread-count setting cannot fail");
        let (mut latencies, mut rates) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut op = 0;
        while start.elapsed() < budget || latencies.is_empty() {
            let t = Instant::now();
            let r = tracer.span("op", op, |tr| pool.install(|| self.recompute(tr)));
            let wall = t.elapsed();
            op += 1;
            latencies.push(ms(wall));
            rates.push(trials / wall.as_secs_f64());
            let (checked, failures) = self.check(&r);
            out.attempted += checked;
            for f in failures {
                out.fail(f);
            }
        }
        out.set("info.tables.recomputes", latencies.len() as f64);
        Ok(Measured {
            latency_ms: fast_decile(&latencies, false),
            latencies_ms: latencies,
            throughput: fast_decile(&rates, true),
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
