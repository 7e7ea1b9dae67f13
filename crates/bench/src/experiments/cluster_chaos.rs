//! Experiment CLUSTER_CHAOS: soak the `rap-cluster` coordinator against
//! worker crashes, coordinator faults, and straggler storms, and prove
//! its headline guarantee each time: the distributed Table II sweep
//! merges **bit-identically** to a single-process run.
//!
//! 1. **Kill mid-sweep** — one worker is killed (a real `kill -9` for
//!    process workers) while the sweep is in flight; its leases are
//!    re-dispatched and the merged statistics still match the local run
//!    bit for bit.
//! 2. **Query soak** — a multi-threaded request storm through the
//!    consistent-hash router; every request is answered (full-fidelity,
//!    degraded fallback, or a structured rejection), none lost.
//! 3. **Coordinator kill + resume** — a sweep is interrupted partway
//!    (prefix run) under `ledger.append` partial-write and delay
//!    failpoint storms; a restarted coordinator resumes from the torn
//!    ledger and produces a final record **byte-identical** to an
//!    uninterrupted single-process run.
//! 4. **Quorum degrade** — with every worker dead the sweep still
//!    completes in-process, explicitly `degraded`, source
//!    `"cluster-local"`, same bits.
//!
//! With a `--worker-bin` path the pool spawns real `rap serve` processes
//! on real sockets (CI does this); otherwise the same code paths run
//! against in-process servers.

use super::serve_chaos::SoakCheck;
use super::table2::{self, Table2Config};
use rap_cluster::{Cluster, ClusterConfig, ClusterReport, SweepCell, WorkerPool};
use rap_resilience::{install, FailPlan, Fault, HitSchedule, Ledger, SyncPolicy};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Soak parameters (see the module docs).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed keying sweeps and fault schedules.
    pub seed: u64,
    /// Worker shards in the pool.
    pub workers: usize,
    /// Requests driven through the router soak.
    pub requests: u64,
    /// Concurrent client threads in the router soak.
    pub clients: u64,
    /// `base_trials` of the Table II sweeps (kept small: the soak runs
    /// the sweep several times).
    pub base_trials: u64,
    /// Spawn real worker processes from this `rap` binary; `None` runs
    /// in-process servers over the same sockets-and-protocol path.
    pub worker_bin: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 2014,
            workers: 8,
            requests: 100_000,
            clients: 8,
            base_trials: 200,
            worker_bin: None,
        }
    }
}

/// Client-side tallies of the router soak.
#[derive(Debug, Default, Clone, Serialize)]
pub struct QueryTally {
    /// Requests sent.
    pub sent: u64,
    /// Full-fidelity `ok` answers from a shard.
    pub ok: u64,
    /// `degraded:true` answers (in-process fallback).
    pub degraded: u64,
    /// Structured rejections of deliberately malformed lines.
    pub bad_requests: u64,
}

/// The full soak result, written to `results/cluster_chaos.json`.
#[derive(Debug, Serialize)]
pub struct ChaosReport {
    /// Root seed.
    pub seed: u64,
    /// Worker shards.
    pub workers: u64,
    /// Whether workers were real processes (`rap serve` children).
    pub process_workers: bool,
    /// Requests driven through the router soak.
    pub requests: u64,
    /// Router-soak tallies.
    pub query_tally: QueryTally,
    /// Router-soak throughput, requests per second.
    pub query_throughput: f64,
    /// Coordinator report of the kill-mid-sweep check.
    pub sweep: Option<ClusterReport>,
    /// One entry per check.
    pub checks: Vec<SoakCheck>,
    /// True iff every check passed.
    pub passed: bool,
}

/// The small Table II sweep the soak re-runs under faults.
fn sweep_cfg(cfg: &ChaosConfig) -> Table2Config {
    Table2Config {
        widths: vec![16, 32],
        base_trials: cfg.base_trials.max(60),
        seed: cfg.seed,
    }
}

fn spawn_pool(cfg: &ChaosConfig, n: usize) -> Result<WorkerPool, String> {
    match &cfg.worker_bin {
        Some(bin) => WorkerPool::spawn_processes(bin, n).map_err(|e| {
            format!(
                "spawning {n} worker process(es) from {}: {e}",
                bin.display()
            )
        }),
        None => {
            WorkerPool::in_process(n).map_err(|e| format!("spawning {n} in-process workers: {e}"))
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rap-cluster-chaos-{tag}-{}", std::process::id()))
}

fn assert_bits(
    merged: &[rap_stats::OnlineStats],
    truth: &[table2::Table2Cell],
) -> Result<(), String> {
    if merged.len() != truth.len() {
        return Err(format!(
            "cell count diverged: {} vs {}",
            merged.len(),
            truth.len()
        ));
    }
    for (m, t) in merged.iter().zip(truth) {
        if m.to_raw() != t.stats.to_raw() {
            return Err(format!(
                "{} {} w={} diverged: {:?} vs {:?}",
                t.pattern,
                t.scheme,
                t.w,
                m.to_raw(),
                t.stats.to_raw()
            ));
        }
    }
    Ok(())
}

/// Check 1: kill one worker mid-sweep; re-dispatch keeps the merge
/// bit-identical and every block resolves.
///
/// The kill is triggered by progress, not by a clock, so a fast sweep
/// cannot finish before it: the victim dies once a quarter of the blocks
/// are in the shared ledger, and the check requires that it was noticed
/// (`workers_died == 1`) and that its work moved (requeued or
/// re-dispatched).
fn kill_mid_sweep_check(cfg: &ChaosConfig) -> Result<(String, ClusterReport), String> {
    let t2 = sweep_cfg(cfg);
    let truth = table2::run(&t2);
    let cells = table2::sweep_cells(&t2);
    let blocks_total: u64 = cells.iter().map(SweepCell::blocks).sum();
    let pool = spawn_pool(cfg, cfg.workers)?;
    let cluster = Cluster::new(
        pool,
        ClusterConfig {
            max_reconnects: 1,
            ..ClusterConfig::default()
        },
    );
    let victim = cfg.workers - 1;
    let ledger = Ledger::in_memory();
    let (killed, (merged, report)) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            // The deadline only keeps a broken sweep from hanging the soak.
            let deadline = Instant::now() + Duration::from_mins(1);
            while ledger.recorded() * 4 < blocks_total && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            cluster.pool().kill(victim)
        });
        let swept = cluster.run_sweep(&cells, &ledger);
        (killer.join(), swept)
    });
    cluster.pool().shutdown();
    if !killed.map_err(|_| "killer thread panicked")? {
        return Err("the kill hook reported it could not kill the victim".to_string());
    }
    if report.workers_died != 1 || report.requeued + report.redispatched == 0 {
        return Err(format!(
            "the kill went unnoticed: expected one dead worker and at least one requeued or \
             re-dispatched block: {report:?}"
        ));
    }
    assert_bits(&merged, &truth)?;
    let resolved = report.from_checkpoint + report.executed + report.local_blocks;
    if resolved != report.blocks_total {
        return Err(format!(
            "{} of {} blocks unaccounted for: {report:?}",
            report.blocks_total - resolved,
            report.blocks_total
        ));
    }
    Ok((
        format!(
            "bit-identical through a mid-sweep kill ({} blocks: {} on workers, {} local, \
             {} requeued, {} redispatched, {} hedged, {} duplicate(s) deduped, {} worker(s) \
             died)",
            report.blocks_total,
            report.executed,
            report.local_blocks,
            report.requeued,
            report.redispatched,
            report.hedged,
            report.hedge_wasted,
            report.workers_died,
        ),
        report,
    ))
}

/// The router-soak request mix: mostly cheap valid queries, a few
/// malformed lines to prove rejections are structured, keyed so repeats
/// stay on warm shards.
fn query_line(i: u64) -> (String, String) {
    let key = format!("q-{}", i % 61);
    let line = match i % 16 {
        15 => r#"{"cmd":"congestion","width":0,"addresses":[]}"#.to_string(),
        n if n % 3 == 0 => format!(
            r#"{{"cmd":"congestion","id":{i},"width":16,"addresses":[0,16,32,{}]}}"#,
            i % 16
        ),
        n if n % 3 == 1 => format!(
            r#"{{"cmd":"layout","id":{i},"scheme":"rap","width":8,"seed":{}}}"#,
            i % 17
        ),
        _ => format!(
            r#"{{"cmd":"congestion","id":{i},"width":8,"addresses":[{},8,1]}}"#,
            i % 8
        ),
    };
    (key, line)
}

/// Check 2: `requests` requests over `clients` threads; every one is
/// answered or structurally rejected — none lost, none panic.
fn query_soak_check(
    cluster: &Arc<Cluster>,
    requests: u64,
    clients: u64,
) -> Result<(QueryTally, f64), String> {
    let counter = Arc::new(AtomicU64::new(0));
    let per_client = requests.max(clients) / clients;
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let cluster = Arc::clone(cluster);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || -> Result<QueryTally, String> {
                let mut tally = QueryTally::default();
                for _ in 0..per_client {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    let (key, line) = query_line(i);
                    tally.sent += 1;
                    match cluster.query(&key, &line) {
                        Ok(resp) if resp.ok && resp.degraded => tally.degraded += 1,
                        Ok(resp) if resp.ok => tally.ok += 1,
                        Ok(resp) if resp.error_kind() == Some("bad_request") => {
                            tally.bad_requests += 1;
                        }
                        Ok(resp) => return Err(format!("request {i} unanswered: {resp:?}")),
                        Err(rap_cluster::ClusterError::BadRequest(_)) => tally.bad_requests += 1,
                        Err(e) => return Err(format!("request {i} lost: {e}")),
                    }
                }
                Ok(tally)
            })
        })
        .collect();
    let mut total = QueryTally::default();
    for t in threads {
        let tally = t
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        total.sent += tally.sent;
        total.ok += tally.ok;
        total.degraded += tally.degraded;
        total.bad_requests += tally.bad_requests;
    }
    let throughput = total.sent as f64 / start.elapsed().as_secs_f64().max(1e-9);
    if total.ok + total.degraded + total.bad_requests != total.sent {
        return Err(format!("soak lost requests: {total:?}"));
    }
    if total.bad_requests == 0 {
        return Err("the malformed lines were never rejected; the soak proved nothing".to_string());
    }
    Ok((total, throughput))
}

/// Check 3: interrupt a sweep partway under `ledger.append` fault storms,
/// restart the coordinator on the torn ledger, and require the final
/// record to be **byte-identical** to an uninterrupted local run.
fn coordinator_kill_resume_check(cfg: &ChaosConfig) -> Result<String, String> {
    let t2 = sweep_cfg(cfg);
    let fp = t2.fingerprint();
    let dir = scratch_dir("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("sweep.ledger");
    let cells = table2::sweep_cells(&t2);

    // "Killed" first coordinator: runs only a prefix of the sweep, with
    // partial-write and delay faults firing inside ledger appends — the
    // checkpoint it leaves behind is incomplete and possibly torn.
    let append_failures = {
        let guard = install(
            FailPlan::new(cfg.seed)
                .rule(
                    "ledger.append",
                    Fault::PartialWrite,
                    HitSchedule::At(vec![7]),
                )
                .rule(
                    "ledger.append",
                    Fault::Delay,
                    HitSchedule::Rate { num: 1, den: 9 },
                ),
        );
        let pool = spawn_pool(cfg, 2)?;
        let cluster = Cluster::new(pool, ClusterConfig::default());
        let ledger = Ledger::open(&path, fp, SyncPolicy::EveryEntry)
            .map_err(|e| format!("opening ledger: {e}"))?;
        let prefix = &cells[..cells.len() / 2];
        let (_, report) = cluster.run_sweep(prefix, &ledger);
        cluster.pool().shutdown();
        drop(guard);
        report.append_failures
    };
    if append_failures == 0 {
        return Err("the partial-write failpoint never fired".to_string());
    }

    // Restarted coordinator: resumes from the torn ledger and finishes.
    let pool = spawn_pool(cfg, 2)?;
    let cluster = Cluster::new(pool, ClusterConfig::default());
    let ledger =
        Ledger::open(&path, fp, SyncPolicy::EveryEntry).map_err(|e| format!("reopen: {e}"))?;
    let resumed = ledger.resumed_entries();
    if resumed == 0 {
        return Err("the restarted coordinator found an empty checkpoint".to_string());
    }
    let (merged, report) = cluster.run_sweep(&cells, &ledger);
    cluster.pool().shutdown();
    if report.from_checkpoint == 0 {
        return Err(format!("the resume reused nothing: {report:?}"));
    }

    // Byte-level comparison of the serialized records (`cmp` semantics).
    let local = serde_json::to_string(&table2::to_record(&t2, &table2::run(&t2)))
        .map_err(|e| e.to_string())?;
    let distributed = serde_json::to_string(&table2::to_record(
        &t2,
        &table2::cells_from_stats(&t2, &merged),
    ))
    .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    if local != distributed {
        return Err("resumed record differs from the single-process record".to_string());
    }
    Ok(format!(
        "record byte-identical after kill+resume ({resumed} checkpointed block(s) recovered, \
         {} reused, {append_failures} torn append(s) survived)",
        report.from_checkpoint
    ))
}

/// Check 4: every worker dead → the sweep completes in-process, marked
/// degraded, same bits.
fn quorum_degrade_check(cfg: &ChaosConfig) -> Result<String, String> {
    let t2 = Table2Config {
        widths: vec![16],
        base_trials: 60,
        seed: cfg.seed,
    };
    let truth = table2::run(&t2);
    let pool = spawn_pool(cfg, 1)?;
    let cluster = Cluster::new(pool, ClusterConfig::default());
    cluster.pool().kill(0);
    std::thread::sleep(Duration::from_millis(50));
    let ledger = Ledger::in_memory();
    let (merged, report) = cluster.run_sweep(&table2::sweep_cells(&t2), &ledger);
    cluster.pool().shutdown();
    assert_bits(&merged, &truth)?;
    if !report.degraded || report.source != "cluster-local" {
        return Err(format!("expected an explicit local degrade: {report:?}"));
    }
    Ok(format!(
        "all {} blocks served in-process below quorum, bit-identical, marked degraded",
        report.local_blocks
    ))
}

/// Run the sweep twice — distributed over a fresh (undisturbed) pool
/// and locally in one process — and write the two Table II records as
/// separate JSON files, so an **external** `cmp` (the CI cluster-soak
/// job) can assert byte-identity without trusting this process's own
/// comparison code.
///
/// # Errors
/// Worker spawn failures, a degraded sweep (dead pool), or write errors.
pub fn write_identity_pair(
    cfg: &ChaosConfig,
    dir: &std::path::Path,
) -> Result<(PathBuf, PathBuf), String> {
    let t2 = sweep_cfg(cfg);
    let pool = spawn_pool(cfg, cfg.workers.clamp(2, 64))?;
    let cluster = Cluster::new(pool, ClusterConfig::default());
    let ledger = Ledger::in_memory();
    let (merged, report) = cluster.run_sweep(&table2::sweep_cells(&t2), &ledger);
    cluster.pool().shutdown();
    if report.degraded {
        return Err("identity-pair sweep unexpectedly degraded to local execution".into());
    }
    let distributed = dir.join("t2_distributed.json");
    let single = dir.join("t2_single.json");
    rap_resilience::write_json_atomic(
        &distributed,
        &table2::to_record(&t2, &table2::cells_from_stats(&t2, &merged)),
    )
    .map_err(|e| format!("writing {}: {e}", distributed.display()))?;
    rap_resilience::write_json_atomic(&single, &table2::to_record(&t2, &table2::run(&t2)))
        .map_err(|e| format!("writing {}: {e}", single.display()))?;
    Ok((distributed, single))
}

/// Run the whole soak suite.
#[must_use]
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    let cfg = ChaosConfig {
        workers: cfg.workers.clamp(2, 64),
        clients: cfg.clients.clamp(1, 64),
        ..cfg.clone()
    };
    let mut checks = Vec::new();
    let mut query_tally = QueryTally::default();
    let mut query_throughput = 0.0;
    let mut sweep = None;

    let named = |name: &str, result: Result<String, String>| match result {
        Ok(detail) => SoakCheck {
            name: name.to_string(),
            passed: true,
            detail,
        },
        Err(detail) => SoakCheck {
            name: name.to_string(),
            passed: false,
            detail,
        },
    };

    match kill_mid_sweep_check(&cfg) {
        Ok((detail, report)) => {
            sweep = Some(report);
            checks.push(SoakCheck {
                name: "sweep-survives-worker-kill".to_string(),
                passed: true,
                detail,
            });
        }
        Err(e) => checks.push(SoakCheck {
            name: "sweep-survives-worker-kill".to_string(),
            passed: false,
            detail: e,
        }),
    }

    // Router soak over a fresh pool; one worker is killed mid-storm so
    // failover (and, for the key it owned, re-routing) happens live.
    match spawn_pool(&cfg, cfg.workers) {
        Err(e) => checks.push(SoakCheck {
            name: "query-soak-zero-lost".to_string(),
            passed: false,
            detail: e,
        }),
        Ok(pool) => {
            let cluster = Arc::new(Cluster::new(pool, ClusterConfig::default()));
            let killer = {
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(40));
                    cluster.pool().kill(0);
                })
            };
            let result = query_soak_check(&cluster, cfg.requests, cfg.clients);
            let _ = killer.join();
            cluster.pool().shutdown();
            checks.push(match result {
                Ok((tally, throughput)) => {
                    let detail = format!(
                        "{} sent = {} ok + {} degraded + {} structured rejections \
                         ({throughput:.0} req/s, one shard killed mid-storm)",
                        tally.sent, tally.ok, tally.degraded, tally.bad_requests
                    );
                    query_tally = tally;
                    query_throughput = throughput;
                    SoakCheck {
                        name: "query-soak-zero-lost".to_string(),
                        passed: true,
                        detail,
                    }
                }
                Err(e) => SoakCheck {
                    name: "query-soak-zero-lost".to_string(),
                    passed: false,
                    detail: e,
                },
            });
        }
    }

    checks.push(named(
        "coordinator-kill-resume-byte-identical",
        coordinator_kill_resume_check(&cfg),
    ));
    checks.push(named(
        "below-quorum-local-degrade",
        quorum_degrade_check(&cfg),
    ));

    let passed = checks.iter().all(|c| c.passed);
    ChaosReport {
        seed: cfg.seed,
        workers: cfg.workers as u64,
        process_workers: cfg.worker_bin.is_some(),
        requests: cfg.requests,
        query_tally,
        query_throughput,
        sweep,
        checks,
        passed,
    }
}

/// [`run`] wrapped in `catch_unwind` per the suite convention: a broken
/// invariant must report a failed check, not kill the harness.
#[must_use]
pub fn run_caught(cfg: &ChaosConfig) -> ChaosReport {
    catch_unwind(AssertUnwindSafe(|| run(cfg))).unwrap_or_else(|_| ChaosReport {
        seed: cfg.seed,
        workers: cfg.workers as u64,
        process_workers: cfg.worker_bin.is_some(),
        requests: cfg.requests,
        query_tally: QueryTally::default(),
        query_throughput: 0.0,
        sweep: None,
        checks: vec![SoakCheck {
            name: "suite-panicked".to_string(),
            passed: false,
            detail: "the chaos harness itself panicked".to_string(),
        }],
        passed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak (fast enough for unit CI) must pass end to end.
    #[test]
    fn mini_cluster_soak_passes() {
        let _chaos = crate::experiments::chaos_test_guard();
        let report = run_caught(&ChaosConfig {
            seed: 7,
            workers: 2,
            requests: 256,
            clients: 4,
            base_trials: 60,
            worker_bin: None,
        });
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        assert!(report.passed);
        assert_eq!(
            report.query_tally.sent,
            report.query_tally.ok + report.query_tally.degraded + report.query_tally.bad_requests
        );
        let sweep = report.sweep.expect("kill check ran");
        assert_eq!(
            sweep.blocks_total,
            sweep.from_checkpoint + sweep.executed + sweep.local_blocks
        );
    }
}
