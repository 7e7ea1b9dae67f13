//! End-to-end coordinator tests over in-process worker shards.
//!
//! Everything here runs real servers on real loopback sockets — only the
//! process boundary is elided (the chaos bench and CI soak cover spawned
//! binaries and genuine SIGKILL). The invariant under test throughout:
//! the distributed sweep merges to statistics **bit-identical** to
//! [`matrix_congestion`] run locally, whatever the worker count or
//! failure schedule.

use rap_access::montecarlo::matrix_congestion;
use rap_access::MatrixPattern;
use rap_cluster::{Cluster, ClusterConfig, SweepCell, WorkerPool};
use rap_core::Scheme;
use rap_resilience::Ledger;
use rap_stats::{OnlineStats, SeedDomain};
use std::time::Duration;

/// A small three-cell sweep with a ragged tail block (77 trials).
fn cells() -> Vec<SweepCell> {
    let root = SeedDomain::new(2014).child("e2e");
    vec![
        SweepCell::new(
            "Random/RAP/w=16",
            MatrixPattern::Random,
            Scheme::Rap,
            16,
            77,
            &root.child("a"),
        ),
        SweepCell::new(
            "Random/RAS/w=8",
            MatrixPattern::Random,
            Scheme::Ras,
            8,
            96,
            &root.child("b"),
        ),
        SweepCell::new(
            "Diagonal/RAW/w=16",
            MatrixPattern::Diagonal,
            Scheme::Raw,
            16,
            40,
            &root.child("c"),
        ),
    ]
}

/// The single-process ground truth for [`cells`].
fn local_truth() -> Vec<OnlineStats> {
    let root = SeedDomain::new(2014).child("e2e");
    vec![
        matrix_congestion(Scheme::Rap, MatrixPattern::Random, 16, 77, &root.child("a")),
        matrix_congestion(Scheme::Ras, MatrixPattern::Random, 8, 96, &root.child("b")),
        matrix_congestion(
            Scheme::Raw,
            MatrixPattern::Diagonal,
            16,
            40,
            &root.child("c"),
        ),
    ]
}

fn fast_cfg() -> ClusterConfig {
    ClusterConfig {
        request_timeout: Duration::from_secs(5),
        ..ClusterConfig::default()
    }
}

fn assert_bit_identical(merged: &[OnlineStats], truth: &[OnlineStats]) {
    assert_eq!(merged.len(), truth.len());
    for (i, (m, t)) in merged.iter().zip(truth).enumerate() {
        assert_eq!(m.to_raw(), t.to_raw(), "cell {i} diverged");
    }
}

#[test]
fn distributed_sweep_matches_single_process_bit_for_bit() {
    for workers in [1usize, 2] {
        let pool = WorkerPool::in_process(workers).expect("spawn workers");
        let cluster = Cluster::new(pool, fast_cfg());
        let ledger = Ledger::in_memory();
        let (merged, report) = cluster.run_sweep(&cells(), &ledger);
        assert_bit_identical(&merged, &local_truth());
        assert!(
            !report.degraded,
            "healthy pool must not degrade: {report:?}"
        );
        assert_eq!(report.source, "cluster");
        assert_eq!(report.executed, report.blocks_total);
        assert_eq!(report.local_blocks, 0, "{report:?}");
        // Nothing failed or straggled: no strike, no re-dispatch, no hedge.
        assert_eq!(report.strikes, 0, "{report:?}");
        assert_eq!(report.redispatched, 0, "{report:?}");
        assert_eq!(report.hedged, 0, "{report:?}");
        cluster.pool().shutdown();
    }
}

#[test]
fn killed_worker_redispatches_and_stays_bit_exact() {
    let pool = WorkerPool::in_process(2).expect("spawn workers");
    // One reconnect attempt with tiny backoff: dead workers are declared
    // dead fast enough for the test, live ones are unaffected.
    let cfg = ClusterConfig {
        max_reconnects: 1,
        ..fast_cfg()
    };
    let cluster = Cluster::new(pool, cfg);
    cluster.pool().kill(1);
    let ledger = Ledger::in_memory();
    let (merged, report) = cluster.run_sweep(&cells(), &ledger);
    assert_bit_identical(&merged, &local_truth());
    assert_eq!(
        report.executed + report.local_blocks,
        report.blocks_total,
        "{report:?}"
    );
    // The surviving worker (plus, at worst, the local fallback) carried
    // the sweep; the dead shard was noticed and written off.
    assert!(report.workers_died <= 1);
    cluster.pool().shutdown();
}

#[test]
fn below_quorum_degrades_to_local_with_identical_bits() {
    let pool = WorkerPool::in_process(1).expect("spawn worker");
    let cluster = Cluster::new(pool, fast_cfg());
    cluster.pool().kill(0);
    // Give the drain a moment so the health probe sees `draining`.
    std::thread::sleep(Duration::from_millis(50));
    let ledger = Ledger::in_memory();
    let (merged, report) = cluster.run_sweep(&cells(), &ledger);
    assert_bit_identical(&merged, &local_truth());
    assert!(report.degraded);
    assert_eq!(report.source, "cluster-local");
    assert_eq!(report.local_blocks, report.blocks_total);
    assert_eq!(report.executed, 0);
    cluster.pool().shutdown();
}

#[test]
fn coordinator_resume_reuses_the_ledger_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("rap-cluster-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("sweep.ledger");
    let fp = rap_resilience::fingerprint(["cluster-e2e"]);

    // First run: completes and checkpoints every block.
    {
        let pool = WorkerPool::in_process(2).expect("spawn workers");
        let cluster = Cluster::new(pool, fast_cfg());
        let ledger =
            Ledger::open(&path, fp, rap_resilience::SyncPolicy::Flush).expect("open ledger");
        let (_, report) = cluster.run_sweep(&cells(), &ledger);
        assert_eq!(report.executed, report.blocks_total);
        cluster.pool().shutdown();
    }

    // "Restarted" coordinator: everything comes from the checkpoint, no
    // worker executes anything, and the merge is still bit-identical.
    let pool = WorkerPool::in_process(1).expect("spawn worker");
    let cluster = Cluster::new(pool, fast_cfg());
    let ledger = Ledger::open(&path, fp, rap_resilience::SyncPolicy::Flush).expect("reopen ledger");
    assert!(ledger.resumed_entries() > 0);
    let (merged, report) = cluster.run_sweep(&cells(), &ledger);
    assert_bit_identical(&merged, &local_truth());
    assert_eq!(report.from_checkpoint, report.blocks_total);
    assert_eq!(report.executed, 0);
    assert!(!report.degraded);
    cluster.pool().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_route_and_fail_over_to_local_degraded() {
    let pool = WorkerPool::in_process(2).expect("spawn workers");
    let cluster = Cluster::new(pool, fast_cfg());
    let line = r#"{"cmd":"congestion","width":4,"addresses":[0,4,8,1]}"#;

    // Healthy: served by a shard, full fidelity.
    let resp = cluster.query("warm-key", line).expect("routed query");
    assert!(resp.ok && !resp.degraded);

    // Malformed lines are rejected before any shard sees them.
    assert!(matches!(
        cluster.query("warm-key", "not json"),
        Err(rap_cluster::ClusterError::BadRequest(_))
    ));

    // Both shards down: the coordinator answers in-process, explicitly
    // degraded with source "cluster-local".
    cluster.pool().kill(0);
    cluster.pool().kill(1);
    std::thread::sleep(Duration::from_millis(50));
    let resp = cluster.query("warm-key", line).expect("degraded fallback");
    assert!(resp.ok && resp.degraded);
    let data = resp.data.as_ref().unwrap();
    let source = data
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "source")
        .map(|(_, v)| v.clone());
    assert_eq!(
        source,
        Some(serde::Value::String("cluster-local".to_string()))
    );
    cluster.pool().shutdown();
}

/// The `received` counter of each shard, read over a throwaway
/// connection (each read itself bumps the counter by exactly one, the
/// same on every shard, so deltas between two reads stay comparable).
fn received(addrs: &[std::net::SocketAddr]) -> Vec<u64> {
    addrs
        .iter()
        .map(|&addr| {
            let mut c = rap_serve::Client::connect(addr).expect("connect for stats");
            let resp = c.roundtrip(r#"{"cmd":"stats"}"#).expect("stats roundtrip");
            let metrics = resp
                .data
                .as_ref()
                .and_then(serde::Value::as_object)
                .and_then(|d| d.iter().find(|(k, _)| k == "metrics"))
                .and_then(|(_, v)| v.as_object())
                .expect("stats payload has a metrics object");
            match metrics.iter().find(|(k, _)| k == "received") {
                Some((_, serde::Value::U64(n))) => *n,
                other => panic!("no received counter in {other:?}"),
            }
        })
        .collect()
}

/// A top-level string field of a response payload.
fn data_str(resp: &rap_serve::Response, key: &str) -> String {
    resp.data
        .as_ref()
        .and_then(serde::Value::as_object)
        .and_then(|d| d.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| match v {
            serde::Value::String(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no string field '{key}' in {resp:?}"))
}

#[test]
fn query_routing_skips_migrating_shards_until_commit() {
    // Shard 0 adapts (frozen, so only forced swaps move it); shard 1 is
    // a plain static server.
    let adaptive = rap_serve::ServerConfig {
        adapt: Some(rap_serve::AdaptOptions {
            config: rap_adapt::AdaptConfig {
                width: 16,
                start_frozen: true,
                ..rap_adapt::AdaptConfig::default()
            },
            ledger: None,
        }),
        ..rap_serve::ServerConfig::default()
    };
    let pool = WorkerPool::in_process_with(vec![adaptive, rap_serve::ServerConfig::default()])
        .expect("spawn workers");
    let addrs = pool.addrs();
    let cluster = Cluster::new(pool, fast_cfg());
    assert_eq!(cluster.healthy_workers(), 2);
    assert_eq!(cluster.pool().migrating_workers(), 0);

    // Hold shard 0 mid-migration: a forced swap spanning two further
    // observations before it may commit.
    let mut direct = rap_serve::Client::connect(addrs[0]).expect("connect shard 0");
    let forced = direct
        .roundtrip(r#"{"cmd":"adapt_force","target":"padded","steps":2}"#)
        .expect("force swap");
    assert!(forced.ok, "force failed: {forced:?}");

    // The next probe round discovers the in-flight swap; the shard still
    // counts as healthy (it answers, from its old committed layout).
    assert_eq!(cluster.healthy_workers(), 2);
    assert!(cluster.pool().migrating(0), "probe must see the swap");
    assert_eq!(cluster.pool().migrating_workers(), 1);

    // Routed queries keep succeeding — and every one of them lands on
    // the stable shard, whatever its key hashes to.
    let line =
        r#"{"cmd":"pattern","pattern":"contiguous","scheme":"rap","width":16,"trials":4,"seed":7}"#;
    let before = received(&addrs);
    for i in 0..4 {
        let resp = cluster
            .query(&format!("key-{i}"), line)
            .expect("routed query");
        assert!(resp.ok, "query failed mid-migration: {resp:?}");
    }
    let after = received(&addrs);
    assert_eq!(
        after[0] - before[0],
        1,
        "migrating shard must see only the stats read, not routed queries"
    );
    assert_eq!(
        after[1] - before[1],
        1 + 4,
        "stable shard must take every routed query"
    );

    // Two adaptive observations finish the migration on the shard; the
    // next probe round re-admits it to routing.
    let observe = r#"{"cmd":"pattern","pattern":"contiguous","scheme":"adaptive","width":16,"trials":4,"seed":7}"#;
    for _ in 0..2 {
        let resp = direct.roundtrip(observe).expect("adaptive observation");
        assert!(resp.ok, "adaptive query failed: {resp:?}");
    }
    let status = direct
        .roundtrip(r#"{"cmd":"adapt_status"}"#)
        .expect("status");
    assert!(status.ok);
    assert_eq!(data_str(&status, "scheme"), "padded", "swap did not commit");
    assert_eq!(data_str(&status, "phase"), "stable");

    assert_eq!(cluster.healthy_workers(), 2);
    assert_eq!(
        cluster.pool().migrating_workers(),
        0,
        "committed shard must be re-admitted to routing"
    );
    let resp = cluster.query("key-0", line).expect("post-commit query");
    assert!(resp.ok);
    cluster.pool().shutdown();
}

/// A fake shard that answers `health` like a live worker but replies to
/// any other request with bytes and never a newline. Returns its
/// address and the number of such requests it has seen.
fn newline_withholding_worker() -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicU64>,
) {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("fake worker addr");
    let streamed = std::sync::Arc::new(AtomicU64::new(0));
    let seen = std::sync::Arc::clone(&streamed);
    std::thread::spawn(move || {
        for stream in listener.incoming().map_while(Result::ok) {
            let seen = std::sync::Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone stream");
                let chunk = vec![b'x'; 1 << 16];
                for line in BufReader::new(stream).lines().map_while(Result::ok) {
                    if line.contains(r#""health""#) {
                        let health = r#"{"id":null,"ok":true,"degraded":false,"breaker":"closed","data":{"status":"ok"},"error":null}"#;
                        if writeln!(writer, "{health}").is_err() {
                            return;
                        }
                        continue;
                    }
                    seen.fetch_add(1, Ordering::SeqCst);
                    // Stream until the coordinator hangs up.
                    while writer.write_all(&chunk).is_ok() {}
                    return;
                }
            });
        }
    });
    (addr, streamed)
}

#[test]
fn a_worker_that_never_sends_a_newline_is_struck_and_its_blocks_redispatched() {
    let real = WorkerPool::in_process(1).expect("spawn worker");
    let (fake, streamed) = newline_withholding_worker();
    let pool = WorkerPool::connect(&[real.addrs()[0], fake]);
    let cluster = Cluster::new(
        pool,
        ClusterConfig {
            max_reconnects: 1,
            ..fast_cfg()
        },
    );
    // Forty blocks, so the fake shard claims one while the real shard
    // still has work.
    let root = SeedDomain::new(2014).child("e2e-newline");
    let cells = vec![SweepCell::new(
        "Random/RAP/w=16",
        MatrixPattern::Random,
        Scheme::Rap,
        16,
        40 * 32,
        &root,
    )];
    let truth = vec![matrix_congestion(
        Scheme::Rap,
        MatrixPattern::Random,
        16,
        40 * 32,
        &root,
    )];
    let ledger = Ledger::in_memory();
    let (merged, report) = cluster.run_sweep(&cells, &ledger);
    assert_bit_identical(&merged, &truth);
    let streamed = streamed.load(std::sync::atomic::Ordering::SeqCst);
    assert!(
        streamed >= 1,
        "the fake shard never got a block: {report:?}"
    );
    // Each block it got failed at the line cap and dropped the
    // connection; the shard answers `health`, so it was reconnected.
    // The block itself was requeued or, if a hedge beat the cap, already
    // done.
    assert!(report.reconnects >= 1, "{report:?}");
    assert_eq!(report.workers_died, 0, "{report:?}");
    assert_eq!(
        report.executed + report.local_blocks,
        report.blocks_total,
        "{report:?}"
    );
    real.shutdown();
}

/// One 40-block cell, enough for a full window on every shard.
fn forty_blocks(tag: &str) -> (Vec<SweepCell>, Vec<OnlineStats>) {
    let root = SeedDomain::new(2014).child(tag);
    let cells = vec![SweepCell::new(
        "Random/RAP/w=16",
        MatrixPattern::Random,
        Scheme::Rap,
        16,
        40 * 32,
        &root,
    )];
    let truth = vec![matrix_congestion(
        Scheme::Rap,
        MatrixPattern::Random,
        16,
        40 * 32,
        &root,
    )];
    (cells, truth)
}

/// A `health` answer with the given status (`"ok"` or `"draining"`).
fn health_line(status: &str) -> String {
    format!(
        r#"{{"id":null,"ok":true,"degraded":false,"breaker":"closed","data":{{"status":"{status}"}},"error":null}}"#
    )
}

/// A fake shard on loopback: every accepted connection runs `conn` on
/// its own thread.
fn fake_shard(conn: impl Fn(std::net::TcpStream) + Send + Sync + 'static) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr");
    let conn = std::sync::Arc::new(conn);
    std::thread::spawn(move || {
        for stream in listener.incoming().map_while(Result::ok) {
            let conn = std::sync::Arc::clone(&conn);
            std::thread::spawn(move || conn(stream));
        }
    });
    addr
}

/// Read request lines until `quiet` passes without one. `Ok(lines)`
/// once the peer has gone quiet after at least one line (its window is
/// full); `Err` when it hung up. `health` lines are answered inline
/// with `health` and never collected.
fn read_window(
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    writer: &mut std::net::TcpStream,
    health: &str,
    quiet: Duration,
) -> Result<Vec<String>, ()> {
    use std::io::{BufRead, Write};
    reader
        .get_ref()
        .set_read_timeout(Some(quiet))
        .expect("set read timeout");
    let mut lines = Vec::new();
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err(()),
            Ok(_) if buf.ends_with(b"\n") => {
                let line = String::from_utf8(std::mem::take(&mut buf)).expect("utf-8 request");
                if line.contains(r#""health""#) {
                    writeln!(writer, "{health}").map_err(|_| ())?;
                } else {
                    lines.push(line.trim_end().to_string());
                }
            }
            // A partial line stays in `buf` until the rest arrives.
            Ok(_) => {}
            Err(_) if !lines.is_empty() => return Ok(lines),
            Err(_) => {}
        }
    }
}

/// An unsigned integer field of a request line the coordinator wrote.
fn field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no '{key}' in {line}"))
        + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an unsigned integer field")
}

/// A fake shard that relays every request line, one at a time, to the
/// real shard at `backend` after `rewrite`: `Ok(line)` forwards `line`
/// and relays the answer, `Err(answer)` writes `answer` instead.
/// `health` lines are answered `ok` inline.
fn relay_shard(
    backend: std::net::SocketAddr,
    rewrite: impl Fn(&str) -> Result<String, String> + Send + Sync + 'static,
) -> std::net::SocketAddr {
    use std::io::{BufRead, Write};
    fake_shard(move |stream| {
        let mut writer = stream.try_clone().expect("clone stream");
        let mut upstream = rap_serve::Client::connect(backend).expect("connect backend");
        for line in std::io::BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
        {
            let answer = if line.contains(r#""health""#) {
                health_line("ok")
            } else {
                match rewrite(&line) {
                    Ok(forward) => {
                        upstream.send(&forward).expect("forward request");
                        upstream
                            .recv_line()
                            .expect("backend answer")
                            .expect("backend open")
                    }
                    Err(answer) => answer,
                }
            };
            if writeln!(writer, "{answer}").is_err() {
                return;
            }
        }
    })
}

#[test]
fn a_batch_answered_with_the_wrong_number_of_stats_takes_one_strike() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let real = WorkerPool::in_process(1).expect("spawn worker");
    // The first batched request reaches the real shard one block short,
    // so its answer carries one accumulator too few.
    let cut = AtomicBool::new(false);
    let fake = relay_shard(real.addrs()[0], move |line| {
        let k = field(line, "blocks");
        if k > 1 && !cut.swap(true, Ordering::SeqCst) {
            let short = format!(r#""blocks":{}"#, k - 1);
            return Ok(line.replace(&format!(r#""blocks":{k}"#), &short));
        }
        Ok(line.to_string())
    });
    let cluster = Cluster::new(WorkerPool::connect(&[fake]), fast_cfg());
    let (cells, truth) = forty_blocks("e2e-short-batch");
    let (merged, report) = cluster.run_sweep(&cells, &Ledger::in_memory());
    assert_bit_identical(&merged, &truth);
    assert_eq!(report.strikes, 1, "{report:?}");
    assert_eq!(report.reconnects, 1, "{report:?}");
    assert_eq!(report.local_blocks, 0, "{report:?}");
    assert_eq!(report.executed, report.blocks_total, "{report:?}");
    real.shutdown();
}

#[test]
fn a_poisoned_block_inside_a_batch_strikes_out_alone() {
    let real = WorkerPool::in_process(1).expect("spawn worker");
    // Every request whose run covers block 6 fails, on the only shard.
    const POISONED: u64 = 6;
    let fake = relay_shard(real.addrs()[0], |line| {
        let first = field(line, "block");
        if (first..first + field(line, "blocks")).contains(&POISONED) {
            return Err(format!(
                r#"{{"id":{},"ok":false,"degraded":false,"breaker":"closed","data":null,"error":{{"kind":"panic","code":500,"message":"poisoned"}}}}"#,
                field(line, "id")
            ));
        }
        Ok(line.to_string())
    });
    let cluster = Cluster::new(WorkerPool::connect(&[fake]), fast_cfg());
    let (cells, truth) = forty_blocks("e2e-poisoned");
    let (merged, report) = cluster.run_sweep(&cells, &Ledger::in_memory());
    assert_bit_identical(&merged, &truth);
    // Only the poisoned block ran in-process; its neighbours finished on
    // the shard.
    assert_eq!(report.local_blocks, 1, "{report:?}");
    assert_eq!(report.executed, report.blocks_total - 1, "{report:?}");
    // Its three strikes, plus at most one for each of the three blocks
    // that can lead a run covering it.
    assert!((3..=6).contains(&report.strikes), "{report:?}");
    assert_eq!(report.workers_died, 0, "{report:?}");
    real.shutdown();
}

#[test]
fn a_window_dropped_by_its_shard_is_requeued_with_one_strike() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let real = WorkerPool::in_process(1).expect("spawn worker");
    // The fake takes one full window, closes the connection, and from
    // then on reports itself draining, so the coordinator writes it off.
    let windowed = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&windowed);
    let fake = fake_shard(move |stream| {
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = std::io::BufReader::new(stream);
        loop {
            let health = if seen.load(Ordering::SeqCst) == 0 {
                health_line("ok")
            } else {
                health_line("draining")
            };
            match read_window(
                &mut reader,
                &mut writer,
                &health,
                Duration::from_millis(200),
            ) {
                Ok(window) if seen.load(Ordering::SeqCst) == 0 => {
                    let blocks = window.iter().map(|line| field(line, "blocks")).sum();
                    seen.store(blocks, Ordering::SeqCst);
                    return;
                }
                Ok(_) => {}
                Err(()) => return,
            }
        }
    });
    let pool = WorkerPool::connect(&[real.addrs()[0], fake]);
    let cluster = Cluster::new(
        pool,
        ClusterConfig {
            max_reconnects: 1,
            ..fast_cfg()
        },
    );
    let (cells, truth) = forty_blocks("e2e-dropped-window");
    let (merged, report) = cluster.run_sweep(&cells, &Ledger::in_memory());
    assert_bit_identical(&merged, &truth);
    let window = windowed.load(Ordering::SeqCst);
    assert!(
        window > 1,
        "the fake shard never saw a pipelined window: {report:?}"
    );
    // A full window is `PIPELINE_DEPTH` blocks, batched into runs.
    assert_eq!(window, 8, "{report:?}");
    // Every in-flight block went back to the queue; only one was
    // charged for the failure.
    assert_eq!(report.requeued, window, "{report:?}");
    assert_eq!(report.strikes, 1, "{report:?}");
    assert_eq!(report.workers_died, 1, "{report:?}");
    assert_eq!(report.local_blocks, 0, "{report:?}");
    assert_eq!(report.executed, report.blocks_total, "{report:?}");
    real.shutdown();
}

#[test]
fn answers_in_permuted_id_order_merge_bit_for_bit() {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let real = WorkerPool::in_process(1).expect("spawn worker");
    let backend = real.addrs()[0];
    // The fake forwards each window to a real shard and writes the
    // answers back in reverse order.
    let reversed = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&reversed);
    let fake = fake_shard(move |stream| {
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = std::io::BufReader::new(stream);
        let mut upstream = rap_serve::Client::connect(backend).expect("connect backend");
        let health = health_line("ok");
        while let Ok(window) =
            read_window(&mut reader, &mut writer, &health, Duration::from_millis(20))
        {
            let mut answers: Vec<String> = window
                .iter()
                .map(|line| {
                    upstream.send(line).expect("forward request");
                    upstream
                        .recv_line()
                        .expect("backend answer")
                        .expect("backend open")
                })
                .collect();
            if answers.len() > 1 {
                count.fetch_add(1, Ordering::SeqCst);
            }
            answers.reverse();
            for answer in answers {
                if writeln!(writer, "{answer}").is_err() {
                    return;
                }
            }
        }
    });
    let cluster = Cluster::new(WorkerPool::connect(&[fake]), fast_cfg());
    let (cells, truth) = forty_blocks("e2e-permuted");
    let (merged, report) = cluster.run_sweep(&cells, &Ledger::in_memory());
    assert_bit_identical(&merged, &truth);
    assert!(
        reversed.load(Ordering::SeqCst) >= 1,
        "no window of two or more was ever answered out of order: {report:?}"
    );
    assert!(!report.degraded, "{report:?}");
    assert_eq!(report.local_blocks, 0, "{report:?}");
    assert_eq!(report.strikes, 0, "{report:?}");
    assert_eq!(report.executed, report.blocks_total, "{report:?}");
    real.shutdown();
}

#[test]
fn routed_queries_during_a_sweep_are_all_answered() {
    let pool = WorkerPool::in_process(2).expect("spawn workers");
    let cluster = Cluster::new(pool, fast_cfg());
    let (cells, truth) = forty_blocks("e2e-concurrent-query");
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let line = format!(
                            r#"{{"cmd":"congestion","id":{i},"width":8,"addresses":[{},8,1]}}"#,
                            i % 8
                        );
                        let resp = cluster
                            .query(&format!("key-{c}-{}", i % 5), &line)
                            .expect("routed query");
                        assert!(resp.ok && !resp.degraded, "query {i}: {resp:?}");
                        assert_eq!(resp.id, Some(i), "query {i} got another answer");
                    }
                })
            })
            .collect();
        // Sweep until every query is in, so the two always overlap.
        loop {
            let (merged, report) = cluster.run_sweep(&cells, &Ledger::in_memory());
            assert_bit_identical(&merged, &truth);
            assert_eq!(report.local_blocks, 0, "{report:?}");
            assert!(!report.degraded, "{report:?}");
            if clients
                .iter()
                .all(std::thread::ScopedJoinHandle::is_finished)
            {
                break;
            }
        }
        for client in clients {
            client.join().expect("query thread");
        }
    });
    cluster.pool().shutdown();
}
