//! End-to-end acceptance of the `rap-serve` query service through the
//! `rap_shmem` facade: a live server on a real socket, driven over TCP
//! with line-delimited JSON, must
//!
//! 1. answer every workspace hot path (layout, congestion, pattern,
//!    analyze, transpose) with the same numbers the libraries produce;
//! 2. answer *every* request exactly once — malformed, over-deadline,
//!    and mid-fault-storm requests included;
//! 3. survive the chaos soak (injected panics, ENOSPC, delays, a killed
//!    client) with the breaker tripping and recovering;
//! 4. drain gracefully on `shutdown` with a balanced response ledger.
//!
//! Tests that install failpoint plans serialize on a local mutex: the
//! registry is process-global.

use rap_shmem::serve::{Client, Server, ServerConfig, ServerHandle};
use std::sync::{Mutex, MutexGuard, PoisonError};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn live_server() -> ServerHandle {
    Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn payload(response: &rap_shmem::serve::Response) -> String {
    serde_json::to_string(response.data.as_ref().expect("response data")).expect("serialize")
}

/// Every command family answers over the wire, and the numbers match the
/// libraries the handlers delegate to.
#[test]
fn every_hot_path_answers_over_tcp() {
    let _l = locked();
    let handle = live_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // congestion: a fully conflicting warp on w=8 RAW must report 8.
    let r = client
        .roundtrip(r#"{"cmd":"congestion","id":1,"width":8,"addresses":[0,8,16,24,32,40,48,56]}"#)
        .expect("congestion");
    assert!(r.ok, "{r:?}");
    assert_eq!(r.id, Some(1));
    assert!(payload(&r).contains("\"congestion\":8"), "{}", payload(&r));

    // pattern: stride under RAP at w=16 is conflict-free → mean 1.
    let r = client
        .roundtrip(
            r#"{"cmd":"pattern","id":2,"pattern":"stride","scheme":"rap","width":16,"trials":64}"#,
        )
        .expect("pattern");
    assert!(r.ok && !r.degraded, "{r:?}");
    assert!(payload(&r).contains("\"mean\":1"), "{}", payload(&r));

    // analyze: Theorem 2 certification at w=8.
    let r = client
        .roundtrip(r#"{"cmd":"analyze","id":3,"width":8}"#)
        .expect("analyze");
    assert!(r.ok, "{r:?}");
    let p = payload(&r);
    assert!(
        p.contains("\"theorem2\"") && p.contains("\"proven\":true"),
        "{p}"
    );

    // layout + transpose answer and echo ids.
    for (id, line) in [
        (
            4u64,
            r#"{"cmd":"layout","id":4,"scheme":"rap","width":8,"seed":7}"#,
        ),
        (
            5u64,
            r#"{"cmd":"transpose","id":5,"kind":"crsw","scheme":"rap","width":16,"latency":2}"#,
        ),
    ] {
        let r = client.roundtrip(line).expect("roundtrip");
        assert!(r.ok, "{r:?}");
        assert_eq!(r.id, Some(id));
    }

    // health reports the service green.
    let r = client.roundtrip(r#"{"cmd":"health"}"#).expect("health");
    assert!(r.ok && payload(&r).contains("\"status\":\"ok\""), "{r:?}");

    handle.begin_shutdown();
    let report = handle.join();
    assert!(report.metrics.conserves_responses());
}

/// Malformed input of every flavor gets a structured `bad_request` with a
/// contextual message — never a dropped line, never a crash.
#[test]
fn malformed_requests_get_contextual_structured_errors() {
    let _l = locked();
    let handle = live_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let malformed = [
        ("this is not json", "bad_request"),
        (r#"{"cmd":"frobnicate"}"#, "unknown"),
        (r#"{"cmd":"congestion","width":8}"#, "addresses"),
        (r#"{"cmd":"layout","scheme":"rap","width":0}"#, "width"),
        (r#"{"cmd":"layout","scheme":"rap","width":4097}"#, "width"),
        (
            r#"{"cmd":"layout","scheme":"rap","width":513}"#,
            "capped at 512",
        ),
        (
            r#"{"cmd":"pattern","pattern":"zigzag","scheme":"rap","width":8}"#,
            "zigzag",
        ),
    ];
    for (line, needle) in malformed {
        let r = client.roundtrip(line).expect("roundtrip");
        assert!(!r.ok, "{line} should fail");
        let err = r.error.as_ref().expect("error body");
        assert_eq!(err.code, 400, "{line}");
        assert!(
            format!("{}:{}", err.kind, err.message).contains(needle),
            "{line}: error should mention {needle:?}, got {err:?}"
        );
    }

    // The connection is still usable afterwards.
    let r = client.roundtrip(r#"{"cmd":"health"}"#).expect("health");
    assert!(r.ok);

    handle.begin_shutdown();
    let report = handle.join();
    assert!(report.metrics.conserves_responses());
    assert_eq!(report.metrics.bad_requests, malformed.len() as u64);
}

/// A request that cannot finish inside its deadline is answered anyway:
/// either a partial `degraded:true` estimate or a structured timeout.
#[test]
fn deadlines_produce_partial_or_timeout_answers() {
    let _l = locked();
    let handle = live_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let r = client
        .roundtrip(
            r#"{"cmd":"pattern","id":9,"pattern":"random","scheme":"ras","width":64,"trials":1000000,"timeout_ms":30}"#,
        )
        .expect("roundtrip");
    assert!(
        (r.ok && r.degraded) || r.error_kind() == Some("timeout"),
        "expected partial or timeout, got {r:?}"
    );
    handle.begin_shutdown();
    let report = handle.join();
    assert!(report.metrics.conserves_responses());
}

/// The full chaos soak — the PR's acceptance gate — passes when driven
/// from the facade: injected panics, a killed client, breaker lifecycle,
/// I/O faults, drain under load, and shed bursts, all without losing a
/// single request.
#[test]
fn chaos_soak_passes_end_to_end() {
    let _l = locked();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = rap_bench::experiments::serve_chaos::run_caught(2014, 96, 6);
    std::panic::set_hook(prev);
    for check in &report.checks {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }
    assert!(report.passed);
    assert!(
        report.injected_faults > 0,
        "soak must actually inject faults"
    );
    assert!(report.breaker_trips >= 1, "breaker must trip and recover");
    assert_eq!(
        report.tally.sent, report.tally.received,
        "zero lost requests"
    );
}

/// `shutdown` over the wire: the ack arrives, the listener stops
/// accepting, and the drain report balances.
#[test]
fn shutdown_command_drains_and_balances() {
    let _l = locked();
    let handle = live_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let ack = client
        .roundtrip(r#"{"cmd":"shutdown","id":42}"#)
        .expect("shutdown ack");
    assert!(ack.ok);
    assert_eq!(ack.id, Some(42));
    let report = handle.join();
    assert!(report.metrics.conserves_responses(), "{report:?}");
    // New connections are refused (or reset) once drained.
    assert!(Client::connect(addr).is_err(), "listener should be gone");
}
