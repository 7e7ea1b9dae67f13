//! The server runtime: thread lifecycle, shared state, and drain.
//!
//! Thread topology (all std, no async runtime):
//!
//! ```text
//! acceptor ──(conn cap)──▶ connection threads ──try_push──▶ BoundedQueue
//!                           │  parse, inline health/stats/     │
//!                           │  shutdown, shed/drain rejects    ▼
//!                           │                            worker pool (N)
//!                           ◀─────────── responses ──────  breaker +
//!                              (shared, mutex'd writer)    catch_unwind
//! ```
//!
//! The runtime is layered: `transport` owns sockets and line
//! framing, `routing` owns per-request dispatch and the
//! execution policies (deadline, breaker, retry, panic isolation), and
//! `handler` owns the domain work. This module owns what is
//! left — configuration, the `Shared` state every layer hangs off,
//! spawning the acceptor and worker threads, and the graceful drain.
//!
//! Every parsed request is answered exactly once, on the connection it
//! arrived on, no matter what happens in between: queue full → `shed`,
//! deadline expired → `timeout`, handler panicked past its retries →
//! `panic`, breaker open → degraded analyzer bounds (for `pattern` and
//! `synthesize`) or `unavailable`, server draining → `draining`. The
//! metrics module's conservation invariant checks this numerically.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{ErrorKind, Response};
use crate::queue::BoundedQueue;
use crate::routing::{self, Job};
use crate::transport::{self, SharedWriter};
use rap_adapt::AdaptiveController;
use rap_resilience::{BreakerConfig, CircuitBreaker, RetryPolicy};
use serde::Serialize;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing queued commands.
    pub workers: usize,
    /// Queue slots; a full queue sheds with `429`.
    pub queue_capacity: usize,
    /// Concurrent connections; excess gets a one-line refusal.
    pub max_connections: usize,
    /// Deadline applied when a request names none, in ms.
    pub default_timeout_ms: u64,
    /// Upper clamp for client-supplied `timeout_ms`.
    pub max_timeout_ms: u64,
    /// How long a drain may spend finishing queued work, in ms.
    pub drain_budget_ms: u64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Retry/backoff policy for panicked or failed handlers.
    pub retry: RetryPolicy,
    /// Adaptive remapping: when set, the server hosts an
    /// [`AdaptiveController`], serves `pattern` scheme `"adaptive"`,
    /// and answers `adapt_status`/`adapt_force`/`adapt_freeze`.
    pub adapt: Option<AdaptOptions>,
}

/// How a server's adaptive-remapping subsystem is configured.
#[derive(Debug, Clone)]
pub struct AdaptOptions {
    /// Controller tunables (width, initial candidate, cost model, …).
    pub config: rap_adapt::AdaptConfig,
    /// Durable epoch-ledger path — a restart replays it and rolls back
    /// any interrupted migration. `None` keeps epochs in memory.
    pub ledger: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 64,
            default_timeout_ms: 2_000,
            max_timeout_ms: 30_000,
            drain_budget_ms: 2_000,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            adapt: None,
        }
    }
}

/// State shared by the acceptor, every connection thread, and the worker
/// pool — one allocation, reference-counted across all of them.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) metrics: Metrics,
    pub(crate) breaker: CircuitBreaker,
    /// Set once: stop accepting connections and begin drain.
    stopping: AtomicBool,
    pub(crate) connections: AtomicUsize,
    pub(crate) job_seq: AtomicU64,
    /// The adaptive-remapping controller, when enabled.
    pub(crate) adapt: Option<Arc<AdaptiveController>>,
}

impl Shared {
    pub(crate) fn breaker_state(&self) -> &'static str {
        self.breaker.state().name()
    }

    pub(crate) fn write_response(&self, out: &SharedWriter, response: &Response) {
        if transport::send_line(out, &response.to_line()).is_err() {
            // The client vanished (e.g. `kill -9` mid-soak). The request
            // is still accounted for by whichever outcome counter the
            // caller bumped — nothing leaks, the bytes just had nowhere
            // to go.
            Metrics::bump(&self.metrics.write_errors);
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }
}

/// What a completed drain looked like.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DrainReport {
    /// Jobs still queued when the budget expired, each answered with a
    /// structured `draining` error (never silently dropped).
    pub aborted_jobs: u64,
    /// Whether the queue emptied inside the drain budget.
    pub clean: bool,
    /// Final counter snapshot.
    pub metrics: MetricsSnapshot,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a running server's threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

impl Server {
    /// Bind the listener (no threads started yet).
    ///
    /// # Errors
    /// Propagates socket errors (address in use, permission).
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // Opening the controller before any thread starts means a
        // resume (ledger replay + rollback of an interrupted epoch)
        // finishes before the first request can observe the state.
        let adapt = match &config.adapt {
            None => None,
            Some(opts) => {
                let controller = match &opts.ledger {
                    Some(path) => AdaptiveController::open(opts.config.clone(), path),
                    None => AdaptiveController::new(opts.config.clone()),
                }
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
                Some(Arc::new(controller))
            }
        };
        let shared = Arc::new(Shared {
            adapt,
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: Metrics::default(),
            breaker: CircuitBreaker::new(config.breaker),
            stopping: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            job_seq: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// Propagates `local_addr` socket errors.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the acceptor and worker threads.
    ///
    /// # Errors
    /// Propagates `local_addr` socket errors.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let workers = (0..self.shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("rap-serve-worker-{i}"))
                    .spawn(move || routing::worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            std::thread::Builder::new()
                .name("rap-serve-acceptor".to_string())
                .spawn(move || transport::acceptor_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };
        Ok(ServerHandle {
            shared: self.shared,
            acceptor: Some(acceptor),
            workers,
            addr,
        })
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Current counters (test/observability hook).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Current breaker state name.
    #[must_use]
    pub fn breaker_state(&self) -> &'static str {
        self.shared.breaker_state()
    }

    /// Times the breaker has tripped open.
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        self.shared.breaker.trips()
    }

    /// The adaptive controller, when the server was configured with one
    /// (test/observability hook; clients use `adapt_status`).
    #[must_use]
    pub fn adapt(&self) -> Option<&AdaptiveController> {
        self.shared.adapt.as_deref()
    }

    /// Ask the server to stop accepting and begin draining
    /// (equivalent to a client `shutdown` command).
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown (client command or [`Self::begin_shutdown`])
    /// has been requested.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shared.is_stopping()
    }

    /// Block until shutdown is requested, then drain: finish queued
    /// work within the drain budget, answer whatever remains with a
    /// structured `draining` error, and join all server threads.
    #[must_use]
    pub fn join(mut self) -> DrainReport {
        while !self.shared.is_stopping() {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Drain phase: workers keep consuming; we stop admitting (the
        // queue closes) and give the backlog a bounded grace period.
        self.shared.queue.close();
        let budget = Duration::from_millis(self.shared.config.drain_budget_ms);
        let deadline = Instant::now() + budget;
        while !self.shared.queue.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Whatever the workers did not reach inside the budget still
        // gets its one response.
        let leftovers = self.shared.queue.drain_remaining();
        let clean = leftovers.is_empty();
        let mut aborted = 0u64;
        for job in leftovers {
            Metrics::bump(&self.shared.metrics.drained_rejects);
            aborted += 1;
            self.shared.write_response(
                &job.out,
                &Response::error(
                    job.request.id,
                    self.shared.breaker_state(),
                    ErrorKind::Draining,
                    "server drained before this request was scheduled",
                ),
            );
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainReport {
            aborted_jobs: aborted,
            clean,
            metrics: self.shared.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::test_lock;
    use rap_resilience::{FailPlan, Fault, HitSchedule};

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn small_server(config: ServerConfig) -> (ServerHandle, Client) {
        let server = Server::bind(config).expect("bind");
        let handle = server.spawn().expect("spawn");
        let client = Client::connect(handle.addr()).expect("connect");
        (handle, client)
    }

    fn shutdown(handle: ServerHandle) -> DrainReport {
        handle.begin_shutdown();
        handle.join()
    }

    #[test]
    fn end_to_end_request_response() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        let resp = client
            .roundtrip(r#"{"cmd":"congestion","id":1,"width":4,"addresses":[0,4,8,1]}"#)
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.id, Some(1));
        let resp = client
            .roundtrip(r#"{"cmd":"pattern","id":2,"pattern":"stride","scheme":"rap","width":16,"trials":32}"#)
            .unwrap();
        assert!(resp.ok && !resp.degraded, "{resp:?}");
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn malformed_lines_get_contextual_400s() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        let resp = client.roundtrip("this is not json").unwrap();
        assert_eq!(resp.error_kind(), Some("bad_request"));
        let resp = client
            .roundtrip(r#"{"cmd":"layout","scheme":"rap","width":0}"#)
            .unwrap();
        assert_eq!(resp.error_kind(), Some("bad_request"));
        assert!(resp.error.as_ref().unwrap().message.contains("1..=4096"));
        let resp = client.roundtrip(r#"{"cmd":"warp"}"#).unwrap();
        assert!(resp.error.as_ref().unwrap().message.contains("unknown cmd"));
        let report = shutdown(handle);
        assert_eq!(report.metrics.bad_requests, 3);
        assert!(report.metrics.conserves_responses());
    }

    /// A request line nested 100,000 levels deep is parsed on the
    /// connection thread; it must come back as a `bad_request`, not
    /// overflow that thread's stack and abort the server.
    #[test]
    fn deeply_nested_line_is_a_bad_request_and_the_server_survives() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        let resp = client.roundtrip(&"[".repeat(100_000)).unwrap();
        assert_eq!(resp.error_kind(), Some("bad_request"), "{resp:?}");
        assert!(
            resp.error.as_ref().unwrap().message.contains("nesting"),
            "{resp:?}"
        );
        let health = client.roundtrip(r#"{"cmd":"health","id":2}"#).unwrap();
        assert!(health.ok, "{health:?}");
        let report = shutdown(handle);
        assert_eq!(report.metrics.bad_requests, 1);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    /// 2 MiB with no newline: the server reads at most
    /// `MAX_REQUEST_BYTES + 1` of it, answers `bad_request`, closes that
    /// connection, and keeps serving others.
    #[test]
    fn unterminated_oversize_line_is_a_bad_request_and_closes_the_connection() {
        let _g = test_lock::handlers();
        use std::io::{BufRead, BufReader, Write};
        let (handle, mut client) = small_server(ServerConfig::default());
        let raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut writer = raw.try_clone().unwrap();
        // The server stops reading past the cap, so the tail of the
        // write may be refused; only the response matters.
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        });
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).expect("a response line");
        let resp: crate::protocol::Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(resp.error_kind(), Some("bad_request"), "{line}");
        assert!(
            resp.error.as_ref().unwrap().message.contains("exceeds"),
            "{line}"
        );
        // Closed: EOF, or a reset because the unread tail was discarded.
        let mut rest = String::new();
        assert!(
            matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
            "{rest}"
        );
        flood.join().unwrap();
        let health = client.roundtrip(r#"{"cmd":"health","id":2}"#).unwrap();
        assert!(health.ok, "{health:?}");
        let report = shutdown(handle);
        assert_eq!(report.metrics.bad_requests, 1);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn health_and_stats_answer_inline() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        let health = client.roundtrip(r#"{"cmd":"health","id":9}"#).unwrap();
        assert!(health.ok);
        let line = serde_json::to_string(&health.data.unwrap()).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"breaker\":\"closed\""), "{line}");
        let stats = client.roundtrip(r#"{"cmd":"stats"}"#).unwrap();
        let line = serde_json::to_string(&stats.data.unwrap()).unwrap();
        assert!(line.contains("\"conserves_responses\":true"), "{line}");
        shutdown(handle);
    }

    #[test]
    fn shed_responses_when_queue_is_full() {
        let _g = test_lock::handlers();
        // One worker, one queue slot: pipeline a burst without reading
        // and verify the overflow gets structured sheds, not silence.
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        const BURST: usize = 20;
        for i in 0..BURST {
            client
                .send(&format!(
                    r#"{{"cmd":"pattern","id":{i},"pattern":"random","scheme":"ras","width":64,"trials":2000}}"#
                ))
                .unwrap();
        }
        let mut sheds = 0;
        let mut answered = 0;
        for _ in 0..BURST {
            let resp = client.recv().unwrap().expect("a response per request");
            if resp.error_kind() == Some("shed") {
                assert_eq!(resp.error.as_ref().unwrap().code, 429);
                sheds += 1;
            } else {
                answered += 1;
            }
        }
        assert_eq!(sheds + answered, BURST, "every request answered");
        assert!(sheds > 0, "a 1-slot queue must shed under a 20-deep burst");
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn deadlines_produce_timeouts_or_partial_results() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        let resp = client
            .roundtrip(
                r#"{"cmd":"pattern","id":5,"pattern":"random","scheme":"rap","width":128,"trials":1000000,"timeout_ms":40}"#,
            )
            .unwrap();
        // Either the deadline fired mid-run (degraded partial estimate)
        // or before anything completed (structured timeout).
        if resp.ok {
            assert!(resp.degraded, "{resp:?}");
        } else {
            assert_eq!(resp.error_kind(), Some("timeout"), "{resp:?}");
            assert_eq!(resp.error.as_ref().unwrap().code, 504);
        }
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses());
    }

    #[test]
    fn analyze_at_the_width_cap_times_out_and_frees_its_worker() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let started = Instant::now();
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":1,"width":4096,"timeout_ms":50}"#)
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(resp.error_kind(), Some("timeout"), "{resp:?}");
        assert_eq!(resp.error.as_ref().unwrap().code, 504);
        assert!(
            elapsed < Duration::from_secs(1),
            "answered after {elapsed:?}"
        );
        // The one worker is free again for the next request.
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":2,"width":8}"#)
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn panics_are_isolated_retried_and_surfaced() {
        let _l = test_lock::fail_plans();
        // Panic on every hit, retries exhausted → structured 500; the
        // worker itself survives to serve the next request.
        let guard = rap_resilience::install(FailPlan::new(3).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let resp = quiet_panics(|| {
            client
                .roundtrip(r#"{"cmd":"analyze","id":1,"width":8}"#)
                .unwrap()
        });
        assert_eq!(resp.error_kind(), Some("panic"), "{resp:?}");
        drop(guard);
        // Same worker thread, next request: healthy again.
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":2,"width":8}"#)
            .unwrap();
        assert!(resp.ok, "worker must survive the panic: {resp:?}");
        let report = shutdown(handle);
        assert!(report.metrics.handler_panics >= 1);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn breaker_opens_and_pattern_degrades_to_analyzer_bounds() {
        let _l = test_lock::fail_plans();
        let guard = rap_resilience::install(FailPlan::new(3).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_mins(1),
                success_to_close: 1,
            },
            ..ServerConfig::default()
        });
        // Trip the breaker with panicking requests.
        quiet_panics(|| {
            for i in 0..3 {
                let resp = client
                    .roundtrip(&format!(r#"{{"cmd":"analyze","id":{i},"width":8}}"#))
                    .unwrap();
                assert_eq!(resp.error_kind(), Some("panic"));
            }
        });
        assert_eq!(handle.breaker_state(), "open");
        assert_eq!(handle.breaker_trips(), 1);
        // Open breaker: pattern queries degrade to certified bounds...
        let resp = client
            .roundtrip(r#"{"cmd":"pattern","id":10,"pattern":"stride","scheme":"rap","width":16}"#)
            .unwrap();
        assert!(resp.ok && resp.degraded, "{resp:?}");
        assert_eq!(resp.breaker, "open");
        let data = serde_json::to_string(&resp.data.unwrap()).unwrap();
        assert!(data.contains("\"source\":\"static-analyzer\""), "{data}");
        assert!(data.contains("\"hi\":1"), "Theorem 2 bound: {data}");
        // ...synthesize degrades to the best known static scheme's
        // certified bound (no layout search runs while open; columns and
        // rows are conflict-free under Padded, so lo == hi == 1)...
        let resp = client
            .roundtrip(
                r#"{"cmd":"synthesize","id":12,"workload":"column:0;contiguous:0","width":16}"#,
            )
            .unwrap();
        assert!(resp.ok && resp.degraded, "{resp:?}");
        assert_eq!(resp.breaker, "open");
        let data = serde_json::to_string(&resp.data.unwrap()).unwrap();
        assert!(data.contains("\"source\":\"static-analyzer\""), "{data}");
        assert!(data.contains("\"lo\":1"), "{data}");
        assert!(data.contains("\"hi\":1"), "{data}");
        // ...while commands without a fallback get a structured 503.
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":11,"width":8}"#)
            .unwrap();
        assert_eq!(resp.error_kind(), Some("unavailable"), "{resp:?}");
        assert_eq!(resp.error.as_ref().unwrap().code, 503);
        drop(guard);
        let report = shutdown(handle);
        assert!(report.metrics.degraded_served >= 1);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    /// Under an open breaker only a static-scheme `pattern` has a
    /// degraded path. An adaptive one is refused like any other compute
    /// request: `unavailable`/503, counted in `breaker_rejects` — not a
    /// `bad_request` for a scheme name the analyzer does not know.
    #[test]
    fn adaptive_pattern_under_an_open_breaker_is_unavailable() {
        let _l = test_lock::fail_plans();
        let guard = rap_resilience::install(FailPlan::new(3).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_mins(1),
                success_to_close: 1,
            },
            adapt: Some(crate::server::AdaptOptions {
                config: rap_adapt::AdaptConfig {
                    width: 16,
                    initial: "rap".to_string(),
                    start_frozen: true,
                    ..rap_adapt::AdaptConfig::default()
                },
                ledger: None,
            }),
            ..ServerConfig::default()
        });
        quiet_panics(|| {
            for i in 0..2 {
                let resp = client
                    .roundtrip(&format!(r#"{{"cmd":"analyze","id":{i},"width":8}}"#))
                    .unwrap();
                assert_eq!(resp.error_kind(), Some("panic"), "{resp:?}");
            }
        });
        assert_eq!(handle.breaker_state(), "open");
        let adaptive = client
            .roundtrip(
                r#"{"cmd":"pattern","id":5,"pattern":"stride","scheme":"adaptive","width":16}"#,
            )
            .unwrap();
        assert_eq!(adaptive.error_kind(), Some("unavailable"), "{adaptive:?}");
        assert_eq!(adaptive.error.as_ref().unwrap().code, 503);
        assert_eq!(adaptive.id, Some(5));
        let static_run = client
            .roundtrip(r#"{"cmd":"pattern","id":6,"pattern":"Stride","scheme":"RAP","width":16}"#)
            .unwrap();
        assert!(static_run.ok && static_run.degraded, "{static_run:?}");
        let data = serde_json::to_string(&static_run.data.unwrap()).unwrap();
        assert!(data.contains("\"source\":\"static-analyzer\""), "{data}");
        drop(guard);
        let report = shutdown(handle);
        assert_eq!(report.metrics.breaker_rejects, 1, "{report:?}");
        assert_eq!(report.metrics.bad_requests, 0, "{report:?}");
        assert_eq!(report.metrics.degraded_served, 1, "{report:?}");
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let _l = test_lock::fail_plans();
        let guard = rap_resilience::install(FailPlan::new(3).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
                success_to_close: 1,
            },
            ..ServerConfig::default()
        });
        quiet_panics(|| {
            for i in 0..2 {
                client
                    .roundtrip(&format!(r#"{{"cmd":"analyze","id":{i},"width":8}}"#))
                    .unwrap();
            }
        });
        assert_eq!(handle.breaker_state(), "open");
        drop(guard); // faults stop — the service is healthy again
        std::thread::sleep(Duration::from_millis(80)); // past cooldown
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":20,"width":8}"#)
            .unwrap();
        assert!(resp.ok, "half-open probe should succeed: {resp:?}");
        assert_eq!(handle.breaker_state(), "closed", "breaker recovered");
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses());
    }

    #[test]
    fn adaptive_endpoints_answer_over_the_wire() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig {
            adapt: Some(crate::server::AdaptOptions {
                config: rap_adapt::AdaptConfig {
                    width: 16,
                    initial: "rap".to_string(),
                    start_frozen: true,
                    ..rap_adapt::AdaptConfig::default()
                },
                ledger: None,
            }),
            ..ServerConfig::default()
        });
        // Status answers inline with the committed scheme.
        let resp = client
            .roundtrip(r#"{"cmd":"adapt_status","id":1}"#)
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        let line = serde_json::to_string(&resp.data.unwrap()).unwrap();
        assert!(line.contains("\"scheme\":\"rap\""), "{line}");
        assert!(line.contains("\"phase\":\"stable\""), "{line}");
        assert!(line.contains("\"frozen\":true"), "{line}");
        // Health carries the phase for the cluster coordinator.
        let health = client.roundtrip(r#"{"cmd":"health"}"#).unwrap();
        let line = serde_json::to_string(&health.data.unwrap()).unwrap();
        assert!(line.contains("\"adapt_phase\":\"stable\""), "{line}");
        // Stats grows an adapt section.
        let stats = client.roundtrip(r#"{"cmd":"stats"}"#).unwrap();
        let line = serde_json::to_string(&stats.data.unwrap()).unwrap();
        assert!(line.contains("\"adapt\":{"), "{line}");
        assert!(line.contains("\"swaps\":0"), "{line}");
        // The adaptive scheme serves the committed layout bit-identically.
        let adaptive = client
            .roundtrip(r#"{"cmd":"pattern","id":2,"pattern":"stride","scheme":"adaptive","width":16,"trials":32,"seed":9}"#)
            .unwrap();
        let static_run = client
            .roundtrip(r#"{"cmd":"pattern","id":2,"pattern":"stride","scheme":"rap","width":16,"trials":32,"seed":9}"#)
            .unwrap();
        assert!(adaptive.ok, "{adaptive:?}");
        assert_eq!(adaptive, static_run, "bit-identical to the static path");
        // A forced swap commits and the served layout follows.
        let resp = client
            .roundtrip(r#"{"cmd":"adapt_force","id":3,"target":"padded","steps":0}"#)
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        let resp = client.roundtrip(r#"{"cmd":"adapt_status"}"#).unwrap();
        let line = serde_json::to_string(&resp.data.unwrap()).unwrap();
        assert!(line.contains("\"scheme\":\"padded\""), "{line}");
        assert!(line.contains("\"epoch\":1"), "{line}");
        // Freeze toggles and reports.
        let resp = client
            .roundtrip(r#"{"cmd":"adapt_freeze","frozen":false}"#)
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        assert!(!handle.adapt().unwrap().frozen());
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn adapt_endpoints_without_controller_are_bad_requests() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        for line in [
            r#"{"cmd":"adapt_status"}"#,
            r#"{"cmd":"adapt_force","target":"rap"}"#,
            r#"{"cmd":"adapt_freeze"}"#,
        ] {
            let resp = client.roundtrip(line).unwrap();
            assert_eq!(resp.error_kind(), Some("bad_request"), "{line}: {resp:?}");
        }
        let health = client.roundtrip(r#"{"cmd":"health"}"#).unwrap();
        let line = serde_json::to_string(&health.data.unwrap()).unwrap();
        assert!(line.contains("\"adapt_phase\":null"), "{line}");
        let report = shutdown(handle);
        assert!(report.metrics.conserves_responses(), "{report:?}");
    }

    #[test]
    fn graceful_drain_answers_leftovers() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig {
            workers: 1,
            queue_capacity: 32,
            drain_budget_ms: 1, // force leftovers
            ..ServerConfig::default()
        });
        // Stuff the queue with slow jobs, then shut down immediately.
        // Responses interleave (worker results, the shutdown ack, drain
        // rejects), so count them rather than pairing send/recv.
        for i in 0..8 {
            client
                .send(&format!(
                    r#"{{"cmd":"pattern","id":{i},"pattern":"random","scheme":"ras","width":64,"trials":5000}}"#
                ))
                .unwrap();
        }
        client.send(r#"{"cmd":"shutdown","id":99}"#).unwrap();
        let report = handle.join();
        // Every one of the 9 requests got exactly one response.
        assert!(report.metrics.conserves_responses(), "{report:?}");
        let mut got = 0;
        let mut saw_shutdown_ack = false;
        for _ in 0..9 {
            let resp = client.recv().unwrap().expect("one response per request");
            if resp.id == Some(99) {
                saw_shutdown_ack = true;
                assert!(resp.ok);
            }
            got += 1;
        }
        assert_eq!(got, 9, "all requests answered across the drain");
        assert!(saw_shutdown_ack);
    }

    #[test]
    fn requests_after_shutdown_are_refused_structurally() {
        let _g = test_lock::handlers();
        let (handle, mut client) = small_server(ServerConfig::default());
        client.roundtrip(r#"{"cmd":"shutdown"}"#).unwrap();
        let resp = client
            .roundtrip(r#"{"cmd":"analyze","id":1,"width":8}"#)
            .unwrap();
        assert_eq!(resp.error_kind(), Some("draining"), "{resp:?}");
        let report = handle.join();
        assert!(report.metrics.conserves_responses());
    }
}
