//! The routing layer: from a parsed request to exactly one response.
//!
//! [`dispatch`] decides each request's path — answered inline
//! (`health`/`stats`/`shutdown` must work even when the queue is
//! saturated), refused structurally (draining, queue full), or queued as
//! a [`Job`] for the worker pool. The worker side ([`worker_loop`] →
//! `process_job`) then applies the execution policies in order:
//! queue-deadline check, circuit-breaker admission (with degraded
//! analyzer-bound fallbacks for `pattern`/`synthesize`), and
//! panic-isolated handler execution with seeded-backoff retries.
//!
//! Transport below ([`crate::transport`]) owns the bytes; the handler
//! above ([`crate::handler`]) owns the domain work; this module owns the
//! exactly-one-response conservation law in between.

use crate::handler::{self, Outcome};
use crate::metrics::Metrics;
use crate::protocol::{object, Command, ErrorKind, PatternScheme, Request, Response};
use crate::queue::PushError;
use crate::server::Shared;
use crate::transport::SharedWriter;
use rap_access::CancelToken;
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unit of queued work: the request plus where/when to answer it.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) deadline: Instant,
    pub(crate) out: SharedWriter,
    pub(crate) seq: u64,
}

/// Route one parsed request: inline, refused, or queued.
pub(crate) fn dispatch(shared: &Arc<Shared>, request: Request, out: &SharedWriter) {
    match &request.cmd {
        // Observability and lifecycle commands bypass the queue: they
        // must answer even (especially) when the queue is saturated.
        Command::Health => {
            Metrics::bump(&shared.metrics.completed_ok);
            let data = health_data(shared);
            shared.write_response(out, &Response::ok(request.id, shared.breaker_state(), data));
        }
        Command::Stats => {
            Metrics::bump(&shared.metrics.completed_ok);
            let data = stats_data(shared);
            shared.write_response(out, &Response::ok(request.id, shared.breaker_state(), data));
        }
        // Adaptive observability/control bypasses the queue too: status
        // must answer mid-migration and freeze must work even when the
        // workers are wedged — that is exactly when you need them.
        Command::AdaptStatus => match shared.adapt.as_deref() {
            Some(controller) => {
                Metrics::bump(&shared.metrics.completed_ok);
                shared.write_response(
                    out,
                    &Response::ok(
                        request.id,
                        shared.breaker_state(),
                        controller.status().to_value(),
                    ),
                );
            }
            None => adapt_disabled(shared, request.id, out),
        },
        Command::AdaptFreeze { frozen } => match shared.adapt.as_deref() {
            Some(controller) => {
                controller.freeze(*frozen);
                Metrics::bump(&shared.metrics.completed_ok);
                shared.write_response(
                    out,
                    &Response::ok(
                        request.id,
                        shared.breaker_state(),
                        object(vec![
                            ("frozen", Value::Bool(*frozen)),
                            ("phase", Value::String(controller.phase_name().to_string())),
                        ]),
                    ),
                );
            }
            None => adapt_disabled(shared, request.id, out),
        },
        Command::Shutdown => {
            Metrics::bump(&shared.metrics.completed_ok);
            shared.write_response(
                out,
                &Response::ok(
                    request.id,
                    shared.breaker_state(),
                    object(vec![("draining", Value::Bool(true))]),
                ),
            );
            shared.begin_shutdown();
        }
        _ if shared.is_stopping() => {
            Metrics::bump(&shared.metrics.drained_rejects);
            shared.write_response(
                out,
                &Response::error(
                    request.id,
                    shared.breaker_state(),
                    ErrorKind::Draining,
                    "server is draining; not accepting new work",
                ),
            );
        }
        _ => {
            let timeout_ms = request
                .timeout_ms
                .unwrap_or(shared.config.default_timeout_ms)
                .clamp(1, shared.config.max_timeout_ms);
            let job = Job {
                seq: shared.job_seq.fetch_add(1, Ordering::Relaxed),
                deadline: Instant::now() + Duration::from_millis(timeout_ms),
                request,
                out: Arc::clone(out),
            };
            let id = job.request.id;
            match shared.queue.try_push(job) {
                Ok(()) => Metrics::bump(&shared.metrics.accepted),
                Err(PushError::Full) => {
                    Metrics::bump(&shared.metrics.shed);
                    shared.write_response(
                        out,
                        &Response::error(
                            id,
                            shared.breaker_state(),
                            ErrorKind::Shed,
                            format!(
                                "queue full ({} pending); request shed, retry with backoff",
                                shared.config.queue_capacity
                            ),
                        ),
                    );
                }
                Err(PushError::Closed) => {
                    Metrics::bump(&shared.metrics.drained_rejects);
                    shared.write_response(
                        out,
                        &Response::error(
                            id,
                            shared.breaker_state(),
                            ErrorKind::Draining,
                            "server is draining; not accepting new work",
                        ),
                    );
                }
            }
        }
    }
}

fn adapt_disabled(shared: &Arc<Shared>, id: Option<u64>, out: &SharedWriter) {
    Metrics::bump(&shared.metrics.bad_requests);
    shared.write_response(
        out,
        &Response::error(
            id,
            shared.breaker_state(),
            ErrorKind::BadRequest,
            "adaptive remapping is not enabled on this server (start with --adapt)",
        ),
    );
}

fn health_data(shared: &Arc<Shared>) -> Value {
    let status = if shared.is_stopping() {
        "draining"
    } else {
        "ok"
    };
    object(vec![
        ("status", Value::String(status.to_string())),
        ("queue_depth", Value::U64(shared.queue.len() as u64)),
        (
            "queue_capacity",
            Value::U64(shared.config.queue_capacity as u64),
        ),
        ("breaker", Value::String(shared.breaker_state().to_string())),
        ("breaker_trips", Value::U64(shared.breaker.trips())),
        ("workers", Value::U64(shared.config.workers as u64)),
        (
            "connections",
            Value::U64(shared.connections.load(Ordering::SeqCst) as u64),
        ),
        // `null` when adaptation is off; the cluster coordinator reads
        // this to route around mid-migration shards.
        (
            "adapt_phase",
            shared
                .adapt
                .as_deref()
                .map_or(Value::Null, |c| Value::String(c.phase_name().to_string())),
        ),
    ])
}

fn stats_data(shared: &Arc<Shared>) -> Value {
    let snapshot = shared.metrics.snapshot();
    object(vec![
        ("metrics", snapshot.to_value()),
        ("errors_total", Value::U64(snapshot.errors_total())),
        (
            "conserves_responses",
            Value::Bool(snapshot.conserves_responses()),
        ),
        ("queue_depth", Value::U64(shared.queue.len() as u64)),
        ("breaker", Value::String(shared.breaker_state().to_string())),
        ("breaker_trips", Value::U64(shared.breaker.trips())),
        (
            "adapt",
            shared
                .adapt
                .as_deref()
                .map_or(Value::Null, |c| c.status().to_value()),
        ),
    ])
}

/// Consume jobs until the queue closes and empties.
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        process_job(shared, &job);
    }
}

fn process_job(shared: &Arc<Shared>, job: &Job) {
    let id = job.request.id;
    // Expired while queued: a timeout, but not the handler's fault — the
    // breaker only judges execution, not queueing.
    if Instant::now() >= job.deadline {
        Metrics::bump(&shared.metrics.timeouts_queue);
        shared.write_response(
            &job.out,
            &Response::error(
                id,
                shared.breaker_state(),
                ErrorKind::Timeout,
                "deadline expired while queued",
            ),
        );
        return;
    }
    // Admission through the breaker: when open, a static-scheme `pattern`
    // degrades to the analyzer's certified bounds and `synthesize` to the
    // best known static scheme's certified bound; everything else —
    // adaptive `pattern` included — is refused.
    if matches!(shared.breaker.admit(), rap_resilience::Admission::Reject) {
        serve_breaker_reject(shared, job);
        return;
    }
    run_with_isolation(shared, job);
}

fn serve_breaker_reject(shared: &Arc<Shared>, job: &Job) {
    let id = job.request.id;
    // Both degraded paths run outside the failpoint-instrumented handler
    // and do no search/sampling, so they stay cheap and available while
    // the real handlers are failing. An adaptive `pattern` has no
    // degraded path: its layout is whatever the controller committed,
    // and the controller sits behind the breaker too.
    let degraded = match &job.request.cmd {
        Command::Pattern {
            pattern,
            scheme: PatternScheme::Static(scheme),
            width,
            ..
        } => Some(handler::degraded_pattern(*pattern, *scheme, *width)),
        Command::Synthesize {
            workload, width, ..
        } => Some(handler::degraded_synthesize(workload, *width)),
        _ => None,
    };
    if let Some(result) = degraded {
        match result {
            Ok(data) => {
                Metrics::bump(&shared.metrics.degraded_served);
                shared.write_response(
                    &job.out,
                    &Response::degraded(id, shared.breaker_state(), data),
                );
            }
            Err(message) => {
                Metrics::bump(&shared.metrics.bad_requests);
                shared.write_response(
                    &job.out,
                    &Response::error(id, shared.breaker_state(), ErrorKind::BadRequest, message),
                );
            }
        }
        return;
    }
    Metrics::bump(&shared.metrics.breaker_rejects);
    shared.write_response(
        &job.out,
        &Response::error(
            id,
            shared.breaker_state(),
            ErrorKind::Unavailable,
            format!(
                "circuit breaker is {}; '{}' has no degraded path",
                shared.breaker_state(),
                job.request.cmd.name()
            ),
        ),
    );
}

fn run_with_isolation(shared: &Arc<Shared>, job: &Job) {
    let id = job.request.id;
    let token = CancelToken::with_deadline(job.deadline);
    let mut attempt: u32 = 0;
    loop {
        if Instant::now() >= job.deadline {
            Metrics::bump(&shared.metrics.timeouts_handler);
            shared.breaker.record_failure();
            shared.write_response(
                &job.out,
                &Response::error(
                    id,
                    shared.breaker_state(),
                    ErrorKind::Timeout,
                    format!("deadline expired during execution (attempt {attempt})"),
                ),
            );
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler::execute(&job.request.cmd, &token, shared.adapt.as_deref())
        }));
        match result {
            Ok(Outcome::Ok(data)) => {
                shared.breaker.record_success();
                Metrics::bump(&shared.metrics.completed_ok);
                shared.write_response(&job.out, &Response::ok(id, shared.breaker_state(), data));
                return;
            }
            Ok(Outcome::Degraded(data, _reason)) => {
                // The handler coped (partial Monte-Carlo under deadline);
                // the service is healthy even if the answer is partial.
                shared.breaker.record_success();
                Metrics::bump(&shared.metrics.degraded_served);
                shared.write_response(
                    &job.out,
                    &Response::degraded(id, shared.breaker_state(), data),
                );
                return;
            }
            Ok(Outcome::BadRequest(message)) => {
                // No verdict on the protected path — the request never
                // reached it. If this admission was the half-open probe,
                // free the slot instead of wedging the breaker.
                shared.breaker.release_probe();
                Metrics::bump(&shared.metrics.bad_requests);
                shared.write_response(
                    &job.out,
                    &Response::error(id, shared.breaker_state(), ErrorKind::BadRequest, message),
                );
                return;
            }
            Ok(Outcome::TimedOut(message)) => {
                Metrics::bump(&shared.metrics.timeouts_handler);
                shared.breaker.record_failure();
                shared.write_response(
                    &job.out,
                    &Response::error(id, shared.breaker_state(), ErrorKind::Timeout, message),
                );
                return;
            }
            Ok(Outcome::Failed(message)) => {
                shared.breaker.record_failure();
                if !retry_or_give_up(shared, job, &mut attempt) {
                    Metrics::bump(&shared.metrics.handler_failures);
                    shared.write_response(
                        &job.out,
                        &Response::error(
                            id,
                            shared.breaker_state(),
                            ErrorKind::HandlerFailed,
                            format!("{message} (after {attempt} attempt(s))"),
                        ),
                    );
                    return;
                }
            }
            Err(panic_payload) => {
                Metrics::bump(&shared.metrics.handler_panics);
                shared.breaker.record_failure();
                let what = panic_message(panic_payload.as_ref());
                if !retry_or_give_up(shared, job, &mut attempt) {
                    Metrics::bump(&shared.metrics.handler_failures);
                    shared.write_response(
                        &job.out,
                        &Response::error(
                            id,
                            shared.breaker_state(),
                            ErrorKind::Panic,
                            format!("handler panicked: {what} (after {attempt} attempt(s))"),
                        ),
                    );
                    return;
                }
            }
        }
    }
}

/// Decide whether another attempt is worth making; sleeps the backoff
/// when it is. Returns `false` when the retry budget or the deadline is
/// exhausted.
fn retry_or_give_up(shared: &Arc<Shared>, job: &Job, attempt: &mut u32) -> bool {
    if *attempt >= shared.config.retry.max_retries {
        return false;
    }
    *attempt += 1;
    let backoff = shared
        .config
        .retry
        .backoff("serve.handler", job.seq, *attempt);
    if Instant::now() + backoff >= job.deadline {
        return false;
    }
    Metrics::bump(&shared.metrics.handler_retries);
    std::thread::sleep(backoff);
    true
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}
