//! **rap-serve** — a hardened TCP + line-delimited-JSON query service
//! over the RAP toolkit.
//!
//! One request line in, exactly one response line out — under load, under
//! injected panics, under deadline pressure, and through a graceful
//! drain. The robustness envelope, layer by layer:
//!
//! * [`queue`] — a bounded job queue with explicit admission control:
//!   a full queue sheds with a structured `429`-style response instead
//!   of queueing unboundedly or dropping silently;
//! * [`server`] — the std-only runtime (no async framework), layered as
//!   transport (sockets, line framing, connection caps) → routing
//!   (inline vs queued dispatch, deadline/breaker/retry policies) →
//!   handler: acceptor, per-connection reader threads, a fixed worker
//!   pool, per-request deadlines with cooperative cancellation,
//!   per-worker panic isolation (`catch_unwind` + bounded seed-keyed
//!   retries), and a circuit breaker that trips on consecutive
//!   panics/timeouts;
//! * [`handler`] — command dispatch into the workspace crates, with the
//!   `serve.handler` failpoint at its entry so the chaos suite can
//!   inject faults exactly where real bugs would land. When the breaker
//!   is open, static-scheme `pattern` queries degrade to the static
//!   analyzer's certified `[lo, hi]` congestion bounds and `synthesize` queries to
//!   the best known static scheme's certified bound (`degraded:true`)
//!   rather than erroring;
//! * [`protocol`] — the wire types: hand-parsed requests whose names
//!   become typed fields at parse time, with contextual validation
//!   errors; responses with stable error kinds and codes;
//! * [`metrics`] — counters whose conservation law
//!   (`received == ok + degraded + errors`) is the chaos suite's
//!   zero-lost-requests proof;
//! * [`client`] — a small blocking client used by `rap query`, the
//!   end-to-end tests, and the soak harness.
//!
//! ```no_run
//! use rap_serve::{Client, Server, ServerConfig};
//!
//! let handle = Server::bind(ServerConfig::default())?.spawn()?;
//! let mut client = Client::connect(handle.addr())?;
//! let resp = client.roundtrip(
//!     r#"{"cmd":"pattern","pattern":"stride","scheme":"rap","width":32}"#,
//! )?;
//! assert!(resp.ok);
//! handle.begin_shutdown();
//! let report = handle.join(); // drain: every queued request answered
//! assert!(report.metrics.conserves_responses());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod handler;
pub mod metrics;
pub mod protocol;
pub mod queue;
mod routing;
pub mod server;
mod transport;

pub use client::Client;
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{Command, ErrorKind, PatternScheme, Request, Response, WireError, MAX_WIDTH};
pub use queue::{BoundedQueue, PushError};
pub use server::{AdaptOptions, DrainReport, Server, ServerConfig, ServerHandle};

/// Fail plans are process-global, so the unit tests share one lock:
/// a test that installs a plan holds it exclusively, and every test
/// that runs a handler — directly or through a server — holds it
/// shared, so no handler ever fires a failpoint planted for another
/// test.
#[cfg(test)]
mod test_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static FAIL_PLANS: RwLock<()> = RwLock::new(());

    /// Held by tests that run handlers.
    pub(crate) fn handlers() -> RwLockReadGuard<'static, ()> {
        FAIL_PLANS.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Held by tests that install a fail plan.
    pub(crate) fn fail_plans() -> RwLockWriteGuard<'static, ()> {
        FAIL_PLANS.write().unwrap_or_else(PoisonError::into_inner)
    }
}
