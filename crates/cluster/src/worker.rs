//! The worker pool: the rap-serve shards a coordinator dispatches to.
//!
//! Three backends, one interface:
//!
//! * **in-process** — [`rap_serve::Server`] instances inside this
//!   process, for unit tests and the conformance oracle (no binaries, no
//!   spawn latency);
//! * **spawned processes** — real `rap serve` children on real sockets,
//!   each individually `kill -9`-able, for the chaos bench and CI soak;
//! * **external** — addresses of servers someone else runs.
//!
//! The pool tracks per-worker connection state behind one mutex per
//! worker. [`WorkerPool::kill`] is the chaos hook: it terminates the
//! backing server *without* telling the coordinator, which must discover
//! the death through failed requests and re-dispatch the worker's leases.

use rap_serve::{Client, Server, ServerConfig, ServerHandle};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The readiness line `rap serve` prints once bound; the pool parses the
/// actual address (port 0 requests) from its suffix.
pub const READY_PREFIX: &str = "rap-serve listening on ";

enum Backend {
    InProcess(Option<ServerHandle>),
    Process(Child),
    External,
}

/// Mutable connection state of one shard.
pub(crate) struct WorkerSlot {
    pub(crate) addr: SocketAddr,
    pub(crate) client: Option<Client>,
    /// The pipelined connection of this shard's sweep runner, parked
    /// between sweeps. A runner takes it for the whole sweep, so no
    /// other caller ever reads a response from it; probes and routed
    /// queries use `client`.
    pub(crate) sweep: Option<Client>,
    /// Set once the coordinator gives up on this shard.
    pub(crate) dead: bool,
    /// Successful reconnects after a dropped connection.
    pub(crate) reconnects: u64,
    /// Last probe saw an epoch swap in flight (`adapt_phase` was
    /// `proposed` or `migrating`): the shard still answers — from its
    /// old committed layout — but the router deprioritizes it until a
    /// probe sees the commit.
    pub(crate) migrating: bool,
}

impl WorkerSlot {
    /// Connect if not already connected. On failure the slot stays
    /// disconnected (`client == None`) and the error is returned.
    pub(crate) fn ensure_connected(&mut self, read_timeout: Duration) -> io::Result<()> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with_timeout(self.addr, read_timeout)?);
        }
        Ok(())
    }
}

/// A fixed set of worker shards (see the module docs).
pub struct WorkerPool {
    slots: Vec<Mutex<WorkerSlot>>,
    backends: Mutex<Vec<Backend>>,
}

fn slot_for(addr: SocketAddr) -> Mutex<WorkerSlot> {
    Mutex::new(WorkerSlot {
        addr,
        client: None,
        sweep: None,
        dead: false,
        reconnects: 0,
        migrating: false,
    })
}

impl WorkerPool {
    /// Spawn `n` in-process servers on loopback port 0.
    ///
    /// # Errors
    /// Propagates bind/spawn failures.
    pub fn in_process(n: usize) -> io::Result<Self> {
        Self::in_process_with(
            std::iter::repeat_with(ServerConfig::default)
                .take(n)
                .collect(),
        )
    }

    /// Spawn one in-process server per config (adaptive shards, custom
    /// queues — anything [`ServerConfig`] can express). `workers` is
    /// clamped to at least 2 so a shard never self-deadlocks in tests.
    ///
    /// # Errors
    /// Propagates bind/spawn failures.
    pub fn in_process_with(configs: Vec<ServerConfig>) -> io::Result<Self> {
        let mut slots = Vec::with_capacity(configs.len());
        let mut backends = Vec::with_capacity(configs.len());
        for config in configs {
            let handle = Server::bind(ServerConfig {
                workers: config.workers.max(2),
                ..config
            })?
            .spawn()?;
            slots.push(slot_for(handle.addr()));
            backends.push(Backend::InProcess(Some(handle)));
        }
        Ok(WorkerPool {
            slots,
            backends: Mutex::new(backends),
        })
    }

    /// Spawn `n` worker *processes* running `binary serve --addr
    /// 127.0.0.1:0`, waiting for each child's readiness line.
    ///
    /// # Errors
    /// Spawn failures, or a child that exits (or closes stdout) before
    /// printing [`READY_PREFIX`].
    pub fn spawn_processes(binary: &Path, n: usize) -> io::Result<Self> {
        let mut slots = Vec::with_capacity(n);
        let mut backends = Vec::with_capacity(n);
        for _ in 0..n {
            let mut child = Command::new(binary)
                .args(["serve", "--addr", "127.0.0.1:0"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .stdin(Stdio::null())
                .spawn()?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("child stdout was not captured"))?;
            let mut reader = BufReader::new(stdout);
            let addr = loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker exited before printing its readiness line",
                    ));
                }
                if let Some(rest) = line.trim().strip_prefix(READY_PREFIX) {
                    break rest.trim().parse::<SocketAddr>().map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable readiness address '{rest}': {e}"),
                        )
                    })?;
                }
            };
            // Keep the pipe drained so the child can never block on a
            // full stdout buffer mid-soak.
            std::thread::spawn(move || {
                let _ = io::copy(&mut reader.into_inner(), &mut io::sink());
            });
            slots.push(slot_for(addr));
            backends.push(Backend::Process(child));
        }
        Ok(WorkerPool {
            slots,
            backends: Mutex::new(backends),
        })
    }

    /// Wrap externally-managed servers.
    #[must_use]
    pub fn connect(addrs: &[SocketAddr]) -> Self {
        WorkerPool {
            slots: addrs.iter().copied().map(slot_for).collect(),
            backends: Mutex::new(addrs.iter().map(|_| Backend::External).collect()),
        }
    }

    /// Number of shards (alive or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool has no shards at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The listen addresses, by worker index.
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.slots.iter().map(|s| Self::lock_at(s).addr).collect()
    }

    fn lock_at(slot: &Mutex<WorkerSlot>) -> MutexGuard<'_, WorkerSlot> {
        slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn slot(&self, id: usize) -> MutexGuard<'_, WorkerSlot> {
        Self::lock_at(&self.slots[id])
    }

    /// Number of shards the coordinator has marked dead.
    #[must_use]
    pub fn dead_workers(&self) -> usize {
        self.slots.iter().filter(|s| Self::lock_at(s).dead).count()
    }

    /// Total successful reconnects across all shards.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.slots.iter().map(|s| Self::lock_at(s).reconnects).sum()
    }

    /// Chaos hook: terminate worker `id`'s backing server *without*
    /// marking the slot dead — the coordinator must notice on its own.
    /// Process workers get a real SIGKILL; in-process workers begin an
    /// immediate drain (new work is refused). Returns `false` for
    /// external workers, which this pool cannot kill.
    pub fn kill(&self, id: usize) -> bool {
        let mut backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
        match &mut backends[id] {
            Backend::Process(child) => {
                let _ = child.kill();
                let _ = child.wait();
                true
            }
            Backend::InProcess(handle) => {
                if let Some(h) = handle.as_ref() {
                    h.begin_shutdown();
                }
                true
            }
            Backend::External => false,
        }
    }

    /// Health-probe worker `id`: connect (if needed) and round-trip a
    /// `health` command, requiring `status:"ok"` — a *draining* server
    /// still answers probes but will refuse real work, so it counts as
    /// unhealthy here. A probe failure drops the cached connection but
    /// does not mark the shard dead.
    pub fn probe(&self, id: usize, read_timeout: Duration) -> bool {
        let mut slot = self.slot(id);
        if slot.dead {
            return false;
        }
        if slot.ensure_connected(read_timeout).is_err() {
            return false;
        }
        let health = slot
            .client
            .as_mut()
            .and_then(|c| c.roundtrip(r#"{"cmd":"health"}"#).ok());
        let ok = health.as_ref().is_some_and(health_ok);
        // Track the shard's swap phase as a side effect of the probe:
        // mid-migration shards are deprioritized by the router and
        // re-admitted by the first probe that sees the commit.
        slot.migrating = health.as_ref().is_some_and(health_migrating);
        if !ok {
            slot.client = None;
        }
        ok
    }

    /// Whether the last probe saw an epoch swap in flight on `id`.
    #[must_use]
    pub fn migrating(&self, id: usize) -> bool {
        self.slot(id).migrating
    }

    /// Shards whose last probe saw a swap in flight.
    #[must_use]
    pub fn migrating_workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| Self::lock_at(s).migrating)
            .count()
    }

    /// Gracefully stop every backend this pool owns: in-process servers
    /// drain and join; child processes are killed and reaped.
    pub fn shutdown(&self) {
        let mut backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
        for backend in backends.iter_mut() {
            match backend {
                Backend::InProcess(handle) => {
                    if let Some(h) = handle.take() {
                        h.begin_shutdown();
                        let _ = h.join();
                    }
                }
                Backend::Process(child) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Backend::External => {}
            }
        }
    }
}

/// True when a `health` response reports a server that will accept work.
fn health_ok(resp: &rap_serve::Response) -> bool {
    resp.ok
        && resp
            .data
            .as_ref()
            .and_then(serde::Value::as_object)
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == "status"))
            .is_some_and(|(_, v)| matches!(v, serde::Value::String(s) if s == "ok"))
}

/// True when a `health` response reports an epoch swap in flight
/// (`adapt_phase` of `proposed` or `migrating`; `null`/absent means the
/// shard does not adapt at all).
fn health_migrating(resp: &rap_serve::Response) -> bool {
    resp.data
        .as_ref()
        .and_then(serde::Value::as_object)
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == "adapt_phase"))
        .is_some_and(
            |(_, v)| matches!(v, serde::Value::String(s) if s == "proposed" || s == "migrating"),
        )
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Never leak child processes; in-process servers at least stop
        // accepting (joining in drop could block, so we don't).
        let mut backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
        for backend in backends.iter_mut() {
            match backend {
                Backend::Process(child) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Backend::InProcess(Some(h)) => h.begin_shutdown(),
                _ => {}
            }
        }
    }
}
