//! Starting and stopping the `rap serve` processes under test.
//!
//! The benchmark proper spawns the real `rap` binary and waits for its
//! readiness line. The package's own tests run the same workloads against
//! in-process servers, so they need no binary.

use rap_cluster::READY_PREFIX;
use rap_serve::{AdaptOptions, Client, Response, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// How servers are started.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// Spawn `<binary> serve …` child processes.
    Binary(PathBuf),
    /// Run servers on threads of this process (tests).
    InProcess,
}

/// Tile width of the adaptive controller (`--adapt-width`).
pub const ADAPT_WIDTH: usize = 32;

/// One running server.
pub struct ServerProc {
    /// The listening address.
    pub addr: SocketAddr,
    inner: Option<Inner>,
}

enum Inner {
    Child(Child, JoinHandle<()>),
    InProcess(ServerHandle),
}

impl Launcher {
    /// Start a server with `workers` worker threads, adaptive remapping
    /// at width [`ADAPT_WIDTH`] when `adapt` is set, and wait until it
    /// accepts connections.
    ///
    /// # Errors
    /// Spawn or bind failures, or a child exiting before its readiness
    /// line.
    pub fn start(&self, workers: usize, adapt: bool) -> Result<ServerProc, String> {
        match self {
            Launcher::Binary(bin) => {
                let workers_arg = workers.to_string();
                let width_arg = ADAPT_WIDTH.to_string();
                let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--workers", &workers_arg];
                if adapt {
                    args.extend(["--adapt", "--adapt-width", &width_arg]);
                }
                let mut child = Command::new(bin)
                    .args(&args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
                let stdout = child.stdout.take().expect("stdout is piped");
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                let ready = loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break None,
                        Ok(_) => {
                            if let Some(rest) = line.trim().strip_prefix(READY_PREFIX) {
                                break rest.trim().parse::<SocketAddr>().ok();
                            }
                        }
                    }
                };
                let Some(addr) = ready else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} serve exited before its readiness line",
                        bin.display()
                    ));
                };
                // Keep the pipe drained until the child exits.
                let drain = std::thread::spawn(move || {
                    let mut sink = Vec::new();
                    let _ = reader.read_to_end(&mut sink);
                });
                Ok(ServerProc {
                    addr,
                    inner: Some(Inner::Child(child, drain)),
                })
            }
            Launcher::InProcess => {
                let config = ServerConfig {
                    workers,
                    adapt: adapt.then(|| AdaptOptions {
                        config: rap_adapt::AdaptConfig {
                            width: ADAPT_WIDTH,
                            ..rap_adapt::AdaptConfig::default()
                        },
                        ledger: None,
                    }),
                    ..ServerConfig::default()
                };
                let handle = Server::bind(config)
                    .and_then(Server::spawn)
                    .map_err(|e| format!("in-process server: {e}"))?;
                Ok(ServerProc {
                    addr: handle.addr(),
                    inner: Some(Inner::InProcess(handle)),
                })
            }
        }
    }
}

impl ServerProc {
    /// Peak RSS of the server process in MB; for an in-process server,
    /// of this process.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        let pid = match &self.inner {
            Some(Inner::Child(c, _)) => Some(c.id()),
            _ => None,
        };
        crate::machine::peak_rss_mb(pid).unwrap_or(0.0)
    }

    /// Stop the server and wait until it has ended.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        match self.inner.take() {
            Some(Inner::Child(mut child, drain)) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
            }
            Some(Inner::InProcess(handle)) => {
                handle.begin_shutdown();
                let _ = handle.join();
            }
            None => {}
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One request/response round trip on a fresh connection.
///
/// # Errors
/// Connection or protocol failures.
pub fn query(addr: SocketAddr, line: &str) -> Result<Response, String> {
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .roundtrip(line)
        .map_err(|e| format!("{addr} {line}: {e}"))
}

/// A field of a JSON object by key.
#[must_use]
pub fn field<'v>(v: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A numeric field (`u64` or `f64`) as `f64`.
#[must_use]
pub fn num(v: &serde::Value, key: &str) -> Option<f64> {
    match field(v, key)? {
        serde::Value::U64(u) => Some(*u as f64),
        serde::Value::I64(i) => Some(*i as f64),
        serde::Value::F64(f) => Some(*f),
        _ => None,
    }
}
