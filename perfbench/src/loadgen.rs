//! Open-loop load generator for the line-JSON protocol.
//!
//! Requests go out on a fixed schedule whether or not earlier ones were
//! answered, the way independent users arrive. Each connection has one
//! thread that sends each request when it is due and one that reads
//! responses as they arrive; responses are matched to requests by their
//! echoed `id`, so pipelined replies may come back in any order.
//!
//! Latency is measured from when a request was **due**, not from when it
//! was sent: a stall in the server (or in this generator) is then charged
//! to every request queued behind it, instead of hiding as a late send.
//! How late the generator itself ran is reported separately.
//!
//! Response lines are kept raw: the generator only extracts the echoed
//! id, so its per-response cost stays far below the server's and it can
//! keep its schedule. Checking the lines happens after the run.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scheduled request: its offset from the schedule start and the
/// index of its request template.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Due time, relative to the schedule start.
    pub due: Duration,
    /// Index into the template list.
    pub template: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Template index of the request.
    pub template: usize,
    /// When the request was due.
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Option<Instant>,
    /// When its response was read.
    pub recv: Option<Instant>,
    /// The response line, without its newline.
    pub line: Option<String>,
}

impl Outcome {
    /// Latency from the due time, in ms (`None` if never answered).
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv
            .map(|r| r.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the request was sent, in ms.
    #[must_use]
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// Answered with `ok:true` and not degraded.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.line.as_deref().is_some_and(is_success)
    }
}

/// Whether a response line reads `ok:true` and `degraded:false` (the
/// server writes the fields in that order right after the id).
#[must_use]
pub fn is_success(line: &str) -> bool {
    line.split_once(',')
        .is_some_and(|(_, rest)| rest.starts_with("\"ok\":true,\"degraded\":false,"))
}

/// The id echoed at the start of a response line (`{"id":N,…`).
#[must_use]
pub fn line_id(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// A schedule of `n` requests at a fixed `rate` per second, templates
/// drawn by `pick`.
#[must_use]
pub fn fixed_rate(rate: f64, n: usize, mut pick: impl FnMut() -> usize) -> Vec<Slot> {
    (0..n)
        .map(|i| Slot {
            due: Duration::from_secs_f64(i as f64 / rate),
            template: pick(),
        })
        .collect()
}

/// The request line for `template` carrying correlation id `id`.
fn with_id(template: &str, id: u64) -> String {
    let body = template.trim().strip_prefix('{').unwrap_or(template);
    format!("{{\"id\":{id},{body}\n")
}

/// Run `schedule` against `addr` over `connections` connections (slot
/// `i` goes to connection `i % connections`). Each connection has a
/// sender thread, which sleeps until each request is due, and a receiver
/// thread, which blocks on the socket and timestamps each response as it
/// arrives. Waits up to `grace` after the last due time for outstanding
/// responses. The returned outcomes are in schedule order; request ids
/// are schedule positions.
///
/// # Errors
/// A connection that cannot be opened or a generator thread that failed.
pub fn run(
    addr: SocketAddr,
    templates: &[String],
    schedule: &[Slot],
    connections: usize,
    grace: Duration,
) -> Result<Vec<Outcome>, String> {
    let connections = connections.max(1);
    let streams = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            let r = s.try_clone().map_err(|e| format!("clone socket: {e}"))?;
            Ok((s, r))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + schedule.last().map_or(Duration::ZERO, |s| s.due) + grace;
    let mut outcomes: Vec<Outcome> = schedule
        .iter()
        .map(|s| Outcome {
            template: s.template,
            due: start + s.due,
            sent: None,
            recv: None,
            line: None,
        })
        .collect();
    let (sent, received) = std::thread::scope(|scope| {
        let outcomes = &outcomes;
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for (c, (writer, reader)) in streams.into_iter().enumerate() {
            let mine: Vec<usize> = (c..schedule.len()).step_by(connections).collect();
            let ids = mine.len();
            senders.push(scope.spawn(move || send_loop(writer, &mine, outcomes, templates)));
            receivers.push(scope.spawn(move || recv_loop(reader, ids, end)));
        }
        let panicked = |_| "load-generator thread panicked".to_string();
        let sent: Vec<_> = senders
            .into_iter()
            .map(|h| h.join().map_err(panicked))
            .collect();
        let received: Vec<_> = receivers
            .into_iter()
            .map(|h| h.join().map_err(panicked))
            .collect();
        (sent, received)
    });
    for part in sent {
        for (idx, t) in part?? {
            outcomes[idx].sent = Some(t);
        }
    }
    for part in received {
        for (id, t, line) in part?? {
            if let Some(o) = outcomes.get_mut(id as usize) {
                o.recv = Some(t);
                o.line = Some(line);
            }
        }
    }
    Ok(outcomes)
}

/// Send this connection's requests, each when it is due. Returns the
/// send time of each slot.
fn send_loop(
    mut stream: TcpStream,
    mine: &[usize],
    outcomes: &[Outcome],
    templates: &[String],
) -> Result<Vec<(usize, Instant)>, String> {
    let mut sent = Vec::with_capacity(mine.len());
    for &slot in mine {
        let due = outcomes[slot].due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let line = with_id(&templates[outcomes[slot].template], slot as u64);
        stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        sent.push((slot, Instant::now()));
    }
    Ok(sent)
}

/// Read `expected` response lines (or until `end`), timestamping each
/// read as it returns. Returns `(id, received, line)` per response.
fn recv_loop(
    mut stream: TcpStream,
    expected: usize,
    end: Instant,
) -> Result<Vec<(u64, Instant, String)>, String> {
    let mut got = Vec::with_capacity(expected);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("read timeout: {e}"))?;
    while got.len() < expected && Instant::now() < end {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let t = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
                    let line = &buf[start..start + pos];
                    if let Some(id) = line_id(line) {
                        got.push((id, t, String::from_utf8_lossy(line).into_owned()));
                    }
                    start += pos + 1;
                }
                buf.drain(..start);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that answers every request instantly, except that it
    /// stalls for `stall` before reading the first one.
    fn stalled_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut out = stream.try_clone().expect("clone");
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let id: u64 = line
                    .split_once("\"id\":")
                    .and_then(|(_, r)| r.split(',').next())
                    .and_then(|n| n.parse().ok())
                    .expect("id");
                let reply = format!(
                    "{{\"id\":{id},\"ok\":true,\"degraded\":false,\"breaker\":\"closed\",\"data\":null,\"error\":null}}\n"
                );
                if out.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_the_requests_behind_it() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalled_server(stall);
        let templates = vec![r#"{"cmd":"health"}"#.to_string()];
        // 1000 req/s for 0.3 s: requests due during the stall queue up.
        let schedule = fixed_rate(1000.0, 300, || 0);
        let out = run(addr, &templates, &schedule, 1, Duration::from_secs(2)).expect("run");
        server.join().expect("server thread");
        assert!(out.iter().all(Outcome::succeeded), "every request answered");
        for (i, o) in out.iter().enumerate() {
            let due_offset = i as f64; // ms
            let lat = o.latency_ms().expect("answered");
            if due_offset < 150.0 {
                // Charged the remaining stall, though sent on time.
                assert!(
                    lat >= 200.0 - due_offset - 15.0,
                    "request {i} due at {due_offset} ms saw only {lat:.1} ms"
                );
                assert!(
                    o.late_ms().expect("sent") < 50.0,
                    "the generator kept its schedule"
                );
            }
        }
        // After the stall the queue drains and latency returns to ~0.
        assert!(out[299].latency_ms().expect("answered") < 50.0);
    }

    #[test]
    fn response_lines_are_read_without_parsing() {
        let ok = r#"{"id":12,"ok":true,"degraded":false,"breaker":"closed","data":1,"error":null}"#;
        assert_eq!(line_id(ok.as_bytes()), Some(12));
        assert!(is_success(ok));
        assert!(!is_success(
            &ok.replace("\"degraded\":false", "\"degraded\":true")
        ));
        assert_eq!(line_id(b"{\"id\":null,\"ok\":false}"), None);
    }

    #[test]
    fn template_gets_the_correlation_id() {
        assert_eq!(
            with_id(r#"{"cmd":"stats"}"#, 9),
            "{\"id\":9,\"cmd\":\"stats\"}\n"
        );
    }
}
