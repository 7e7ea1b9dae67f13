//! The transport layer: sockets, line framing, and connection lifecycle.
//!
//! Everything below the wire protocol lives here — accepting
//! connections (with a hard cap and a structured one-line refusal),
//! reading newline-delimited request lines (each capped at
//! [`MAX_REQUEST_BYTES`]), and writing response lines
//! through a per-connection [`SharedWriter`] so pipelined responses
//! never interleave bytes. Nothing in this module interprets a command:
//! a parsed [`Request`](crate::protocol::Request) is handed straight to
//! [`routing::dispatch`](crate::routing::dispatch), and malformed lines
//! are answered here with a contextual `bad_request` because no other
//! layer will ever see them.
//!
//! The split matters for reuse: `rap-cluster`'s coordinator speaks to
//! workers through [`Client`](crate::client::Client) and
//! [`protocol`](crate::protocol) alone — of this server transport it
//! uses only the capped line reader, [`read_frame`] — while the server
//! side composes transport → routing → handler.

use crate::metrics::Metrics;
use crate::protocol::{ErrorKind, Request, Response};
use crate::routing;
use crate::server::Shared;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One writer per connection, shared by its reader thread and every
/// worker holding one of its jobs. Locking per line keeps responses to
/// pipelined requests from interleaving bytes.
pub(crate) type SharedWriter = Arc<Mutex<TcpStream>>;

/// Write one response line to a shared connection writer.
///
/// # Errors
/// Propagates socket write errors (the client vanished); the caller
/// decides how to account for the lost bytes.
pub(crate) fn send_line(out: &SharedWriter, line: &str) -> std::io::Result<()> {
    let mut guard = out
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard
        .write_all(line.as_bytes())
        .and_then(|()| guard.flush())
}

/// Accept connections until shutdown, spawning one reader thread per
/// connection and refusing (with a structured `shed` line) past the cap.
pub(crate) fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Response lines are small; never let Nagle sit on one.
                let _ = stream.set_nodelay(true);
                if shared.connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    Metrics::bump(&shared.metrics.connections_refused);
                    refuse_connection(shared, stream);
                    continue;
                }
                Metrics::bump(&shared.metrics.connections);
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                // Connection threads are deliberately not joined: they sit
                // in blocking reads owned by clients. They exit on client
                // EOF and only account for already-counted work.
                let _ = std::thread::Builder::new()
                    .name("rap-serve-conn".to_string())
                    .spawn(move || {
                        connection_loop(&shared, stream);
                        shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn refuse_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let out: SharedWriter = Arc::new(Mutex::new(stream));
    shared.write_response(
        &out,
        &Response::error(
            None,
            shared.breaker_state(),
            ErrorKind::Shed,
            format!(
                "connection limit ({}) reached; retry later",
                shared.config.max_connections
            ),
        ),
    );
}

/// Longest request line the server reads, newline excluded. Every
/// command fits in a few hundred bytes; the cap only has to stop a
/// client that never sends a newline from growing the line buffer
/// without bound.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One framed read from a connection.
pub(crate) enum Frame {
    /// A complete line (or the final unterminated one before EOF), with
    /// the `\n` or `\r\n` terminator stripped.
    Line,
    /// More than the cap without a newline.
    Oversize,
    /// End of stream.
    Closed,
}

/// Read one line into `buf`, never buffering more than `max + 1` bytes
/// of it: the server's request reader and [`Client`](crate::Client)'s
/// response reader share this framing, each with its own cap.
///
/// # Errors
/// Propagates read errors (timeouts included).
pub(crate) fn read_frame(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<Frame> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', buf)?;
    Ok(if n == 0 {
        Frame::Closed
    } else if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        Frame::Line
    } else if buf.len() > max {
        Frame::Oversize
    } else {
        Frame::Line
    })
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: SharedWriter = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_frame(&mut reader, &mut buf, MAX_REQUEST_BYTES) {
            Ok(Frame::Closed) | Err(_) => break,
            Ok(Frame::Oversize) => {
                // The rest of the line is never read: answer, then close
                // the connection (once in-flight responses are written).
                Metrics::bump(&shared.metrics.received);
                Metrics::bump(&shared.metrics.bad_requests);
                shared.write_response(
                    &out,
                    &Response::error(
                        None,
                        shared.breaker_state(),
                        ErrorKind::BadRequest,
                        format!(
                            "request line exceeds {MAX_REQUEST_BYTES} bytes; closing connection"
                        ),
                    ),
                );
                break;
            }
            Ok(Frame::Line) => match std::str::from_utf8(&buf) {
                Ok(line) => line,
                Err(_) => break,
            },
        };
        if line.trim().is_empty() {
            continue;
        }
        Metrics::bump(&shared.metrics.received);
        match Request::parse(line) {
            Err(message) => {
                Metrics::bump(&shared.metrics.bad_requests);
                shared.write_response(
                    &out,
                    &Response::error(None, shared.breaker_state(), ErrorKind::BadRequest, message),
                );
            }
            Ok(request) => routing::dispatch(shared, request, &out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(input: &[u8]) -> Vec<Result<String, &'static str>> {
        let mut reader = BufReader::new(Cursor::new(input.to_vec()));
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_frame(&mut reader, &mut buf, MAX_REQUEST_BYTES).unwrap() {
                Frame::Line => out.push(Ok(String::from_utf8(buf.clone()).unwrap())),
                Frame::Oversize => {
                    out.push(Err("oversize"));
                    break;
                }
                Frame::Closed => break,
            }
        }
        out
    }

    #[test]
    fn frames_strip_terminators_like_lines() {
        assert_eq!(
            frames(b"a\nb\r\n\nlast"),
            vec![
                Ok("a".to_string()),
                Ok("b".to_string()),
                Ok(String::new()),
                Ok("last".to_string())
            ]
        );
        assert!(frames(b"").is_empty());
    }

    /// A line of exactly `MAX_REQUEST_BYTES` is accepted, terminated or
    /// not; one byte more without a newline is refused.
    #[test]
    fn frames_cap_the_line_at_max_request_bytes() {
        let mut at_cap = vec![b'x'; MAX_REQUEST_BYTES];
        assert_eq!(frames(&at_cap), vec![Ok("x".repeat(MAX_REQUEST_BYTES))]);
        at_cap.extend_from_slice(b"\nok\n");
        let got = frames(&at_cap);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], Ok("ok".to_string()));
        let over = vec![b'x'; MAX_REQUEST_BYTES + 1];
        assert_eq!(frames(&over), vec![Err("oversize")]);
        let over_then_line = [vec![b'y'; 2 * MAX_REQUEST_BYTES], b"\nok\n".to_vec()].concat();
        assert_eq!(frames(&over_then_line), vec![Err("oversize")]);
    }
}
