//! A small blocking client for the line-delimited-JSON protocol.
//!
//! Used by `rap query`, the end-to-end tests, and the chaos soak. One
//! [`Client`] wraps one TCP connection; requests may be pipelined
//! (several [`Client::send`] calls before reading) and responses are
//! read one line at a time with a bounded read timeout so a wedged
//! server cannot hang the caller forever, and at most
//! [`MAX_RESPONSE_BYTES`] long so a peer that streams bytes without a
//! newline cannot grow the caller's memory without bound.

use crate::protocol::Response;
use crate::transport::{read_frame, Frame};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest response line a [`Client`] reads, newline excluded: 256 MiB.
/// The largest `layout` response, a padded matrix at the protocol's
/// layout width cap, is about 2.1 MB; a test builds it and reads it
/// through a client.
pub const MAX_RESPONSE_BYTES: usize = 1 << 28;

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect with the default 10-second read timeout.
    ///
    /// # Errors
    /// Propagates connect/socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with an explicit read timeout (`recv` returns an error of
    /// kind `WouldBlock`/`TimedOut` when it elapses).
    ///
    /// # Errors
    /// Propagates connect/socket errors.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        // Request lines are small; without this, Nagle holds the second
        // of two back-to-back small writes until the first is ACKed
        // (~40ms with delayed ACKs), capping a roundtrip loop at ~25/s.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line (the newline is appended here).
    ///
    /// # Errors
    /// Propagates write errors (server gone).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        // One write per request: line and newline in a single buffer so
        // the request leaves in one segment.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Read the next raw response line, terminator stripped; `None` on
    /// clean EOF.
    ///
    /// # Errors
    /// Read timeout surfaces as `WouldBlock`/`TimedOut`; a line longer
    /// than [`MAX_RESPONSE_BYTES`], or not UTF-8, as `InvalidData` (the
    /// connection is then mid-line and should be dropped).
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut buf = Vec::new();
        match read_frame(&mut self.reader, &mut buf, MAX_RESPONSE_BYTES)? {
            Frame::Closed => Ok(None),
            Frame::Oversize => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response line exceeds {MAX_RESPONSE_BYTES} bytes"),
            )),
            Frame::Line => String::from_utf8(buf)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
    }

    /// Read and parse the next response; `None` on clean EOF.
    ///
    /// # Errors
    /// Timeouts as in [`Self::recv_line`]; unparseable lines surface as
    /// `InvalidData`.
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        match self.recv_line()? {
            None => Ok(None),
            Some(line) => Response::parse(&line)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
    }

    /// Send one request and block for the next response line.
    ///
    /// Only safe when no other responses are in flight on this
    /// connection (no pipelining) — the next line is assumed to answer
    /// this request.
    ///
    /// # Errors
    /// I/O errors, timeouts, or `UnexpectedEof` if the server closed.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<Response> {
        self.send(line)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{self, Outcome};
    use crate::protocol::Command;
    use crate::test_lock;
    use rap_access::CancelToken;
    use rap_core::Scheme;
    use std::io::Read;
    use std::net::TcpListener;

    /// A one-connection fake server: reads one request line, then writes
    /// `reply` (whatever it returns) until it returns `None` or the
    /// client hangs up.
    fn fake_server(
        mut reply: impl FnMut() -> Option<Vec<u8>> + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut byte = [0u8; 1];
            while stream.read(&mut byte).is_ok_and(|n| n == 1) && byte[0] != b'\n' {}
            while let Some(chunk) = reply() {
                if stream.write_all(&chunk).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    /// A peer that streams bytes and never a newline: the client stops
    /// at the cap with `InvalidData` instead of buffering forever.
    #[test]
    fn a_response_without_newline_is_refused_at_the_cap() {
        let chunk = vec![b'x'; 1 << 16];
        let (addr, server) = fake_server(move || Some(chunk.clone()));
        let mut client = Client::connect(addr).expect("connect");
        let err = client.roundtrip(r#"{"cmd":"health"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        drop(client);
        server
            .join()
            .expect("the fake server stops once the client hangs up");
    }

    /// The largest admissible `layout` response — padded at the width
    /// cap, with the longest id and breaker state — is read through a
    /// client and sits far below the cap.
    #[test]
    fn the_largest_layout_response_is_far_below_the_cap() {
        let data = {
            let _g = test_lock::handlers();
            let layout = Command::Layout {
                scheme: Scheme::Padded,
                width: crate::protocol::MAX_LAYOUT_WIDTH,
                seed: u64::MAX,
            };
            match handler::execute(&layout, &CancelToken::never(), None) {
                Outcome::Ok(data) => data,
                other => panic!("layout failed: {other:?}"),
            }
        };
        let expected = Response::ok(Some(u64::MAX), "half-open", data);
        // `to_line` appends the newline the cap does not count.
        let line = expected.to_line().into_bytes();
        assert!(
            (2_000_000..=MAX_RESPONSE_BYTES / 64).contains(&(line.len() - 1)),
            "largest layout response is {} bytes",
            line.len() - 1
        );
        let mut reply = Some(line);
        let (addr, server) = fake_server(move || reply.take());
        let mut client = Client::connect(addr).expect("connect");
        let got = client
            .roundtrip(r#"{"cmd":"layout"}"#)
            .expect("the largest legal response is read");
        assert_eq!(got, expected);
        server.join().expect("fake server");
    }
}
