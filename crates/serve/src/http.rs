//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the inference server, with hard caps so a hostile client cannot make
//! the server allocate unboundedly.
//!
//! Since the keep-alive rework the server frames **multiple requests
//! per connection** (see [`crate::conn::ConnReader`]); this module owns
//! the request/response wire format itself: head parsing with strict
//! duplicate-header rules, typed read errors with their HTTP statuses,
//! and response rendering with an explicit connection disposition.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum bytes of request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum request body bytes (a ~1k-row batch is well under this).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Total wall-clock budget for reading one request, measured from its
/// first byte. The per-read timeout alone does not bound the whole
/// request: a slow-loris client trickling one byte every few seconds
/// resets it on every read and could pin a worker for hours. The
/// deadline caps the sum.
pub const READ_DEADLINE: Duration = Duration::from_secs(10);

/// Longest a single `read()` may block (sharpened near the deadline so
/// the loop observes it promptly).
const PER_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Failpoint armed while writing responses
/// (`HAMLET_FAILPOINTS=serve.response_write=io`).
pub const WRITE_FAILPOINT: &str = "serve.response_write";

/// A parsed request: method, path, body, and the client's connection
/// disposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method, uppercase as received.
    pub method: String,
    /// Request path (query strings are not used by this server).
    pub path: String,
    /// Raw body bytes (empty when no Content-Length).
    pub body: Vec<u8>,
    /// The client asked this to be the connection's last request
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// Why a request could not be read. The connection handler maps these
/// onto 400/413/408 responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The socket failed or closed mid-request.
    Io(String),
    /// The request line or headers are malformed.
    Malformed(String),
    /// Head or body exceeded its cap.
    TooLarge(&'static str),
    /// The client did not deliver the full request within the deadline
    /// (slow-loris defense).
    TooSlow,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "socket error: {e}"),
            ReadError::Malformed(e) => write!(f, "malformed request: {e}"),
            ReadError::TooLarge(what) => write!(f, "{what} exceeds the server limit"),
            ReadError::TooSlow => write!(f, "request was not fully received within the deadline"),
        }
    }
}

impl ReadError {
    /// The HTTP status the handler should answer with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ReadError::Io(_) => (400, "Bad Request"),
            ReadError::Malformed(_) => (400, "Bad Request"),
            ReadError::TooLarge(_) => (413, "Payload Too Large"),
            ReadError::TooSlow => (408, "Request Timeout"),
        }
    }
}

/// One deadline-aware read: blocks at most until the overall deadline
/// (or [`PER_READ_TIMEOUT`], whichever is sooner). A stall past either
/// bound is [`ReadError::TooSlow`].
pub(crate) fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    started: Instant,
    deadline: Duration,
) -> Result<usize, ReadError> {
    let remaining = deadline
        .checked_sub(started.elapsed())
        .filter(|r| !r.is_zero())
        .ok_or(ReadError::TooSlow)?;
    let _ = stream.set_read_timeout(Some(remaining.min(PER_READ_TIMEOUT)));
    match stream.read(chunk) {
        Ok(n) => Ok(n),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(ReadError::TooSlow)
        }
        Err(e) => Err(ReadError::Io(e.to_string())),
    }
}

/// A parsed request head: everything framing needs before the body.
pub(crate) struct Head {
    pub method: String,
    pub path: String,
    pub content_length: usize,
    pub close: bool,
}

/// Parses the head bytes (request line + headers, *excluding* the
/// terminating blank line).
///
/// Strictness rules that matter once pipelining exists:
///
/// * **Duplicate `Content-Length` headers with conflicting values are
///   rejected** ([`ReadError::Malformed`]). Letting the last one win —
///   what the pre-keep-alive parser did — is a request-smuggling-class
///   bug: an intermediary that honours the first value and a server
///   that honours the last disagree on where the next request starts.
///   Identical duplicates are tolerated per RFC 7230 §3.3.2.
/// * **`Transfer-Encoding` is refused outright.** This server never
///   advertised chunked support, and a body whose length is governed by
///   anything other than `Content-Length` would desynchronize the
///   pipeline framing.
pub(crate) fn parse_head(bytes: &[u8]) -> Result<Head, ReadError> {
    let head = String::from_utf8_lossy(bytes);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no path".into()))?
        .to_string();
    // HTTP/1.0 defaults to one request per connection; 1.1 to keep-alive.
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut close = version.eq_ignore_ascii_case("HTTP/1.0");

    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let v: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed(format!("bad Content-Length '{value}'")))?;
                match content_length {
                    Some(prev) if prev != v => {
                        return Err(ReadError::Malformed(format!(
                            "conflicting duplicate Content-Length headers ({prev} vs {v})"
                        )))
                    }
                    _ => content_length = Some(v),
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ReadError::Malformed(
                    "Transfer-Encoding is not supported; send a Content-Length body".into(),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    Ok(Head {
        method,
        path,
        content_length: content_length.unwrap_or(0),
        close,
    })
}

/// Finds the `\r\n\r\n` head terminator, scanning only from `from`
/// onward (minus the 3 bytes a split terminator could straddle). The
/// caller advances `from` as bytes arrive, so a trickled head is scanned
/// in O(head) total instead of O(head²).
pub(crate) fn find_head_end_from(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.saturating_sub(3);
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| start + p)
}

/// Reads one request from the stream: head until `\r\n\r\n`, then a
/// `Content-Length` body, all within `deadline`.
///
/// This is the single-shot convenience wrapper over
/// [`crate::conn::ConnReader`]; the server itself holds a `ConnReader`
/// per connection so pipelined bytes past the first request are not
/// swallowed. An EOF or idle timeout before the first byte maps to
/// [`ReadError::Malformed`] here (the caller asked for exactly one
/// request).
pub fn read_request(stream: &mut TcpStream, deadline: Duration) -> Result<Request, ReadError> {
    match crate::conn::ConnReader::new().next_request(stream, deadline, deadline)? {
        Some(req) => Ok(req),
        None => Err(ReadError::Malformed(
            "connection closed before the end of headers".into(),
        )),
    }
}

/// Writes one response and flushes. `keep_open` selects the
/// `Connection:` disposition — the server keeps the socket for more
/// requests only when it answered `keep-alive`. Carries the
/// `serve.response_write` failpoint so the chaos harness can sever the
/// write path.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_open: bool,
) -> std::io::Result<()> {
    write_response_with(stream, status, reason, content_type, body, keep_open, &[])
}

/// [`write_response`] plus caller-supplied response headers (e.g.
/// `X-Hamlet-Degraded: true` on surrogate answers). Header names and
/// values are emitted verbatim; callers pass static, known-safe pairs.
#[allow(clippy::too_many_arguments)]
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_open: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    hamlet_chaos::fail_at!(WRITE_FAILPOINT)?;
    let connection = if keep_open { "keep-alive" } else { "close" };
    // Head and body go out in ONE write: a separate small body write
    // after the head trips Nagle + delayed-ACK on keep-alive
    // connections, turning a microsecond response into a ~40ms stall.
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `read_request` against raw bytes pushed over a loopback
    /// socket pair.
    fn read_from_bytes(bytes: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(bytes).unwrap();
        // Shut down the write half so a truncated request reads EOF
        // instead of blocking.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, Duration::from_secs(5))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read_from_bytes(
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n[[0,1]]",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"[[0,1]]");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = read_from_bytes(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_close_and_http10_are_honored() {
        let req = read_from_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        let req = read_from_bytes(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = read_from_bytes(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(!req.close, "HTTP/1.0 + keep-alive token stays open");
    }

    #[test]
    fn header_name_case_is_ignored() {
        let req = read_from_bytes(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi").unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        // Request-smuggling-class input: two different Content-Length
        // values. The old parser let the last one win; with pipelining
        // that desynchronizes request boundaries, so it must be a typed
        // 400 instead.
        let err = read_from_bytes(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhihello",
        )
        .unwrap_err();
        match &err {
            ReadError::Malformed(m) => assert!(m.contains("conflicting"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert_eq!(err.status().0, 400);
        // Identical duplicates are tolerated (RFC 7230 §3.3.2).
        let req =
            read_from_bytes(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
                .unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let err =
            read_from_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
                .unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn truncated_requests_are_typed_errors() {
        assert!(matches!(
            read_from_bytes(b"POST /predict HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read_from_bytes(b"GET /healthz HTTP"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match read_from_bytes(head.as_bytes()) {
            Err(e @ ReadError::TooLarge(_)) => assert_eq!(e.status().0, 413),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn slow_loris_hits_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A client trickling one byte at a time, each read well inside
        // any per-read timeout, never finishing the head.
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            for b in b"POST /predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
                .iter()
                .cycle()
            {
                if c.write_all(&[*b]).is_err() {
                    return; // server gave up — expected
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let started = std::time::Instant::now();
        let err = read_request(&mut server_side, Duration::from_millis(250)).unwrap_err();
        assert_eq!(err, ReadError::TooSlow);
        assert_eq!(err.status().0, 408);
        // The worker was released promptly, not after hours.
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(server_side);
        client.join().unwrap();
    }

    #[test]
    fn bad_content_length_is_malformed() {
        assert!(matches!(
            read_from_bytes(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn find_head_end_scan_offset_never_misses_a_split_terminator() {
        // The terminator may straddle any read boundary; re-scanning
        // from `len - 3` must still find it.
        let full = b"GET / HTTP/1.1\r\nH: v\r\n\r\nrest";
        for cut in 1..full.len() {
            let mut buf = full[..cut].to_vec();
            let mut scanned = 0;
            let mut found = find_head_end_from(&buf, scanned);
            if found.is_none() {
                scanned = buf.len();
                buf.extend_from_slice(&full[cut..]);
                found = find_head_end_from(&buf, scanned);
            }
            assert_eq!(found, Some(20), "cut at {cut}");
        }
    }

    #[test]
    fn responses_carry_the_requested_disposition() {
        let _fp = hamlet_chaos::failpoint::shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        write_response(&mut server_side, 200, "OK", "text/plain", "hi", true).unwrap();
        write_response(&mut server_side, 200, "OK", "text/plain", "hi", false).unwrap();
        drop(server_side);
        let mut out = String::new();
        let mut c = client;
        std::io::Read::read_to_string(&mut c, &mut out).unwrap();
        assert!(out.contains("Connection: keep-alive"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
    }

    #[test]
    fn extra_headers_land_in_the_head_not_the_body() {
        let _fp = hamlet_chaos::failpoint::shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        write_response_with(
            &mut server_side,
            200,
            "OK",
            "application/json",
            "{}",
            true,
            &[("X-Hamlet-Degraded", "true")],
        )
        .unwrap();
        drop(server_side);
        let mut out = String::new();
        let mut c = client;
        std::io::Read::read_to_string(&mut c, &mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("X-Hamlet-Degraded: true"), "{head}");
        assert_eq!(body, "{}");
    }
}
