//! Minimal HTTP/1.1 framing over `std::io` streams and byte buffers.
//!
//! Only what the scenario service needs: request parsing with hard limits
//! (request-line/header size, header count, total header bytes, body
//! size), `Content-Length` bodies, keep-alive semantics, and response
//! writing. No multipart, no TLS — the service speaks plain HTTP/1.1 so
//! any client (curl included) can drive it, while the implementation
//! stays pure std per the hermetic-build policy (DESIGN.md §8).
//!
//! Two request-parsing entry points share one head parser:
//!
//! * [`read_request`] — blocking, over a [`BufRead`] stream; used by the
//!   thread-per-connection fallback server and by tests;
//! * [`try_parse`] — incremental, over a byte buffer that may hold a
//!   partial request (or several pipelined ones); used by the epoll event
//!   loop, which appends readable bytes and re-parses until a complete
//!   request is available.
//!
//! Responses carry either an owned body or an [`Arc`]-shared one
//! ([`Body`]): the deterministic result cache hands out shared payloads,
//! so a cache hit is served without copying the stored bytes.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Hard cap on one request-line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Hard cap on the number of headers per request.
const MAX_HEADERS: usize = 64;
/// Hard cap on the whole head (request line + headers + separators), in
/// bytes. Exceeding it answers 431 — a slow-loris client dribbling header
/// bytes can hold at most this much buffer per connection.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (including read timeouts) — close the connection.
    Io(io::Error),
    /// The bytes were not a well-formed request — answer 400 and close.
    Malformed(String),
    /// A limit was exceeded — answer 413 and close.
    TooLarge(&'static str),
    /// The head exceeded [`MAX_HEAD_BYTES`] — answer 431 and close.
    HeadersTooLarge,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path without the query string (routing ignores `?…`).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Should the connection stay open after the response?
    pub keep_alive: bool,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Err(HttpError::Malformed("connection closed mid-line".into()));
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            break;
        }
        buf.extend_from_slice(chunk);
        let len = chunk.len();
        reader.consume(len);
        if buf.len() > MAX_LINE {
            return Err(HttpError::TooLarge("header line too long"));
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    if buf.len() > MAX_LINE {
        return Err(HttpError::TooLarge("header line too long"));
    }
    String::from_utf8(buf).map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))
}

/// Builds a bodyless [`Request`] from the head lines (request line first,
/// then header lines, terminator already stripped). Shared by the blocking
/// and the incremental parser so both enforce identical rules.
fn build_head(lines: &[String]) -> Result<Request, HttpError> {
    let request_line = lines
        .first()
        .ok_or_else(|| HttpError::Malformed("empty request head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing version".into()))?;
    if parts.next().is_some() || !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(HttpError::Malformed(format!(
            "unsupported request line {request_line:?}"
        )));
    }
    let path = target
        .split_once('?')
        .map_or(target, |(p, _)| p)
        .to_string();

    let mut headers = Vec::new();
    for line in &lines[1..] {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        keep_alive: version == "HTTP/1.1",
    };
    if let Some(conn) = request.header("connection") {
        match conn.to_ascii_lowercase().as_str() {
            "close" => request.keep_alive = false,
            "keep-alive" => request.keep_alive = true,
            _ => {}
        }
    }
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    Ok(request)
}

/// Validated `Content-Length` of a parsed head (0 when absent).
fn content_length(request: &Request, max_body: usize) -> Result<usize, HttpError> {
    match request.header("content-length") {
        None => Ok(0),
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
            if len > max_body {
                return Err(HttpError::TooLarge("body exceeds the configured limit"));
            }
            Ok(len)
        }
    }
}

/// Reads one request from the stream.
///
/// Returns `Ok(None)` on a clean EOF *before the first byte* — the normal
/// end of a keep-alive connection. A caller that wants to idle-poll (e.g.
/// to notice shutdown) should `fill_buf` with a read timeout first and
/// call this only once bytes are available.
///
/// # Errors
///
/// [`HttpError::Malformed`] for protocol violations (answer 400),
/// [`HttpError::TooLarge`] for exceeded limits (answer 413),
/// [`HttpError::HeadersTooLarge`] past [`MAX_HEAD_BYTES`] (answer 431),
/// [`HttpError::Io`] for transport failures.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    // Clean-EOF detection: peek before committing to a request.
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut lines = Vec::new();
    let mut head_bytes = 0usize;
    loop {
        let line = read_line(reader)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        if line.is_empty() {
            if lines.is_empty() {
                return Err(HttpError::Malformed("empty request line".into()));
            }
            break;
        }
        lines.push(line);
    }
    let mut request = build_head(&lines)?;
    let len = content_length(&request, max_body)?;
    if len > 0 {
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(Some(request))
}

/// One complete request parsed out of a byte buffer.
#[derive(Debug)]
pub struct Parsed {
    /// The request, body included.
    pub request: Request,
    /// Bytes consumed from the front of the buffer (head + body); the
    /// caller drains them, leaving any pipelined follow-up request behind.
    pub consumed: usize,
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a partial request — the
/// caller should read more bytes and retry. This is the event loop's
/// parser: connections append whatever was readable and call this until a
/// full request (head and `Content-Length` body) is available. Pipelined
/// requests parse one at a time, each consuming its own prefix.
///
/// # Errors
///
/// Same taxonomy as [`read_request`]; limit violations are detected as
/// early as the partial bytes allow (an over-long head answers 431 before
/// the terminating blank line ever arrives).
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<Parsed>, HttpError> {
    let mut lines = Vec::new();
    let mut pos = 0usize;
    let head_end = loop {
        let Some(rel) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // Incomplete head: bound what a dribbling client can buffer.
            if buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            if buf.len() - pos > MAX_LINE {
                return Err(HttpError::TooLarge("header line too long"));
            }
            return Ok(None);
        };
        let mut line = &buf[pos..pos + rel];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return Err(HttpError::TooLarge("header line too long"));
        }
        let next = pos + rel + 1;
        if next > MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        if line.is_empty() {
            if lines.is_empty() {
                return Err(HttpError::Malformed("empty request line".into()));
            }
            break next;
        }
        lines.push(
            String::from_utf8(line.to_vec())
                .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))?,
        );
        pos = next;
    };
    let mut request = build_head(&lines)?;
    let len = content_length(&request, max_body)?;
    if buf.len() < head_end + len {
        return Ok(None); // body still in flight
    }
    request.body = buf[head_end..head_end + len].to_vec();
    Ok(Some(Parsed {
        request,
        consumed: head_end + len,
    }))
}

/// Maximum payload of a single chunk in chunked transfer encoding.
pub(crate) const CHUNK_SIZE: usize = 16 * 1024;

/// A response body: owned bytes, or a shared reference into the result
/// cache (served without copying the stored payload).
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// Bytes shared with the cache (and possibly other in-flight
    /// responses).
    Shared(Arc<Vec<u8>>),
}

impl Body {
    /// The body bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the body empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Owned(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Owned(s.as_bytes().to_vec())
    }
}

impl From<Arc<Vec<u8>>> for Body {
    fn from(a: Arc<Vec<u8>>) -> Body {
        Body::Shared(a)
    }
}

/// A response ready to serialise.
#[derive(Debug)]
pub struct Response {
    /// Status code (e.g. 200).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (owned or cache-shared).
    pub body: Body,
    /// Emit `Retry-After: N` (the 429 backpressure hint).
    pub retry_after: Option<u64>,
    /// Emit `x-gather-cache: hit|miss` (result-cache disposition of a
    /// simulation endpoint; `None` for everything else).
    pub cache: Option<&'static str>,
    /// Emit `Age: N` — whole seconds the payload has spent in the result
    /// cache (hits only).
    pub age: Option<u64>,
    /// Serialise the body with chunked transfer encoding instead of
    /// `Content-Length` (streaming endpoints).
    pub chunked: bool,
    /// Emit `Connection: close` and let the caller drop the connection.
    pub close: bool,
}

impl Response {
    /// A response with the given status, content type and body.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
            cache: None,
            age: None,
            chunked: false,
            close: false,
        }
    }

    /// A structured `{"code","message","retryable"}` JSON error — the one
    /// error shape every endpoint answers with. `retryable` is derived
    /// from the status: timeouts and backpressure (408/429/503/504) are
    /// worth retrying, client and server bugs are not.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        let retryable = matches!(status, 408 | 429 | 503 | 504);
        Response::new(
            status,
            "application/json",
            format!(
                "{{\"code\":\"{}\",\"message\":\"{}\",\"retryable\":{retryable}}}\n",
                crate::json::escape(code),
                crate::json::escape(message),
            ),
        )
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }

    /// Serialises the status line and headers (terminating blank line
    /// included, body excluded). The event loop queues these bytes ahead
    /// of the (possibly cache-shared) body and writes both with one
    /// vectored write; [`write_to`](Response::write_to) uses the same
    /// bytes, so the two paths frame identically.
    pub fn head_bytes(&self) -> Vec<u8> {
        use std::io::Write as _;
        let mut head = Vec::with_capacity(160);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
        );
        if self.chunked {
            let _ = write!(head, "transfer-encoding: chunked\r\n");
        } else {
            let _ = write!(head, "content-length: {}\r\n", self.body.len());
        }
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "retry-after: {secs}\r\n");
        }
        if let Some(disposition) = self.cache {
            let _ = write!(head, "x-gather-cache: {disposition}\r\n");
        }
        if let Some(secs) = self.age {
            let _ = write!(head, "age: {secs}\r\n");
        }
        if self.close {
            let _ = write!(head, "connection: close\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head
    }

    /// Serialises status line, headers and body onto `w` (flushes).
    ///
    /// With `chunked` set the body goes out as chunked transfer encoding
    /// (chunks of at most 16 KiB, closed by a `0\r\n\r\n` terminator);
    /// otherwise as a `Content-Length` body. The payload bytes are
    /// identical either way — chunking is pure framing.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.head_bytes())?;
        if self.chunked {
            for chunk in self.body.as_slice().chunks(CHUNK_SIZE) {
                write!(w, "{:x}\r\n", chunk.len())?;
                w.write_all(chunk)?;
                w.write_all(b"\r\n")?;
            }
            w.write_all(b"0\r\n\r\n")?;
        } else {
            w.write_all(self.body.as_slice())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/run?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run", "the query string is stripped");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTT",
        ] {
            assert!(
                matches!(
                    parse(bad),
                    Err(HttpError::Malformed(_)) | Err(HttpError::Io(_))
                ),
                "{:?} should be rejected",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn enforces_limits() {
        let body_too_big = b"POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(parse(body_too_big), Err(HttpError::TooLarge(_))));
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            parse(many.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn total_header_bytes_are_capped_with_431() {
        // Each header line stays under MAX_LINE, but together they blow
        // the whole-head cap — the slow-loris shape.
        let mut head = String::from("GET / HTTP/1.1\r\n");
        for i in 0..10 {
            head.push_str(&format!("h{i}: {}\r\n", "v".repeat(4 * 1024)));
        }
        head.push_str("\r\n");
        assert!(matches!(
            parse(head.as_bytes()),
            Err(HttpError::HeadersTooLarge)
        ));
        // The incremental parser flags it even before the head terminates.
        let partial = &head.as_bytes()[..MAX_HEAD_BYTES + 10];
        assert!(matches!(
            try_parse(partial, 1024),
            Err(HttpError::HeadersTooLarge)
        ));
    }

    #[test]
    fn try_parse_handles_partial_and_pipelined_requests() {
        let wire = b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /next HTTP/1.1\r\n\r\n";
        // Byte-at-a-time: no prefix short of the full first request parses.
        let first_len = wire.iter().collect::<Vec<_>>().len() - b"GET /next HTTP/1.1\r\n\r\n".len();
        for cut in 0..first_len {
            assert!(
                try_parse(&wire[..cut], 1024).unwrap().is_none(),
                "cut at {cut} should be incomplete"
            );
        }
        let parsed = try_parse(wire, 1024).unwrap().unwrap();
        assert_eq!(parsed.request.path, "/run");
        assert_eq!(parsed.request.body, b"body");
        assert_eq!(parsed.consumed, first_len);
        // The pipelined follow-up parses from the remaining bytes.
        let rest = try_parse(&wire[parsed.consumed..], 1024).unwrap().unwrap();
        assert_eq!(rest.request.path, "/next");
        assert_eq!(parsed.consumed + rest.consumed, wire.len());
    }

    #[test]
    fn try_parse_rejects_what_read_request_rejects() {
        assert!(matches!(
            try_parse(b"GET / HTTP/2\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            try_parse(b"POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n", 1024),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            try_parse(b"\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_serialisation() {
        let mut resp = Response::new(200, "text/plain", "hi");
        resp.retry_after = Some(2);
        resp.close = true;
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn cache_headers_serialise() {
        let mut resp = Response::new(200, "application/x-ndjson", "line\n");
        resp.cache = Some("hit");
        resp.age = Some(3);
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.contains("x-gather-cache: hit\r\n"));
        assert!(text.contains("age: 3\r\n"));
        // A shared body serialises to the same bytes as an owned one.
        let shared = Response {
            body: Body::Shared(Arc::new(b"line\n".to_vec())),
            ..Response::new(200, "application/x-ndjson", "")
        };
        let mut out2 = Vec::new();
        let with_headers = Response {
            cache: Some("hit"),
            age: Some(3),
            ..shared
        };
        with_headers.write_to(&mut out2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn error_bodies_are_structured_json() {
        let resp = Response::error(429, "queue_full", "admission queue is full");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.reason(), "Too Many Requests");
        let body = String::from_utf8(resp.body.as_slice().to_vec()).unwrap();
        assert_eq!(
            body,
            "{\"code\":\"queue_full\",\"message\":\"admission queue is full\",\"retryable\":true}\n"
        );
        let resp = Response::error(400, "bad_spec", "x");
        assert!(String::from_utf8(resp.body.as_slice().to_vec())
            .unwrap()
            .contains("\"retryable\":false"));
        assert_eq!(
            Response::error(431, "headers_too_large", "x").reason(),
            "Request Header Fields Too Large"
        );
        assert_eq!(
            Response::error(408, "read_timeout", "x").reason(),
            "Request Timeout"
        );
    }

    #[test]
    fn chunked_serialisation_frames_the_same_bytes() {
        let payload = vec![b'x'; CHUNK_SIZE + 5];
        let mut resp = Response::new(200, "application/x-ndjson", payload.clone());
        resp.chunked = true;
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        // One full 16 KiB chunk, one 5-byte chunk, then the terminator.
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert!(body.starts_with("4000\r\n"));
        assert!(body.ends_with("5\r\nxxxxx\r\n0\r\n\r\n"));
        let decoded: Vec<u8> = body
            .split("\r\n")
            .scan(true, |is_size, part| {
                let take = if *is_size {
                    None
                } else {
                    Some(part.as_bytes())
                };
                *is_size = !*is_size;
                Some(take)
            })
            .flatten()
            .flat_map(|b| b.iter().copied())
            .collect();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn keep_alive_parses_two_requests_from_one_stream() {
        let bytes = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&bytes[..]);
        let a = read_request(&mut reader, 64).unwrap().unwrap();
        let b = read_request(&mut reader, 64).unwrap().unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(read_request(&mut reader, 64).unwrap().is_none());
    }
}
