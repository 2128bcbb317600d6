//! Minimal HTTP/1.1 framing — just enough to carry XML-RPC.
//!
//! Clarens served XML-RPC over HTTP POST; we implement the same
//! framing from scratch: request line + headers + `Content-Length`
//! body, persistent connections by default (HTTP/1.1 keep-alive),
//! `Connection: close` honoured. No chunked encoding, no TLS — the
//! reproduction measures service latency, not OpenSSL.
//!
//! There is one framer, the incremental [`FrameParser`]: fed whatever
//! bytes a socket has ready, it is the per-connection state machine
//! of the `gae-aio` reactor, of [`crate::TcpRpcClient`] and of the
//! C10k bench client. It enforces [`FrameLimits`]: an oversized
//! header block or body is a typed 413
//! ([`GaeError::PayloadTooLarge`]), never unbounded buffering.

use gae_types::{GaeError, GaeResult};
use std::io::Write;

/// Size caps on a single HTTP message (DoS guard: beyond a cap the
/// request is a typed 413, not an allocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Upper bound on the request/status line + header block.
    pub max_header_bytes: usize,
    /// Upper bound on a request/response body.
    pub max_body_bytes: usize,
}

impl FrameLimits {
    /// The stock caps: 16 KiB of headers, 16 MiB of body.
    pub const DEFAULT: FrameLimits = FrameLimits {
        max_header_bytes: 16 * 1024,
        max_body_bytes: 16 * 1024 * 1024,
    };
}

impl Default for FrameLimits {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`POST` for XML-RPC).
    pub method: String,
    /// Request path (`/RPC2` by convention).
    pub path: String,
    /// HTTP version string (`HTTP/1.1`).
    pub version: String,
    /// Raw header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
}

/// A parsed HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Raw header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

impl HttpRequest {
    /// Builds the canonical XML-RPC POST request.
    pub fn xmlrpc(body: Vec<u8>, session: Option<u64>) -> Self {
        let mut headers = vec![
            ("Content-Type".to_string(), "text/xml".to_string()),
            ("Content-Length".to_string(), body.len().to_string()),
            ("User-Agent".to_string(), "gae-rpc/0.1".to_string()),
        ];
        if let Some(sid) = session {
            headers.push(("X-GAE-Session".to_string(), sid.to_string()));
        }
        HttpRequest {
            method: "POST".to_string(),
            path: "/RPC2".to_string(),
            version: "HTTP/1.1".to_string(),
            headers,
            body,
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The session id carried in `X-GAE-Session`, if any.
    pub fn session(&self) -> GaeResult<Option<u64>> {
        match self.header("X-GAE-Session") {
            None => Ok(None),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map(Some)
                .map_err(|_| GaeError::Parse(format!("bad X-GAE-Session {v:?}"))),
        }
    }

    /// The raw trace context carried in `X-GAE-Trace`, if any. The
    /// observability layer owns the encoding; transports just ferry
    /// the header so one logical request stays one causal tree
    /// across service hops.
    pub fn trace(&self) -> Option<&str> {
        self.header("X-GAE-Trace")
    }

    /// Whether the connection should stay open after this request.
    pub fn keep_alive(&self) -> bool {
        match self.header("Connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }

    /// Serializes onto a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "{} {} {}\r\n", self.method, self.path, self.version)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

impl HttpResponse {
    /// A `200 OK` with an XML body.
    pub fn ok_xml(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK".to_string(),
            headers: vec![
                ("Content-Type".to_string(), "text/xml".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body,
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, reason: &str, body: &str) -> Self {
        HttpResponse {
            status,
            reason: reason.to_string(),
            headers: vec![
                ("Content-Type".to_string(), "text/plain".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Serializes onto a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Serializes into a byte vector (the reactor's write queue).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body.len() + 128);
        self.write_to(&mut buf).expect("Vec write is infallible");
        buf
    }
}

fn oversized_headers(limits: &FrameLimits) -> GaeError {
    GaeError::PayloadTooLarge(format!(
        "header block exceeds {} bytes",
        limits.max_header_bytes
    ))
}

fn oversized_body(len: usize, limits: &FrameLimits) -> GaeError {
    GaeError::PayloadTooLarge(format!(
        "body of {len} bytes exceeds the {}-byte cap",
        limits.max_body_bytes
    ))
}

fn split_header(line: &str) -> GaeResult<(String, String)> {
    let (k, v) = line
        .split_once(':')
        .ok_or_else(|| GaeError::Parse(format!("http: malformed header {line:?}")))?;
    Ok((k.trim().to_string(), v.trim().to_string()))
}

fn content_length(headers: &[(String, String)]) -> GaeResult<usize> {
    match header_lookup(headers, "Content-Length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| GaeError::Parse(format!("http: bad Content-Length {v:?}"))),
        None => Ok(0),
    }
}

fn parse_request_line(request_line: &str) -> GaeResult<(String, String, String)> {
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v.to_string()),
        _ => {
            return Err(GaeError::Parse(format!(
                "http: bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(GaeError::Parse(format!(
            "http: unsupported version {version:?}"
        )));
    }
    Ok((method, path, version))
}

fn parse_status_line(status_line: &str) -> GaeResult<(u16, String)> {
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(GaeError::Parse(format!(
            "http: bad status line {status_line:?}"
        )));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| GaeError::Parse(format!("http: bad status line {status_line:?}")))?;
    Ok((status, parts.next().unwrap_or("").to_string()))
}

/// Incremental HTTP message parser: feed it whatever bytes a
/// nonblocking socket has ready; it consumes up to the end of one
/// message and stops (pipelined bytes stay with the caller).
/// Beyond [`FrameLimits`] it fails with a typed 413.
///
/// This is the per-connection readiness state machine of the
/// `gae-aio` reactor and of every client:
///
/// ```text
/// StartLine --"\n"--> Headers --""--> Body --len bytes--> Complete
///      \__________________________(Content-Length: 0)_______/
/// ```
#[derive(Debug)]
pub struct FrameParser {
    limits: FrameLimits,
    phase: Phase,
    line: Vec<u8>,
    header_budget: usize,
    start_line: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    body_len: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    StartLine,
    Headers,
    Body,
    Complete,
}

impl FrameParser {
    /// A fresh parser under `limits`.
    pub fn new(limits: FrameLimits) -> FrameParser {
        FrameParser {
            limits,
            phase: Phase::StartLine,
            line: Vec::new(),
            header_budget: limits.max_header_bytes,
            start_line: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            body_len: 0,
        }
    }

    /// Whether a full message is buffered and ready to take.
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Complete
    }

    /// Whether any bytes of the *current* message have been
    /// consumed. Lets the reactor distinguish a clean close (EOF
    /// between messages) from a peer dying mid-request.
    pub fn mid_message(&self) -> bool {
        self.phase != Phase::StartLine || !self.line.is_empty()
    }

    /// Consumes bytes from `chunk` up to the end of one message.
    /// Returns how many bytes were consumed (always the whole chunk
    /// unless a message completed first). Errors are sticky: a
    /// connection that produced one is torn down by the caller.
    pub fn feed(&mut self, chunk: &[u8]) -> GaeResult<usize> {
        let mut consumed = 0;
        while consumed < chunk.len() && self.phase != Phase::Complete {
            match self.phase {
                Phase::StartLine | Phase::Headers => {
                    let b = chunk[consumed];
                    consumed += 1;
                    self.header_budget = self
                        .header_budget
                        .checked_sub(1)
                        .ok_or_else(|| oversized_headers(&self.limits))?;
                    if b == b'\n' {
                        if self.line.last() == Some(&b'\r') {
                            self.line.pop();
                        }
                        self.end_line()?;
                    } else {
                        self.line.push(b);
                    }
                }
                Phase::Body => {
                    let want = self.body_len - self.body.len();
                    let take = want.min(chunk.len() - consumed);
                    self.body
                        .extend_from_slice(&chunk[consumed..consumed + take]);
                    consumed += take;
                    if self.body.len() == self.body_len {
                        self.phase = Phase::Complete;
                    }
                }
                Phase::Complete => unreachable!("loop guard"),
            }
        }
        Ok(consumed)
    }

    fn end_line(&mut self) -> GaeResult<()> {
        let line = String::from_utf8(std::mem::take(&mut self.line))
            .map_err(|_| GaeError::Parse("http: non-UTF-8 header line".into()))?;
        match self.phase {
            Phase::StartLine => {
                self.start_line = line;
                self.phase = Phase::Headers;
            }
            Phase::Headers => {
                if line.is_empty() {
                    self.body_len = content_length(&self.headers)?;
                    if self.body_len > self.limits.max_body_bytes {
                        return Err(oversized_body(self.body_len, &self.limits));
                    }
                    self.body.reserve(self.body_len);
                    self.phase = if self.body_len == 0 {
                        Phase::Complete
                    } else {
                        Phase::Body
                    };
                } else {
                    self.headers.push(split_header(&line)?);
                }
            }
            Phase::Body | Phase::Complete => unreachable!("lines only precede the body"),
        }
        Ok(())
    }

    fn reset(&mut self) -> (String, Vec<(String, String)>, Vec<u8>) {
        let start_line = std::mem::take(&mut self.start_line);
        let headers = std::mem::take(&mut self.headers);
        let body = std::mem::take(&mut self.body);
        self.phase = Phase::StartLine;
        self.line.clear();
        self.header_budget = self.limits.max_header_bytes;
        self.body_len = 0;
        (start_line, headers, body)
    }

    /// Takes the completed message as a request and resets the
    /// parser for the next one on the connection.
    pub fn take_request(&mut self) -> GaeResult<HttpRequest> {
        assert!(self.is_complete(), "take_request before completion");
        let (start_line, headers, body) = self.reset();
        let (method, path, version) = parse_request_line(&start_line)?;
        Ok(HttpRequest {
            method,
            path,
            version,
            headers,
            body,
        })
    }

    /// Takes the completed message as a response and resets the
    /// parser for the next one on the connection.
    pub fn take_response(&mut self) -> GaeResult<HttpResponse> {
        assert!(self.is_complete(), "take_response before completion");
        let (start_line, headers, body) = self.reset();
        let (status, reason) = parse_status_line(&start_line)?;
        Ok(HttpResponse {
            status,
            reason,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` in one slab: `Ok(None)` while the frame is still
    /// incomplete (the parser wants more bytes).
    fn parse_request(raw: &[u8]) -> GaeResult<Option<HttpRequest>> {
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        parser.feed(raw)?;
        if parser.is_complete() {
            parser.take_request().map(Some)
        } else {
            Ok(None)
        }
    }

    fn parse_response(raw: &[u8]) -> HttpResponse {
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        assert_eq!(parser.feed(raw).unwrap(), raw.len());
        parser.take_response().unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::xmlrpc(b"<xml/>".to_vec(), Some(42));
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let back = parse_request(&buf).unwrap().unwrap();
        assert_eq!(back, req);
        assert_eq!(back.session().unwrap(), Some(42));
        assert!(back.keep_alive());
    }

    #[test]
    fn byte_at_a_time_feed_recovers_the_request() {
        let req = HttpRequest::xmlrpc(b"<params/>".to_vec(), Some(7));
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        // Byte-at-a-time feed: the worst-case readiness schedule.
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let mut fed = 0;
        for b in &buf {
            assert!(!parser.is_complete());
            fed += parser.feed(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(fed, buf.len());
        assert!(parser.is_complete());
        assert_eq!(parser.take_request().unwrap(), req);
        assert!(!parser.mid_message(), "parser reset after take");
    }

    #[test]
    fn response_roundtrip() {
        let back = parse_response(&HttpResponse::ok_xml(b"<ok/>".to_vec()).to_bytes());
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(back.body, b"<ok/>");
        assert_eq!(back.header("content-type"), Some("text/xml"));
    }

    #[test]
    fn error_response() {
        let resp = HttpResponse::error(400, "Bad Request", "nope");
        let back = parse_response(&resp.to_bytes());
        assert_eq!(back, resp);
    }

    #[test]
    fn empty_input_is_between_messages() {
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        assert_eq!(parser.feed(b"").unwrap(), 0);
        assert!(!parser.is_complete());
        assert!(!parser.mid_message(), "EOF here is a clean close");
    }

    #[test]
    fn partial_request_stays_incomplete() {
        for partial in [
            &b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..],
            b"POST /RPC2 HTTP/1.1\r\nContent-Le",
            b"POST /RPC2 HTT",
        ] {
            let mut parser = FrameParser::new(FrameLimits::DEFAULT);
            assert_eq!(parser.feed(partial).unwrap(), partial.len());
            assert!(!parser.is_complete());
            assert!(parser.mid_message(), "EOF here is a torn request");
        }
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "POST /RPC2 SPDY/1\r\n\r\n",
            "POST /RPC2 HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /RPC2 HTTP/1.1\r\nContent-Length: many\r\n\r\n",
        ] {
            let r = parse_request(bad.as_bytes());
            assert!(r.is_err(), "{bad:?} should fail: {r:?}");
        }
        let mut non_utf8 = b"POST /RPC2 HTTP/1.1\r\nX-Bad: ".to_vec();
        non_utf8.extend_from_slice(&[0xff, 0xfe, b'\r', b'\n', b'\r', b'\n']);
        assert!(matches!(parse_request(&non_utf8), Err(GaeError::Parse(_))));
    }

    #[test]
    fn bad_version_is_a_parse_error() {
        for bad in ["POST /RPC2 HTTP/2\r\n\r\n", "POST /RPC2 FTP/1.1\r\n\r\n"] {
            assert!(
                matches!(parse_request(bad.as_bytes()), Err(GaeError::Parse(_))),
                "{bad:?}"
            );
        }
        // HTTP/1.0 is still HTTP/1.x, just close-by-default.
        let ok = parse_request(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!ok.keep_alive());
    }

    #[test]
    fn keep_alive_rules() {
        let mut req = HttpRequest::xmlrpc(vec![], None);
        assert!(req.keep_alive(), "1.1 default keep-alive");
        req.headers.push(("Connection".into(), "close".into()));
        assert!(!req.keep_alive());
        let mut req10 = HttpRequest::xmlrpc(vec![], None);
        req10.version = "HTTP/1.0".into();
        assert!(!req10.keep_alive(), "1.0 default close");
        req10
            .headers
            .push(("Connection".into(), "Keep-Alive".into()));
        assert!(req10.keep_alive());
    }

    #[test]
    fn bad_session_header() {
        let mut req = HttpRequest::xmlrpc(vec![], None);
        req.headers.push(("X-GAE-Session".into(), "abc".into()));
        assert!(req.session().is_err());
        let clean = HttpRequest::xmlrpc(vec![], None);
        assert_eq!(clean.session().unwrap(), None);
    }

    #[test]
    fn oversized_body_is_typed_413() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            FrameLimits::DEFAULT.max_body_bytes + 1
        );
        assert!(matches!(
            parse_request(huge.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
        let tiny = FrameLimits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        let fat = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            FrameParser::new(tiny).feed(fat.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn oversized_headers_are_typed_413() {
        let mut big = String::from("POST / HTTP/1.1\r\n");
        for i in 0..2000 {
            big.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(20)));
        }
        big.push_str("\r\n");
        assert!(matches!(
            parse_request(big.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
        let tiny = FrameLimits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        let long = format!("POST / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(128));
        assert!(matches!(
            FrameParser::new(tiny).feed(long.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn two_pipelined_requests() {
        let mut buf = Vec::new();
        HttpRequest::xmlrpc(b"one".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let first_len = buf.len();
        HttpRequest::xmlrpc(b"two".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let consumed = parser.feed(&buf).unwrap();
        assert_eq!(consumed, first_len, "stops at the pipeline boundary");
        assert_eq!(parser.take_request().unwrap().body, b"one");
        let consumed2 = parser.feed(&buf[consumed..]).unwrap();
        assert_eq!(consumed + consumed2, buf.len());
        assert_eq!(parser.take_request().unwrap().body, b"two");
        assert!(!parser.mid_message());
    }
}
