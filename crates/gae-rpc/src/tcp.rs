//! The real-socket XML-RPC client: the caller side of the path
//! Figure 6 measures.
//!
//! The server side is the `gae-aio` epoll reactor
//! (`ReactorRpcServer`), which frames requests with the same
//! [`FrameParser`] this client reads replies with and dispatches them
//! through the shared [`crate::door`].

use crate::http::{FrameLimits, FrameParser, HttpRequest, HttpResponse};
use crate::service::Rpc;
use gae_types::{GaeError, GaeResult, SessionId};
use gae_wire::{parse_response, write_call, MethodCall, Value};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A persistent-connection XML-RPC client.
///
/// Keep-alive is on by default: the TCP connection (and its TLS-free
/// handshake cost) is paid once and reused across calls, with one
/// transparent reconnect when a reused connection turns out stale
/// (the server closed it between calls). `with_keep_alive(false)`
/// forces the 2005 behaviour — one connection per call — kept for
/// the reuse-vs-reconnect comparison in `benches/reactor.rs`.
pub struct TcpRpcClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    parser: FrameParser,
    session: Option<u64>,
    trace: Option<gae_obs::TraceContext>,
    timeout: Duration,
    keep_alive: bool,
    reconnects: u64,
}

impl TcpRpcClient {
    /// Creates a client for `addr` (connects lazily).
    pub fn connect(addr: SocketAddr) -> TcpRpcClient {
        TcpRpcClient {
            addr,
            stream: None,
            parser: FrameParser::new(FrameLimits::DEFAULT),
            session: None,
            trace: None,
            timeout: Duration::from_secs(10),
            keep_alive: true,
            reconnects: 0,
        }
    }

    /// Sets the per-call timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Keep-alive reuse (default `true`). With `false` every call
    /// opens a fresh connection and sends `Connection: close`.
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// How many times a call had to (re)connect — 1 for the first
    /// call, then 0 per call under keep-alive reuse. Diagnostics for
    /// the reuse-vs-reconnect bench.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attaches a trace context: every subsequent call carries it in
    /// `X-GAE-Trace`, so server-side spans land in the caller's tree
    /// instead of a door-minted one. `None` clears it.
    pub fn set_trace(&mut self, trace: Option<gae_obs::TraceContext>) {
        self.trace = trace;
    }

    /// Logs in via `auth.login` and attaches the session to all
    /// subsequent calls.
    pub fn login(&mut self, username: &str, password: &str) -> GaeResult<SessionId> {
        let sid = self
            .call(
                "auth.login",
                vec![Value::from(username), Value::from(password)],
            )?
            .as_u64()?;
        self.session = Some(sid);
        Ok(SessionId::new(sid))
    }

    /// Detaches the session locally and logs out remotely.
    pub fn logout(&mut self) -> GaeResult<()> {
        if self.session.is_some() {
            let _ = self.call("auth.logout", vec![]);
            self.session = None;
        }
        Ok(())
    }

    /// The active session id, if logged in.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    fn ensure_connected(&mut self) -> GaeResult<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| GaeError::Io(format!("connect {}: {e}", self.addr)))?;
            stream.set_nodelay(true)?;
            // Both directions honour the per-call timeout: without the
            // write half, a client stalls forever when the server's
            // socket buffer fills under overload.
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.stream = Some(stream);
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Forgets the connection and any half-read reply on it (parser
    /// errors are sticky, so a fresh connection gets a fresh parser).
    fn drop_connection(&mut self) {
        self.stream = None;
        self.parser = FrameParser::new(FrameLimits::DEFAULT);
    }

    /// Reads until one whole response is framed. A timeout before the
    /// reply's first byte is [`GaeError::Timeout`] (the call may still
    /// be running, so it is not retried); EOF or a stall mid-reply is
    /// [`GaeError::Io`].
    fn read_reply(&mut self) -> GaeResult<HttpResponse> {
        let stream = self.stream.as_mut().expect("connected");
        let mut buf = [0u8; 16 * 1024];
        while !self.parser.is_complete() {
            let n = match stream.read(&mut buf) {
                Ok(0) => return Err(GaeError::Io("connection closed before response".into())),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if !self.parser.mid_message()
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                {
                    return Err(GaeError::Timeout(format!(
                        "no response within {:?}",
                        self.timeout
                    )));
                }
                Err(e) => return Err(GaeError::Io(format!("recv: {e}"))),
            };
            // One request is in flight, so bytes past the reply's end
            // would be unsolicited; the parser stops at the boundary.
            self.parser.feed(&buf[..n])?;
        }
        self.parser.take_response()
    }

    fn try_call_once(&mut self, body: &[u8]) -> GaeResult<Vec<u8>> {
        self.ensure_connected()?;
        let mut request = HttpRequest::xmlrpc(body.to_vec(), self.session);
        if !self.keep_alive {
            request
                .headers
                .push(("Connection".to_string(), "close".to_string()));
        }
        if let Some(trace) = self.trace {
            request
                .headers
                .push(("X-GAE-Trace".to_string(), trace.encode()));
        }
        request
            .write_to(self.stream.as_mut().expect("connected"))
            .map_err(|e| GaeError::Io(format!("send: {e}")))?;
        let response = self.read_reply();
        if response.is_err() || !self.keep_alive {
            self.drop_connection();
        }
        let response = response?;
        if response.status != 200 {
            // Non-200 is the transport refusing before XML-RPC ran:
            // map the status straight to the typed error (408 slow
            // request, 413 oversized frame, 400 bad framing, ...).
            return Err(GaeError::from_fault(
                i32::from(response.status),
                format!(
                    "HTTP {} {}: {}",
                    response.status,
                    response.reason,
                    String::from_utf8_lossy(&response.body)
                ),
            ));
        }
        Ok(response.body)
    }
}

impl Rpc for TcpRpcClient {
    fn call(&mut self, method: &str, params: Vec<Value>) -> GaeResult<Value> {
        let body = write_call(&MethodCall::new(method, params)).into_bytes();
        // One transparent retry on a broken keep-alive connection
        // (the server may have closed an idle socket between calls,
        // which surfaces as EOF/reset on the reused stream).
        let raw = match self.try_call_once(&body) {
            Ok(r) => r,
            Err(GaeError::Io(_)) => {
                self.drop_connection();
                self.try_call_once(&body)?
            }
            Err(e) => return Err(e),
        };
        parse_response(&raw)?.into_result()
    }

    fn endpoint(&self) -> String {
        format!("http://{}/RPC2", self.addr)
    }
}

// Re-exported so existing `crate::tcp::...` paths keep working.
pub use crate::door::{fault_body, process_request};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::ServiceHost;
    use std::net::TcpListener;

    /// Reads one request off a raw server-side socket.
    fn recv_request(stream: &mut TcpStream) -> HttpRequest {
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let mut byte = [0u8; 1];
        while !parser.is_complete() {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF mid-request");
            parser.feed(&byte).unwrap();
        }
        parser.take_request().unwrap()
    }

    #[test]
    fn stale_keep_alive_connection_reconnects_transparently() {
        // A fake server that accepts one connection, serves exactly
        // one response, then closes the socket — the next call on
        // the reused connection hits EOF and must transparently
        // reconnect (served by the second accept).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let req = recv_request(&mut stream);
                let body = process_request(&ServiceHost::open(), &req, "fake");
                HttpResponse::ok_xml(body).write_to(&mut stream).unwrap();
                // Socket drops here: the keep-alive promise is broken.
            }
        });
        let mut client = TcpRpcClient::connect(addr).with_timeout(Duration::from_secs(5));
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        // Give the fake server time to close the first socket so the
        // reuse attempt observes EOF rather than racing the close.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        assert_eq!(client.reconnects(), 2, "stale EOF forced one reconnect");
        fake.join().unwrap();
    }

    #[test]
    fn silent_server_is_a_timeout_not_a_retry() {
        // The server reads the request and never answers: the call
        // times out once (no resend of a possibly-running call).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            recv_request(&mut stream);
            std::thread::sleep(Duration::from_millis(400));
        });
        let mut client = TcpRpcClient::connect(addr).with_timeout(Duration::from_millis(150));
        let got = client.call("system.ping", vec![]);
        assert!(matches!(got, Err(GaeError::Timeout(_))), "{got:?}");
        assert_eq!(client.reconnects(), 1);
        fake.join().unwrap();
    }

    #[test]
    fn connect_failure_is_io_error() {
        // Port 1 is essentially never listening.
        let mut client = TcpRpcClient::connect("127.0.0.1:1".parse().unwrap())
            .with_timeout(Duration::from_millis(200));
        assert!(client.call("system.ping", vec![]).is_err());
    }
}
