//! The `gae-aio` reactor front door under hostile and awkward
//! clients: mid-request disconnects, partial writes through a tiny
//! kernel send buffer, pipelined requests — and the contract that
//! matters most, byte-identical answers to the thread-per-connection
//! server the reactor replaced. `tests/golden/front_door.txt` holds
//! that server's exact response bytes for a fixed corpus (every probe
//! kind, plus a gated-refusal sequence); the reactor must reproduce
//! them byte for byte.

use gae::aio::{ReactorConfig, ReactorRpcServer};
use gae::gate::{Gate, GateConfig, ManualClock, QueueConfig, TokenBucketConfig};
use gae::rpc::http::{FrameLimits, FrameParser, HttpRequest, HttpResponse};
use gae::rpc::service::{CallContext, MethodInfo, Service};
use gae::rpc::{Rpc, ServiceHost, TcpRpcClient};
use gae::types::{GaeError, GaeResult, SimDuration};
use gae::wire::{write_call, MethodCall, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Echo;

impl Service for Echo {
    fn name(&self) -> &'static str {
        "test"
    }
    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "sum" => {
                let mut s = 0i64;
                for p in params {
                    s += p.as_i64()?;
                }
                Ok(Value::Int64(s))
            }
            // A response much larger than a minimal socket buffer:
            // forces the reactor through its partial-write path.
            "blob" => {
                let n = usize::try_from(params[0].as_i64()?).unwrap_or(0);
                Ok(Value::from("x".repeat(n)))
            }
            // Occupies a worker for a while: lets a test wedge the
            // admission queue deterministically.
            "sleep" => {
                let ms = u64::try_from(params[0].as_i64()?).unwrap_or(0);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Value::Int64(0))
            }
            "fail" => Err(GaeError::ExecutionFailure("deliberate".into())),
            other => Err(gae::rpc::service::unknown_method("test", other)),
        }
    }
    fn methods(&self) -> Vec<MethodInfo> {
        vec![]
    }
}

fn echo_host() -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.register(Arc::new(Echo));
    host
}

/// Serialises one XML-RPC call as raw keep-alive HTTP bytes.
fn raw_call(method: &str, params: Vec<Value>) -> Vec<u8> {
    let body = write_call(&MethodCall::new(method, params)).into_bytes();
    let mut buf = Vec::new();
    HttpRequest::xmlrpc(body, None).write_to(&mut buf).unwrap();
    buf
}

/// Reads framed responses off a blocking socket, preserving bytes
/// past each message boundary (pipelined responses share reads).
struct ResponseReader {
    stream: TcpStream,
    parser: FrameParser,
    pending: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: &TcpStream) -> ResponseReader {
        ResponseReader {
            stream: stream.try_clone().unwrap(),
            parser: FrameParser::new(FrameLimits::DEFAULT),
            pending: Vec::new(),
        }
    }

    fn next(&mut self) -> HttpResponse {
        loop {
            while !self.pending.is_empty() && !self.parser.is_complete() {
                let used = self
                    .parser
                    .feed(&self.pending)
                    .expect("well-formed response");
                self.pending.drain(..used);
            }
            if self.parser.is_complete() {
                return self.parser.take_response().unwrap();
            }
            let mut buf = [0u8; 4096];
            let n = self
                .stream
                .read(&mut buf)
                .expect("server closed mid-response");
            assert!(n > 0, "EOF before a complete response");
            self.pending.extend_from_slice(&buf[..n]);
        }
    }
}

/// Reads exactly one HTTP response off a blocking socket.
fn read_one_response(stream: &TcpStream) -> HttpResponse {
    ResponseReader::new(stream).next()
}

#[test]
fn mid_request_disconnect_leaves_the_reactor_healthy() {
    let server = ReactorRpcServer::start(echo_host(), 2).unwrap();
    let addr = server.addr();
    // Half a request, then vanish.
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Le")
        .unwrap();
    drop(half);
    // A full request, then vanish before reading the response: the
    // completion for the dead connection must be discarded, not
    // delivered to whoever lands in the slab slot next.
    let mut ghost = TcpStream::connect(addr).unwrap();
    ghost
        .write_all(&raw_call("test.sum", vec![Value::Int(1)]))
        .unwrap();
    drop(ghost);
    // The reactor keeps serving fresh clients afterwards.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = TcpRpcClient::connect(addr);
    for i in 0..20 {
        let v = client
            .call("test.sum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
    }
    server.stop();
}

#[test]
fn partial_writes_through_a_tiny_send_buffer_arrive_intact() {
    // Force the smallest send buffer the kernel allows: a ~1 MiB
    // response cannot leave in one write, so the reactor must park
    // the remainder, register write interest, and resume on EPOLLOUT.
    let config = ReactorConfig {
        so_sndbuf: Some(1),
        ..ReactorConfig::default()
    };
    let server = ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", None, config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = ResponseReader::new(&stream);
    let n = 1_000_000i64;
    stream
        .write_all(&raw_call("test.blob", vec![Value::Int64(n)]))
        .unwrap();
    // A slow reader widens the window where the socket is unwritable.
    std::thread::sleep(Duration::from_millis(150));
    let response = reader.next();
    assert_eq!(response.status, 200);
    let value = gae::wire::parse_response(&response.body)
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(value, Value::from("x".repeat(n as usize)));
    // The connection survived the ordeal: a second call works.
    stream
        .write_all(&raw_call("test.sum", vec![Value::Int(20), Value::Int(22)]))
        .unwrap();
    assert_eq!(reader.next().status, 200);
    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = ReactorRpcServer::start(echo_host(), 2).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = ResponseReader::new(&stream);
    let mut stream = stream;
    // Two complete requests in one TCP segment: the reactor must
    // answer the first, then notice the second already buffered.
    let mut burst = raw_call("test.sum", vec![Value::Int(1), Value::Int(2)]);
    burst.extend_from_slice(&raw_call("test.sum", vec![Value::Int(30), Value::Int(12)]));
    stream.write_all(&burst).unwrap();
    let first = reader.next();
    let second = reader.next();
    for (response, expected) in [(first, 3i64), (second, 42i64)] {
        assert_eq!(response.status, 200);
        let value = gae::wire::parse_response(&response.body)
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(value, Value::Int64(expected));
    }
    // Keep-alive still holds after the burst.
    stream
        .write_all(&raw_call("test.sum", vec![Value::Int(5)]))
        .unwrap();
    assert_eq!(reader.next().status, 200);
    server.stop();
}

/// One request's worth of raw bytes in the golden corpus.
#[derive(Clone, Debug)]
enum Probe {
    /// A well-formed call (service result or service fault).
    Call {
        method: &'static str,
        args: Vec<i64>,
    },
    /// A non-POST method: typed 405.
    BadVerb,
    /// A declared body far past the cap: typed 413.
    Oversized,
    /// A line of garbage: typed 400.
    Garbage,
}

impl Probe {
    fn label(&self) -> String {
        match self {
            Probe::Call { method, args } => {
                let args: Vec<String> = args.iter().map(i64::to_string).collect();
                format!("call {method}({})", args.join(", "))
            }
            Probe::BadVerb => "bad verb".to_string(),
            Probe::Oversized => "oversized".to_string(),
            Probe::Garbage => "garbage".to_string(),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Probe::Call { method, args } => {
                raw_call(method, args.iter().map(|&a| Value::Int64(a)).collect())
            }
            Probe::BadVerb => b"PUT /RPC2 HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            Probe::Oversized => format!(
                "POST /RPC2 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                64 * 1024 * 1024
            )
            .into_bytes(),
            Probe::Garbage => b"NOT EVEN HTTP\r\n\r\n".to_vec(),
        }
    }

    fn status(&self) -> u16 {
        match self {
            Probe::Call { .. } => 200,
            Probe::BadVerb => 405,
            Probe::Oversized => 413,
            Probe::Garbage => 400,
        }
    }
}

/// The fixed corpus, one fresh connection per probe.
fn corpus() -> Vec<Probe> {
    let call = |method, args: &[i64]| Probe::Call {
        method,
        args: args.to_vec(),
    };
    vec![
        call("test.sum", &[2, 40]),
        call("test.sum", &[]),
        call("test.sum", &[-1000, 999, 7]),
        call("test.fail", &[]),
        call("test.fail", &[3]),
        call("no.such", &[1, 2]),
        Probe::BadVerb,
        Probe::Oversized,
        Probe::Garbage,
    ]
}

/// The golden file's records: `[label]`, `> request`, `< response`,
/// each message `escape_ascii`-encoded; `#` lines are commentary.
fn golden() -> Vec<&'static str> {
    include_str!("golden/front_door.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect()
}

fn record(out: &mut Vec<String>, label: &str, request: &[u8], response: &HttpResponse) {
    out.push(format!("[{label}]"));
    out.push(format!("> {}", request.escape_ascii()));
    out.push(format!("< {}", response.to_bytes().escape_ascii()));
}

fn assert_matches_golden(rendered: &[String], golden: &[&str]) {
    assert_eq!(rendered.len(), golden.len(), "record count differs");
    for (got, want) in rendered.iter().zip(golden) {
        assert_eq!(got, want, "reactor bytes differ from the recorded server");
    }
}

/// A 1-worker gate with a capacity-1 queue on a frozen clock, so the
/// refusal's retry-after (the parked entry's 5 s deadline) is exact.
fn tiny_gate() -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(1, SimDuration::from_secs(5)),
            ..GateConfig::default()
        },
        Arc::new(ManualClock::new()),
    )
}

#[test]
fn gate_refusals_agree_across_transports() {
    // Wedge the gate — one worker occupied by a slow call, one request
    // parked in the capacity-1 queue — then a third arrival must be
    // refused at the door with the recorded typed Overloaded fault;
    // the parked and busy calls then complete with their results.
    let server = ReactorRpcServer::start_gated(echo_host(), 1, tiny_gate()).unwrap();
    let addr = server.addr();
    let busy_req = raw_call("test.sleep", vec![Value::Int64(600)]);
    let parked_req = raw_call("test.sum", vec![Value::Int(1)]);
    let refused_req = raw_call("test.sum", vec![Value::Int(2)]);
    let mut busy = TcpStream::connect(addr).unwrap();
    busy.write_all(&busy_req).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let mut parked = TcpStream::connect(addr).unwrap();
    parked.write_all(&parked_req).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut refused = TcpStream::connect(addr).unwrap();
    refused.write_all(&refused_req).unwrap();
    let mut rendered = Vec::new();
    let response = read_one_response(&refused);
    let err = gae::wire::parse_response(&response.body)
        .unwrap()
        .into_result()
        .unwrap_err();
    assert!(
        matches!(&err, GaeError::Overloaded { .. }),
        "expected Overloaded, got {err:?}"
    );
    record(&mut rendered, "gated refused", &refused_req, &response);
    let response = read_one_response(&parked);
    record(&mut rendered, "gated parked", &parked_req, &response);
    let response = read_one_response(&busy);
    record(&mut rendered, "gated busy", &busy_req, &response);
    let golden = golden();
    assert_matches_golden(&rendered, &golden[golden.len() - rendered.len()..]);
    server.stop();
}

/// The reactor is a scheduling change, not a semantic one: for every
/// probe — valid calls, faults, bad verbs, oversized frames, garbage —
/// it returns the frame (status, reason, headers, body) the
/// thread-per-connection server recorded in the golden file.
#[test]
fn blocking_and_reactor_answer_identically() {
    let server = ReactorRpcServer::start(echo_host(), 2).unwrap();
    let mut rendered = Vec::new();
    for probe in corpus() {
        let bytes = probe.to_bytes();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&bytes).unwrap();
        let response = read_one_response(&s);
        assert_eq!(response.status, probe.status(), "{probe:?}");
        record(
            &mut rendered,
            &format!("plain {}", probe.label()),
            &bytes,
            &response,
        );
    }
    assert_matches_golden(&rendered, &golden()[..rendered.len()]);
    server.stop();
}
