//! `ReactorRpcServer` over real loopback sockets, driven through
//! `gae_rpc::TcpRpcClient` and raw streams: round trips, keep-alive,
//! sessions, peer attribution, and the typed transport refusals
//! (400 malformed, 408 slowloris, 413 oversized).

use gae_aio::{ReactorConfig, ReactorRpcServer};
use gae_rpc::http::{FrameLimits, FrameParser, HttpRequest, HttpResponse};
use gae_rpc::service::{CallContext, MethodInfo, Rpc, Service};
use gae_rpc::{Credentials, ServiceHost, TcpRpcClient};
use gae_types::{GaeError, GaeResult};
use gae_wire::{write_call, MethodCall, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Echo;

impl Service for Echo {
    fn name(&self) -> &'static str {
        "test"
    }
    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "peer" => Ok(Value::from(ctx.peer.clone())),
            "user" => Ok(ctx.user.map(|u| u.raw()).into()),
            "sum" => {
                let mut s = 0i64;
                for p in params {
                    s += p.as_i64()?;
                }
                Ok(Value::Int64(s))
            }
            "fail" => Err(GaeError::ExecutionFailure("deliberate".into())),
            other => Err(gae_rpc::service::unknown_method("test", other)),
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

fn server() -> (ReactorRpcServer, Arc<ServiceHost>) {
    let host = echo_host();
    let server = ReactorRpcServer::start(host.clone(), 4).unwrap();
    (server, host)
}

fn tuned(config: ReactorConfig) -> ReactorRpcServer {
    ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", None, config).unwrap()
}

/// Reads one HTTP response off a raw blocking socket.
fn recv_response(stream: &mut TcpStream) -> HttpResponse {
    let mut parser = FrameParser::new(FrameLimits::DEFAULT);
    let mut buf = [0u8; 4096];
    while !parser.is_complete() {
        let n = stream.read(&mut buf).expect("response bytes");
        assert!(n > 0, "EOF before a complete response");
        let used = parser.feed(&buf[..n]).expect("well-formed response");
        assert_eq!(used, n, "one response, nothing after it");
    }
    parser.take_response().unwrap()
}

fn raw_call(method: &str, params: Vec<Value>) -> Vec<u8> {
    let body = write_call(&MethodCall::new(method, params)).into_bytes();
    let mut buf = Vec::new();
    HttpRequest::xmlrpc(body, None).write_to(&mut buf).unwrap();
    buf
}

#[test]
fn reactor_roundtrip() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr());
    let v = client
        .call("test.sum", vec![Value::Int(2), Value::Int(40)])
        .unwrap();
    assert_eq!(v, Value::Int64(42));
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );
    assert!(server.requests_served() >= 2);
    server.stop();
}

#[test]
fn reactor_faults_propagate() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr());
    assert!(matches!(
        client.call("test.fail", vec![]),
        Err(GaeError::ExecutionFailure(_))
    ));
    assert!(matches!(
        client.call("test.nosuch", vec![]),
        Err(GaeError::Rpc { code: -32601, .. })
    ));
    server.stop();
}

#[test]
fn reactor_keep_alive_many_requests_one_connection() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr());
    for i in 0..100 {
        let v = client
            .call("test.sum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
    }
    assert_eq!(client.reconnects(), 1);
    server.stop();
}

#[test]
fn keep_alive_off_reconnects_per_call() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr()).with_keep_alive(false);
    for i in 0..5 {
        let v = client
            .call("test.sum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
    }
    assert_eq!(client.reconnects(), 5, "one connect per call");
    server.stop();
}

#[test]
fn reactor_concurrent_clients() {
    let (server, _host) = server();
    let addr = server.addr();
    let mut handles = Vec::new();
    for t in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut client = TcpRpcClient::connect(addr);
            for i in 0..20 {
                let v = client
                    .call("test.sum", vec![Value::Int(t), Value::Int(i)])
                    .unwrap();
                assert_eq!(v, Value::Int64(i64::from(t) + i64::from(i)));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(server.requests_served() >= 160);
    server.stop();
}

#[test]
fn reactor_holds_many_idle_connections() {
    let (server, _host) = server();
    let addr = server.addr();
    // 300 idle keep-alive connections: trivial for a slab.
    let idle: Vec<TcpStream> = (0..300)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // Give the reactor a few ticks to accept them all.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < 300 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.open_connections(), 300);
    // And they do not starve a live client.
    let mut client = TcpRpcClient::connect(addr);
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );
    drop(idle);
    server.stop();
}

#[test]
fn sessions_over_tcp() {
    let (server, host) = server();
    host.sessions()
        .register(&Credentials::new("alice", "pw"))
        .unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    // Anonymous first.
    assert!(client.call("test.user", vec![]).unwrap().is_nil());
    let sid = client.login("alice", "pw").unwrap();
    assert!(sid.raw() > 0);
    let user = client.call("test.user", vec![]).unwrap();
    assert!(user.as_u64().unwrap() > 0);
    client.logout().unwrap();
    assert!(client.call("test.user", vec![]).unwrap().is_nil());
    server.stop();
}

#[test]
fn bad_login_over_tcp() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr());
    assert!(matches!(
        client.login("ghost", "boo"),
        Err(GaeError::Unauthorized(_))
    ));
    server.stop();
}

#[test]
fn stale_session_is_fault() {
    let (server, host) = server();
    host.sessions()
        .register(&Credentials::new("alice", "pw"))
        .unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    let sid = client.login("alice", "pw").unwrap();
    // The server forgets the session; the client still presents it.
    host.sessions().logout(sid);
    assert!(matches!(
        client.call("system.ping", vec![]),
        Err(GaeError::Unauthorized(_))
    ));
    server.stop();
}

#[test]
fn peer_address_reported() {
    let (server, _host) = server();
    let mut client = TcpRpcClient::connect(server.addr());
    let peer = client.call("test.peer", vec![]).unwrap();
    assert!(peer.as_str().unwrap().starts_with("127.0.0.1:"));
    server.stop();
}

#[test]
fn malformed_http_gets_400() {
    let (server, _host) = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    assert_eq!(recv_response(&mut stream).status, 400);
    server.stop();
}

#[test]
fn slowloris_client_gets_408_while_idle_connections_survive() {
    let server = tuned(ReactorConfig {
        request_deadline: Duration::from_millis(300),
        ..ReactorConfig::default()
    });
    // Idle keep-alive costs nothing: this connection sends no byte
    // until well past the deadline and must still be served.
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Dribble a valid request one byte per 30 ms: far slower than
    // the 300 ms budget allows for its ~60 bytes.
    let raw = b"POST /RPC2 HTTP/1.1\r\nContent-Length: 6\r\n\r\n<xml/>";
    let started = Instant::now();
    for b in raw.iter() {
        if stream.write_all(std::slice::from_ref(b)).is_err() {
            break; // server already hung up on us
        }
        std::thread::sleep(Duration::from_millis(30));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    let resp = recv_response(&mut stream);
    assert_eq!(resp.status, 408, "typed request-timeout, got {resp:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connection freed promptly"
    );
    idle.write_all(&raw_call("test.sum", vec![Value::Int(1)]))
        .unwrap();
    assert_eq!(recv_response(&mut idle).status, 200);
    server.stop();
}

#[test]
fn oversized_request_gets_413() {
    let server = tuned(ReactorConfig {
        limits: FrameLimits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024,
        },
        ..ReactorConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n")
        .unwrap();
    assert_eq!(recv_response(&mut stream).status, 413);
    // And through the typed client: the status maps to the error.
    let mut client = TcpRpcClient::connect(server.addr());
    let huge = vec![Value::from("y".repeat(4096))];
    let got = client.call("test.sum", huge);
    assert!(
        matches!(got, Err(GaeError::PayloadTooLarge(_))),
        "typed 413 through the client, got {got:?}"
    );
    server.stop();
}

#[test]
fn server_stops_cleanly_with_idle_connection() {
    let (server, _host) = server();
    let _idle = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    server.stop(); // must not hang
}
