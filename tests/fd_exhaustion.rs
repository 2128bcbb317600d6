//! The reactor front door under file-descriptor exhaustion.
//!
//! A `gae-ctl serve` child runs with `ulimit -n 64` and faces 120
//! clients. Once its descriptor table is full, the reactor must not
//! spin on the still-readable listener; every client beyond the limit
//! must get a typed 503 rather than silence; and service must resume
//! once clients leave.

use gae::rpc::http::{FrameLimits, FrameParser};
use gae::rpc::{Rpc, TcpRpcClient};
use gae::wire::Value;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FD_LIMIT: usize = 64;
const CLIENTS: usize = 120;

/// Kills the server child however the test exits.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User + system CPU time of `pid` in clock ticks (USER_HZ, 100/s on
/// Linux), from `/proc/<pid>/stat` fields 14 and 15.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

fn open_fds(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .unwrap()
        .count()
}

/// What one client sees: `Some(status)` if the server answered and
/// closed, `None` if the connection is open and idle.
fn outcome(stream: &mut TcpStream) -> Option<u16> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut parser = FrameParser::new(FrameLimits::DEFAULT);
    let mut buf = [0u8; 1024];
    while !parser.is_complete() {
        match stream.read(&mut buf) {
            Ok(0) => panic!("server closed a connection without a word"),
            Ok(n) => {
                parser.feed(&buf[..n]).unwrap();
            }
            Err(_) if !parser.mid_message() => return None,
            Err(e) => panic!("torn refusal: {e}"),
        }
    }
    Some(parser.take_response().unwrap().status)
}

#[test]
fn exhausted_reactor_sheds_with_503_without_spinning_and_recovers() {
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {FD_LIMIT}; exec \"$0\" serve \"$1\""))
        .arg(env!("CARGO_BIN_EXE_gae-ctl"))
        .arg(port.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server = Server(child);
    let pid = server.0.id();
    // Held open to the end: the server's later lines must not hit a
    // closed pipe.
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    assert!(banner.contains("serving on"), "server failed: {banner:?}");
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let mut clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(open_fds(pid), FD_LIMIT, "the descriptor table is full");

    // Exhausted, with the listener still being offered connections:
    // a spinning loop would burn about one CPU-second per second.
    let before = cpu_ticks(pid);
    let window = Instant::now();
    let mut late: Vec<TcpStream> = Vec::new();
    while window.elapsed() < Duration::from_secs(2) {
        late.push(TcpStream::connect(addr).unwrap());
        std::thread::sleep(Duration::from_millis(100));
    }
    let burned = cpu_ticks(pid) - before;
    assert!(
        burned < 50,
        "{burned} ticks of CPU in 2 s while exhausted: the reactor spins"
    );

    let mut refused = 0;
    let mut idle = 0;
    for stream in clients.iter_mut().chain(late.iter_mut()) {
        match outcome(stream) {
            Some(status) => {
                assert_eq!(status, 503, "over-limit clients get a typed refusal");
                refused += 1;
            }
            None => idle += 1,
        }
    }
    assert!(
        refused >= CLIENTS - FD_LIMIT,
        "{refused} refused, {idle} held"
    );
    assert!(idle > 0, "the clients that fit are still being held");

    drop(clients);
    drop(late);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = TcpRpcClient::connect(addr).with_timeout(Duration::from_secs(2));
    loop {
        match client.call("system.ping", vec![]) {
            Ok(v) => {
                assert_eq!(v, Value::from("pong"));
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("service did not resume once clients left: {e}"),
        }
    }
    drop(server);
    drop(stdout);
}
