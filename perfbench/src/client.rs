//! The open-loop load generator: one thread, a fixed schedule of due
//! times, and at most [`CONNECTIONS`] keep-alive connections.
//!
//! Each call is sent when it falls due whether or not earlier calls
//! have been answered (independent users make an open loop), so a
//! server stall shows as latency on every call queued behind it. A
//! call's latency runs from its due time to the last byte of its
//! reply; replies on one connection come back in request order, so
//! each connection matches them against a FIFO of calls in flight.

use gae::rpc::http::{FrameLimits, FrameParser, HttpRequest};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Keep-alive connections the generator holds open.
pub const CONNECTIONS: usize = 2;

/// How long the generator waits for stragglers after the last call
/// fell due before it counts them as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// The timed phase is cut into this many windows of equal length;
/// end-to-end figures are taken per window and then over windows, so a
/// burst of interference from outside moves a few windows, not the
/// result.
pub const WINDOWS: usize = 30;

/// What the generator asks of a workload.
pub trait Traffic {
    /// The HTTP request bytes of call `index`, built when it falls due
    /// (so the request can depend on replies already received).
    /// `trace` is the trace id to stamp in `X-GAE-Trace`, if any.
    fn request(&mut self, index: usize, trace: Option<u64>) -> Vec<u8>;
    /// Judges the reply to call `index`: `true` when it is correct.
    fn reply(&mut self, index: usize, status: u16, body: &[u8]) -> bool;
}

/// Builds a POST carrying `body`, with the session and trace headers
/// the door reads.
pub fn http_post(body: Vec<u8>, session: Option<u64>, trace: Option<u64>) -> Vec<u8> {
    let mut request = HttpRequest::xmlrpc(body, session);
    if let Some(id) = trace {
        request
            .headers
            .push(("X-GAE-Trace".to_string(), format!("{id:x}:1")));
    }
    let mut bytes = Vec::with_capacity(request.body.len() + 160);
    request
        .write_to(&mut bytes)
        .expect("Vec write is infallible");
    bytes
}

/// Per-call results of one generator run, indexed by call.
pub struct GenResult {
    /// Due time to last reply byte (µs); `INFINITY` for a failed call.
    pub latency_us: Vec<f64>,
    /// Actual send to last reply byte (µs): the client call span.
    pub span_us: Vec<f64>,
    /// How late each call was sent after it fell due (µs).
    pub late_us: Vec<f64>,
    /// Calls that failed (transport, status, or reply check).
    pub failed: u64,
    /// The generator thread's own user+sys CPU time.
    pub cpu: Duration,
    /// Process user+sys CPU time over the same interval.
    pub process_cpu: Duration,
    /// Wall time from the first due time to the last reply.
    pub elapsed: Duration,
    /// The window each call fell due in.
    pub window: Vec<usize>,
    /// Per window, what was spent while it was the current window.
    pub windows: Vec<WindowCost>,
    /// When the first window began, and each window's length.
    pub start: Instant,
    pub window_len: Duration,
}

/// What one window of the timed phase cost.
pub struct WindowCost {
    /// Process user+sys CPU time.
    pub process: Duration,
    /// The generator thread's user+sys CPU time.
    pub generator: Duration,
    /// The share of the host's CPU time its hypervisor stole.
    pub steal: f64,
}

impl GenResult {
    pub fn completed(&self) -> u64 {
        self.latency_us.len() as u64 - self.failed
    }

    /// Wall interval of window `w` (the last one runs to the end).
    pub fn window_span(&self, w: usize) -> (Instant, Instant) {
        let from = self.start + self.window_len * w as u32;
        let to = if w + 1 == self.windows.len() {
            self.start + self.elapsed
        } else {
            from + self.window_len
        };
        (from, to.max(from))
    }

    /// Latencies (µs) of the calls due in window `w`.
    pub fn window_latencies(&self, w: usize) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(&self.window)
            .filter(|(_, win)| **win == w)
            .map(|(l, _)| *l)
            .collect()
    }
}

struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    parser: FrameParser,
    inflight: VecDeque<(usize, Instant)>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            addr,
            stream,
            out: Vec::new(),
            parser: FrameParser::new(FrameLimits::default()),
            inflight: VecDeque::new(),
        })
    }

    /// Writes as much queued output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..written);
        Ok(())
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Sleeps until a connection is ready or `timeout` passes, with
/// nanosecond timeout resolution (epoll and poll round to whole
/// milliseconds, longer than a call takes here).
fn wait_ready(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live array of `fds.len()` pollfd structs laid
    // out as the C struct, `ts` outlives the call, and a null sigmask
    // means "leave the signal mask alone".
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Runs the schedule `due` (offsets from the start) against `addr`.
/// `trace` stamps call `i` with trace id `i + 1`.
pub fn run(
    addr: SocketAddr,
    due: &[Duration],
    traffic: &mut dyn Traffic,
    trace: bool,
) -> GenResult {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes this thread's timer slack, so ppoll wakes on time.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
    let n = due.len();
    let mut latency_us = vec![f64::INFINITY; n];
    let mut span_us = vec![f64::INFINITY; n];
    let mut late_us = vec![0.0; n];
    let mut ok = vec![false; n];
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr).expect("connect to the benchmark's own server"))
        .collect();
    let span = due.last().copied().unwrap_or_default();
    let window_len = (span / WINDOWS as u32).max(Duration::from_micros(1));
    let window: Vec<usize> = due
        .iter()
        .map(|d| ((d.as_nanos() / window_len.as_nanos()) as usize).min(WINDOWS - 1))
        .collect();
    let mut windows = Vec::with_capacity(WINDOWS);
    let cpu0 = crate::stats::thread_cpu();
    let proc0 = crate::stats::process_cpu();
    let mut mark = (proc0, cpu0, crate::stats::host_steal());
    let close_window = |mark: &mut (Duration, Duration, (u64, u64))| {
        let at = (
            crate::stats::process_cpu(),
            crate::stats::thread_cpu(),
            crate::stats::host_steal(),
        );
        let cost = WindowCost {
            process: at.0.saturating_sub(mark.0),
            generator: at.1.saturating_sub(mark.1),
            steal: crate::stats::steal_share(mark.2, at.2),
        };
        *mark = at;
        cost
    };
    let t0 = Instant::now();
    let deadline = t0 + due.last().copied().unwrap_or_default() + DRAIN_GRACE;
    let mut next = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        if windows.len() + 1 < WINDOWS && now >= t0 + window_len * (windows.len() as u32 + 1) {
            windows.push(close_window(&mut mark));
        }
        while next < n && t0 + due[next] <= now {
            // The least-loaded connection takes the call.
            let c = (0..conns.len())
                .min_by_key(|&c| conns[c].inflight.len())
                .expect("at least one connection");
            let bytes = traffic.request(next, trace.then_some(next as u64 + 1));
            conns[c].out.extend_from_slice(&bytes);
            late_us[next] = now.duration_since(t0 + due[next]).as_secs_f64() * 1e6;
            conns[c].inflight.push_back((next, now));
            next += 1;
        }
        for conn in conns.iter_mut() {
            if conn.flush().is_err() {
                reconnect(conn);
            }
        }
        for conn in conns.iter_mut() {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        reconnect(conn);
                        break;
                    }
                    Ok(len) => {
                        let at = Instant::now();
                        let mut chunk = &buf[..len];
                        while !chunk.is_empty() {
                            let used = match conn.parser.feed(chunk) {
                                Ok(used) => used,
                                Err(_) => {
                                    reconnect(conn);
                                    break;
                                }
                            };
                            chunk = &chunk[used..];
                            if conn.parser.is_complete() {
                                let response = conn.parser.take_response();
                                let Some((i, sent)) = conn.inflight.pop_front() else {
                                    continue;
                                };
                                if let Ok(r) = response {
                                    if traffic.reply(i, r.status, &r.body) {
                                        ok[i] = true;
                                        latency_us[i] =
                                            at.duration_since(t0 + due[i]).as_secs_f64() * 1e6;
                                        span_us[i] = at.duration_since(sent).as_secs_f64() * 1e6;
                                    }
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        reconnect(conn);
                        break;
                    }
                }
            }
        }
        let idle = conns
            .iter()
            .all(|c| c.inflight.is_empty() && c.out.is_empty());
        if next == n && idle {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut wake = if next < n { t0 + due[next] } else { deadline };
        if windows.len() + 1 < WINDOWS {
            wake = wake.min(t0 + window_len * (windows.len() as u32 + 1));
        }
        wait_ready(&conns, wake.saturating_duration_since(now));
    }
    let elapsed = t0
        .elapsed()
        .saturating_sub(due.first().copied().unwrap_or_default());
    windows.push(close_window(&mut mark));
    let cpu = mark.1.saturating_sub(cpu0);
    let process_cpu = mark.0.saturating_sub(proc0);
    let failed = ok.iter().filter(|o| !**o).count() as u64;
    GenResult {
        latency_us,
        span_us,
        late_us,
        failed,
        cpu,
        process_cpu,
        elapsed,
        window,
        windows,
        start: t0,
        window_len,
    }
}

/// Drops a broken connection's calls in flight (they stay failed)
/// and opens a fresh one in its place.
fn reconnect(conn: &mut Conn) {
    conn.inflight.clear();
    conn.out.clear();
    if let Ok(fresh) = Conn::open(conn.addr) {
        *conn = fresh;
    }
}
