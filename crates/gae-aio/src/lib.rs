//! `gae-aio` — a dependency-free epoll reactor: the front door for
//! the GAE's XML-RPC services.
//!
//! The paper's interactive-analysis tension (§3) implies thousands of
//! mostly-idle clients holding keep-alive connections. This crate
//! holds every connection as a readiness state machine on one event
//! loop, so a connection costs a slab slot rather than a thread:
//!
//! * [`sys`] — the `extern "C"` syscall bindings (std already links
//!   libc on Linux; no external crates);
//! * [`poller`] — level-triggered epoll multiplexing, with a
//!   `poll(2)` backend behind the `poll-fallback` feature;
//! * [`wake`] — eventfd (or pipe) wakeup for worker→reactor
//!   completions;
//! * [`reactor`] — [`ReactorRpcServer`], the server, optionally gated.
//!
//! Framing ([`gae_rpc::http::FrameParser`], typed 408/413) and
//! dispatch ([`gae_rpc::door`]: gate admission, auth, observability,
//! fault bytes) both live in `gae-rpc`: the reactor adds scheduling,
//! not semantics. Server-level tests live in `tests/server.rs`.

#![warn(missing_docs)]

pub mod poller;
pub mod reactor;
pub mod sys;
pub mod wake;

pub use poller::{Event, Interest, Poller};
pub use reactor::{ReactorConfig, ReactorRpcServer};
pub use wake::Waker;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn waker_wakes_and_drains() {
        let w = Waker::new().unwrap();
        let mut p = Poller::new().unwrap();
        p.add(w.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing yet: the wait times out empty.
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        w.wake();
        w.wake(); // coalesces
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        w.drain();
        events.clear();
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained waker is quiet: {events:?}");
    }
}
