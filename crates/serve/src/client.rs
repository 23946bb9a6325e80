//! Clients of the experiment service.
//!
//! [`Client`] is the in-process handle: thread-safe, cheap to clone, and
//! the substrate of the DSE batch client and the throughput benchmark.
//! [`TcpClient`] speaks the newline-delimited JSON protocol to a
//! `repro serve` daemon over [`std::net::TcpStream`].

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

use mempool_obs::Json;

use crate::protocol::{CacheOutcome, ExperimentRequest, ServeError, Status};
use crate::service::{submit, Shared};

/// A completed request: the artifact plus how it was satisfied.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The experiment artifact (identical to the one-shot `repro`
    /// document for the same config).
    pub artifact: Arc<Json>,
    /// Hit, miss, or coalesced.
    pub cache: CacheOutcome,
}

/// A submitted request whose status updates stream in.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Status>,
}

impl Pending {
    /// The next status update (blocking). `None` once the stream ends.
    pub(crate) fn next_status(&self) -> Option<Status> {
        self.rx.recv().ok()
    }

    /// Blocks until the request completes, collapsing the stream into
    /// its outcome.
    ///
    /// # Errors
    ///
    /// Returns the service's typed error, or [`ServeError::Transport`]
    /// if the service dropped the stream without a terminal status.
    pub fn wait(self) -> Result<Outcome, ServeError> {
        loop {
            match self.rx.recv() {
                Ok(Status::Done { cache, artifact }) => return Ok(Outcome { artifact, cache }),
                Ok(Status::Error(error)) => return Err(error),
                Ok(Status::Accepted { .. } | Status::Started) => continue,
                Err(_) => {
                    return Err(ServeError::Transport(
                        "service dropped the response stream".to_string(),
                    ))
                }
            }
        }
    }
}

/// Thread-safe in-process submission handle (clone freely; all clones
/// talk to the same pool and cache).
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Client { shared }
    }

    /// Submits a request, returning the streaming handle on admission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the bounded queue is full,
    /// [`ServeError::ShuttingDown`] once draining began.
    pub fn submit(&self, req: ExperimentRequest) -> Result<Pending, ServeError> {
        let (tx, rx) = channel();
        submit(&self.shared, req, tx)?;
        Ok(Pending { rx })
    }

    /// Submits and blocks until done.
    ///
    /// # Errors
    ///
    /// Propagates submission and execution errors.
    pub fn run(&self, req: ExperimentRequest) -> Result<Outcome, ServeError> {
        self.submit(req)?.wait()
    }
}

/// Connection robustness knobs for [`TcpClient::connect_with`]: bounded
/// retries with linear backoff plus connect/read deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (clamped to at least 1).
    pub attempts: u32,
    /// Sleep after the first failed attempt; each later failure backs off
    /// by one more multiple of this (attempt *n* sleeps `n * backoff`).
    pub backoff: Duration,
    /// Per-attempt connect deadline.
    pub connect_timeout: Duration,
    /// Read deadline applied to the established stream; `None` blocks
    /// forever (long experiments are computed inline on first request).
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            backoff: Duration::from_millis(200),
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
        }
    }
}

/// A TCP client for a `repro serve` daemon. Requests are issued
/// sequentially per connection; concurrency comes from multiple
/// connections (or the in-process `Client`).
#[derive(Debug)]
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl TcpClient {
    /// Connects to a daemon in one attempt with no deadlines (the
    /// original behavior; [`TcpClient::connect_with`] adds robustness).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with bounded retries, backoff, and timeouts — the right
    /// call for anything unattended (CI, the DSE batch driver, resumed
    /// sweeps racing a restarting daemon).
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when every attempt timed out,
    /// [`ServeError::Transport`] when the final attempt failed another
    /// way (refused, unreachable, resolution failure).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: &RetryPolicy,
    ) -> Result<Self, ServeError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ServeError::Transport(
                "address resolved to nothing".to_string(),
            ));
        }
        let attempts = policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                std::thread::sleep(policy.backoff * (attempt - 1));
            }
            for target in &addrs {
                match TcpStream::connect_timeout(target, policy.connect_timeout) {
                    Ok(stream) => {
                        stream
                            .set_read_timeout(policy.read_timeout)
                            .map_err(|e| ServeError::Transport(e.to_string()))?;
                        return Self::from_stream(stream)
                            .map_err(|e| ServeError::Transport(e.to_string()));
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        let last = last_err.expect("at least one attempt ran");
        if io_is_timeout(&last) {
            Err(ServeError::Timeout(format!(
                "no connection within {attempts} attempts: {last}"
            )))
        } else {
            Err(ServeError::Transport(format!(
                "no connection within {attempts} attempts: {last}"
            )))
        }
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    fn send_line(&mut self, doc: &Json) -> Result<(), ServeError> {
        let mut line = doc.to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| ServeError::Transport(e.to_string()))
    }

    fn read_status(&mut self, expect_id: u64) -> Result<Status, ServeError> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).map_err(|e| {
                if io_is_timeout(&e) {
                    ServeError::Timeout(format!("no response within the read deadline: {e}"))
                } else {
                    ServeError::Transport(e.to_string())
                }
            })?;
            if n == 0 {
                return Err(ServeError::Transport(
                    "connection closed mid-response".to_string(),
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line.trim())
                .map_err(|e| ServeError::Protocol(format!("unparseable response line: {e}")))?;
            let (id, status) = Status::from_json(&doc).map_err(ServeError::Protocol)?;
            if id != expect_id {
                return Err(ServeError::Protocol(format!(
                    "response for id {id} while waiting on {expect_id}"
                )));
            }
            return Ok(status);
        }
    }

    /// Issues one experiment request and blocks for its outcome,
    /// consuming the streamed status lines.
    ///
    /// # Errors
    ///
    /// Typed service errors travel back as [`ServeError`]; transport and
    /// protocol failures are tagged as such.
    pub fn request(&mut self, req: &ExperimentRequest) -> Result<Outcome, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut doc = req.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(0, ("id".to_string(), Json::Int(id as i64)));
        }
        self.send_line(&doc)?;
        loop {
            match self.read_status(id)? {
                Status::Done { cache, artifact } => return Ok(Outcome { artifact, cache }),
                Status::Error(error) => return Err(error),
                Status::Accepted { .. } | Status::Started => continue,
            }
        }
    }

    fn admin(&mut self, kind: &str) -> Result<Arc<Json>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&Json::obj([
            ("id", Json::Int(id as i64)),
            ("kind", Json::str(kind)),
        ]))?;
        loop {
            match self.read_status(id)? {
                Status::Done { artifact, .. } => return Ok(artifact),
                Status::Error(error) => return Err(error),
                Status::Accepted { .. } | Status::Started => continue,
            }
        }
    }

    /// Fetches the service stats document
    /// (`mempool-serve-stats/v1`: counters, gauges, flight events).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn stats(&mut self) -> Result<Arc<Json>, ServeError> {
        self.admin("stats")
    }

    /// Asks the daemon to drain and exit. The daemon acknowledges before
    /// it stops accepting connections.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.admin("shutdown").map(|_| ())
    }
}

/// Whether an I/O error is a deadline expiry. Unix reports a socket
/// read deadline as `WouldBlock`, Windows as `TimedOut`.
fn io_is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_with_gives_up_after_bounded_attempts() {
        // A listener that is immediately dropped yields a port nothing
        // accepts on — every attempt fails fast with refused.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
            connect_timeout: Duration::from_millis(200),
            read_timeout: None,
        };
        let err = TcpClient::connect_with(("127.0.0.1", port), &policy).unwrap_err();
        match err {
            ServeError::Transport(msg) | ServeError::Timeout(msg) => {
                assert!(msg.contains("3 attempts"), "{msg}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn read_deadline_surfaces_as_typed_timeout() {
        // A listener that accepts but never responds trips the read
        // deadline, not a transport error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let policy = RetryPolicy {
            read_timeout: Some(Duration::from_millis(50)),
            ..RetryPolicy::default()
        };
        let mut client = TcpClient::connect_with(addr, &policy).unwrap();
        let req = ExperimentRequest::new(crate::protocol::ExperimentKind::Table1);
        match client.request(&req) {
            Err(ServeError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        drop(client);
        let _ = silent.join();
    }

    #[test]
    fn retry_policy_defaults_are_bounded() {
        let policy = RetryPolicy::default();
        assert!(policy.attempts >= 1);
        assert!(policy.connect_timeout > Duration::ZERO);
    }
}
