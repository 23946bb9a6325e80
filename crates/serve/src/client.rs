//! Clients of the experiment service.
//!
//! [`Client`] is the in-process handle: thread-safe, cheap to clone, and
//! the substrate of the throughput benchmark.
//! [`TcpClient`] speaks the newline-delimited JSON protocol to a
//! `repro serve` daemon over [`std::net::TcpStream`].

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

use mempool_obs::Json;

use crate::protocol::{CacheOutcome, ExperimentRequest, ServeError, Status};
use crate::service::{submit, Shared};

/// Longest response line (newline included) [`TcpClient`] reads. The
/// largest catalogue artifact is a few kilobytes and a `stats` document
/// carries at most 256 flight events; without a bound a peer that never
/// sends a newline grows the client's buffer until the OS kills it.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// Connection attempts [`TcpClient::connect`] makes before it gives up.
const CONNECT_ATTEMPTS: u32 = 5;

/// Sleep after the first failed attempt; attempt *n* sleeps `n - 1` times
/// this before it starts.
const CONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// Deadline of one connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

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
        outcome(|| {
            self.rx.recv().map_err(|_| {
                ServeError::Transport("service dropped the response stream".to_string())
            })
        })
    }
}

/// Reads a status stream from `next` to its terminal status, skipping
/// the progress lines (`accepted`, `started`).
fn outcome(mut next: impl FnMut() -> Result<Status, ServeError>) -> Result<Outcome, ServeError> {
    loop {
        match next()? {
            Status::Done { cache, artifact } => return Ok(Outcome { artifact, cache }),
            Status::Error(error) => return Err(error),
            Status::Accepted { .. } | Status::Started => continue,
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
    /// Connects to a daemon with bounded retries: up to 5 attempts, 5 s
    /// each, with a linear backoff of 200 ms more after each failure. A
    /// daemon restarting mid-sweep comes back within that window and the
    /// caller carries on. The established stream has no read deadline: a
    /// long experiment is computed inline on its first request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the final attempt timed out,
    /// [`ServeError::Transport`] when it failed another way (refused,
    /// unreachable, resolution failure).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ServeError::Transport(
                "address resolved to nothing".to_string(),
            ));
        }
        let mut last_err = None;
        for attempt in 1..=CONNECT_ATTEMPTS {
            if attempt > 1 {
                std::thread::sleep(CONNECT_BACKOFF * (attempt - 1));
            }
            for target in &addrs {
                match TcpStream::connect_timeout(target, CONNECT_TIMEOUT) {
                    Ok(writer) => {
                        let reader = writer
                            .try_clone()
                            .map_err(|e| ServeError::Transport(e.to_string()))?;
                        return Ok(TcpClient {
                            reader: BufReader::new(reader),
                            writer,
                            next_id: 1,
                        });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        let last = last_err.expect("at least one attempt ran");
        let message = format!("no connection within {CONNECT_ATTEMPTS} attempts: {last}");
        if last.kind() == ErrorKind::TimedOut {
            Err(ServeError::Timeout(message))
        } else {
            Err(ServeError::Transport(message))
        }
    }

    fn send_line(&mut self, doc: &Json) -> Result<(), ServeError> {
        let mut line = String::new();
        doc.write_compact(&mut line);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| ServeError::Transport(e.to_string()))
    }

    fn read_status(&mut self, expect_id: u64) -> Result<Status, ServeError> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = (&mut self.reader)
                .take(MAX_RESPONSE_BYTES as u64 + 1)
                .read_until(b'\n', &mut line)
                .map_err(|e| ServeError::Transport(e.to_string()))?;
            if n == 0 {
                return Err(ServeError::Transport(
                    "connection closed mid-response".to_string(),
                ));
            }
            if line.len() > MAX_RESPONSE_BYTES {
                return Err(ServeError::Protocol(format!(
                    "response line exceeds {MAX_RESPONSE_BYTES} bytes"
                )));
            }
            let line = std::str::from_utf8(&line)
                .map_err(|e| ServeError::Transport(format!("response line is not UTF-8: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line.trim())
                .map_err(|e| ServeError::Protocol(format!("unparseable response line: {e}")))?;
            let (id, status) = Status::from_json(&doc).map_err(ServeError::Protocol)?;
            // An error with id 0 answers the connection rather than one
            // request (an unparseable line, or a daemon at its connection
            // cap refusing this one with `backpressure`).
            let to_connection = id == 0 && matches!(status, Status::Error(_));
            if id != expect_id && !to_connection {
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
        outcome(|| self.read_status(id))
    }

    fn admin(&mut self, kind: &str) -> Result<Arc<Json>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&Json::obj([
            ("id", Json::Int(id as i64)),
            ("kind", Json::str(kind)),
        ]))?;
        outcome(|| self.read_status(id)).map(|done| done.artifact)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_gives_up_after_bounded_attempts() {
        // A listener that is immediately dropped yields a port nothing
        // accepts on — every attempt fails fast with refused.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let err = TcpClient::connect(("127.0.0.1", port)).unwrap_err();
        match err {
            ServeError::Transport(msg) | ServeError::Timeout(msg) => {
                assert!(msg.contains("5 attempts"), "{msg}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn an_endless_response_line_is_a_typed_protocol_error() {
        // A peer that answers with one line longer than the bound and no
        // newline, then closes: the client stops reading at the bound.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flood = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            let mut reader = BufReader::new(stream.try_clone()?);
            reader.read_line(&mut String::new())?;
            stream.write_all(&vec![b'x'; MAX_RESPONSE_BYTES + 1])?;
            stream.shutdown(std::net::Shutdown::Write)?;
            // Read until the client hangs up, so no unread request bytes
            // turn the close into a reset.
            std::io::copy(&mut reader, &mut std::io::sink())?;
            Ok(())
        });
        let mut client = TcpClient::connect(addr).unwrap();
        let req = ExperimentRequest::new(crate::protocol::ExperimentKind::Table1);
        match client.request(&req) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains(&MAX_RESPONSE_BYTES.to_string()), "{msg}");
            }
            other => panic!("expected a protocol error naming the bound, got {other:?}"),
        }
        drop(client);
        flood.join().unwrap().unwrap();
    }
}
