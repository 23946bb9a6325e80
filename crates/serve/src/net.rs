//! The TCP front end of the experiment service (`repro serve`).
//!
//! One newline-delimited JSON document per line, in both directions (see
//! [`crate::protocol`]). Each accepted connection gets its own handler
//! thread that processes requests sequentially and streams every status
//! update back as its own line; concurrency comes from concurrent
//! connections, all multiplexed onto the one shared worker pool, cache,
//! and coalescing table.
//!
//! Two admin request kinds ride on the same framing:
//!
//! - `{"id": N, "kind": "stats"}` — returns the live
//!   `mempool-serve-stats/v1` document as the response artifact;
//! - `{"id": N, "kind": "shutdown"}` — acknowledges, then drains the
//!   service: queued jobs finish, every accepted waiter gets its
//!   response, and [`TcpServer::run`] returns the final stats document.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mempool_obs::Json;

use crate::protocol::{CacheOutcome, ExperimentRequest, ServeError, Status};
use crate::service::{Service, ServiceConfig, Shared};

/// How often an idle connection handler wakes to check for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Most connection handlers alive at once. A connection accepted beyond
/// them is answered with one `backpressure` status line and closed, so
/// idle peers cannot exhaust the daemon's threads.
pub const MAX_CONNECTIONS: usize = 64;

/// Longest request line (newline included) a connection may send. The
/// largest legitimate request is a few hundred bytes; without a bound one
/// peer that never sends a newline grows the handler's buffer forever.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A TCP daemon wrapping a [`Service`].
pub struct TcpServer {
    listener: TcpListener,
    service: Service,
}

impl TcpServer {
    /// Binds the listener and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on bind or cache-directory failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServiceConfig) -> Result<Self, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Transport(format!("bind: {e}")))?;
        let service = Service::start(config)?;
        Ok(TcpServer { listener, service })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure as a transport error.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Transport(format!("local_addr: {e}")))
    }

    /// Serves until a client sends `{"kind": "shutdown"}`, then drains
    /// gracefully and returns the final stats document. At most
    /// [`MAX_CONNECTIONS`] connections are served at once; one more is
    /// refused with a `backpressure` status line, and one whose handler
    /// thread cannot be started is closed. Either way only that connection
    /// is lost.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] if the listener breaks irrecoverably.
    pub fn run(self) -> Result<Json, ServeError> {
        let shared = self.service.shared_handle();
        let local = self.local_addr()?;
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if shared.is_shutting_down() {
                break;
            }
            match stream {
                Ok(mut stream) => {
                    reap_finished(&mut handlers);
                    if handlers.len() >= MAX_CONNECTIONS {
                        let busy = ServeError::Backpressure {
                            max_queue: MAX_CONNECTIONS,
                        };
                        let _ = write_line(&mut stream, &Status::Error(busy).to_json(0));
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    // A failed spawn drops the closure, and the stream with
                    // it: that connection is closed, the daemon serves on.
                    if let Ok(handler) = std::thread::Builder::new()
                        .name("mempool-serve-conn".to_string())
                        .spawn(move || handle_connection(&shared, stream, local))
                    {
                        handlers.push(handler);
                    }
                }
                // A failed accept (e.g. the peer vanished mid-handshake)
                // only loses that one connection.
                Err(_) => continue,
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(self.service.shutdown())
    }
}

/// Drops the handles of handlers whose connection has ended (nothing
/// reads their result), so a long-lived daemon holds one handle per open
/// connection, not one per connection it ever accepted.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    handlers.retain(|handler| !handler.is_finished());
}

fn write_line(stream: &mut TcpStream, doc: &Json) -> std::io::Result<()> {
    let mut line = String::new();
    doc.write_compact(&mut line);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Sequentially serves one connection. Returns (closing the connection)
/// on EOF, an unwritable socket, a request line longer than
/// [`MAX_REQUEST_BYTES`] (answered with a typed `bad_request` first), or
/// service shutdown while idle; a request already admitted always streams
/// to completion first (shutdown drains the pool, so its terminal status
/// is guaranteed to arrive).
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, local: SocketAddr) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let room = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                let status = Status::Error(ServeError::BadRequest(format!(
                    "request line exceeds {MAX_REQUEST_BYTES} bytes"
                )));
                let _ = write_line(&mut writer, &status.to_json(0));
                return;
            }
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                let keep_going = serve_line(shared, &mut writer, text.trim(), local);
                line.clear();
                if !keep_going {
                    return;
                }
            }
            // Idle poll: `line` keeps any partial read, and the next
            // read_until continues appending to it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one request line; `false` ends the connection.
fn serve_line(shared: &Arc<Shared>, writer: &mut TcpStream, text: &str, local: SocketAddr) -> bool {
    if text.is_empty() {
        return true;
    }
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            let status = Status::Error(ServeError::BadRequest(format!("unparseable line: {e}")));
            return write_line(writer, &status.to_json(0)).is_ok();
        }
    };
    let id = doc
        .get("id")
        .and_then(Json::as_int)
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or(0);
    match doc.get("kind").and_then(Json::as_str) {
        Some("stats") => {
            let stats = crate::service::stats_json(shared);
            let status = Status::Done {
                cache: CacheOutcome::Hit,
                artifact: Arc::new(stats),
            };
            return write_line(writer, &status.to_json(id)).is_ok();
        }
        Some("shutdown") => {
            crate::service::begin_shutdown(shared);
            let stats = crate::service::stats_json(shared);
            let status = Status::Done {
                cache: CacheOutcome::Hit,
                artifact: Arc::new(stats),
            };
            let _ = write_line(writer, &status.to_json(id));
            // Wake the accept loop so `TcpServer::run` observes the flag.
            let _ = TcpStream::connect(local);
            return false;
        }
        _ => {}
    }
    let req = match ExperimentRequest::from_json(&doc) {
        Ok(req) => req,
        Err(message) => {
            let status = Status::Error(ServeError::BadRequest(message));
            return write_line(writer, &status.to_json(id)).is_ok();
        }
    };
    let pending = match crate::Client::new(Arc::clone(shared)).submit(req) {
        Ok(pending) => pending,
        Err(error) => return write_line(writer, &Status::Error(error).to_json(id)).is_ok(),
    };
    while let Some(status) = pending.next_status() {
        let terminal = matches!(status, Status::Done { .. } | Status::Error(_));
        if write_line(writer, &status.to_json(id)).is_err() {
            // The peer went away; drain the remaining statuses silently
            // so the worker's sends don't error.
            return false;
        }
        if terminal {
            return true;
        }
    }
    // The service dropped the stream without a terminal status.
    write_line(
        writer,
        &Status::Error(ServeError::Transport(
            "service dropped the response stream".to_string(),
        ))
        .to_json(id),
    )
    .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_handlers_are_reaped_and_running_ones_kept() {
        let mut handlers: Vec<_> = (0..8).map(|_| std::thread::spawn(|| ())).collect();
        while !handlers.iter().all(JoinHandle::is_finished) {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty(), "eight finished threads leave nothing");

        // A handler parked on its connection (here: a channel) is kept.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        handlers.push(std::thread::spawn(move || {
            let _ = parked.recv();
        }));
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "a live handler keeps its handle");
        drop(release);
        handlers.pop().unwrap().join().unwrap();
    }
}
