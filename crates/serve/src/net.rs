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

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mempool_obs::Json;

use crate::protocol::{CacheOutcome, ExperimentRequest, ServeError, Status};
use crate::service::{Service, ServiceConfig, Shared};

/// How often an idle connection handler wakes to check for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Most connection handlers alive at once. A connection accepted beyond
/// them closes an idle one (between requests, or holding a partial line
/// older than [`PARTIAL_LINE_DEADLINE`]) and takes its place; only when
/// every handler is in the middle of a request is it answered with one
/// `backpressure` status line and closed. So neither idle peers nor peers
/// that stop halfway through a line can exhaust the daemon's threads or
/// its slots.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a handler may hold a partial request line before it counts
/// as idle, so that at [`MAX_CONNECTIONS`] the accept loop may close it
/// for a newcomer. Below the cap a partial line waits as long as it takes.
pub const PARTIAL_LINE_DEADLINE: Duration = Duration::from_secs(1);

/// How long writing one reply line may take before the handler gives up
/// on its peer and closes the connection: a peer that sends requests but
/// never reads the replies fills the socket buffers, and would otherwise
/// hold its handler, and its slot, for as long as it stays.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(1);

/// A handler's [`Handler::state`]: waiting for a request with nothing
/// buffered, or on a partial line past [`PARTIAL_LINE_DEADLINE`], so the
/// accept loop may close it for a newcomer...
const IDLE: u8 = 0;
/// ...reading or serving a request, so it is left alone...
const BUSY: u8 = 1;
/// ...or closed by the accept loop, so it ends.
const EVICTED: u8 = 2;

/// A live connection handler, as the accept loop keeps it.
struct Handler {
    thread: JoinHandle<()>,
    /// [`IDLE`], [`BUSY`] or [`EVICTED`]; only the accept loop evicts.
    state: Arc<AtomicU8>,
    /// The connection, which the accept loop shuts to wake an evicted
    /// handler out of its poll.
    stream: TcpStream,
}

/// Longest request line (newline included) a connection may send. The
/// largest legitimate request is a few hundred bytes; without a bound one
/// peer that never sends a newline grows the handler's buffer forever.
pub(crate) const MAX_REQUEST_BYTES: usize = 1 << 20;

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
    /// [`MAX_CONNECTIONS`] connections are served at once; one more
    /// replaces an idle one (a partial line past [`PARTIAL_LINE_DEADLINE`]
    /// counts as idle), or is refused with a `backpressure` status line
    /// when none is idle. One whose handler thread cannot be started
    /// is closed. Either way only one connection is lost.
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
                    if handlers.len() >= MAX_CONNECTIONS && !evict_idle(&mut handlers) {
                        let busy = ServeError::Backpressure(format!(
                            "all {MAX_CONNECTIONS} connections are in the middle of a request"
                        ));
                        let _ = write_line(&mut stream, &Status::Error(busy).to_json(0));
                        continue;
                    }
                    let Ok(kept) = stream.try_clone() else {
                        continue;
                    };
                    let state = Arc::new(AtomicU8::new(BUSY));
                    let (shared, theirs) = (Arc::clone(&shared), Arc::clone(&state));
                    // A failed spawn drops the closure, and the stream with
                    // it: that connection is closed, the daemon serves on.
                    if let Ok(thread) = std::thread::Builder::new()
                        .name("mempool-serve-conn".to_string())
                        .spawn(move || handle_connection(&shared, stream, local, &theirs))
                    {
                        handlers.push(Handler {
                            thread,
                            state,
                            stream: kept,
                        });
                    }
                }
                // A failed accept (e.g. the peer vanished mid-handshake)
                // only loses that one connection.
                Err(_) => continue,
            }
        }
        for handler in handlers {
            let _ = handler.thread.join();
        }
        Ok(self.service.shutdown())
    }
}

/// Drops the handles of handlers whose connection has ended (nothing
/// reads their result), so a long-lived daemon holds one handle per open
/// connection, not one per connection it ever accepted.
fn reap_finished(handlers: &mut Vec<Handler>) {
    handlers.retain(|handler| !handler.thread.is_finished());
}

/// Closes the oldest idle handler's connection and waits for its thread
/// to end, freeing its slot; `false` when every handler is busy. The wait
/// is short: the shut connection wakes the handler's poll at once, and an
/// evicted handler writes nothing.
fn evict_idle(handlers: &mut Vec<Handler>) -> bool {
    let Some(at) = handlers.iter().position(|handler| {
        let state = &handler.state;
        state
            .compare_exchange(IDLE, EVICTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }) else {
        return false;
    };
    let handler = handlers.remove(at);
    let _ = handler.stream.shutdown(Shutdown::Both);
    let _ = handler.thread.join();
    true
}

/// Writes `doc` as one line, all of it within [`WRITE_DEADLINE`]: each
/// write may block only for the time left, so a peer that takes the bytes
/// slower than that, or not at all, fails the write.
fn write_line(stream: &mut TcpStream, doc: &Json) -> std::io::Result<()> {
    let mut line = String::new();
    doc.write_compact(&mut line);
    line.push('\n');
    let deadline = Instant::now() + WRITE_DEADLINE;
    let mut rest = line.as_bytes();
    while !rest.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(written) => rest = &rest[written..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sequentially serves one connection. Returns (closing the connection)
/// on EOF, a broken socket or a reply line not written within
/// [`WRITE_DEADLINE`], a request line longer than [`MAX_REQUEST_BYTES`]
/// (answered with a typed `bad_request` first), or service shutdown or
/// eviction while idle; a request already admitted streams to completion
/// first unless its peer stops reading (shutdown drains the pool, so its
/// terminal status is guaranteed to arrive). `state` tells the accept
/// loop when the handler is idle (see [`await_request`]) or has held a
/// partial line past [`PARTIAL_LINE_DEADLINE`], however its bytes trickle
/// in.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, local: SocketAddr, state: &AtomicU8) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let Ok(mut writer) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // When the first byte of `line` arrived.
    let mut began = Instant::now();
    // Past the deadline a partial line no longer holds the handler's slot.
    let stale = |began: Instant| {
        if began.elapsed() >= PARTIAL_LINE_DEADLINE {
            let _ = state.compare_exchange(BUSY, IDLE, Ordering::AcqRel, Ordering::Acquire);
        }
    };
    loop {
        if line.is_empty() {
            if reader.buffer().is_empty() && !await_request(shared, &mut reader, state) {
                break;
            }
            began = Instant::now();
        }
        let room = MAX_REQUEST_BYTES + 1 - line.len();
        match read_part(&mut reader, &mut line, room) {
            Ok(0) => break,
            Ok(_) if line.len() <= MAX_REQUEST_BYTES && !line.ends_with(b"\n") => stale(began),
            Ok(_) if !reclaim(state) => break,
            Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                let status = Status::Error(ServeError::BadRequest(format!(
                    "request line exceeds {MAX_REQUEST_BYTES} bytes"
                )));
                let _ = write_line(&mut writer, &status.to_json(0));
                break;
            }
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                let keep_going = serve_line(shared, &mut writer, text.trim(), local);
                line.clear();
                if !keep_going {
                    break;
                }
            }
            // Idle poll: `line` keeps any partial read, and the next
            // read_part continues appending to it.
            Err(e) if is_poll(&e) => {
                if shared.is_shutting_down() {
                    break;
                }
                stale(began);
            }
            Err(_) => break,
        }
    }
    // The accept loop holds a clone of the connection, so dropping this
    // handler's ends would leave it open.
    let _ = writer.shutdown(Shutdown::Both);
}

/// Moves the buffered bytes up to the first newline, at most `room` of
/// them, into `line`, reading once first when none are buffered; 0 at
/// EOF. Unlike `read_until` it returns after every read, so a partial
/// line that trickles in is checked against its deadline all the same.
fn read_part(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    room: usize,
) -> std::io::Result<usize> {
    let buf = reader.fill_buf()?;
    let end = buf
        .iter()
        .position(|&b| b == b'\n')
        .map_or(buf.len(), |at| at + 1);
    let end = end.min(room);
    line.extend_from_slice(&buf[..end]);
    reader.consume(end);
    Ok(end)
}

/// Waits between requests, idle (so the accept loop may evict the
/// handler), for the first byte of the next one. `false` ends the
/// connection: EOF, a broken socket, service shutdown, or eviction — a
/// request that arrives just as the accept loop evicts the handler finds
/// the connection closed, unanswered.
fn await_request(shared: &Shared, reader: &mut BufReader<TcpStream>, state: &AtomicU8) -> bool {
    // Busy until now, so the accept loop has not touched the state.
    state.store(IDLE, Ordering::Release);
    loop {
        match reader.fill_buf() {
            Ok([]) => return false,
            Ok(_) => {
                let start = state.compare_exchange(IDLE, BUSY, Ordering::AcqRel, Ordering::Acquire);
                return start.is_ok();
            }
            Err(e) if is_poll(&e) => {
                if shared.is_shutting_down() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Takes a handler whose partial line went stale back from the accept
/// loop now that the line is read; `false` when the accept loop evicted
/// it meanwhile, so the line ends unanswered.
fn reclaim(state: &AtomicU8) -> bool {
    state.compare_exchange(IDLE, BUSY, Ordering::AcqRel, Ordering::Acquire) != Err(EVICTED)
}

/// Whether a read ended on the handler's idle poll, not on a failure.
fn is_poll(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
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

    /// A handler in `state` whose thread runs `body`, holding one end of a
    /// loopback connection.
    fn handler(state: u8, body: impl FnOnce() + Send + 'static) -> Handler {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Handler {
            thread: std::thread::spawn(body),
            state: Arc::new(AtomicU8::new(state)),
            stream,
        }
    }

    #[test]
    fn finished_handlers_are_reaped_and_running_ones_kept() {
        let mut handlers: Vec<_> = (0..8).map(|_| handler(IDLE, || ())).collect();
        while !handlers.iter().all(|handler| handler.thread.is_finished()) {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty(), "eight finished threads leave nothing");

        // A handler parked on its connection (here: a channel) is kept.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        handlers.push(handler(IDLE, move || {
            let _ = parked.recv();
        }));
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "a live handler keeps its handle");
        drop(release);
        handlers.pop().unwrap().thread.join().unwrap();
    }

    #[test]
    fn only_an_idle_handler_is_evicted() {
        let mut handlers = vec![handler(BUSY, || ()), handler(BUSY, || ())];
        assert!(!evict_idle(&mut handlers), "busy handlers keep their slots");
        assert_eq!(handlers.len(), 2);

        handlers.push(handler(IDLE, || ()));
        let idle = Arc::clone(&handlers[2].state);
        assert!(evict_idle(&mut handlers));
        assert_eq!(idle.load(Ordering::Acquire), EVICTED);
        assert_eq!(handlers.len(), 2);
        assert!(handlers
            .iter()
            .all(|handler| handler.state.load(Ordering::Acquire) == BUSY));
    }
}
