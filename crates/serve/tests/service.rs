//! Integration tests for the experiment service: coalescing, bounded
//! backpressure, graceful shutdown, the TCP protocol, and the served DSE
//! document's equivalence with the in-process exploration.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mempool::dse::DesignSpace;
use mempool::experiments::{Evaluation, Fig6};
use mempool_obs::Json;
use mempool_serve::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ResultCache, ServeError, Service,
    ServiceConfig, TcpClient, TcpServer, MAX_CONNECTIONS, MAX_QUEUE, PARTIAL_LINE_DEADLINE,
    WRITE_DEADLINE,
};

/// A runner gate: holds every run until released, counting invocations.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    runs: AtomicU64,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            runs: AtomicU64::new(0),
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// A guard that releases the gate when it drops. Declared after the
    /// `Service`, it drops first, so an assert that fires before
    /// `release()` frees the worker the service's drop joins: the test
    /// fails instead of hanging.
    fn release_on_drop(self: &Arc<Self>) -> ReleaseOnDrop {
        ReleaseOnDrop(Arc::clone(self))
    }

    fn runner(self: &Arc<Self>) -> Box<dyn mempool_serve::Runner> {
        let gate = Arc::clone(self);
        Box::new(move |req: &ExperimentRequest| {
            gate.runs.fetch_add(1, Ordering::SeqCst);
            let mut open = gate.open.lock().unwrap();
            while !*open {
                open = gate.cv.wait(open).unwrap();
            }
            drop(open);
            Ok(Json::obj([
                ("kind", Json::str(req.kind.tag())),
                ("key", Json::str(format!("{:016x}", req.cache_key()))),
            ]))
        })
    }
}

struct ReleaseOnDrop(Arc<Gate>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..1000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn identical_inflight_requests_coalesce_onto_one_computation() {
    let gate = Gate::new();
    let service = Service::start_with_runner(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        gate.runner(),
    )
    .unwrap();
    let _release = gate.release_on_drop();
    let client = service.client();
    let req = ExperimentRequest::new(ExperimentKind::Fig6);
    let first = client.submit(req).unwrap();
    // Wait for the worker to pick the job up, then submit the identical
    // request while it is computing.
    wait_until("the first request to start", || {
        service.stats().computed.load(Ordering::SeqCst) > 0 || gate.runs.load(Ordering::SeqCst) > 0
    });
    let second = client.submit(req).unwrap();
    gate.release();
    let a = first.wait().unwrap();
    let b = second.wait().unwrap();
    assert_eq!(a.cache, CacheOutcome::Miss);
    assert_eq!(b.cache, CacheOutcome::Coalesced);
    assert_eq!(*a.artifact, *b.artifact, "one artifact, two responses");
    assert_eq!(gate.runs.load(Ordering::SeqCst), 1, "computed exactly once");
    assert_eq!(service.stats().coalesced.load(Ordering::SeqCst), 1);
    // A third submission after completion is a plain cache hit.
    let third = client.run(req).unwrap();
    assert_eq!(third.cache, CacheOutcome::Hit);
    assert_eq!(gate.runs.load(Ordering::SeqCst), 1);
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    let gate = Gate::new();
    let service = Service::start_with_runner(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        gate.runner(),
    )
    .unwrap();
    let _release = gate.release_on_drop();
    let client = service.client();
    let sweep = |bw| {
        ExperimentRequest::new(ExperimentKind::Sweep {
            bytes_per_cycle: bw,
        })
    };
    // The first request occupies the single worker...
    let first = client.submit(sweep(1)).unwrap();
    wait_until("the worker to start", || {
        gate.runs.load(Ordering::SeqCst) > 0
    });
    // ...the next MAX_QUEUE distinct ones fill the queue...
    let queued: Vec<_> = (2..)
        .take(MAX_QUEUE)
        .map(|bw| client.submit(sweep(bw)).unwrap())
        .collect();
    // ...and one more is rejected, typed, with the bound.
    let bw = 2 + MAX_QUEUE as u32;
    let rejection = client.submit(sweep(bw)).unwrap_err();
    assert_eq!(
        rejection,
        ServeError::Backpressure("queue full (bounded at 64 jobs)".to_string())
    );
    assert_eq!(rejection.code(), "backpressure");
    assert_eq!(service.stats().rejected.load(Ordering::SeqCst), 1);
    gate.release();
    assert!(first.wait().is_ok());
    assert!(queued.into_iter().all(|pending| pending.wait().is_ok()));
}

#[test]
fn graceful_shutdown_drains_queued_work_and_keeps_the_cache_sound() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Gate::new();
    let service = Service::start_with_runner(
        ServiceConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
        },
        gate.runner(),
    )
    .unwrap();
    let _release = gate.release_on_drop();
    let client = service.client();
    let reqs: Vec<_> = [4u32, 8, 16, 32]
        .iter()
        .map(|&bw| {
            ExperimentRequest::new(ExperimentKind::Sweep {
                bytes_per_cycle: bw,
            })
        })
        .collect();
    let pending: Vec<_> = reqs.iter().map(|&r| client.submit(r).unwrap()).collect();
    gate.release();
    // Drain with three of the four likely still queued behind the single
    // worker.
    let stats = service.shutdown();
    // Every accepted waiter got its response.
    for (req, handle) in reqs.iter().zip(pending) {
        let outcome = handle.wait().expect("drained request completes");
        assert_eq!(
            outcome.artifact.get("key").and_then(Json::as_str).unwrap(),
            format!("{:016x}", req.cache_key())
        );
    }
    assert_eq!(
        stats.get("completed").and_then(Json::as_int).unwrap(),
        4,
        "{stats:?}"
    );
    // New submissions after drain are typed rejections.
    // (The pool is gone; use the stats document to prove the flag.)
    assert_eq!(stats.get("queue_depth").and_then(Json::as_int), Some(0));
    // Every persisted cache entry is complete, parseable JSON.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .collect();
    assert_eq!(entries.len(), 4, "one cas file per unique config");
    for entry in &entries {
        let text = std::fs::read_to_string(entry.path()).unwrap();
        Json::parse(&text).expect("cache entry parses");
        assert!(!entry.file_name().to_string_lossy().contains(".tmp-"));
    }
    // A restarted service serves the drained results as hits.
    let cache = ResultCache::with_dir(&dir).unwrap();
    assert!(cache.get(reqs[0].cache_key()).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submissions_during_drain_are_rejected_as_shutting_down() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let client = service.client();
    service.begin_shutdown();
    let err = client
        .submit(ExperimentRequest::new(ExperimentKind::Table1))
        .unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    service.shutdown();
}

#[test]
fn panicking_experiments_become_typed_errors_not_wedged_waiters() {
    let service = Service::start_with_runner(
        ServiceConfig::default(),
        Box::new(|_req: &ExperimentRequest| -> Result<Json, String> { panic!("injected failure") }),
    )
    .unwrap();
    let err = service
        .client()
        .run(ExperimentRequest::new(ExperimentKind::Fig6))
        .unwrap_err();
    match err {
        ServeError::Experiment(message) => assert!(message.contains("injected failure")),
        other => panic!("expected an experiment error, got {other:?}"),
    }
    assert_eq!(service.stats().failed.load(Ordering::SeqCst), 1);
    // The pool survives: the next (different) request still completes.
    let service2_probe = service
        .client()
        .run(ExperimentRequest::new(ExperimentKind::Table1));
    assert!(service2_probe.is_err(), "runner always panics");
    assert_eq!(service.stats().failed.load(Ordering::SeqCst), 2);
}

/// A kernel dimension no compute phase can have is the client's mistake:
/// a typed error from the default runner, answered before a cluster is
/// built — not a panic caught at the worker's edge.
#[test]
fn impossible_kernel_dimensions_are_typed_errors_not_worker_panics() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    for p in [0, 5, 512, 1000] {
        let err = service
            .client()
            .run(ExperimentRequest::new(ExperimentKind::Kernel { p }))
            .unwrap_err();
        match err {
            ServeError::Experiment(message) => {
                assert!(
                    message.contains(&format!("compute phase p={p}:")),
                    "{message}"
                );
                assert!(!message.contains("panicked"), "{message}");
            }
            other => panic!("p={p}: expected an experiment error, got {other:?}"),
        }
    }
    // The smallest dimension the probe cluster runs still does.
    let served = service
        .client()
        .run(ExperimentRequest::new(ExperimentKind::Kernel { p: 16 }));
    assert!(served.is_ok(), "{served:?}");
    service.shutdown();
}

#[test]
fn tcp_round_trip_serves_byte_identical_artifacts_and_coalesced_stats() {
    let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = TcpClient::connect(addr).unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Fig6);
    let first = client.request(&req).unwrap();
    assert_eq!(first.cache, CacheOutcome::Miss);
    // The served artifact is byte-identical to the one-shot document.
    assert_eq!(
        first.artifact.to_pretty(),
        Fig6::generate().to_json().to_pretty()
    );
    // Same request again, even from a new connection: a cache hit.
    let mut client2 = TcpClient::connect(addr).unwrap();
    let second = client2.request(&req).unwrap();
    assert_eq!(second.cache, CacheOutcome::Hit);
    assert_eq!(second.artifact.to_pretty(), first.artifact.to_pretty());
    // Malformed and hostile lines come back as typed bad_request errors
    // and the connection stays usable: an unknown kind, then nesting that
    // used to overflow the handler's stack and abort the whole daemon.
    {
        use std::io::{BufRead, BufReader, Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut expect_bad_request = |raw: &mut std::net::TcpStream, line: &[u8], needle: &str| {
            raw.write_all(line).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let doc = Json::parse(reply.trim()).unwrap();
            assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
            assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad_request"));
            let message = doc.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(needle), "{message}");
            doc.get("id").and_then(Json::as_int)
        };
        let id = expect_bad_request(&mut raw, b"{\"id\": 9, \"kind\": \"fig66\"}\n", "fig66");
        assert_eq!(id, Some(9));
        let deep = "[".repeat(200_000) + "\n";
        expect_bad_request(&mut raw, deep.as_bytes(), "nesting deeper than");
        // One byte past the 1 MiB line bound and never a newline: answered,
        // then closed, instead of buffered without limit.
        let long = vec![b' '; (1 << 20) + 1];
        expect_bad_request(&mut raw, &long, "request line exceeds");
        assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0, "connection closed");
    }
    // The daemon keeps serving its other connections.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some("mempool-serve-stats/v1")
    );
    assert!(stats.get("cache_hits").and_then(Json::as_int).unwrap() >= 1);
    client.shutdown().unwrap();
    let final_stats = daemon.join().unwrap();
    assert_eq!(
        final_stats.get("schema").and_then(Json::as_str),
        Some("mempool-serve-stats/v1")
    );
    assert_eq!(final_stats.get("computed").and_then(Json::as_int), Some(1));
}

#[test]
fn idle_connections_at_the_cap_give_way_to_a_new_client() {
    use std::io::Read;
    let started = std::time::Instant::now();
    let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // The cap's worth of peers that connect and never send a line.
    let mut idle: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    // One more client is served: the oldest idle peer gives up its slot.
    let mut client = TcpClient::connect(addr).unwrap();
    let served = client.request(&ExperimentRequest::new(ExperimentKind::Fig6));
    assert!(served.is_ok(), "{served:?}");
    idle[0]
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(
        idle[0].read(&mut [0u8; 1]).unwrap(),
        0,
        "evicted and closed"
    );
    // The other idle peers keep their connections.
    idle[1]
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    assert!(idle[1].read(&mut [0u8; 1]).is_err(), "still open, no data");

    client.shutdown().unwrap();
    daemon.join().unwrap();
    drop(idle);
    assert!(
        started.elapsed() <= Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
}

#[test]
fn connections_in_the_middle_of_requests_get_backpressure() {
    use std::io::{BufRead, BufReader, Write};
    let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // The cap's worth of peers, each holding half a request line. Each
    // sends it right behind a whole `stats` request, in one write, and
    // reads the answer: by then its handler holds the partial line.
    let mut busy: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut peer = std::net::TcpStream::connect(addr).unwrap();
            peer.write_all(b"{\"id\": 1, \"kind\": \"stats\"}\n{\"id\": 2, \"kind\": \"stats\"")
                .unwrap();
            let mut reader = BufReader::new(peer.try_clone().unwrap());
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.contains("mempool-serve-stats/v1"), "{reply}");
            (peer, reader)
        })
        .collect();
    // No handler is idle, so the connection over the cap is refused, typed.
    let mut extra = TcpClient::connect(addr).unwrap();
    let refused = extra.stats().unwrap_err();
    assert_eq!(refused.code(), "backpressure", "{refused}");
    assert_eq!(
        refused.to_string(),
        "all 64 connections are in the middle of a request; retry later"
    );

    // One peer finishes its request and is answered; its handler is idle
    // again, so the next client takes its place (retried while the
    // handler has written its answer but not yet gone idle).
    let (peer, reader) = &mut busy[0];
    peer.write_all(b"}\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"id\":2"), "{reply}");
    let mut client = None;
    for _ in 0..500 {
        let mut candidate = TcpClient::connect(addr).unwrap();
        match candidate.stats() {
            Ok(_) => {
                client = Some(candidate);
                break;
            }
            Err(ServeError::Backpressure(_)) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("stats failed: {e}"),
        }
    }
    let mut client = client.expect("an idle handler gives way");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    drop(busy);
}

#[test]
fn half_lines_older_than_the_deadline_give_way_to_a_new_client() {
    // Peers that send half a request line and then nothing, and peers that
    // trickle it on by one byte about every 50 ms, within every one of
    // their handler's 100 ms read polls.
    for trickle in [false, true] {
        stale_half_lines_give_way(trickle);
    }
}

fn stale_half_lines_give_way(trickle: bool) {
    use std::io::Write;
    let started = Instant::now();
    let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // The cap's worth of peers that each send half a request line and
    // then no newline.
    let halves: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut peer = std::net::TcpStream::connect(addr).unwrap();
            peer.write_all(b"{\"id\": 1, \"kind\": \"stats\"").unwrap();
            peer
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let trickler = trickle.then(|| {
        let mut peers: Vec<_> = halves.iter().map(|p| p.try_clone().unwrap()).collect();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for peer in &mut peers {
                    // An evicted peer's connection is closed.
                    let _ = peer.write_all(b" ");
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    });
    // Once the deadline has passed, a stale half line holds its slot no
    // longer: a new client is served in its place.
    std::thread::sleep(PARTIAL_LINE_DEADLINE);
    let served = loop {
        let mut client = TcpClient::connect(addr).unwrap();
        match client.request(&ExperimentRequest::new(ExperimentKind::Fig6)) {
            Err(ServeError::Backpressure(_)) if started.elapsed() < Duration::from_secs(4) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            result => break result.map(|_| client),
        }
    };
    stop.store(true, Ordering::SeqCst);
    if let Some(trickler) = trickler {
        trickler.join().unwrap();
    }
    let mut client = served.unwrap_or_else(|e| panic!("trickle {trickle}: {e}"));
    client.shutdown().unwrap();
    daemon.join().unwrap();
    drop(halves);
    assert!(
        started.elapsed() <= Duration::from_secs(5),
        "trickle {trickle}: took {:?}",
        started.elapsed()
    );
}

#[test]
fn peers_that_never_read_their_replies_are_closed_after_the_write_deadline() {
    use std::io::{BufRead, BufReader, Write};
    let started = Instant::now();
    let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // Pipelined `stats` requests whose replies (about 500 bytes each) are
    // some 16 MiB, several times what the two socket buffers hold, from a
    // peer that reads nothing for three deadlines: the handler fills the
    // buffers within the first, with room to spare on a loaded host.
    const REQUESTS: usize = 32_768;
    let mut peer = std::net::TcpStream::connect(addr).unwrap();
    let requests = b"{\"id\": 1, \"kind\": \"stats\"}\n".repeat(REQUESTS);
    peer.set_write_timeout(Some(WRITE_DEADLINE)).unwrap();
    // Requests that do not fit the buffers once the handler stops reading
    // are not sent: the peer gives up, as the handler does.
    let _ = peer.write_all(&requests);
    std::thread::sleep(WRITE_DEADLINE * 3);

    // The handler has given up on the peer and closed the connection: the
    // replies the buffers held arrive, then EOF.
    peer.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut reader = BufReader::new(peer);
    let (mut replies, mut line) = (0, Vec::new());
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => replies += usize::from(line.ends_with(b"\n")),
            Err(e) => panic!("no EOF after {replies} replies: {e}"),
        }
    }
    assert!(replies < REQUESTS, "{replies} replies");
    // The daemon serves on.
    let mut client = TcpClient::connect(addr).unwrap();
    client.stats().unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(
        started.elapsed() <= Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
}

#[test]
fn dse_through_the_service_reproduces_the_in_process_exploration() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let client = service.client();
    let req = ExperimentRequest::new(ExperimentKind::Dse);
    let first = client.run(req).unwrap();
    let direct = DesignSpace::explore(&Evaluation::with_model(req.model));
    assert_eq!(first.artifact.to_pretty(), direct.to_json().to_pretty());
    assert_eq!(first.cache, CacheOutcome::Miss);
    // A second exploration is one cache hit.
    let again = client.run(req).unwrap();
    assert_eq!(again.cache, CacheOutcome::Hit);
    assert_eq!(again.artifact, first.artifact);
    assert_eq!(service.stats().computed.load(Ordering::SeqCst), 1);
}

#[test]
fn stats_document_carries_counters_pool_health_and_flight_events() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let client = service.client();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    client.run(req).unwrap();
    client.run(req).unwrap();
    let stats = service.stats_json();
    let counter = |name: &str| stats.get(name).and_then(Json::as_int);
    assert_eq!(counter("requests_total"), Some(2));
    assert_eq!(counter("computed"), Some(1));
    assert_eq!(counter("cache_hits"), Some(1));
    assert_eq!(counter("completed"), Some(2));
    assert_eq!(
        stats.get("cache_hit_rate").and_then(Json::as_f64),
        Some(0.5)
    );
    // Per-worker pool health rides the same document.
    let pool = stats.get("worker_pool").and_then(Json::as_arr).unwrap();
    assert_eq!(pool.len(), ServiceConfig::default().workers);
    let total_jobs: i64 = pool
        .iter()
        .map(|w| w.get("jobs").and_then(Json::as_int).unwrap())
        .sum();
    assert_eq!(total_jobs, 1, "one unique config was computed");
    for worker in pool {
        let utilization = worker.get("utilization").and_then(Json::as_f64).unwrap();
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization = {utilization} must be a clamped fraction"
        );
    }
    let flight = stats.get("flight").unwrap();
    let events = flight.get("events").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty());
    let categories: Vec<_> = events
        .iter()
        .filter_map(|e| e.get("category").and_then(Json::as_str))
        .collect();
    assert!(categories.contains(&"enqueue"), "{categories:?}");
    assert!(categories.contains(&"done"), "{categories:?}");
    assert!(categories.contains(&"hit"), "{categories:?}");
}

#[test]
fn stats_flight_ring_counts_the_events_it_evicted() {
    let runner = |req: &ExperimentRequest| Ok(Json::obj([("kind", Json::str(req.kind.tag()))]));
    let service = Service::start_with_runner(ServiceConfig::default(), Box::new(runner)).unwrap();
    let client = service.client();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    client.run(req).unwrap();
    for _ in 0..300 {
        assert_eq!(client.run(req).unwrap().cache, CacheOutcome::Hit);
    }
    let stats = service.stats_json();
    let flight = stats.get("flight").unwrap();
    let field = |name: &str| flight.get(name).and_then(Json::as_int).unwrap();
    let events = flight.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(field("capacity"), 256);
    assert_eq!(events.len(), 256);
    let dropped = field("dropped");
    assert!(dropped >= 44, "dropped = {dropped}");
    // Events are numbered from 0 in arrival order, evicted ones included.
    let newest = events
        .last()
        .and_then(|e| e.get("cycle"))
        .and_then(Json::as_int);
    assert_eq!(newest, Some(dropped + 255));
}

/// With a cache directory the daemon writes one file per finished result
/// and nothing else: no file while a job runs, one `cas-<key>.json` once it
/// finishes, and none for a hit, a coalesced request or a failure.
#[test]
fn the_cache_directory_holds_finished_results_only() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Gate::new();
    let gated = gate.runner();
    let runner = move |req: &ExperimentRequest| match req.kind {
        ExperimentKind::Table2 => Err("injected failure".to_string()),
        _ => gated.run(req),
    };
    let service = Service::start_with_runner(
        ServiceConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
        },
        Box::new(runner),
    )
    .unwrap();
    let _release = gate.release_on_drop();
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let client = service.client();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let first = client.submit(req).unwrap();
    wait_until("the gated job to start", || {
        gate.runs.load(Ordering::SeqCst) > 0
    });
    let second = client.submit(req).unwrap();
    let while_running = files();
    assert!(
        while_running.is_empty(),
        "a running job leaves a file: {while_running:?}"
    );
    gate.release();
    assert_eq!(first.wait().unwrap().cache, CacheOutcome::Miss);
    assert_eq!(second.wait().unwrap().cache, CacheOutcome::Coalesced);
    let finished = vec![ResultCache::entry_name(req.cache_key())];
    assert_eq!(files(), finished);
    assert_eq!(client.run(req).unwrap().cache, CacheOutcome::Hit);
    let failing = ExperimentRequest::new(ExperimentKind::Table2);
    assert!(matches!(
        client.run(failing),
        Err(ServeError::Experiment(_))
    ));
    assert_eq!(files(), finished, "a hit and a failure add no file");
    service.shutdown();
    assert_eq!(files(), finished);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt cache entry is quarantined and reported as a flight event —
/// never a panic, never parsed twice — and reads as a miss.
#[test]
fn corrupt_cache_entries_are_quarantined_with_flight_events() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let entry = ResultCache::entry_name(req.cache_key());
    std::fs::write(dir.join(&entry), "also {not json").unwrap();

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    // The corrupt cache entry reads as a miss: the request computes.
    let outcome = service.client().run(req).unwrap();
    assert_eq!(outcome.cache, CacheOutcome::Miss);
    assert!(dir.join(format!("{entry}.corrupt")).exists());
    let flight = service.stats_json().get("flight").unwrap().to_pretty();
    assert!(flight.contains("corrupt"), "{flight}");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache entry with one byte flipped out of UTF-8 is as corrupt as one
/// that does not parse: quarantined with a flight event, not skipped as if
/// it were absent (and then re-read on every restart).
#[test]
fn non_utf8_cache_entries_are_quarantined_with_flight_events() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let entry = ResultCache::entry_name(req.cache_key());
    let mut bytes = req.to_json().to_pretty().into_bytes();
    let at = bytes.len() / 2;
    bytes[at] = 0xff;
    std::fs::write(dir.join(&entry), bytes).unwrap();

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    // The damaged cache entry reads as a miss: the request computes.
    let outcome = service.client().run(req).unwrap();
    assert_eq!(outcome.cache, CacheOutcome::Miss);
    assert!(dir.join(format!("{entry}.corrupt")).exists(), "{entry}");
    let stats = service.stats_json();
    let events = stats.get("flight").unwrap().get("events").unwrap();
    let named = events.as_arr().unwrap().iter().any(|e| {
        e.get("category").and_then(Json::as_str) == Some("corrupt")
            && e.get("message")
                .and_then(Json::as_str)
                .is_some_and(|message| message.contains(entry.as_str()))
    });
    assert!(
        named,
        "no corrupt event names {entry}: {}",
        events.to_pretty()
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
