//! Integration tests for the experiment service: coalescing, bounded
//! backpressure, graceful shutdown, the TCP protocol, and the DSE batch
//! client's equivalence with the in-process exploration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mempool::dse::DesignSpace;
use mempool::experiments::{Evaluation, Fig6};
use mempool_kernels::matmul::PhaseModel;
use mempool_obs::Json;
use mempool_serve::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ResultCache, ServeError, Service,
    ServiceConfig, TcpClient, TcpServer,
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
            max_queue: 1,
            ..ServiceConfig::default()
        },
        gate.runner(),
    )
    .unwrap();
    let client = service.client();
    let reqs: Vec<_> = [4u32, 8, 16]
        .iter()
        .map(|&bw| {
            ExperimentRequest::new(ExperimentKind::Sweep {
                bytes_per_cycle: bw,
            })
        })
        .collect();
    // First request occupies the single worker...
    let first = client.submit(reqs[0]).unwrap();
    wait_until("the worker to start", || {
        gate.runs.load(Ordering::SeqCst) > 0
    });
    // ...second fills the queue (bound 1)...
    let second = client.submit(reqs[1]).unwrap();
    // ...third must be rejected, typed, with the configured bound.
    let rejection = client.submit(reqs[2]).unwrap_err();
    assert_eq!(rejection, ServeError::Backpressure { max_queue: 1 });
    assert_eq!(rejection.code(), "backpressure");
    assert_eq!(service.stats().rejected.load(Ordering::SeqCst), 1);
    gate.release();
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
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
            ..ServiceConfig::default()
        },
        gate.runner(),
    )
    .unwrap();
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
fn dse_through_the_service_reproduces_the_in_process_exploration() {
    let service = Service::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = service.client();
    let model = PhaseModel::with_measured_defaults();
    let via_service = mempool_serve::dse::explore_via(|req| client.run(*req), &model).unwrap();
    let direct = DesignSpace::explore(&Evaluation::with_model(model));
    assert_eq!(via_service.to_text(), direct.to_text());
    for (a, b) in via_service.points().iter().zip(direct.points()) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.scores, b.scores, "{}", a.point);
    }
    assert_eq!(service.stats().computed.load(Ordering::SeqCst), 8);
    // A second exploration costs zero computations: eight cache hits.
    let again = mempool_serve::dse::explore_via(|req| client.run(*req), &model).unwrap();
    assert_eq!(again.to_text(), direct.to_text());
    assert_eq!(service.stats().computed.load(Ordering::SeqCst), 8);
    assert_eq!(service.stats().cache_hits.load(Ordering::SeqCst), 8);
    assert!(service.stats().cache_hit_rate() >= 0.5 - 1e-12);
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

/// A journaled job left behind by a dead daemon is re-run on startup,
/// warming the cache without any client asking again.
#[test]
fn journaled_jobs_from_a_dead_daemon_are_recomputed_on_restart() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let key = req.cache_key();
    // Forge the journal a crashed daemon would have left: the job was
    // accepted (journal written) but never completed (no cache entry).
    std::fs::write(
        dir.join(format!("job-{key:016x}.json")),
        req.to_json().to_pretty(),
    )
    .unwrap();
    // A journal whose name does not match its own cache key (renamed by
    // hand, or written by an older build) must still be retired — workers
    // only remove the canonical name, so recovery has to clean this up.
    std::fs::write(
        dir.join("job-00000000deadbeef.json"),
        req.to_json().to_pretty(),
    )
    .unwrap();

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    wait_until("the recovered job to compute", || {
        service.stats().computed.load(Ordering::SeqCst) == 1
    });
    service.quiesce();
    // The journal retired with the job; the artifact is now cached, so a
    // client asking again gets a hit without recomputation. The misnamed
    // duplicate coalesced with it and was removed at recovery time.
    assert!(!dir.join(format!("job-{key:016x}.json")).exists());
    assert!(!dir.join("job-00000000deadbeef.json").exists());
    assert!(dir.join(ResultCache::entry_name(key)).exists());
    let outcome = service.client().run(req).unwrap();
    assert_eq!(outcome.cache, CacheOutcome::Hit);
    assert_eq!(service.stats().computed.load(Ordering::SeqCst), 1);
    let flight = service.stats_json().get("flight").unwrap().to_pretty();
    assert!(flight.contains("recover"), "{flight}");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt journals and cache entries are quarantined and reported as
/// flight events — never a panic, never parsed twice.
#[test]
fn corrupt_journals_and_cache_entries_are_quarantined_with_flight_events() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("job-00000000000000aa.json"), "{truncated").unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let key = req.cache_key();
    std::fs::write(dir.join(ResultCache::entry_name(key)), "also {not json").unwrap();

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    // The corrupt cache entry reads as a miss: the request computes.
    let outcome = service.client().run(req).unwrap();
    assert_eq!(outcome.cache, CacheOutcome::Miss);
    assert!(dir.join("job-00000000000000aa.json.corrupt").exists());
    assert!(!dir.join("job-00000000000000aa.json").exists());
    let flight = service.stats_json().get("flight").unwrap().to_pretty();
    assert!(flight.contains("corrupt"), "{flight}");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal or cache entry with one byte flipped out of UTF-8 is as
/// corrupt as one that does not parse: quarantined with a flight event,
/// not skipped as if it were absent (and then re-read on every restart).
#[test]
fn non_utf8_journals_and_cache_entries_are_quarantined_with_flight_events() {
    let dir = std::env::temp_dir().join(format!("mempool-serve-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let flipped = |doc: &Json| {
        let mut bytes = doc.to_pretty().into_bytes();
        let at = bytes.len() / 2;
        bytes[at] = 0xff;
        bytes
    };
    let journaled = ExperimentRequest::new(ExperimentKind::Table2);
    let journal = format!("job-{:016x}.json", journaled.cache_key());
    std::fs::write(dir.join(&journal), flipped(&journaled.to_json())).unwrap();
    let req = ExperimentRequest::new(ExperimentKind::Table1);
    let entry = ResultCache::entry_name(req.cache_key());
    std::fs::write(dir.join(&entry), flipped(&req.to_json())).unwrap();

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    // The damaged cache entry reads as a miss: the request computes.
    let outcome = service.client().run(req).unwrap();
    assert_eq!(outcome.cache, CacheOutcome::Miss);
    for name in [&journal, &entry] {
        assert!(dir.join(format!("{name}.corrupt")).exists(), "{name}");
    }
    assert!(!dir.join(&journal).exists());
    let stats = service.stats_json();
    let events = stats.get("flight").unwrap().get("events").unwrap();
    let corrupt: Vec<&str> = events
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("category").and_then(Json::as_str) == Some("corrupt"))
        .filter_map(|e| e.get("message").and_then(Json::as_str))
        .collect();
    for name in [&journal, &entry] {
        assert!(
            corrupt
                .iter()
                .any(|message| message.contains(name.as_str())),
            "no corrupt event names {name}: {corrupt:?}"
        );
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
