//! The experiment service: a bounded worker pool with request coalescing
//! and a content-addressed result cache.
//!
//! Submission path (one critical section, so accounting is exact):
//!
//! 1. an identical **in-flight** request coalesces — the new waiter is
//!    attached to the running/queued job and no extra work is created;
//! 2. a **cached** config is served immediately as a hit;
//! 3. otherwise the job enters the bounded queue — or is rejected with a
//!    typed [`ServeError::Backpressure`] when the bound is hit.
//!
//! Workers insert results into the cache *before* retiring the in-flight
//! entry (same lock), so a config is computed exactly once no matter how
//! many identical requests race. Shutdown is graceful: the queue drains,
//! every accepted waiter gets its response, and disk cache entries stay
//! complete (atomic writes).
//!
//! The pool instruments itself with thread-safe counters and reports them
//! in one `stats` document ([`Service::stats_json`]): the counters, the
//! per-worker pool health, and the recent service events in the
//! flight-recorder document shape ([`mempool_obs::flight_json`]).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mempool_obs::{flight_json, FlightEvent, Json, Ring};

use crate::cache::ResultCache;
use crate::protocol::{CacheOutcome, ExperimentRequest, ServeError, Status};

/// Executes one experiment request into its artifact document. The
/// default implementation is [`crate::exec::ExperimentRunner`]; tests
/// substitute blocking or counting runners to pin down concurrency
/// behavior.
pub trait Runner: Send + Sync + 'static {
    /// Produces the artifact for `req`, or a failure message.
    fn run(&self, req: &ExperimentRequest) -> Result<Json, String>;
}

impl<F> Runner for F
where
    F: Fn(&ExperimentRequest) -> Result<Json, String> + Send + Sync + 'static,
{
    fn run(&self, req: &ExperimentRequest) -> Result<Json, String> {
        self(req)
    }
}

/// Bound on queued (not yet started) jobs; submissions beyond it are
/// rejected with [`ServeError::Backpressure`].
pub const MAX_QUEUE: usize = 64;

/// Service sizing and persistence knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads computing experiments.
    pub workers: usize,
    /// Optional on-disk cache directory shared across daemon runs.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache_dir: None,
        }
    }
}

/// Atomic service counters — the serve-side analogue of the simulator's
/// metrics, safe to bump from any worker or client thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests admitted (hit + coalesced + queued).
    pub requests: AtomicU64,
    /// Served straight from the cache.
    pub cache_hits: AtomicU64,
    /// Attached to an identical in-flight request.
    pub coalesced: AtomicU64,
    /// Computed by a worker (equals the number of unique configs seen).
    pub computed: AtomicU64,
    /// Rejected with backpressure.
    pub rejected: AtomicU64,
    /// Responses delivered (every admitted request gets exactly one).
    pub completed: AtomicU64,
    /// Requests whose experiment failed.
    pub failed: AtomicU64,
}

impl ServeStats {
    /// Fraction of admitted requests served without running a simulation
    /// (cache hits plus coalesced), or 0 when nothing was admitted.
    pub fn cache_hit_rate(&self) -> f64 {
        let requests = self.requests.load(Ordering::Relaxed);
        if requests == 0 {
            return 0.0;
        }
        let saved =
            self.cache_hits.load(Ordering::Relaxed) + self.coalesced.load(Ordering::Relaxed);
        saved as f64 / requests as f64
    }
}

/// Per-worker pool-health counters: how many jobs a worker computed and
/// how long it spent computing them. Together with the service uptime
/// these give per-worker utilization — the pool-health signal that tells
/// an undersized pool (all workers saturated) from a skewed one (one
/// worker soaking up every long experiment).
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    /// Jobs this worker finished (successes and failures alike).
    pub jobs: AtomicU64,
    /// Nanoseconds spent inside experiment runs.
    pub busy_ns: AtomicU64,
}

/// How many recent service events the stats document's `flight` ring
/// keeps.
const FLIGHT_CAPACITY: usize = 256;

struct Waiter {
    outcome: CacheOutcome,
    tx: Sender<Status>,
}

struct Inflight {
    req: ExperimentRequest,
    waiters: Vec<Waiter>,
    started: bool,
}

#[derive(Default)]
struct State {
    queue: VecDeque<u64>,
    inflight: HashMap<u64, Inflight>,
    draining: bool,
}

pub(crate) struct Shared {
    state: Mutex<State>,
    work: Condvar,
    idle: Condvar,
    cache: ResultCache,
    runner: Box<dyn Runner>,
    stats: ServeStats,
    /// Recent service events. An event's `cycle` is its sequence number,
    /// standing in for the cycle domain of simulator events.
    flight: Mutex<Ring<FlightEvent>>,
    busy_workers: AtomicU64,
    /// One entry per worker thread (index = worker id).
    worker_stats: Vec<WorkerStats>,
    /// When the pool started — the utilization denominator.
    started_at: Instant,
    shutdown_requested: AtomicBool,
    workers: usize,
}

impl Shared {
    /// Whether a shutdown has been requested (drain in progress).
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Forwards cache corruption quarantines into the flight ring.
    fn drain_cache_quarantine(&self) {
        for message in self.cache.drain_quarantined() {
            self.record("corrupt", None, message);
        }
    }

    fn record(&self, category: &'static str, worker: Option<u32>, message: String) {
        let mut flight = self.flight.lock().expect("flight ring poisoned");
        // Every event pushed so far is held or was dropped.
        let seq = flight.len() as u64 + flight.dropped();
        flight.push(FlightEvent {
            cycle: seq,
            category: category.to_string(),
            core: worker,
            message,
        });
    }
}

/// The running service: owns the worker threads. Hand out cheap
/// `Client` handles with [`Service::client`]; call
/// [`Service::shutdown`] to drain and join.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool with the default experiment runner.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures as a
    /// [`ServeError::Transport`].
    pub fn start(config: ServiceConfig) -> Result<Self, ServeError> {
        Self::start_with_runner(config, Box::new(crate::exec::ExperimentRunner))
    }

    /// Starts the worker pool with a caller-provided runner (tests).
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    pub fn start_with_runner(
        config: ServiceConfig,
        runner: Box<dyn Runner>,
    ) -> Result<Self, ServeError> {
        assert!(config.workers > 0, "the service needs at least one worker");
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::with_dir(dir)
                .map_err(|e| ServeError::Transport(format!("cache dir {}: {e}", dir.display())))?,
            None => ResultCache::in_memory(),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            cache,
            runner,
            stats: ServeStats::default(),
            flight: Mutex::new(Ring::new(FLIGHT_CAPACITY)),
            busy_workers: AtomicU64::new(0),
            worker_stats: (0..config.workers)
                .map(|_| WorkerStats::default())
                .collect(),
            started_at: Instant::now(),
            shutdown_requested: AtomicBool::new(false),
            workers: config.workers,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mempool-serve-{index}"))
                    .spawn(move || worker_loop(&shared, index as u32))
                    .expect("spawning a service worker")
            })
            .collect();
        shared.record(
            "service",
            None,
            format!("started {} worker(s)", config.workers),
        );
        Ok(Service { shared, workers })
    }

    /// A cheap, cloneable, thread-safe submission handle.
    pub fn client(&self) -> crate::Client {
        crate::Client::new(Arc::clone(&self.shared))
    }

    /// The shared pool state, for the crate's TCP connection handlers.
    pub(crate) fn shared_handle(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Flags the service as draining: new submissions are rejected, the
    /// queue keeps draining. Used by the TCP `shutdown` request; pair
    /// with [`Service::shutdown`] to join the workers.
    pub fn begin_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Graceful shutdown: stop admitting, drain every queued and running
    /// job (each accepted waiter still gets its response), then join the
    /// workers. Returns the final stats document.
    pub fn shutdown(mut self) -> Json {
        begin_shutdown(&self.shared);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared
            .record("service", None, "drained and stopped".to_string());
        stats_json(&self.shared)
    }

    /// The service stats document (`mempool-serve-stats/v1`): counters,
    /// live queue/worker gauges, and the flight-recorder ring, shaped
    /// like the `mempool-obs` metrics/crashdump artifacts.
    pub fn stats_json(&self) -> Json {
        stats_json(&self.shared)
    }

    /// Raw counter access (tests, benches).
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Blocks until no job is queued or running. Lets benchmarks measure
    /// "all responses delivered" without polling.
    pub fn quiesce(&self) {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        while !state.queue.is_empty() || !state.inflight.is_empty() {
            state = self
                .shared
                .idle
                .wait(state)
                .expect("service state poisoned");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        begin_shutdown(&self.shared);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

pub(crate) fn begin_shutdown(shared: &Shared) {
    shared.shutdown_requested.store(true, Ordering::SeqCst);
    let mut state = shared.state.lock().expect("service state poisoned");
    state.draining = true;
    drop(state);
    shared.work.notify_all();
}

/// The submission path shared by every client handle. Returns the
/// receiver only on admission; rejections are typed errors.
pub(crate) fn submit(
    shared: &Shared,
    req: ExperimentRequest,
    tx: Sender<Status>,
) -> Result<(), ServeError> {
    let key = req.cache_key();
    let mut state = shared.state.lock().expect("service state poisoned");
    if state.draining {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::ShuttingDown);
    }
    // Coalescing and the cache are consulted inside one critical section,
    // and workers publish to the cache before retiring the in-flight
    // entry under the same lock — so an identical request can never slip
    // between "not in flight" and "not yet cached" and recompute.
    let queue_depth = state.queue.len();
    if let Some(entry) = state.inflight.get_mut(&key) {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        let started = entry.started;
        let _ = tx.send(Status::Accepted { queue_depth });
        if started {
            let _ = tx.send(Status::Started);
        }
        entry.waiters.push(Waiter {
            outcome: CacheOutcome::Coalesced,
            tx,
        });
        shared.record(
            "coalesce",
            None,
            format!("{} key={key:016x}", req.kind.tag()),
        );
        return Ok(());
    }
    let cached = shared.cache.get(key);
    shared.drain_cache_quarantine();
    if let Some(artifact) = cached {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(Status::Accepted {
            queue_depth: state.queue.len(),
        });
        let _ = tx.send(Status::Done {
            cache: CacheOutcome::Hit,
            artifact,
        });
        shared.record("hit", None, format!("{} key={key:016x}", req.kind.tag()));
        return Ok(());
    }
    if state.queue.len() >= MAX_QUEUE {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        shared.record(
            "backpressure",
            None,
            format!(
                "{} key={key:016x} queue={}",
                req.kind.tag(),
                state.queue.len()
            ),
        );
        return Err(ServeError::Backpressure(format!(
            "queue full (bounded at {MAX_QUEUE} jobs)"
        )));
    }
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let _ = tx.send(Status::Accepted {
        queue_depth: state.queue.len() + 1,
    });
    state.inflight.insert(
        key,
        Inflight {
            req,
            waiters: vec![Waiter {
                outcome: CacheOutcome::Miss,
                tx,
            }],
            started: false,
        },
    );
    state.queue.push_back(key);
    shared.record(
        "enqueue",
        None,
        format!("{} key={key:016x}", req.kind.tag()),
    );
    drop(state);
    shared.work.notify_one();
    Ok(())
}

fn worker_loop(shared: &Shared, index: u32) {
    loop {
        let (key, req) = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                if let Some(key) = state.queue.pop_front() {
                    let entry = state
                        .inflight
                        .get_mut(&key)
                        .expect("every queued key has an in-flight entry");
                    entry.started = true;
                    for waiter in &entry.waiters {
                        let _ = waiter.tx.send(Status::Started);
                    }
                    break (key, entry.req);
                }
                if state.draining {
                    return;
                }
                state = shared.work.wait(state).expect("service state poisoned");
            }
        };
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        shared.record(
            "start",
            Some(index),
            format!("{} key={key:016x}", req.kind.tag()),
        );
        // A panicking experiment must not wedge its waiters or the pool:
        // it is converted into a typed experiment error.
        let job_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| shared.runner.run(&req)))
            .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())));
        let worker_stat = &shared.worker_stats[index as usize];
        worker_stat.jobs.fetch_add(1, Ordering::Relaxed);
        worker_stat
            .busy_ns
            .fetch_add(job_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut state = shared.state.lock().expect("service state poisoned");
        let entry = state
            .inflight
            .remove(&key)
            .expect("the running job owns its in-flight entry");
        match result {
            Ok(artifact) => {
                // Publish before the entry disappears (same lock), so a
                // racing identical submit sees hit-or-coalesce, never a
                // recompute.
                let artifact = shared.cache.put(key, artifact);
                shared.stats.computed.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .completed
                    .fetch_add(entry.waiters.len() as u64, Ordering::Relaxed);
                for waiter in entry.waiters {
                    let _ = waiter.tx.send(Status::Done {
                        cache: waiter.outcome,
                        artifact: Arc::clone(&artifact),
                    });
                }
                shared.record(
                    "done",
                    Some(index),
                    format!("{} key={key:016x}", req.kind.tag()),
                );
            }
            Err(message) => {
                shared
                    .stats
                    .failed
                    .fetch_add(entry.waiters.len() as u64, Ordering::Relaxed);
                for waiter in entry.waiters {
                    let _ = waiter
                        .tx
                        .send(Status::Error(ServeError::Experiment(message.clone())));
                }
                shared.record("fail", Some(index), format!("key={key:016x}: {message}"));
            }
        }
        let now_idle = state.queue.is_empty() && state.inflight.is_empty();
        drop(state);
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
        if now_idle {
            shared.idle.notify_all();
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = panic.downcast_ref::<&str>() {
        format!("experiment panicked: {text}")
    } else if let Some(text) = panic.downcast_ref::<String>() {
        format!("experiment panicked: {text}")
    } else {
        "experiment panicked".to_string()
    }
}

pub(crate) fn stats_json(shared: &Shared) -> Json {
    let stats = &shared.stats;
    let (queue_depth, inflight) = {
        let state = shared.state.lock().expect("service state poisoned");
        (state.queue.len(), state.inflight.len())
    };
    Json::obj([
        ("schema", Json::str("mempool-serve-stats/v1")),
        ("engine_version", Json::str(mempool_sim::ENGINE_VERSION)),
        ("workers", Json::Int(shared.workers as i64)),
        ("max_queue", Json::Int(MAX_QUEUE as i64)),
        (
            "requests_total",
            Json::Int(stats.requests.load(Ordering::Relaxed) as i64),
        ),
        (
            "cache_hits",
            Json::Int(stats.cache_hits.load(Ordering::Relaxed) as i64),
        ),
        (
            "coalesced",
            Json::Int(stats.coalesced.load(Ordering::Relaxed) as i64),
        ),
        (
            "computed",
            Json::Int(stats.computed.load(Ordering::Relaxed) as i64),
        ),
        (
            "rejected",
            Json::Int(stats.rejected.load(Ordering::Relaxed) as i64),
        ),
        (
            "completed",
            Json::Int(stats.completed.load(Ordering::Relaxed) as i64),
        ),
        (
            "failed",
            Json::Int(stats.failed.load(Ordering::Relaxed) as i64),
        ),
        ("cache_hit_rate", Json::Float(stats.cache_hit_rate())),
        ("queue_depth", Json::Int(queue_depth as i64)),
        ("inflight", Json::Int(inflight as i64)),
        (
            "busy_workers",
            Json::Int(shared.busy_workers.load(Ordering::Relaxed) as i64),
        ),
        ("cache_entries", Json::Int(shared.cache.len() as i64)),
        ("worker_pool", worker_pool_json(shared)),
        (
            "flight",
            flight_json(
                &shared.flight.lock().expect("flight ring poisoned"),
                FlightEvent::to_json,
            ),
        ),
    ])
}

/// Per-worker pool-health array: jobs computed, busy nanoseconds, and
/// utilization (busy time over pool uptime, clamped to `[0, 1]`).
fn worker_pool_json(shared: &Shared) -> Json {
    let uptime_ns = (shared.started_at.elapsed().as_nanos() as u64).max(1);
    Json::Arr(
        shared
            .worker_stats
            .iter()
            .enumerate()
            .map(|(index, w)| {
                let busy_ns = w.busy_ns.load(Ordering::Relaxed);
                Json::obj([
                    ("worker", Json::Int(index as i64)),
                    ("jobs", Json::Int(w.jobs.load(Ordering::Relaxed) as i64)),
                    ("busy_ns", Json::Int(busy_ns as i64)),
                    (
                        "utilization",
                        Json::Float((busy_ns as f64 / uptime_ns as f64).min(1.0)),
                    ),
                ])
            })
            .collect(),
    )
}
