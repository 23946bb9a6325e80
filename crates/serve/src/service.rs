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
//! per-worker pool health, and a [`mempool_obs::FlightRecorder`] replay of
//! recent service events.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mempool_obs::{
    load_json_file, quarantine_path, write_atomic, FlightRecorder, Json, LoadOutcome,
};

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

/// Service sizing and persistence knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads computing experiments.
    pub workers: usize,
    /// Bound on queued (not yet started) jobs; submissions beyond it are
    /// rejected with [`ServeError::Backpressure`].
    pub max_queue: usize,
    /// Optional on-disk cache directory shared across daemon runs.
    pub cache_dir: Option<PathBuf>,
    /// Capacity of the service flight-event ring.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_queue: 64,
            cache_dir: None,
            flight_capacity: 256,
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

/// One recent service event (bounded ring, exported as a flight-recorder
/// document). `seq` stands in for the cycle domain of simulator events.
#[derive(Debug, Clone)]
struct ServeEvent {
    seq: u64,
    category: &'static str,
    worker: Option<u32>,
    message: String,
}

#[derive(Debug, Default)]
struct FlightRing {
    ring: VecDeque<ServeEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

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
    flight: Mutex<FlightRing>,
    busy_workers: AtomicU64,
    /// One entry per worker thread (index = worker id).
    worker_stats: Vec<WorkerStats>,
    /// When the pool started — the utilization denominator.
    started_at: Instant,
    shutdown_requested: AtomicBool,
    max_queue: usize,
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

    /// On-disk journal of a not-yet-completed job, when persistent.
    fn journal_path(&self, key: u64) -> Option<PathBuf> {
        self.cache.dir().map(|dir| dir.join(journal_name(key)))
    }

    /// Persists an accepted job so a restarted daemon re-runs it
    /// (atomic write; failures degrade to no recovery, never an error).
    fn write_journal(&self, key: u64, req: &ExperimentRequest) {
        if let Some(path) = self.journal_path(key) {
            let _ = write_atomic(&path, &req.to_json().to_pretty());
        }
    }

    /// Retires a job's journal once every waiter has its answer.
    fn remove_journal(&self, key: u64) {
        if let Some(path) = self.journal_path(key) {
            let _ = fs::remove_file(path);
        }
    }

    fn record(&self, category: &'static str, worker: Option<u32>, message: String) {
        let mut flight = self.flight.lock().expect("flight ring poisoned");
        if flight.ring.len() == flight.capacity {
            flight.ring.pop_front();
            flight.dropped += 1;
        }
        let seq = flight.next_seq;
        flight.next_seq += 1;
        flight.ring.push_back(ServeEvent {
            seq,
            category,
            worker,
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
            flight: Mutex::new(FlightRing {
                capacity: config.flight_capacity.max(1),
                ..FlightRing::default()
            }),
            busy_workers: AtomicU64::new(0),
            worker_stats: (0..config.workers)
                .map(|_| WorkerStats::default())
                .collect(),
            started_at: Instant::now(),
            shutdown_requested: AtomicBool::new(false),
            max_queue: config.max_queue,
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
        recover_journaled_jobs(&shared);
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
    shared: &Arc<Shared>,
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
        // A journal can outlive its job only when a crash hit between the
        // cache publish and journal removal; a hit proves it is stale.
        shared.remove_journal(key);
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
    if state.queue.len() >= shared.max_queue {
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
        return Err(ServeError::Backpressure {
            max_queue: shared.max_queue,
        });
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
    // Journal while still holding the state lock: no worker can complete
    // (and retire) the job before its journal exists on disk.
    shared.write_journal(key, &req);
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
                shared.remove_journal(key);
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
                // Every waiter got its (error) answer; nothing to recover.
                shared.remove_journal(key);
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

/// The on-disk journal name of a job key.
fn journal_name(key: u64) -> String {
    format!("job-{key:016x}.json")
}

/// Re-submits every journaled (accepted but never completed) job left on
/// disk by a previous daemon run — a crashed or killed daemon finishes
/// its accepted work after restart. The re-submitted jobs have no waiter
/// (the original clients are gone); they are computed again from the
/// start and simply warm the cache. Corrupt journals are quarantined and
/// reported, never fatal.
fn recover_journaled_jobs(shared: &Arc<Shared>) {
    let Some(dir) = shared.cache.dir().map(PathBuf::from) else {
        return;
    };
    let Ok(entries) = fs::read_dir(&dir) else {
        return;
    };
    let mut journals: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("job-") && name.ends_with(".json"))
        })
        .collect();
    journals.sort();
    for path in journals {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match load_json_file(&path) {
            LoadOutcome::Loaded(doc) => match ExperimentRequest::from_json(&doc) {
                Ok(req) => {
                    let canonical = shared.journal_path(req.cache_key());
                    // No one is waiting on the channel; the job's value is
                    // the cache entry it leaves behind.
                    let (tx, _rx) = std::sync::mpsc::channel();
                    match submit(shared, req, tx) {
                        Ok(()) => {
                            // submit re-journals queued jobs under the
                            // canonical name; a file whose name does not
                            // match its own cache key would otherwise be
                            // resubmitted on every restart.
                            if canonical.as_deref() != Some(path.as_path()) {
                                let _ = fs::remove_file(&path);
                            }
                            shared.record("recover", None, format!("resubmitted {name}"));
                        }
                        Err(e) => {
                            shared.record("recover", None, format!("dropped {name}: {e}"));
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => {
                    let renamed = quarantine_path(&path);
                    let _ = fs::rename(&path, &renamed);
                    shared.record(
                        "corrupt",
                        None,
                        format!("journal {name} unreadable ({e}); quarantined"),
                    );
                }
            },
            LoadOutcome::Missing => {}
            LoadOutcome::Quarantined { renamed_to, error } => {
                shared.record(
                    "corrupt",
                    None,
                    format!(
                        "journal {name} corrupt ({error}); quarantined to {}",
                        renamed_to.display()
                    ),
                );
            }
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
        ("max_queue", Json::Int(shared.max_queue as i64)),
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
        ("flight", flight_recorder(shared).to_json()),
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

/// Replays the service event ring into a [`FlightRecorder`], giving the
/// stats document the same crash-forensics shape as the simulator's.
fn flight_recorder(shared: &Shared) -> FlightRecorder {
    let flight = shared.flight.lock().expect("flight ring poisoned");
    let recorder = FlightRecorder::with_capacity(flight.capacity);
    for event in &flight.ring {
        recorder.record(
            event.seq,
            event.category,
            event.worker,
            event.message.clone(),
        );
    }
    recorder
}
