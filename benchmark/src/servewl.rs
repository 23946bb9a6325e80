//! `serve_mix`: a closed loop of two `TcpClient` connections against an
//! in-process `TcpServer` with two workers.
//!
//! Closed, because the service's real clients (batch submitters, the DSE
//! driver) wait for each reply before sending the next request. The request
//! at index *i* is a pure function of `(seed, i)` — see [`request_at`] —
//! and both connections draw indices from one shared counter. Protocol
//! encode/parse, the socket, the cache and coalescing do the work; the
//! simulator almost none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mempool::design::DesignPoint;
use mempool_obs::Json;
use mempool_serve::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ExperimentRunner, ModelConfig, Runner,
    ServiceConfig, TcpClient, TcpServer,
};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, mix64, quantile};
use crate::Options;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Full set-ups (bind, connect, warm) per run; `setup_s` is their median and
/// the last one serves the measured window.
const SETUP_ROUNDS: u32 = 3;
/// Problem sizes of the 1 % cold `kernel` requests.
const KERNEL_SIZES: [u32; 4] = [16, 32, 48, 64];
const SWEEP_BANDWIDTHS: [u32; 5] = [4, 8, 16, 32, 64];

/// The 16 configurations 90 % of requests draw from: every table and
/// figure, two sweep points, and all eight DSE points. Warmed during
/// set-up, so in the window they are cache hits.
fn hot_set() -> Vec<ExperimentRequest> {
    let mut kinds = vec![
        ExperimentKind::Table1,
        ExperimentKind::Table2,
        ExperimentKind::Fig6,
        ExperimentKind::Fig7,
        ExperimentKind::Fig8,
        ExperimentKind::Fig9,
        ExperimentKind::Sweep {
            bytes_per_cycle: 16,
        },
        ExperimentKind::Sweep {
            bytes_per_cycle: 64,
        },
    ];
    kinds.extend(DesignPoint::all().map(|point| ExperimentKind::DsePoint { point }));
    kinds.into_iter().map(ExperimentRequest::new).collect()
}

/// What a request is expected to be when it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// One of the hot set: a cache hit.
    Hot(usize),
    /// A `sweep` under a model no other request uses: a cold analytic miss.
    Sweep,
    /// A `kernel:p` under such a model: a cold simulation.
    Kernel(usize),
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Hot(_) => "request.hot",
            Class::Sweep => "request.sweep",
            Class::Kernel(_) => "request.kernel",
        }
    }
}

/// The request at index `index` of the stream `seed` selects: 90 % hot set,
/// 9 % unique-model sweep, 1 % unique-model kernel run.
fn request_at(seed: u64, index: u64, hot: &[ExperimentRequest]) -> (Class, ExperimentRequest) {
    let r = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix64(index));
    let pick = |n: usize| ((r >> 8) % n as u64) as usize;
    // Unique per (seed, index), so the content-addressed cache cannot have
    // it: 1e-9 steps per index on top of a seed offset.
    let unique_model = || ModelConfig {
        cycles_per_mac: 3.0 + (seed % 1000) as f64 * 1e-4 + index as f64 * 1e-9,
        ..ModelConfig::default()
    };
    match r % 100 {
        0..=89 => {
            let slot = pick(hot.len());
            (Class::Hot(slot), hot[slot])
        }
        90..=98 => {
            let kind = ExperimentKind::Sweep {
                bytes_per_cycle: SWEEP_BANDWIDTHS[pick(SWEEP_BANDWIDTHS.len())],
            };
            let request = ExperimentRequest {
                model: unique_model(),
                ..ExperimentRequest::new(kind)
            };
            (Class::Sweep, request)
        }
        _ => {
            let slot = pick(KERNEL_SIZES.len());
            let request = ExperimentRequest {
                model: unique_model(),
                ..ExperimentRequest::new(ExperimentKind::Kernel {
                    p: KERNEL_SIZES[slot],
                })
            };
            (Class::Kernel(slot), request)
        }
    }
}

/// The one-shot document for `request`, as a compact string.
fn one_shot(request: &ExperimentRequest) -> Result<String, String> {
    ExperimentRunner::default()
        .run(request)
        .map(|doc| doc.to_string())
}

/// One-shot documents every served artifact is byte-compared against.
struct Expected {
    hot: Vec<String>,
    /// `kernel` artifacts do not depend on the model, so four documents
    /// cover every cold kernel request.
    kernel: Vec<String>,
}

impl Expected {
    fn build(hot: &[ExperimentRequest]) -> Result<Self, String> {
        Ok(Expected {
            hot: hot.iter().map(one_shot).collect::<Result<_, _>>()?,
            kernel: KERNEL_SIZES
                .iter()
                .map(|&p| one_shot(&ExperimentRequest::new(ExperimentKind::Kernel { p })))
                .collect::<Result<_, _>>()?,
        })
    }

    fn check(
        &self,
        class: Class,
        request: &ExperimentRequest,
        artifact: &Json,
    ) -> Result<(), String> {
        let served = artifact.to_string();
        let matches = match class {
            Class::Hot(slot) => served == self.hot[slot],
            Class::Kernel(slot) => served == self.kernel[slot],
            Class::Sweep => served == one_shot(request)?,
        };
        if matches {
            Ok(())
        } else {
            Err(format!(
                "served {} artifact differs from the one-shot document",
                request.kind.tag()
            ))
        }
    }
}

/// A live server with its connected clients.
struct Rig {
    server: std::thread::JoinHandle<Result<Json, mempool_serve::ServeError>>,
    clients: Vec<TcpClient>,
}

#[derive(Debug, Default, Clone, Copy)]
struct SetupTimings {
    bind: f64,
    connect: f64,
    warm: f64,
    total: f64,
}

/// Bind, connect, warm the hot set (checking each artifact on the way).
fn set_up(
    hot: &[ExperimentRequest],
    expected: &Expected,
    round: u32,
    tracer: &mut Tracer,
) -> Result<(Rig, SetupTimings), String> {
    let mut t = SetupTimings::default();
    let whole = tracer.begin("harness", "setup", round);
    let (bound, secs) = tracer.span("serve", "bind", round, || {
        let config = ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        };
        let server = TcpServer::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?;
        Ok::<_, mempool_serve::ServeError>((server, addr))
    });
    t.bind = secs;
    let (server, addr) = bound.map_err(|e| format!("bind: {e}"))?;
    let server = std::thread::spawn(move || server.run());
    let (clients, secs) = tracer.span("serve", "connect", round, || {
        (0..CLIENTS)
            .map(|_| TcpClient::connect(addr))
            .collect::<Result<Vec<_>, _>>()
    });
    t.connect = secs;
    let mut clients = clients.map_err(|e| format!("connect: {e}"))?;
    let (warmed, secs) = tracer.span("serve", "warm", round, || {
        for (slot, request) in hot.iter().enumerate() {
            let outcome = clients[slot % CLIENTS]
                .request(request)
                .map_err(|e| format!("warming {}: {e}", request.kind.tag()))?;
            expected.check(Class::Hot(slot), request, &outcome.artifact)?;
        }
        Ok::<_, String>(())
    });
    t.warm = secs;
    warmed?;
    t.total = tracer.end(whole);
    Ok((Rig { server, clients }, t))
}

/// Drains the server and joins its thread; returns the seconds it took.
fn tear_down(rig: Rig) -> Result<f64, String> {
    let Rig {
        server,
        mut clients,
    } = rig;
    let started = Instant::now();
    clients[0]
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(clients);
    server
        .join()
        .map_err(|_| "the server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    Ok(started.elapsed().as_secs_f64())
}

/// One completed request as its client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    cache: CacheOutcome,
    seconds: f64,
}

/// What one client thread hands back.
struct ClientResult {
    client: TcpClient,
    tracer: Tracer,
    /// Requests sent; each is one op.
    attempted: u64,
    samples: Vec<Sample>,
    failures: Vec<String>,
}

/// Sum of the workers' busy nanoseconds in a stats document.
fn busy_ns(stats: &Json) -> f64 {
    stats
        .get("worker_pool")
        .and_then(Json::as_arr)
        .map_or(0.0, |workers| {
            workers
                .iter()
                .filter_map(|w| w.get("busy_ns").and_then(Json::as_f64))
                .sum()
        })
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(opts: &Options, tracer: &mut Tracer, client_tracers: &mut Vec<Tracer>) -> Outcome {
    let mut outcome = Outcome::default();
    let hot = hot_set();
    let expected = match Expected::build(&hot) {
        Ok(expected) => expected,
        Err(reason) => {
            outcome.ops = 1;
            outcome.fail(format!("building the one-shot documents: {reason}"));
            return outcome;
        }
    };

    let rounds = if opts.smoke { 1 } else { SETUP_ROUNDS };
    let mut setups = Vec::new();
    let mut rig = None;
    for round in 0..rounds {
        if let Some(previous) = rig.take() {
            if let Err(reason) = tear_down(previous) {
                outcome.ops = 1;
                outcome.fail(reason);
                return outcome;
            }
        }
        match set_up(&hot, &expected, round, tracer) {
            Ok((live, timings)) => {
                setups.push(timings);
                rig = Some(live);
            }
            Err(reason) => {
                outcome.ops = 1;
                outcome.fail(format!("set-up round {round}: {reason}"));
                return outcome;
            }
        }
    }
    let Rig {
        server,
        mut clients,
    } = rig.expect("at least one set-up round ran");

    let stats_before = clients[0].stats();
    let next_index = AtomicU64::new(0);
    let epoch = Instant::now();
    let window = Duration::from_secs_f64(opts.seconds);
    let traced = tracer.enabled();
    let open = tracer.begin("harness", "measure", 0);
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .map(|mut client| {
                let (hot, expected, next_index) = (&hot, &expected, &next_index);
                let seed = opts.seed;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch);
                    let mut samples = Vec::with_capacity(1 << 18);
                    let mut failures = Vec::new();
                    let mut attempted = 0;
                    while epoch.elapsed() < window {
                        attempted += 1;
                        let index = next_index.fetch_add(1, Ordering::Relaxed);
                        let (class, request) = request_at(seed, index, hot);
                        let open = tracer.begin("serve", class.span_name(), 0);
                        let reply = client.request(&request);
                        let seconds = tracer.end(open);
                        match reply {
                            Ok(reply) => {
                                samples.push(Sample {
                                    class,
                                    cache: reply.cache,
                                    seconds,
                                });
                                if let Err(reason) =
                                    expected.check(class, &request, &reply.artifact)
                                {
                                    failures.push(format!("request {index}: {reason}"));
                                }
                            }
                            Err(e) => failures.push(format!("request {index}: {e}")),
                        }
                    }
                    ClientResult {
                        client,
                        tracer,
                        attempted,
                        samples,
                        failures,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = tracer.end(open);

    let mut samples = Vec::new();
    for result in results {
        outcome.ops += result.attempted;
        for reason in result.failures {
            outcome.fail(reason);
        }
        samples.extend(result.samples);
        clients.push(result.client);
        client_tracers.push(result.tracer);
    }
    let stats_after = clients[0].stats();
    let drained = tear_down(Rig { server, clients });

    let latencies = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.seconds)
            .collect()
    };
    let hits = latencies(&|s| s.cache == CacheOutcome::Hit);
    let misses = latencies(&|s| s.cache == CacheOutcome::Miss);
    // A hot request that missed, or a unique one that hit, means the cache
    // is not doing what the workload assumes.
    let misclassified = samples
        .iter()
        .filter(|s| matches!(s.class, Class::Hot(_)) != (s.cache == CacheOutcome::Hit))
        .count();
    if misclassified > 0 {
        outcome.fail(format!(
            "{misclassified} requests were served from the wrong side of the cache"
        ));
    }
    if hits.is_empty() || misses.is_empty() {
        outcome.fail("the window saw no hits or no misses".to_string());
        return outcome;
    }
    let all = latencies(&|_| true);
    outcome.op_seconds = median(&all);
    let setup = |f: fn(&SetupTimings) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    outcome.set("setup_s", setup(|t| t.total));
    outcome.set("wall_s", wall);
    outcome.set("serve_req_per_s", samples.len() as f64 / wall);
    outcome.set("serve_hit_p50_us", median(&hits) * 1e6);
    outcome.set("serve_miss_p50_ms", median(&misses) * 1e3);
    outcome.note("hit_samples", Json::Int(hits.len() as i64));
    outcome.note("miss_samples", Json::Int(misses.len() as i64));
    outcome.note("clients", Json::Int(CLIENTS as i64));
    outcome.note("workers", Json::Int(WORKERS as i64));

    let (before, after, drain_s) = match (stats_before, stats_after, drained) {
        (Ok(before), Ok(after), Ok(drain_s)) => (before, after, drain_s),
        (Err(e), _, _) | (_, Err(e), _) => {
            outcome.fail(format!("stats request: {e}"));
            return outcome;
        }
        (_, _, Err(reason)) => {
            outcome.fail(reason);
            return outcome;
        }
    };
    if !tracer.enabled() {
        return outcome;
    }
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    let sweeps = latencies(&|s| s.class == Class::Sweep);
    let kernels = latencies(&|s| matches!(s.class, Class::Kernel(_)));
    outcome.layer("serve.bind_s", setup(|t| t.bind));
    outcome.layer("serve.connect_s", setup(|t| t.connect));
    outcome.layer("serve.warm_s", setup(|t| t.warm));
    outcome.layer("serve.requests", delta("requests_total"));
    outcome.layer("serve.hits", delta("cache_hits"));
    outcome.layer("serve.misses", misses.len() as f64);
    outcome.layer("serve.coalesced", delta("coalesced"));
    outcome.layer("serve.computed", delta("computed"));
    outcome.layer("serve.rejected", delta("rejected"));
    outcome.layer("serve.errors", delta("failed"));
    outcome.layer("serve.tcp_hit_p99_us", quantile(&hits, 0.99) * 1e6);
    if !sweeps.is_empty() {
        outcome.layer("serve.tcp_miss_p50_us", median(&sweeps) * 1e6);
    }
    if !kernels.is_empty() {
        outcome.layer("serve.kernel_p50_ms", median(&kernels) * 1e3);
    }
    outcome.layer(
        "serve.worker_utilization",
        (busy_ns(&after) - busy_ns(&before)) / (wall * 1e9 * WORKERS as f64),
    );
    outcome.layer("serve.drain_s", drain_s);
    outcome
}
