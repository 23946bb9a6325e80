//! # mempool-bench
//!
//! Benchmark harness for the MemPool-3D reproduction. The `repro` binary
//! regenerates every table and figure of the paper's evaluation
//! (`cargo run -p mempool-bench --bin repro -- all`), and the Criterion
//! benches under `benches/` time the pieces:
//!
//! * `tile_implementation` — Table I (tile floorplan + 3D partitioning);
//! * `group_implementation` — Table II (full group PPA analysis);
//! * `matmul_bandwidth_sweep` — Figure 6 (the analytic sweep and the
//!   simulated compute phase feeding its constants);
//! * `performance_sweep` — Figures 7-9 (the combined evaluation);
//! * `simulator` — raw simulator throughput on the kernel zoo.

pub mod args;
pub mod regress;

/// The pinned fault seed the regression baseline is generated with.
pub const BASELINE_FAULT_SEED: u64 = 42;
/// The pinned fault rate of the baseline degraded run.
pub const BASELINE_FAULT_RATE: f64 = 1e-6;
/// Watchdog threshold armed for the baseline degraded run.
pub const BASELINE_WATCHDOG: u64 = 2_000_000;

/// Produces the benchmark summary the regression gate compares against
/// (`repro check`). Everything except the `perf` section is pinned: the
/// recorded workload constants, the analytic matmul cycle counts, and a
/// degraded run under the fixed `(seed, rate)` fault plan, so two runs of
/// the same code produce identical documents there. The `perf` section
/// carries the host-throughput probe (wall-clock simulated cycles per
/// second at one and at several host threads) — a real measurement
/// that varies run to run; the comparator's lenient `cycles_per_second` /
/// `parallel_speedup` rules keep it gated without tripping on scheduler
/// noise.
///
/// # Panics
///
/// Panics if the pinned-seed degraded run or the throughput probe fails —
/// both scenarios are expected to always complete (a failure here is
/// itself a regression).
pub fn bench_summary() -> mempool_obs::Json {
    use mempool::experiments::Resilience;
    use mempool_arch::SpmCapacity;
    use mempool_kernels::matmul::PhaseModel;
    use mempool_obs::Json;

    let model = PhaseModel::with_measured_defaults();
    let cycles = SpmCapacity::ALL
        .iter()
        .map(|&cap| {
            Json::obj([
                ("capacity", Json::str(cap.to_string())),
                ("total_cycles", Json::Float(model.total_cycles(cap, 16))),
            ])
        })
        .collect();
    let resilience = Resilience::with_model(
        model,
        BASELINE_FAULT_SEED,
        BASELINE_FAULT_RATE,
        Some(BASELINE_WATCHDOG),
    )
    .expect("the pinned-seed degraded run must complete");
    let run = resilience.run();
    Json::obj([
        ("schema", Json::str("mempool-bench-summary/v1")),
        ("cycles_per_mac", Json::Float(model.cycles_per_mac)),
        ("phase_overhead", Json::Float(model.phase_overhead)),
        ("matmul_cycles_at_16B_per_cycle", Json::Arr(cycles)),
        (
            "resilience",
            Json::obj([
                ("seed", Json::Int(run.seed as i64)),
                ("rate", Json::Float(run.rate)),
                ("clean_phase_cycles", Json::Int(run.clean_cycles as i64)),
                (
                    "degraded_phase_cycles",
                    Json::Int(run.degraded_cycles as i64),
                ),
                ("overhead", Json::Float(run.overhead())),
                ("injected_events", Json::Int(run.events as i64)),
                (
                    "retried_accesses",
                    Json::Int(run.report.retried_accesses as i64),
                ),
                ("ecc_corrected", Json::Int(run.report.ecc_corrected as i64)),
                (
                    "remapped_banks",
                    Json::Int(run.report.remapped.len() as i64),
                ),
                (
                    "clean_fig6_speedup",
                    Json::Float(resilience.clean_speedup()),
                ),
                (
                    "degraded_fig6_speedup",
                    Json::Float(resilience.degraded_speedup()),
                ),
            ]),
        ),
        ("perf", throughput_probe()),
    ])
}

/// How many back-to-back kernel runs the throughput probe times per
/// thread count, so the elapsed window is long enough to be meaningful.
const PROBE_REPS: u32 = 2;

/// Thread counts the probe times. `1` is the one-worker reference; the
/// last entry is the headline parallel leg (matching the CI tier-1
/// `--threads 4` job) whose ratio against `1` is `parallel_speedup`.
const PROBE_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Tiles in the probe cluster. Sized so the parallel legs measure engine
/// throughput, not synchronization overhead: 16 tiles × 4 cores gives
/// every worker of the 4-thread leg four whole tiles to advance between
/// sync points (the old 4-tile probe left workers idling at barriers).
const PROBE_TILES: u32 = 16;

/// Matmul tile dimension of the probe workload (`p x p`, one output row
/// block per core). At 64 cores this runs long enough (hundreds of
/// thousands of simulated cycles per rep) to amortize thread startup.
const PROBE_P: u32 = 64;

/// The sized engine-throughput probe alone (no serve probe, no figure
/// runs) — what `repro perf` and the CI perf smoke step execute to gate
/// `parallel_speedup` without paying for a full summary.
pub fn perf_probe() -> mempool_obs::Json {
    use mempool_obs::Json;
    let Json::Obj(pairs) = throughput_probe() else {
        unreachable!("the throughput probe returns an object")
    };
    Json::Obj(pairs.into_iter().filter(|(k, _)| k != "serve").collect())
}

/// Times the compute-phase workload at each [`PROBE_THREAD_COUNTS`]
/// entry, reporting simulated cycles per wall-clock second as a
/// `cycles_per_second` map keyed by thread count plus the headline
/// `parallel_speedup` ratio. Every leg simulates the identical workload
/// (the engines are bit-identical by construction), so the ratios are
/// pure host-throughput comparisons.
///
/// # Panics
///
/// Panics if the probe workload fails to build or complete.
fn throughput_probe() -> mempool_obs::Json {
    use std::time::Instant;

    use mempool_arch::ClusterConfig;
    use mempool_kernels::matmul::ComputePhase;
    use mempool_kernels::Kernel;
    use mempool_obs::{Json, Obs};
    use mempool_sim::{Cluster, SimParams};

    /// Epoch length of the instrumented legs' time-series sampling.
    const PROBE_TIMESERIES_WINDOW: u64 = 1024;
    /// Flight-recorder ring capacity of the instrumented legs.
    const PROBE_FLIGHT_CAPACITY: usize = 256;

    fn cycles_per_second(threads: usize, instrumented: bool) -> f64 {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(PROBE_TILES)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(512)
            .build()
            .expect("the probe cluster shape is valid");
        let phase = ComputePhase::new(PROBE_P);
        let params = SimParams {
            threads,
            ..SimParams::default()
        };
        let start = Instant::now();
        let mut simulated = 0u64;
        for _ in 0..PROBE_REPS {
            let mut cluster = Cluster::new(cfg.clone(), params);
            // The instrumented legs carry the full observability stack
            // (spans, metrics, epoch sampling, flight ring + trace), so
            // this prices the shard-local observation lanes.
            let obs = instrumented.then(Obs::new);
            if let Some(obs) = &obs {
                cluster.attach_obs(obs, "probe");
                cluster.enable_timeseries(PROBE_TIMESERIES_WINDOW);
                cluster.enable_flight(PROBE_FLIGHT_CAPACITY);
                cluster.enable_trace(PROBE_FLIGHT_CAPACITY);
            }
            simulated += phase
                .run(&mut cluster, 100_000_000)
                .expect("the probe workload must complete");
        }
        simulated as f64 / start.elapsed().as_secs_f64().max(1e-9)
    }

    let legs: Vec<(usize, f64)> = PROBE_THREAD_COUNTS
        .iter()
        .map(|&threads| (threads, cycles_per_second(threads, false)))
        .collect();
    let sequential = legs[0].1;
    let parallel = legs[legs.len() - 1].1;
    // How many workers the parallel leg really ran: the engine clamps to
    // the host's CPUs (oversubscribed spinning workers only thrash).
    let probed = PROBE_THREAD_COUNTS[PROBE_THREAD_COUNTS.len() - 1];
    let workers = {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(PROBE_TILES)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(512)
            .build()
            .expect("the probe cluster shape is valid");
        let params = SimParams {
            threads: probed,
            ..SimParams::default()
        };
        Cluster::new(cfg, params).effective_workers()
    };
    // On a host with no usable parallelism every leg runs the identical
    // single-worker configuration, so the measured ratio is pure
    // scheduler noise; pin the headline to the truthful 1.0 instead of
    // letting noise flap the hard gate. The raw per-leg measurements
    // stay in the map.
    let speedup = if workers > 1 {
        parallel / sequential.max(1e-9)
    } else {
        1.0
    };
    // Instrumented legs: the same workload with the full observability
    // stack attached, at the sequential reference and the headline
    // parallel count. `obs_overhead` prices the observation lanes
    // (bare vs instrumented throughput at the parallel count);
    // `instrumented_parallel_speedup` shows instrumented runs still
    // scale — it shares `parallel_speedup`'s 1.0 hard floor and pinning.
    let instr_sequential = cycles_per_second(1, true);
    let instr_parallel = cycles_per_second(probed, true);
    let obs_overhead = parallel / instr_parallel.max(1e-9);
    let instr_speedup = if workers > 1 {
        instr_parallel / instr_sequential.max(1e-9)
    } else {
        1.0
    };
    Json::obj([
        (
            "probe",
            Json::Str(format!(
                "compute-phase p={PROBE_P} on {PROBE_TILES} tiles x 4 cores"
            )),
        ),
        (
            "cycles_per_second",
            Json::Obj(
                legs.iter()
                    .map(|&(threads, cps)| (threads.to_string(), Json::Float(cps)))
                    .collect(),
            ),
        ),
        (
            "instrumented_cycles_per_second",
            Json::Obj(vec![
                ("1".to_string(), Json::Float(instr_sequential)),
                (probed.to_string(), Json::Float(instr_parallel)),
            ]),
        ),
        ("parallel_workers", Json::Int(workers as i64)),
        ("parallel_speedup", Json::Float(speedup)),
        ("obs_overhead", Json::Float(obs_overhead)),
        ("instrumented_parallel_speedup", Json::Float(instr_speedup)),
        ("serve", serve_probe()),
    ])
}

/// Bandwidth points (bytes per cycle) of the serve probe's request mix.
/// Each is one `sweep` experiment; the cold pass computes all of them,
/// the warm pass replays the full mix from every client as cache hits.
const SERVE_PROBE_BANDWIDTHS: [u32; 8] = [2, 4, 6, 8, 12, 16, 24, 32];

/// Concurrent clients (and service workers) in the warm replay pass.
const SERVE_PROBE_CLIENTS: usize = 4;

/// Times a deterministic request mix against an in-process
/// `mempool-serve` pool: a cold pass submitting each of the
/// [`SERVE_PROBE_BANDWIDTHS`] sweep configs once (all fanned out
/// concurrently, so the pool computes them in parallel), then a warm pass
/// where [`SERVE_PROBE_CLIENTS`] client threads each replay the full mix.
/// The mix is fixed, so the counters are pinned: `computed` equals the
/// number of unique configs, every warm request is a cache hit, and
/// `cache_hit_rate` is exact — only `configs_per_second` (requests
/// completed per wall-clock second) is a real host measurement.
///
/// # Panics
///
/// Panics if the service fails to start or any probe request fails —
/// the probe is expected to always complete.
fn serve_probe() -> mempool_obs::Json {
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    use mempool_obs::Json;
    use mempool_serve::{ExperimentKind, ExperimentRequest, Service, ServiceConfig};

    let service = Service::start(ServiceConfig {
        workers: SERVE_PROBE_CLIENTS,
        ..ServiceConfig::default()
    })
    .expect("the in-process probe service must start");
    let request = |bw: u32| {
        ExperimentRequest::new(ExperimentKind::Sweep {
            bytes_per_cycle: bw,
        })
    };

    let start = Instant::now();
    // Cold pass: every unique config submitted once, computed in parallel.
    let pending: Vec<_> = SERVE_PROBE_BANDWIDTHS
        .iter()
        .map(|&bw| {
            service
                .client()
                .submit(request(bw))
                .expect("the cold probe submission must be admitted")
        })
        .collect();
    for p in pending {
        p.wait().expect("the cold probe request must complete");
    }
    // Warm pass: concurrent clients replay the mix; all hits.
    let clients: Vec<_> = (0..SERVE_PROBE_CLIENTS)
        .map(|_| {
            let client = service.client();
            std::thread::spawn(move || {
                for &bw in &SERVE_PROBE_BANDWIDTHS {
                    client
                        .run(request(bw))
                        .expect("the warm probe request must complete");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("a probe client thread must not panic");
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let stats = service.stats();
    let requests = stats.requests.load(Ordering::Relaxed);
    let computed = stats.computed.load(Ordering::Relaxed);
    let hit_rate = stats.cache_hit_rate();
    service.shutdown();
    Json::obj([
        (
            "probe",
            Json::str("8 sweep configs cold + 4-client warm replay"),
        ),
        ("requests_total", Json::Int(requests as i64)),
        ("computed", Json::Int(computed as i64)),
        ("configs_per_second", Json::Float(requests as f64 / elapsed)),
        ("cache_hit_rate", Json::Float(hit_rate)),
    ])
}

/// Renders every experiment to one report string.
pub fn full_report() -> String {
    use mempool::experiments::{Evaluation, Fig6, Fig7, Fig8, Fig9, Table1, Table2};

    let eval = Evaluation::new();
    let mut out = String::new();
    out.push_str(&Table1::generate().to_text());
    out.push('\n');
    out.push_str(&Table2::from_evaluation(&eval).to_text());
    out.push('\n');
    out.push_str(&Fig6::generate().to_text());
    out.push('\n');
    out.push_str(&Fig7::from_evaluation(&eval).to_text());
    out.push('\n');
    out.push_str(&Fig8::from_evaluation(&eval).to_text());
    out.push('\n');
    out.push_str(&Fig9::from_evaluation(&eval).to_text());
    out
}

#[cfg(test)]
mod tests {
    /// Removes the `perf` section — the one part of the summary that is a
    /// live wall-clock measurement rather than a pinned simulation result.
    fn strip_perf(doc: &mempool_obs::Json) -> mempool_obs::Json {
        use mempool_obs::Json;
        match doc {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(key, _)| key != "perf")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn bench_summary_is_deterministic_and_self_consistent() {
        use mempool_obs::Json;
        let a = strip_perf(&super::bench_summary());
        let b = strip_perf(&super::bench_summary());
        assert_eq!(a.to_pretty(), b.to_pretty(), "the gate needs determinism");
        let doc = Json::parse(&a.to_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mempool-bench-summary/v1")
        );
        let cmp = super::regress::compare(&a, &b);
        assert!(!cmp.is_regression());
        assert_eq!(cmp.regressions.len() + cmp.missing.len(), 0);
    }

    #[test]
    fn bench_summary_records_finite_throughput() {
        let doc = super::bench_summary();
        let perf = doc.get("perf").expect("summary carries a perf section");
        let cps_map = perf
            .get("cycles_per_second")
            .expect("perf carries the per-thread-count cycles_per_second map");
        for threads in super::PROBE_THREAD_COUNTS {
            let key = threads.to_string();
            let value = cps_map
                .get(&key)
                .and_then(|v| match v {
                    mempool_obs::Json::Float(f) => Some(*f),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("perf.cycles_per_second.{key} must be a float"));
            assert!(
                value.is_finite() && value > 0.0,
                "perf.cycles_per_second.{key} = {value} must be a positive finite number"
            );
        }
        let speedup = perf
            .get("parallel_speedup")
            .and_then(|v| match v {
                mempool_obs::Json::Float(f) => Some(*f),
                _ => None,
            })
            .expect("perf.parallel_speedup must be a float");
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "perf.parallel_speedup = {speedup} must be a positive finite number"
        );
        let perf_float = |key: &str| {
            perf.get(key)
                .and_then(|v| match v {
                    mempool_obs::Json::Float(f) => Some(*f),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("perf.{key} must be a float"))
        };
        let overhead = perf_float("obs_overhead");
        assert!(
            overhead.is_finite() && overhead > 0.0,
            "perf.obs_overhead = {overhead} must be a positive finite number"
        );
        let instr_speedup = perf_float("instrumented_parallel_speedup");
        assert!(
            instr_speedup.is_finite() && instr_speedup > 0.0,
            "perf.instrumented_parallel_speedup = {instr_speedup}"
        );
        assert!(
            perf.get("instrumented_cycles_per_second").is_some(),
            "perf carries the instrumented throughput map"
        );
        let serve = perf
            .get("serve")
            .expect("the perf section carries the serve probe");
        let float = |key: &str| {
            serve
                .get(key)
                .and_then(|v| match v {
                    mempool_obs::Json::Float(f) => Some(*f),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("perf.serve.{key} must be a float"))
        };
        let cps = float("configs_per_second");
        assert!(cps.is_finite() && cps > 0.0, "configs_per_second = {cps}");
        let int = |key: &str| {
            serve
                .get(key)
                .and_then(|v| match v {
                    mempool_obs::Json::Int(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("perf.serve.{key} must be an integer"))
        };
        // The probe's request mix is fixed, so its counters are pinned:
        // every unique config computed exactly once, every warm-pass
        // replay a hit.
        let unique = super::SERVE_PROBE_BANDWIDTHS.len() as i64;
        let clients = super::SERVE_PROBE_CLIENTS as i64;
        assert_eq!(int("computed"), unique);
        assert_eq!(int("requests_total"), unique * (clients + 1));
        let expected_rate = (clients * unique) as f64 / (unique * (clients + 1)) as f64;
        let rate = float("cache_hit_rate");
        assert!(
            (rate - expected_rate).abs() < 1e-12,
            "cache_hit_rate = {rate}, expected {expected_rate}"
        );
    }

    #[test]
    fn full_report_contains_every_experiment() {
        let report = super::full_report();
        for needle in [
            "Table I", "Table II", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }
}
