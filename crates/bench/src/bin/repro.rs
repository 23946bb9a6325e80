//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p mempool-bench --bin repro -- all
//! cargo run --release -p mempool-bench --bin repro -- table1 fig6
//! cargo run --release -p mempool-bench --bin repro -- fig6 --measure
//! cargo run --release -p mempool-bench --bin repro -- fig6 --measure --artifacts out/
//! ```
//!
//! With `--measure`, the workload constants (cycles/MAC, phase overhead)
//! are re-measured on the cycle-accurate simulator instead of using the
//! recorded defaults.
//!
//! With `--artifacts DIR`, machine-readable outputs are written next to
//! the text tables: one JSON document per produced figure/table
//! (`fig6.json`, `table2.json`, ...), a `metrics.json`/`metrics.csv`
//! snapshot, a Perfetto-loadable `trace.json` of the measurement phase
//! spans, a `perf_profile.json` engine self-profile (per-worker busy vs
//! lockstep-wait time, quantum-boundary durations, mailbox volume), and a
//! `BENCH_repro.json` summary (cycle counts, cycles/MAC, engine record).
//! Every artifact except `perf_profile.json` is deterministic: two runs of
//! the same command, at any `--threads`, are `cmp`-identical.
//!
//! `repro check --baseline PATH` regenerates the pinned summary and fails
//! (exit 1) unless it equals the committed baseline leaf for leaf.
//!
//! With `--faults SEED[:RATE]`, a degraded run is measured on top of the
//! selected targets: the deterministic fault plan generated from the seed
//! (and optional rate, default 1e-6) is injected into a compute-phase
//! cluster, and the measured slowdown is propagated into the Figure 6
//! 8 MiB / 16 B-per-cycle point. `--watchdog N` arms the forward-progress
//! watchdog (deadlock detection) for that degraded run. With
//! `--artifacts`, the run additionally exports `resilience.json` and the
//! raw `fault_report.json`.

use std::process::ExitCode;

use mempool::experiments::{
    ablations, Claims, ClusterLevel, Evaluation, Fig6, Fig7, Fig8, Fig9, Resilience, Table1, Table2,
};
use mempool_arch::SpmCapacity;
use mempool_bench::{args, regress};
use mempool_kernels::matmul::PhaseModel;
use mempool_kernels::measure;
use mempool_kernels::resilience::{observed_compute_run, DegradedObs, ObservedRun};
use mempool_obs::{chrome_trace_with_counters, ArtifactDir, Json, Obs};

const KNOWN_TARGETS: [&str; 13] = [
    "all",
    "table1",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "area",
    "claims",
    "cluster",
    "dse",
    "layout",
];

/// Exit code for a summary that differs from its baseline (`check`); usage
/// and I/O errors exit 2 to stay distinguishable in CI.
const EXIT_REGRESSION: u8 = 1;
const EXIT_ERROR: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--measure] [--artifacts DIR] [--faults SEED[:RATE]] [--watchdog N]\n\
         \x20            [--timeseries WINDOW] [--flight N] [--threads N]\n\
         \x20            [--checkpoint-dir DIR] [--checkpoint-every N] [--resume PATH]\n\
         \x20            [all|table1|table2|fig6|fig7|fig8|fig9|ablations|area|claims|cluster|dse|layout]...\n\
         \x20      repro check --baseline PATH [--bless]\n\
         \x20      repro serve [--listen HOST:PORT] [--workers N] [--max-queue N]\n\
         \x20                  [--cache-dir DIR] [--flight N]\n\
         \x20      repro submit --connect HOST:PORT [--threads N] [--artifacts DIR]\n\
         \x20                  [table1|table2|fig6|fig7|fig8|fig9|dse|sweep:BW|kernel:P|stats|shutdown]...\n\
         \n\
         --measure            re-measure workload constants on the simulator\n\
         --artifacts DIR      write JSON/CSV artifacts (figure data, metrics,\n\
                              Perfetto trace, BENCH_repro.json summary) to DIR\n\
         --faults SEED[:RATE] measure a degraded run under the deterministic\n\
                              fault plan from SEED (rate default 1e-6) and\n\
                              propagate it into the Figure 6 headline point\n\
         --watchdog N         arm the deadlock watchdog (N cycles without\n\
                              forward progress) for the degraded run\n\
         --timeseries WINDOW  sample per-epoch time series (IPC, request and\n\
                              conflict rates, off-chip occupancy) every WINDOW\n\
                              cycles; exports timeseries.json/.csv and Perfetto\n\
                              counter tracks. Applies to the degraded run with\n\
                              --faults, otherwise to an instrumented clean run\n\
                              (bit-identical artifacts at any thread count)\n\
         --flight N           keep an N-event flight-recorder ring on the\n\
                              measured (degraded or clean) run; exports\n\
                              flight.json, and a simulator fault dumps it as\n\
                              crashdump.json\n\
         --threads N          shard every simulation over N host threads\n\
                              (default 1); results are bit-identical at any\n\
                              thread count\n\
         --checkpoint-dir DIR snapshot the degraded run into DIR as atomic\n\
                              ckpt-<cycle>.json files with bounded retention;\n\
                              on a simulator fault the last good snapshot is\n\
                              copied next to crashdump.json\n\
         --checkpoint-every N snapshot interval in simulated cycles (default\n\
                              10000; requires --checkpoint-dir)\n\
         --resume PATH        restore the degraded run from a checkpoint file\n\
                              and finish it; the resumed artifacts are\n\
                              bit-identical to an uninterrupted run\n\
         \n\
         check                regenerate the pinned summary and require it to\n\
                              equal --baseline PATH leaf for leaf; exit 1 and\n\
                              name every differing leaf otherwise, 2 on\n\
                              usage/parse errors; --bless rewrites the baseline\n\
                              instead (compare any two artifacts with cmp)\n\
         serve                run the experiment service daemon: a bounded\n\
                              worker pool behind a newline-delimited JSON TCP\n\
                              protocol with request coalescing and a\n\
                              content-addressed result cache (send\n\
                              {{\"kind\": \"shutdown\"}} to drain and stop)\n\
         submit               issue experiment requests to a running daemon;\n\
                              artifacts are byte-identical to the one-shot\n\
                              documents, `dse` runs the exploration as a batch\n\
                              of cached service requests, and stats/shutdown\n\
                              are admin requests"
    );
    ExitCode::from(EXIT_ERROR)
}

/// Default fault rate when `--faults SEED` omits the `:RATE` suffix.
const DEFAULT_FAULT_RATE: f64 = 1e-6;

/// Parsed command line: the targets to produce and the options.
#[derive(Debug)]
struct Options {
    targets: Vec<String>,
    measure: bool,
    artifacts: Option<String>,
    faults: Option<(u64, f64)>,
    watchdog: Option<u64>,
    timeseries: Option<u64>,
    flight: Option<usize>,
    threads: usize,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
}

/// Parses `SEED[:RATE]`. Both parts are validated strictly: a non-numeric
/// seed or rate is a usage error, not a panic or a silent default. A zero
/// rate would "inject faults" that never fire — almost certainly a typo
/// for a real rate, so it is rejected rather than silently measuring a
/// clean run as degraded.
fn parse_faults(value: &str) -> Result<(u64, f64), String> {
    let (seed_text, rate_text) = match value.split_once(':') {
        Some((seed, rate)) => (seed, Some(rate)),
        None => (value, None),
    };
    let seed = args::parse_u64("--faults", "seed", seed_text)?;
    let rate = match rate_text {
        Some(text) => args::parse_positive_f64("--faults", "rate", text)?,
        None => DEFAULT_FAULT_RATE,
    };
    Ok((seed, rate))
}

/// Strict parser: every `--flag` must be recognized and every positional
/// argument must be a known target — a typo aborts with the usage message
/// instead of being silently ignored.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut targets = Vec::new();
    let mut measure = false;
    let mut artifacts = None;
    let mut faults = None;
    let mut watchdog = None;
    let mut timeseries = None;
    let mut flight = None;
    let mut threads = 1;
    let mut checkpoint_dir = None;
    let mut checkpoint_every = None;
    let mut resume = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--measure" => measure = true,
            // `args::flag_value` enforces that a following `--flag` is a
            // missing argument, not a value — otherwise `--artifacts
            // --measure` would silently drop the measure flag.
            "--artifacts" => {
                artifacts =
                    Some(args::flag_value(&mut it, "--artifacts", "a directory")?.to_string());
            }
            "--faults" => {
                faults = Some(parse_faults(args::flag_value(
                    &mut it,
                    "--faults",
                    "a SEED[:RATE]",
                )?)?);
            }
            "--watchdog" => {
                let value = args::flag_value(&mut it, "--watchdog", "a cycle-count")?;
                watchdog = Some(args::parse_u64("--watchdog", "threshold", value)?);
            }
            "--timeseries" => {
                let value = args::flag_value(&mut it, "--timeseries", "a cycle-window")?;
                timeseries = Some(args::parse_nonzero_u64("--timeseries", "window", value)?);
            }
            "--flight" => {
                let value = args::flag_value(&mut it, "--flight", "an event-count")?;
                flight = Some(args::parse_nonzero_usize("--flight", "capacity", value)?);
            }
            "--threads" => {
                let value = args::flag_value(&mut it, "--threads", "a thread-count")?;
                threads = args::parse_nonzero_usize("--threads", "count", value)?;
            }
            "--checkpoint-dir" => {
                checkpoint_dir =
                    Some(args::flag_value(&mut it, "--checkpoint-dir", "a directory")?.to_string());
            }
            "--checkpoint-every" => {
                let value = args::flag_value(&mut it, "--checkpoint-every", "a cycle-count")?;
                checkpoint_every = Some(args::parse_nonzero_u64(
                    "--checkpoint-every",
                    "interval",
                    value,
                )?);
            }
            "--resume" => {
                resume =
                    Some(args::flag_value(&mut it, "--resume", "a checkpoint file")?.to_string());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}"));
            }
            target => {
                if !KNOWN_TARGETS.contains(&target) {
                    return Err(format!("unknown target: {target}"));
                }
                targets.push(target.to_string());
            }
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    if checkpoint_every.is_some() && checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir".to_string());
    }
    if (checkpoint_dir.is_some() || resume.is_some()) && faults.is_none() {
        return Err(
            "--checkpoint-dir/--resume apply to the degraded run; add --faults".to_string(),
        );
    }
    Ok(Options {
        targets,
        measure,
        artifacts,
        faults,
        watchdog,
        timeseries,
        flight,
        threads,
        checkpoint_dir,
        checkpoint_every,
        resume,
    })
}

/// Reads and parses a JSON artifact, mapping both failure modes to one
/// printable message.
fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// `repro check --baseline PATH [--bless]` — regenerates the pinned
/// summary and gates it against (or rewrites) the committed baseline.
fn cmd_check(args: &[String]) -> ExitCode {
    let mut baseline_path = None;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match args::flag_value(&mut it, "--baseline", "a file") {
                Ok(path) => baseline_path = Some(path.to_string()),
                Err(msg) => {
                    eprintln!("repro check: {msg}");
                    return usage();
                }
            },
            "--bless" => bless = true,
            other => {
                eprintln!("repro check: unexpected argument {other:?}");
                return usage();
            }
        }
    }
    let Some(baseline_path) = baseline_path else {
        eprintln!("repro check: --baseline PATH is required");
        return usage();
    };

    eprintln!(
        "regenerating pinned summary (seed {}, rate {:.1e}) ...",
        mempool_bench::BASELINE_FAULT_SEED,
        mempool_bench::BASELINE_FAULT_RATE
    );
    let current = mempool_bench::bench_summary();
    if bless {
        if let Err(e) = std::fs::write(&baseline_path, current.to_pretty()) {
            eprintln!("repro check: cannot write {baseline_path}: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
        println!("blessed: wrote current summary to {baseline_path}");
        return ExitCode::SUCCESS;
    }
    let baseline = match load_json(&baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("repro check: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let differences = regress::diff(&baseline, &current);
    for line in &differences {
        println!("DIFFERS  {line}");
    }
    if differences.is_empty() {
        println!("check passed: the summary equals {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "repro check: {} leaf(s) differ from {baseline_path} \
             (bless intentional changes with --bless)",
            differences.len()
        );
        ExitCode::from(EXIT_REGRESSION)
    }
}

fn parse_serve_args(argv: &[String]) -> Result<(String, mempool_serve::ServiceConfig), String> {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut config = mempool_serve::ServiceConfig::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                let value = args::flag_value(&mut it, "--listen", "a HOST:PORT")?;
                listen = args::parse_socket_addr("--listen", value)?;
            }
            "--workers" => {
                let value = args::flag_value(&mut it, "--workers", "a worker-count")?;
                config.workers = args::parse_nonzero_usize("--workers", "count", value)?;
            }
            "--max-queue" => {
                let value = args::flag_value(&mut it, "--max-queue", "a queue-bound")?;
                config.max_queue = args::parse_nonzero_usize("--max-queue", "bound", value)?;
            }
            "--cache-dir" => {
                let value = args::flag_value(&mut it, "--cache-dir", "a directory")?;
                config.cache_dir = Some(value.into());
            }
            "--flight" => {
                let value = args::flag_value(&mut it, "--flight", "an event-count")?;
                config.flight_capacity = args::parse_nonzero_usize("--flight", "capacity", value)?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((listen, config))
}

/// `repro serve ...` — runs the experiment-service daemon until a client
/// sends a shutdown request, then prints the final stats document.
fn cmd_serve(argv: &[String]) -> ExitCode {
    use mempool_serve::TcpServer;

    let (listen, config) = match parse_serve_args(argv) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("repro serve: {msg}");
            return usage();
        }
    };
    let server = match TcpServer::bind(&listen, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("repro serve: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("repro serve: listening on {addr}"),
        Err(e) => eprintln!("repro serve: {e}"),
    }
    match server.run() {
        Ok(stats) => {
            println!("{}", stats.to_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro serve: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// One parsed `repro submit` work item.
enum SubmitItem {
    Experiment(mempool_serve::ExperimentKind),
    Dse,
    Stats,
    Shutdown,
}

/// Parses a submit target token (`fig6`, `sweep:16`, `kernel:32`, ...).
fn parse_submit_item(token: &str) -> Result<SubmitItem, String> {
    use mempool_serve::ExperimentKind;
    let kind = match token {
        "table1" => ExperimentKind::Table1,
        "table2" => ExperimentKind::Table2,
        "fig6" => ExperimentKind::Fig6,
        "fig7" => ExperimentKind::Fig7,
        "fig8" => ExperimentKind::Fig8,
        "fig9" => ExperimentKind::Fig9,
        "dse" => return Ok(SubmitItem::Dse),
        "stats" => return Ok(SubmitItem::Stats),
        "shutdown" => return Ok(SubmitItem::Shutdown),
        other => match other.split_once(':') {
            Some(("sweep", bw)) => ExperimentKind::Sweep {
                bytes_per_cycle: args::parse_nonzero_u64("sweep", "bandwidth", bw)?
                    .try_into()
                    .map_err(|_| format!("sweep: bandwidth out of range: {bw}"))?,
            },
            Some(("kernel", p)) => ExperimentKind::Kernel {
                p: args::parse_nonzero_u64("kernel", "dimension", p)?
                    .try_into()
                    .map_err(|_| format!("kernel: dimension out of range: {p}"))?,
            },
            _ => return Err(format!("unknown submit target: {token}")),
        },
    };
    Ok(SubmitItem::Experiment(kind))
}

/// Parsed `repro submit` command line.
struct SubmitOptions {
    connect: String,
    threads: usize,
    artifacts_dir: Option<String>,
    items: Vec<(String, SubmitItem)>,
}

fn parse_submit_args(argv: &[String]) -> Result<SubmitOptions, String> {
    let mut connect: Option<String> = None;
    let mut threads = 1usize;
    let mut artifacts_dir: Option<String> = None;
    let mut items: Vec<(String, SubmitItem)> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                let value = args::flag_value(&mut it, "--connect", "a HOST:PORT")?;
                connect = Some(args::parse_socket_addr("--connect", value)?);
            }
            "--threads" => {
                let value = args::flag_value(&mut it, "--threads", "a thread-count")?;
                threads = args::parse_nonzero_usize("--threads", "count", value)?;
            }
            "--artifacts" => {
                artifacts_dir =
                    Some(args::flag_value(&mut it, "--artifacts", "a directory")?.to_string());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            token => items.push((token.to_string(), parse_submit_item(token)?)),
        }
    }
    let Some(connect) = connect else {
        return Err("--connect HOST:PORT is required".to_string());
    };
    if items.is_empty() {
        return Err("no targets given".to_string());
    }
    Ok(SubmitOptions {
        connect,
        threads,
        artifacts_dir,
        items,
    })
}

/// `repro submit --connect HOST:PORT TARGET...` — issues requests to a
/// running daemon and prints each artifact.
fn cmd_submit(argv: &[String]) -> ExitCode {
    use mempool_serve::{dse, ExperimentRequest, RetryPolicy, TcpClient};

    let SubmitOptions {
        connect,
        threads,
        artifacts_dir,
        items,
    } = match parse_submit_args(argv) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro submit: {msg}");
            return usage();
        }
    };
    // Bounded retries with backoff: a daemon restarting mid-sweep (crash
    // recovery, rolling restart) comes back within the retry window and
    // the submission resumes instead of failing.
    let mut client = match TcpClient::connect_with(&connect, &RetryPolicy::default()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("repro submit: cannot connect to {connect}: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let mut artifacts = match &artifacts_dir {
        Some(dir) => match ArtifactDir::create(dir) {
            Ok(art) => Some(art),
            Err(e) => {
                eprintln!("repro submit: cannot create artifact directory {dir}: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => None,
    };
    for (token, item) in items {
        let result: Result<(), String> = match item {
            SubmitItem::Experiment(kind) => {
                let req = ExperimentRequest {
                    threads,
                    ..ExperimentRequest::new(kind)
                };
                match client.request(&req) {
                    Ok(outcome) => {
                        eprintln!("repro submit: {token}: {}", outcome.cache);
                        println!("{}", outcome.artifact.to_pretty());
                        match artifacts.as_mut() {
                            Some(art) => art
                                .write_json(&format!("{}.json", req.kind.tag()), &outcome.artifact)
                                .map(|_| ())
                                .map_err(|e| format!("writing artifact: {e}")),
                            None => Ok(()),
                        }
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            SubmitItem::Dse => {
                match dse::explore_via_tcp(&mut client, &PhaseModel::with_measured_defaults()) {
                    Ok(space) => {
                        println!("{}", space.to_text());
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            SubmitItem::Stats => match client.stats() {
                Ok(stats) => {
                    println!("{}", stats.to_pretty());
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
            SubmitItem::Shutdown => match client.shutdown() {
                Ok(()) => {
                    eprintln!("repro submit: daemon is draining");
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
        };
        if let Err(msg) = result {
            eprintln!("repro submit: {token}: {msg}");
            return ExitCode::from(EXIT_ERROR);
        }
    }
    if let Some(art) = &artifacts {
        if !art.written().is_empty() {
            eprintln!(
                "artifacts written to {}: {}",
                art.root().display(),
                art.written().join(", ")
            );
        }
    }
    ExitCode::SUCCESS
}

/// Runs the design-space exploration as a batch client of an in-process
/// `mempool-serve` worker pool: all eight design points are submitted
/// concurrently, computed (or served from cache) by the pool, and
/// reassembled in canonical order. The result is bit-identical to the
/// direct `DesignSpace::explore` path — the serve integration tests pin
/// that equality — so the printed report does not change shape.
fn dse_via_service(model: &PhaseModel) -> Result<String, String> {
    let service = mempool_serve::Service::start(mempool_serve::ServiceConfig::default())
        .map_err(|e| format!("starting the in-process service: {e}"))?;
    let space =
        mempool_serve::dse::explore_via(&service.client(), model).map_err(|e| e.to_string())?;
    service.shutdown();
    Ok(space.to_text())
}

/// A simulator fault leaves a flight-recorder dump behind; make it land
/// somewhere inspectable even without `--artifacts` (then: the working
/// directory).
fn write_crash_dump(artifacts: Option<&mut ArtifactDir>, dump: &Json) {
    let written = match artifacts {
        Some(art) => art.write_json("crashdump.json", dump),
        None => {
            let path = std::path::PathBuf::from("crashdump.json");
            std::fs::write(&path, dump.to_pretty()).map(|()| path)
        }
    };
    match written {
        Ok(path) => eprintln!("repro: crash dump written to {}", path.display()),
        Err(e) => eprintln!("repro: writing crashdump.json: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => return cmd_check(&args[1..]),
        Some("serve") => return cmd_serve(&args[1..]),
        Some("submit") => return cmd_submit(&args[1..]),
        _ => {}
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            return usage();
        }
    };
    // Every cluster below is built through `SimParams::default()`, so one
    // process-wide knob sets the worker count of all of them. Results are
    // bit-identical at every count, so no artifact depends on this —
    // which is exactly what CI's 4-thread-vs-1-thread diff checks.
    mempool_sim::set_default_threads(opts.threads);
    if opts.threads > 1 {
        eprintln!("driving simulations with {} host threads", opts.threads);
    }
    let want = |name: &str| {
        opts.targets.iter().any(|t| t == "all") || opts.targets.iter().any(|t| t == name)
    };

    let mut artifacts = match &opts.artifacts {
        Some(dir) => match ArtifactDir::create(dir) {
            Ok(art) => Some(art),
            Err(e) => {
                eprintln!("repro: cannot create artifact directory {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let obs = Obs::new();

    let model = if opts.measure {
        eprintln!("measuring workload constants on the simulator ...");
        match measure::measure_constants_observed(Some(&obs)) {
            Ok(constants) => {
                let model = constants.phase_model(SpmCapacity::MATMUL_MATRIX_DIM, 256);
                eprintln!(
                    "measured: {:.2} cycles/MAC, {:.0} cycles/phase overhead",
                    model.cycles_per_mac, model.phase_overhead
                );
                model
            }
            Err(e) => {
                eprintln!("measurement failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        PhaseModel::with_measured_defaults()
    };

    let needs_eval = want("table2")
        || want("fig7")
        || want("fig8")
        || want("fig9")
        || want("claims")
        || want("dse");
    let eval = needs_eval.then(|| Evaluation::with_model(model));

    // Each produced figure/table prints its text form and, with
    // `--artifacts`, lands as a JSON document of the same numbers.
    let mut emit = |name: &str, text: String, json: Option<Json>| -> bool {
        println!("{text}");
        if let (Some(art), Some(json)) = (artifacts.as_mut(), json) {
            let file = format!("{name}.json");
            if let Err(e) = art.write_json(&file, &json) {
                eprintln!("repro: writing {file}: {e}");
                return false;
            }
        }
        true
    };

    if want("table1") {
        let t = Table1::generate();
        if !emit("table1", t.to_text(), Some(t.to_json())) {
            return ExitCode::FAILURE;
        }
    }
    if want("table2") {
        let t = Table2::from_evaluation(eval.as_ref().unwrap());
        if !emit("table2", t.to_text(), Some(t.to_json())) {
            return ExitCode::FAILURE;
        }
    }
    if want("fig6") {
        let f = Fig6::with_model(model);
        if !emit("fig6", f.to_text(), Some(f.to_json())) {
            return ExitCode::FAILURE;
        }
    }
    if want("ablations") && !emit("ablations", ablations::full_report(), None) {
        return ExitCode::FAILURE;
    }
    if want("cluster") && !emit("cluster", ClusterLevel::generate().to_text(), None) {
        return ExitCode::FAILURE;
    }
    if want("layout") {
        use mempool_phys::{viz, Flow, GroupImplementation, TileImplementation};
        // Figure 3: memory-die floorplans.
        for cap in [SpmCapacity::MiB1, SpmCapacity::MiB4, SpmCapacity::MiB8] {
            let tile = TileImplementation::implement(cap, Flow::ThreeD);
            println!("{}", viz::memory_die_floorplan(&tile, 48));
        }
        // Figure 4: density map of the 3D 4 MiB group.
        let g = GroupImplementation::implement(SpmCapacity::MiB4, Flow::ThreeD);
        println!("{}", viz::group_density_map(&g, 72));
        // Figure 5: the 8 MiB groups to scale.
        let g2 = GroupImplementation::implement(SpmCapacity::MiB8, Flow::TwoD);
        let g3 = GroupImplementation::implement(SpmCapacity::MiB8, Flow::ThreeD);
        println!("{}", viz::group_floorplan(&g2, &g3));
    }
    if let Some(eval) = &eval {
        if want("fig7") {
            let f = Fig7::from_evaluation(eval);
            if !emit("fig7", f.to_text(), Some(f.to_json())) {
                return ExitCode::FAILURE;
            }
        }
        if want("fig8") {
            let f = Fig8::from_evaluation(eval);
            if !emit("fig8", f.to_text(), Some(f.to_json())) {
                return ExitCode::FAILURE;
            }
        }
        if want("fig9") {
            let f = Fig9::from_evaluation(eval);
            if !emit("fig9", f.to_text(), Some(f.to_json())) {
                return ExitCode::FAILURE;
            }
        }
        if want("claims") && !emit("claims", Claims::from_evaluation(eval).to_text(), None) {
            return ExitCode::FAILURE;
        }
        if want("dse") {
            // The exploration runs as a batch client of an in-process
            // mempool-serve pool, so the one-shot CLI exercises the same
            // submit/coalesce/cache path the daemon serves over TCP.
            let text = match dse_via_service(&model) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("repro: dse exploration through the service failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !emit("dse", text, None) {
                return ExitCode::FAILURE;
            }
        }
    }
    if want("area") {
        use mempool_phys::{AreaReport, Flow, GroupImplementation};
        for flow in Flow::ALL {
            for cap in SpmCapacity::ALL {
                let group = GroupImplementation::implement(cap, flow);
                println!("{}", AreaReport::from_group(&group));
            }
        }
    }

    let resilience = match opts.faults {
        Some((seed, rate)) => {
            eprintln!("measuring degraded run (seed {seed}, rate {rate:.1e}) ...");
            if let Some(path) = &opts.resume {
                eprintln!("resuming degraded run from {path} ...");
            }
            let hooks = DegradedObs {
                obs: obs.clone(),
                timeseries_window: opts.timeseries,
                flight_capacity: opts.flight,
                checkpoint_dir: opts.checkpoint_dir.clone().map(Into::into),
                checkpoint_every: opts.checkpoint_every,
                resume: opts.resume.clone().map(Into::into),
            };
            match Resilience::with_model_observed(model, seed, rate, opts.watchdog, Some(&hooks)) {
                Ok(r) => {
                    if !emit("resilience", r.to_text(), Some(r.to_json())) {
                        return ExitCode::FAILURE;
                    }
                    Some(r)
                }
                Err(failure) => {
                    eprintln!("repro: degraded run failed: {failure}");
                    if let Some(dump) = &failure.crash_dump {
                        write_crash_dump(artifacts.as_mut(), dump);
                    }
                    // When checkpointing was on, park the newest surviving
                    // snapshot next to the dump and say how to resume.
                    if let Some(last) = &failure.last_checkpoint {
                        let dest = match artifacts.as_ref() {
                            Some(art) => art.root().join("checkpoint-last-good.json"),
                            None => std::path::PathBuf::from("checkpoint-last-good.json"),
                        };
                        match std::fs::copy(last, &dest) {
                            Ok(_) => eprintln!(
                                "repro: last good checkpoint copied to {}\n\
                                 repro: resume with: repro --faults {seed}:{rate:e} --resume {}",
                                dest.display(),
                                dest.display()
                            ),
                            Err(e) => eprintln!(
                                "repro: copying {} to {}: {e}",
                                last.display(),
                                dest.display()
                            ),
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    if let (Some(art), Some(r)) = (artifacts.as_mut(), resilience.as_ref()) {
        if let Err(e) = art.write_json("fault_report.json", &r.run().report.to_json()) {
            eprintln!("repro: writing fault_report.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    // `--timeseries`/`--flight` without `--faults` instrument a *clean*
    // compute phase; the engine's shard-local observation lanes keep the
    // artifacts bit-identical at any `--threads`.
    let observed = if opts.faults.is_none() && (opts.timeseries.is_some() || opts.flight.is_some())
    {
        eprintln!("measuring instrumented clean run ...");
        let hooks = DegradedObs {
            obs: obs.clone(),
            timeseries_window: opts.timeseries,
            flight_capacity: opts.flight,
            ..DegradedObs::default()
        };
        match observed_compute_run(&hooks) {
            Ok(run) => {
                println!("{}", run.to_text());
                if let Some(art) = artifacts.as_mut() {
                    if let Err(e) = art.write_json("observed.json", &run.to_json()) {
                        eprintln!("repro: writing observed.json: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Some(run)
            }
            Err(failure) => {
                eprintln!("repro: instrumented clean run failed: {failure}");
                if let Some(dump) = &failure.crash_dump {
                    write_crash_dump(artifacts.as_mut(), dump);
                }
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    if let Some(art) = artifacts.as_mut() {
        if let Err(e) = write_summary_artifacts(
            art,
            &obs,
            &model,
            &opts,
            resilience.as_ref(),
            observed.as_ref(),
        ) {
            eprintln!("repro: writing artifacts: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "artifacts written to {}: {}",
            art.root().display(),
            art.written().join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// Writes the run-wide artifacts: the metrics snapshot (JSON + CSV), the
/// Perfetto trace of all recorded spans, the engine self-profile, and the
/// `BENCH_repro.json` summary of cycle counts and cycles/MAC.
fn write_summary_artifacts(
    art: &mut ArtifactDir,
    obs: &Obs,
    model: &PhaseModel,
    opts: &Options,
    resilience: Option<&Resilience>,
    observed: Option<&ObservedRun>,
) -> std::io::Result<()> {
    let snapshot = obs.metrics.snapshot();
    art.write_json("metrics.json", &snapshot.to_json())?;
    art.write_text("metrics.csv", &snapshot.to_csv())?;
    // Sampled time series ride along both as standalone artifacts and as
    // Perfetto counter tracks merged into the span trace.
    let series = (!obs.series.is_empty()).then_some(&obs.series);
    art.write_json(
        "trace.json",
        &chrome_trace_with_counters(&obs.spans, series),
    )?;
    if let Some(series) = series {
        art.write_json("timeseries.json", &series.to_json())?;
        art.write_text("timeseries.csv", &series.to_csv())?;
    }
    // Flight events land as their own artifact so the instrumented
    // byte-diff can compare the ring without provoking a crash dump.
    if !obs.flight.is_empty() {
        art.write_json("flight.json", &obs.flight.to_json())?;
    }
    // The engine's host-side self-profile: per-worker busy vs
    // lockstep-wait time, boundary durations, mailbox volume, and the
    // embedded Perfetto counter-track document. The one artifact with
    // host-time content, so CI byte-diffs skip it.
    art.write_json("perf_profile.json", &mempool_sim::engine_profile_json())?;

    let mut pairs = vec![
        ("bench", Json::str("repro")),
        (
            "targets",
            Json::Arr(opts.targets.iter().map(Json::str).collect()),
        ),
        ("measured", Json::Bool(opts.measure)),
        ("engine", mempool_sim::ENGINE.to_json()),
        ("model", mempool_serve::ModelConfig::from(*model).to_json()),
        ("cycles_per_mac", Json::Float(model.cycles_per_mac)),
        (
            "matmul_cycles_at_16B_per_cycle",
            mempool_bench::matmul_cycles_at_16b(model),
        ),
        ("span_count", Json::Int(obs.spans.len() as i64)),
    ];
    // The degraded run next to the clean numbers: the same eleven leaves
    // `BENCH_baseline.json` pins for the baseline seed.
    if let Some(r) = resilience {
        pairs.push(("resilience", r.summary_json()));
    }
    // The instrumented clean run's cycle count and engine record: both
    // must be identical across `--threads` settings (the equivalence the
    // instrumented CI diff pins).
    if let Some(o) = observed {
        pairs.push((
            "observed",
            Json::obj([
                ("phase_cycles", Json::Int(o.cycles as i64)),
                ("engine", o.engine.to_json()),
            ]),
        ));
    }
    pairs.push((
        "artifacts",
        Json::Arr(art.written().iter().map(Json::str).collect()),
    ));
    let summary = Json::obj(pairs);
    art.write_json("BENCH_repro.json", &summary)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn faults_flag_parses_seed_and_rate() {
        let opts = parse_args(&argv(&["fig6", "--faults", "42:1e-6"])).unwrap();
        assert_eq!(opts.faults, Some((42, 1e-6)));
    }

    #[test]
    fn the_removed_diff_subcommand_is_a_usage_error() {
        let err = parse_args(&argv(&["diff", "a.json", "b.json"])).unwrap_err();
        assert_eq!(err, "unknown target: diff");
        let err = parse_args(&argv(&["diff"])).unwrap_err();
        assert_eq!(err, "unknown target: diff");
    }

    #[test]
    fn faults_flag_defaults_the_rate() {
        let opts = parse_args(&argv(&["--faults", "7"])).unwrap();
        assert_eq!(opts.faults, Some((7, DEFAULT_FAULT_RATE)));
    }

    #[test]
    fn non_numeric_seed_is_a_usage_error_not_a_panic() {
        let err = parse_args(&argv(&["--faults", "abc"])).unwrap_err();
        assert!(err.contains("seed must be an unsigned integer"), "{err}");
    }

    #[test]
    fn non_numeric_rate_is_a_usage_error_not_a_panic() {
        let err = parse_args(&argv(&["--faults", "42:xyz"])).unwrap_err();
        assert!(err.contains("rate must be a number"), "{err}");
    }

    #[test]
    fn zero_negative_and_non_finite_rates_are_rejected() {
        let err = parse_args(&argv(&["--faults", "42:0"])).unwrap_err();
        assert!(err.contains("rate must be finite and positive"), "{err}");
        assert!(parse_args(&argv(&["--faults", "42:0.0"])).is_err());
        assert!(parse_args(&argv(&["--faults", "42:-1e-6"])).is_err());
        assert!(parse_args(&argv(&["--faults", "42:inf"])).is_err());
        assert!(parse_args(&argv(&["--faults", "42:nan"])).is_err());
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero_and_junk() {
        assert_eq!(parse_args(&argv(&["fig6"])).unwrap().threads, 1);
        let opts = parse_args(&argv(&["fig6", "--threads", "4"])).unwrap();
        assert_eq!(opts.threads, 4);
        let err = parse_args(&argv(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("count must be nonzero"), "{err}");
        let err = parse_args(&argv(&["--threads", "many"])).unwrap_err();
        assert!(err.contains("count must be an unsigned integer"), "{err}");
        assert!(parse_args(&argv(&["--threads"])).is_err());
        assert!(parse_args(&argv(&["--threads", "--measure"])).is_err());
    }

    #[test]
    fn non_numeric_watchdog_is_a_usage_error_not_a_panic() {
        let err = parse_args(&argv(&["--watchdog", "many"])).unwrap_err();
        assert!(
            err.contains("threshold must be an unsigned integer"),
            "{err}"
        );
        let opts = parse_args(&argv(&["--watchdog", "2000000"])).unwrap();
        assert_eq!(opts.watchdog, Some(2_000_000));
    }

    #[test]
    fn a_following_flag_is_a_missing_argument() {
        assert!(parse_args(&argv(&["--faults", "--measure"])).is_err());
        assert!(parse_args(&argv(&["--watchdog", "--measure"])).is_err());
        assert!(parse_args(&argv(&["--artifacts", "--measure"])).is_err());
        assert!(parse_args(&argv(&["--timeseries", "--measure"])).is_err());
        assert!(parse_args(&argv(&["--flight", "--measure"])).is_err());
    }

    #[test]
    fn timeseries_and_flight_flags_parse_and_reject_zero() {
        let opts = parse_args(&argv(&[
            "fig6",
            "--faults",
            "42",
            "--timeseries",
            "1024",
            "--flight",
            "256",
        ]))
        .unwrap();
        assert_eq!(opts.timeseries, Some(1024));
        assert_eq!(opts.flight, Some(256));
        assert!(parse_args(&argv(&["--timeseries", "0"])).is_err());
        assert!(parse_args(&argv(&["--flight", "0"])).is_err());
        assert!(parse_args(&argv(&["--timeseries", "soon"])).is_err());
    }
}
