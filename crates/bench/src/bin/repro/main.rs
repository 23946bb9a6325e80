//! Regenerates the paper's tables and figures: the targets are the rows of
//! [`mempool::experiments::CATALOGUE`], printed in its order.
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
//! spans, a `perf_profile.json` engine self-profile (host time and ticks
//! per `run`/`step` call, a per-phase tick split), and a
//! `BENCH_repro.json` summary (the phase model, cycles/MAC, cycle counts).
//! Every artifact except `perf_profile.json` is deterministic: two runs of
//! the same command are `cmp`-identical.
//!
//! `repro check --baseline PATH` regenerates the pinned summary and fails
//! (exit 1) unless it equals the committed baseline leaf for leaf; with
//! `--candidate PATH` it compares that JSON file instead.
//! `repro serve` runs the experiment-service daemon, which serves the
//! catalogue's JSON documents; `repro submit` asks one for them.
//!
//! With `--faults SEED[:RATE]`, a degraded run is measured on top of the
//! selected targets: the deterministic fault plan generated from the seed
//! (and optional rate, default 1e-6) is injected into a compute-phase
//! cluster, and the measured slowdown is propagated into the Figure 6
//! 8 MiB / 16 B-per-cycle point. The degraded run is always instrumented:
//! a forward-progress watchdog (2 000 000 cycles), a time series sampled
//! every 512 cycles and a 512-event flight ring. With `--artifacts`, it
//! additionally exports `resilience.json`, the raw `fault_report.json`,
//! `timeseries.json`/`timeseries.csv` (also merged into `trace.json` as
//! counter tracks) and `flight.json`; a simulator fault writes
//! `crashdump.json` instead.

mod args;

use std::fmt::Display;
use std::io::{self, Write};
use std::process::ExitCode;

use mempool::experiments::{catalogue, Context, Experiment, Resilience, CATALOGUE};
use mempool_arch::SpmCapacity;
use mempool_bench::regress;
use mempool_kernels::matmul::PhaseModel;
use mempool_kernels::measure;
use mempool_obs::{chrome_trace_with_counters, ArtifactDir, Json, Obs};
use mempool_serve::ExperimentKind;

/// Exit codes: a summary that differs from its baseline (`check`) or a run
/// that failed exits 1; usage and I/O errors exit 2 to stay
/// distinguishable in CI.
const EXIT_OK: u8 = 0;
const EXIT_FAILURE: u8 = 1;
const EXIT_ERROR: u8 = 2;

/// Why a command stopped early; [`run`] prints the message behind the
/// command's name.
enum Failure {
    /// A bad command line: the usage text follows the message, exit 2.
    Usage(String),
    /// The command could not do its job: exit with the given code.
    Failed(u8, String),
}

/// An I/O, parse or connection failure (exit 2).
fn error(message: String) -> Failure {
    Failure::Failed(EXIT_ERROR, message)
}

/// Standard output, as every command writes it. A reader that closes the
/// pipe early (`repro all | head -1`) ends the output, not the command:
/// the lines after it are dropped, so the command finishes its work and
/// exits as it would unpiped.
struct Out {
    sink: Box<dyn Write>,
    closed: bool,
}

impl Out {
    fn new(sink: impl Write + 'static) -> Self {
        Out {
            sink: Box::new(sink),
            closed: false,
        }
    }

    /// Writes `text` and a newline.
    fn line(&mut self, text: impl Display) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        match writeln!(self.sink, "{text}") {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            written => written.map_err(|e| format!("writing to stdout: {e}")),
        }
    }
}

/// The usage text: the synopsis, then each flag and subcommand with its
/// description in one column.
fn usage_text() -> String {
    let targets: Vec<&str> = CATALOGUE.iter().map(|row| row.name).collect();
    let kinds = ExperimentKind::PARAMETERLESS.map(|(tag, _)| tag);
    format!(
        "usage: repro [--measure] [--artifacts DIR] [--faults SEED[:RATE]]\n\
         \x20            [all|{}]...\n\
         \x20      repro check --baseline PATH [--bless | --candidate PATH]\n\
         \x20      repro serve [--listen HOST:PORT] [--workers N] [--cache-dir DIR]\n\
         \x20      repro submit --connect HOST:PORT [--artifacts DIR]\n\
         \x20                  [{}|sweep:BW|kernel:P|stats|shutdown]...\n\
         \n\
         --measure            re-measure workload constants on the simulator\n\
         --artifacts DIR      write JSON/CSV artifacts (figure data, metrics,\n\
         \x20                    Perfetto trace, BENCH_repro.json summary) to DIR\n\
         --faults SEED[:RATE] measure a degraded run under the deterministic\n\
         \x20                    fault plan from SEED (rate default 1e-6) and\n\
         \x20                    propagate it into the Figure 6 headline point\n\
         \n\
         check                require the regenerated pinned summary (or the\n\
         \x20                    JSON file --candidate PATH) to equal --baseline\n\
         \x20                    PATH leaf for leaf; exit 1 naming every differing\n\
         \x20                    leaf, 2 on usage/parse errors; --bless rewrites\n\
         \x20                    the baseline instead\n\
         serve                run the experiment service daemon: a bounded\n\
         \x20                    worker pool behind a newline-delimited JSON TCP\n\
         \x20                    protocol with request coalescing and a\n\
         \x20                    content-addressed result cache (send\n\
         \x20                    {{\"kind\": \"shutdown\"}} to drain and stop)\n\
         submit               issue experiment requests to a running daemon;\n\
         \x20                    artifacts are byte-identical to the one-shot\n\
         \x20                    documents, and stats/shutdown are admin requests",
        targets.join("|"),
        kinds.join("|")
    )
}

fn usage() -> u8 {
    eprintln!("{}", usage_text());
    EXIT_ERROR
}

/// Default fault rate when `--faults SEED` omits the `:RATE` suffix.
const DEFAULT_FAULT_RATE: f64 = 1e-6;

/// Parsed command line: the targets to produce and the options.
#[derive(Debug, Default)]
struct Options {
    targets: Vec<String>,
    measure: bool,
    artifacts: Option<String>,
    faults: Option<(u64, f64)>,
}

/// Parses `SEED[:RATE]`. Both parts are validated strictly: a non-numeric
/// seed or rate is a usage error, not a panic or a silent default. So is a
/// seed above `i64::MAX`, which `fault_report.json` would write negative.
/// A zero rate would "inject faults" that never fire — almost certainly a
/// typo for a real rate, so it is rejected rather than silently measuring
/// a clean run as degraded.
fn parse_faults(value: &str) -> Result<(u64, f64), String> {
    let (seed_text, rate_text) = match value.split_once(':') {
        Some((seed, rate)) => (seed, Some(rate)),
        None => (value, None),
    };
    let seed = args::parse_u64("--faults", "seed", seed_text)?;
    i64::try_from(seed).map_err(|_| format!("--faults: seed must be at most {}", i64::MAX))?;
    let rate = match rate_text {
        Some(text) => args::parse_positive_f64("--faults", "rate", text)?,
        None => DEFAULT_FAULT_RATE,
    };
    Ok((seed, rate))
}

/// Strict parser: every `--flag` must be recognized and every positional
/// argument must be `all` or a catalogue row — a typo aborts with the
/// usage message instead of being silently ignored.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--measure" => opts.measure = true,
            // `args::flag_value` enforces that a following `--flag` is a
            // missing argument, not a value — otherwise `--artifacts
            // --measure` would silently drop the measure flag.
            "--artifacts" => {
                opts.artifacts =
                    Some(args::flag_value(&mut it, "--artifacts", "a directory")?.to_string());
            }
            "--faults" => {
                opts.faults = Some(parse_faults(args::flag_value(
                    &mut it,
                    "--faults",
                    "a SEED[:RATE]",
                )?)?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}"));
            }
            target => {
                if target != "all" && catalogue::find(target).is_none() {
                    return Err(format!("unknown target: {target}"));
                }
                opts.targets.push(target.to_string());
            }
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".to_string());
    }
    Ok(opts)
}

/// Reads and parses a JSON artifact, mapping both failure modes to one
/// printable message.
fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// `repro check --baseline PATH [--bless | --candidate PATH]` — gates the
/// regenerated pinned summary, or the candidate file, against the
/// baseline; `--bless` rewrites the baseline instead.
fn cmd_check(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let (mut baseline_path, mut candidate_path, mut bless) = (None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--baseline" | "--candidate") => {
                let path = args::flag_value(&mut it, flag, "a file").map_err(Failure::Usage)?;
                match flag {
                    "--baseline" => baseline_path = Some(path.to_string()),
                    _ => candidate_path = Some(path.to_string()),
                }
            }
            "--bless" => bless = true,
            other => return Err(Failure::Usage(format!("unexpected argument {other:?}"))),
        }
    }
    let baseline_path =
        baseline_path.ok_or_else(|| Failure::Usage("--baseline PATH is required".to_string()))?;

    let current = match (&candidate_path, bless) {
        (Some(_), true) => return Err(Failure::Usage("--bless takes no --candidate".to_string())),
        (Some(path), false) => load_json(path).map_err(error)?,
        (None, _) => {
            eprintln!(
                "regenerating pinned summary (seed {}, rate {:.1e}) ...",
                mempool_bench::BASELINE_FAULT_SEED,
                mempool_bench::BASELINE_FAULT_RATE
            );
            mempool_bench::bench_summary()
        }
    };
    let current_name = candidate_path.as_deref().unwrap_or("the summary");
    if bless {
        std::fs::write(&baseline_path, current.to_pretty())
            .map_err(|e| error(format!("cannot write {baseline_path}: {e}")))?;
        let blessed = format!("blessed: wrote current summary to {baseline_path}");
        return out.line(blessed).map_err(error);
    }
    let baseline = load_json(&baseline_path).map_err(error)?;
    let differences = regress::diff(&baseline, &current);
    for line in &differences {
        out.line(format_args!("DIFFERS  {line}")).map_err(error)?;
    }
    if !differences.is_empty() {
        let message = format!(
            "{} leaf(s) of {current_name} differ from {baseline_path}",
            differences.len()
        );
        return Err(Failure::Failed(EXIT_FAILURE, message));
    }
    let passed = format!("check passed: {current_name} equals {baseline_path}");
    out.line(passed).map_err(error)
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
            "--cache-dir" => {
                let value = args::flag_value(&mut it, "--cache-dir", "a directory")?;
                config.cache_dir = Some(value.into());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((listen, config))
}

/// `repro serve ...` — runs the experiment-service daemon until a client
/// sends a shutdown request, then prints the final stats document.
fn cmd_serve(argv: &[String], out: &mut Out) -> Result<(), Failure> {
    let (listen, config) = parse_serve_args(argv).map_err(Failure::Usage)?;
    let served = mempool_serve::TcpServer::bind(&listen, config).and_then(|server| {
        let addr = server.local_addr()?;
        eprintln!("repro serve: listening on {addr}");
        server.run()
    });
    let stats = served.map_err(|e| error(e.to_string()))?;
    out.line(stats.to_pretty()).map_err(error)
}

/// One parsed `repro submit` work item.
enum SubmitItem {
    Experiment(ExperimentKind),
    Stats,
    Shutdown,
}

/// Parses a submit target token (`fig6`, `sweep:16`, `kernel:32`, ...).
fn parse_submit_item(token: &str) -> Result<SubmitItem, String> {
    let parameter = |name: &str, what: &str, text: &str| -> Result<u32, String> {
        args::parse_nonzero_u64(name, what, text)?
            .try_into()
            .map_err(|_| format!("{name}: {what} out of range: {text}"))
    };
    Ok(match (token, token.split_once(':')) {
        ("stats", _) => SubmitItem::Stats,
        ("shutdown", _) => SubmitItem::Shutdown,
        (_, Some(("sweep", bw))) => SubmitItem::Experiment(ExperimentKind::Sweep {
            bytes_per_cycle: parameter("sweep", "bandwidth", bw)?,
        }),
        (_, Some(("kernel", p))) => SubmitItem::Experiment(ExperimentKind::Kernel {
            p: parameter("kernel", "dimension", p)?,
        }),
        _ => SubmitItem::Experiment(
            ExperimentKind::parameterless(token)
                .ok_or_else(|| format!("unknown submit target: {token}"))?,
        ),
    })
}

/// Parsed `repro submit` command line.
struct SubmitOptions {
    connect: String,
    artifacts_dir: Option<String>,
    items: Vec<(String, SubmitItem)>,
}

fn parse_submit_args(argv: &[String]) -> Result<SubmitOptions, String> {
    let mut connect: Option<String> = None;
    let mut artifacts_dir: Option<String> = None;
    let mut items: Vec<(String, SubmitItem)> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                let value = args::flag_value(&mut it, "--connect", "a HOST:PORT")?;
                connect = Some(args::parse_socket_addr("--connect", value)?);
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
        artifacts_dir,
        items,
    })
}

/// `repro submit --connect HOST:PORT TARGET...` — issues requests to a
/// running daemon and prints each artifact.
fn cmd_submit(argv: &[String], out: &mut Out) -> Result<(), Failure> {
    let opts = parse_submit_args(argv).map_err(Failure::Usage)?;
    submit(opts, out).map_err(error)
}

fn submit(opts: SubmitOptions, out: &mut Out) -> Result<(), String> {
    use mempool_serve::{ExperimentRequest, TcpClient};

    let mut client = TcpClient::connect(&opts.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
    let mut artifacts = create_artifact_dir(opts.artifacts_dir.as_deref())?;
    for (token, item) in opts.items {
        let failed = |e: mempool_serve::ServeError| format!("{token}: {e}");
        match item {
            SubmitItem::Experiment(kind) => {
                let outcome = client
                    .request(&ExperimentRequest::new(kind))
                    .map_err(failed)?;
                eprintln!("repro submit: {token}: {}", outcome.cache);
                out.line(outcome.artifact.to_pretty())?;
                if let Some(art) = artifacts.as_mut() {
                    // Named after the token, so `sweep:4 sweep:16` keep both.
                    let name = format!("{}.json", token.replace(':', "-"));
                    art.write_json(&name, &outcome.artifact)
                        .map_err(|e| format!("{token}: writing artifact: {e}"))?;
                }
            }
            SubmitItem::Stats => out.line(client.stats().map_err(failed)?.to_pretty())?,
            SubmitItem::Shutdown => {
                client.shutdown().map_err(failed)?;
                eprintln!("repro submit: daemon is draining");
            }
        }
    }
    if let Some(art) = artifacts.filter(|art| !art.written().is_empty()) {
        report_written(&art);
    }
    Ok(())
}

fn create_artifact_dir(dir: Option<&str>) -> Result<Option<ArtifactDir>, String> {
    dir.map(|dir| {
        ArtifactDir::create(dir).map_err(|e| format!("cannot create artifact directory {dir}: {e}"))
    })
    .transpose()
}

fn report_written(art: &ArtifactDir) {
    eprintln!(
        "artifacts written to {}: {}",
        art.root().display(),
        art.written().join(", ")
    );
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
    ExitCode::from(run(&args, &mut Out::new(io::stdout())))
}

/// Dispatches one command line, writing its output to `out`, and returns
/// its exit code.
fn run(args: &[String], out: &mut Out) -> u8 {
    let subcommand = args.split_first().map(|(name, rest)| (name.as_str(), rest));
    let (command, result) = match subcommand {
        Some(("check", rest)) => ("repro check", cmd_check(rest, out)),
        Some(("serve", rest)) => ("repro serve", cmd_serve(rest, out)),
        Some(("submit", rest)) => ("repro submit", cmd_submit(rest, out)),
        _ => ("repro", cmd_repro(args, out)),
    };
    match result {
        Ok(()) => EXIT_OK,
        Err(Failure::Usage(message)) => {
            eprintln!("{command}: {message}");
            usage()
        }
        Err(Failure::Failed(code, message)) => {
            eprintln!("{command}: {message}");
            code
        }
    }
}

fn cmd_repro(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let opts = parse_args(args).map_err(Failure::Usage)?;
    reproduce(&opts, out).map_err(|message| Failure::Failed(EXIT_FAILURE, message))
}

/// Produces the selected targets, then the optional degraded run, then the
/// run-wide artifacts.
fn reproduce(opts: &Options, out: &mut Out) -> Result<(), String> {
    let mut artifacts = create_artifact_dir(opts.artifacts.as_deref())?;
    let obs = Obs::new();

    let model = if opts.measure {
        eprintln!("measuring workload constants on the simulator ...");
        let constants = measure::measure_constants_observed(Some(&obs))
            .map_err(|e| format!("measurement failed: {e}"))?;
        let model = constants.phase_model(SpmCapacity::MATMUL_MATRIX_DIM, 256);
        eprintln!(
            "measured: {:.2} cycles/MAC, {:.0} cycles/phase overhead",
            model.cycles_per_mac, model.phase_overhead
        );
        model
    } else {
        PhaseModel::with_measured_defaults()
    };

    // Each produced experiment prints its text form and, with
    // `--artifacts`, lands as a JSON document of the same numbers.
    let mut emit = |name: &str, experiment: &dyn Experiment| -> Result<(), String> {
        out.line(experiment.to_text())?;
        let Some(art) = artifacts.as_mut() else {
            return Ok(());
        };
        if let Some(json) = experiment.to_json() {
            let file = format!("{name}.json");
            art.write_json(&file, &json)
                .map_err(|e| format!("writing {file}: {e}"))?;
        }
        Ok(())
    };

    let all = opts.targets.iter().any(|t| t == "all");
    let ctx = Context::new(model);
    for row in &CATALOGUE {
        if all || opts.targets.iter().any(|t| t == row.name) {
            emit(row.name, (row.build)(&ctx).as_ref())?;
        }
    }

    let resilience = match opts.faults {
        Some((seed, rate)) => {
            eprintln!("measuring degraded run (seed {seed}, rate {rate:.1e}) ...");
            match Resilience::with_model_observed(model, seed, rate, Some(&obs)) {
                Ok(r) => {
                    emit("resilience", &r)?;
                    Some(r)
                }
                Err(failure) => {
                    if let Some(dump) = &failure.crash_dump {
                        write_crash_dump(artifacts.as_mut(), dump);
                    }
                    return Err(format!("degraded run failed: {failure}"));
                }
            }
        }
        None => None,
    };
    if let (Some(art), Some(r)) = (artifacts.as_mut(), resilience.as_ref()) {
        art.write_json("fault_report.json", &r.run().report.to_json())
            .map_err(|e| format!("writing fault_report.json: {e}"))?;
    }

    if let Some(art) = artifacts.as_mut() {
        write_summary_artifacts(art, &obs, &model, opts, resilience.as_ref())
            .map_err(|e| format!("writing artifacts: {e}"))?;
        report_written(art);
    }
    Ok(())
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
    // Flight events land as their own artifact so a byte-diff of the
    // degraded run can compare the ring without provoking a crash dump.
    if !obs.flight.is_empty() {
        art.write_json("flight.json", &obs.flight.to_json())?;
    }
    // The engine's host-side self-profile: host time and ticks per
    // `run`/`step` call, the per-phase tick split, and the embedded Perfetto
    // counter-track document. The one artifact with host-time content, so
    // CI byte-diffs skip it.
    art.write_json("perf_profile.json", &mempool_sim::engine_profile_json())?;

    let mut pairs = vec![
        ("bench", Json::str("repro")),
        (
            "targets",
            Json::Arr(opts.targets.iter().map(Json::str).collect()),
        ),
        ("measured", Json::Bool(opts.measure)),
        ("model", model.to_json()),
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
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Runs a command line with its output discarded; returns the exit code.
    fn repro(args: &[&str]) -> u8 {
        run(&argv(args), &mut Out::new(io::sink()))
    }

    /// Every description, continuation lines included, starts in the
    /// column the first flag's description starts in (a `\` line
    /// continuation strips a line's leading spaces, so an indent that is
    /// not written as `\x20` prints flush left).
    #[test]
    fn usage_descriptions_line_up_in_one_column() {
        let text = usage_text();
        let (_, options) = text.split_once("\n\n").unwrap();
        let column = options.find("re-measure").unwrap();
        assert_eq!(column, 21);
        let mut continuations = 0;
        for line in options.lines().filter(|line| !line.is_empty()) {
            let (head, description) = line.split_at(column);
            assert!(head.ends_with(' '), "{line:?}");
            assert!(!description.starts_with(' '), "{line:?}");
            continuations += usize::from(head.trim().is_empty());
        }
        assert_eq!(continuations, 13);
    }

    /// The roadmap's audit as a test: one catalogue, and `repro` agrees
    /// with it (the service's half is `mempool-serve`'s
    /// `the_service_serves_exactly_the_catalogue_documents`).
    #[test]
    fn every_front_end_walks_the_one_catalogue() {
        let names: Vec<&str> = CATALOGUE.iter().map(|row| row.name).collect();
        let stdout_order =
            "table1 table2 fig6 ablations cluster layout fig7 fig8 fig9 claims dse area";
        assert_eq!(names.join(" "), stdout_order);

        let ctx = Context::new(PhaseModel::with_measured_defaults());
        for row in &CATALOGUE {
            let name = row.name;
            let text = (row.build)(&ctx).to_text();
            assert!(!text.trim().is_empty(), "{name}");
            assert!(text.lines().all(|l| !l.ends_with(' ')), "{name}: {text}");
            assert_eq!(parse_args(&argv(&[name])).unwrap().targets, [name]);
        }

        // `all` and nothing else joins the catalogue names: not the other
        // request kinds, not the removed `perf` and `diff` subcommands.
        assert!(parse_args(&argv(&["all"])).is_ok());
        for stranger in ["sweep", "kernel", "dse_point", "stats", "perf", "diff"] {
            let err = parse_args(&argv(&[stranger, "a.json"])).unwrap_err();
            assert_eq!(err, format!("unknown target: {stranger}"));
            assert_eq!(repro(&[stranger]), EXIT_ERROR);
        }
        assert_eq!(repro(&["fig6", "--frobnicate"]), EXIT_ERROR);
    }

    /// `check --bless` writes the document `check` compares against: on an
    /// unchanged tree it reproduces the committed baseline byte for byte.
    #[test]
    fn bless_reproduces_the_committed_baseline() {
        let dir = std::env::temp_dir().join(format!("repro-bless-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let path_arg = path.to_str().unwrap();
        assert_eq!(
            repro(&["check", "--baseline", path_arg, "--bless"]),
            EXIT_OK
        );
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(committed).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_flag_parses_seed_and_rate() {
        let opts = parse_args(&argv(&["fig6", "--faults", "42:1e-6"])).unwrap();
        assert_eq!(opts.faults, Some((42, 1e-6)));
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

    /// `fault_report.json` writes the seed as a JSON integer: a seed that
    /// would read back negative is refused before anything runs.
    #[test]
    fn a_seed_above_i64_max_is_a_usage_error() {
        let max = i64::MAX as u64;
        let opts = parse_args(&argv(&["fig6", "--faults", &format!("{max}:1e-6")])).unwrap();
        assert_eq!(opts.faults, Some((max, 1e-6)));
        let over = format!("{}", max + 1);
        let err = parse_args(&argv(&["fig6", "--faults", &over])).unwrap_err();
        assert!(err.contains("at most 9223372036854775807"), "{err}");
        assert_eq!(repro(&["fig6", "--faults", &over]), EXIT_ERROR);
    }

    #[test]
    fn check_compares_a_candidate_file_with_the_baseline() {
        let dir = std::env::temp_dir().join(format!("repro-candidate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        };
        let old = file("old.json", r#"{"schema": "v2", "cycles": 7}"#);
        let same = file("same.json", r#"{"schema": "v2", "cycles": 7}"#);
        let new = file("new.json", r#"{"schema": "v3", "cycles": 7}"#);
        let check = |baseline: &str, candidate: &str| {
            repro(&["check", "--baseline", baseline, "--candidate", candidate])
        };
        assert_eq!(check(&old, &same), EXIT_OK);
        assert_eq!(check(&old, &new), EXIT_FAILURE);
        assert_eq!(
            regress::diff(&load_json(&old).unwrap(), &load_json(&new).unwrap()),
            ["schema: \"v2\" -> \"v3\""]
        );
        assert_eq!(
            check(&old, &dir.join("none.json").to_string_lossy()),
            EXIT_ERROR
        );
        assert_eq!(repro(&["check", "--candidate", &new]), EXIT_ERROR);
        let bless = ["check", "--baseline", &old, "--candidate", &new, "--bless"];
        assert_eq!(repro(&bless), EXIT_ERROR);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `submit --artifacts` names each file after its target token, so
    /// two sweeps leave two documents rather than one `sweep.json`.
    #[test]
    fn submitted_sweeps_keep_one_artifact_each() {
        use mempool_serve::{ServiceConfig, TcpClient, TcpServer};

        let server = TcpServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run().unwrap());
        let dir = std::env::temp_dir().join(format!("repro-submit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr_text, dir_text) = (addr.to_string(), dir.to_string_lossy().into_owned());
        let submit = ["submit", "--connect", &addr_text, "--artifacts", &dir_text];
        assert_eq!(
            repro(&[&submit[..], &["sweep:4", "sweep:16"]].concat()),
            EXIT_OK
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["sweep-16.json", "sweep-4.json"]);
        for bytes_per_cycle in [4, 16] {
            let doc = load_json(
                &dir.join(format!("sweep-{bytes_per_cycle}.json"))
                    .to_string_lossy(),
            );
            assert_eq!(
                doc.unwrap().get("bytes_per_cycle").and_then(Json::as_int),
                Some(bytes_per_cycle)
            );
        }
        TcpClient::connect(addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Standard output whose reader has gone, as `repro ... | head -1`
    /// leaves it once `head` exits. Counts the writes tried.
    struct ClosedPipe(Rc<Cell<usize>>);

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.0.set(self.0.get() + 1);
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A closed pipe is no failure: the command stops writing, finishes,
    /// and exits with the code it has unpiped.
    #[test]
    fn a_closed_pipe_ends_the_output_not_the_exit_code() {
        let dir = std::env::temp_dir().join(format!("repro-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, value: i64| {
            let leaves = (0..100).map(|i| (format!("leaf{i}"), Json::Int(value)));
            let path = dir.join(name);
            std::fs::write(&path, Json::Obj(leaves.collect()).to_pretty()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let (old, new) = (file("old.json", 1), file("new.json", 2));
        let piped = |args: &[&str]| {
            let tries = Rc::new(Cell::new(0));
            let code = run(&argv(args), &mut Out::new(ClosedPipe(tries.clone())));
            (code, tries.get())
        };
        let check =
            |candidate: &str| piped(&["check", "--baseline", &old, "--candidate", candidate]);
        // 100 differing leaves, one write tried.
        assert_eq!(check(&new), (EXIT_FAILURE, 1));
        assert_eq!(check(&old), (EXIT_OK, 1));
        assert_eq!(piped(&["table1", "area"]), (EXIT_OK, 1));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn threads_flag_is_an_unknown_flag() {
        let err = parse_args(&argv(&["fig6", "--threads", "4"])).unwrap_err();
        assert_eq!(err, "unknown flag: --threads");
        // The three checkpoint-file flags and the three that armed the
        // degraded run's instrumentation are gone as well, with or without
        // the `--faults` run they applied to.
        let removed = ["dir", "every"].map(|what| format!("--checkpoint-{what}"));
        let instrumentation = ["--resume", "--watchdog", "--timeseries", "--flight"];
        for flag in removed.iter().map(String::as_str).chain(instrumentation) {
            let err = parse_args(&argv(&["fig6", "--faults", "42:1e-6", flag, "x"])).unwrap_err();
            assert_eq!(err, format!("unknown flag: {flag}"));
            let err = parse_args(&argv(&["fig6", flag, "5000"])).unwrap_err();
            assert_eq!(err, format!("unknown flag: {flag}"));
        }
    }

    #[test]
    fn a_following_flag_is_a_missing_argument() {
        assert!(parse_args(&argv(&["--faults", "--measure"])).is_err());
        assert!(parse_args(&argv(&["--artifacts", "--measure"])).is_err());
    }

    /// `--faults` alone arms the degraded run's instrumentation: its time
    /// series and flight ring land next to the fault report.
    #[test]
    fn a_fault_run_writes_its_time_series_and_flight_ring() {
        let dir = std::env::temp_dir().join(format!("repro-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_text = dir.to_string_lossy().into_owned();
        let args = ["fig6", "--faults", "42:1e-6", "--artifacts", &dir_text];
        assert_eq!(repro(&args), EXIT_OK);
        let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let series = load_json(&file("timeseries.json")).unwrap();
        let tracks = series.get("series").and_then(Json::as_arr).unwrap();
        assert_eq!(tracks.len(), 11);
        let csv = std::fs::read_to_string(file("timeseries.csv")).unwrap();
        assert!(csv.starts_with("cycle,series,value\n"), "{csv}");
        assert!(csv.lines().count() > 1, "{csv}");
        let flight = load_json(&file("flight.json")).unwrap();
        assert!(!flight
            .get("events")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
