//! The repository's performance benchmark: six named workloads at the
//! paper's scale, thirteen end-to-end metrics, per-layer probes and a traced
//! pass. See `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.

mod compare;
mod memtraffic;
mod pipeline;
mod probes;
mod report;
mod servewl;
mod simwl;
mod spec;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mempool_obs::Json;

use report::{Outcome, RunInfo};
use trace::Tracer;

const USAGE: &str = "\
usage: mempool-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       mempool-benchmark compare A.json B.json [--spec BENCHMARK.json]
       mempool-benchmark spec [--full]

run      without --workload: every workload, each in a process of its own,
         untraced (and, with --trace, traced as well); writes out/results.json.
         With --workload: that workload in this process; the last line of
         standard output is the result object. --trace 1 selects the traced
         pass, which reports the per-layer metrics and writes out/trace.json.
         --smoke: 1 repetition, 2 s serve window, micro-probes 1 iteration.
compare  applies the bounds of BENCHMARK.json to two results files and prints
         each workload in its own row as pass, regressed or unresolved.
spec     prints BENCHMARK.json (or, with --full, METRICS.json) from the
         benchmark's own tables.";

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the measured section runs (sim workloads: at least three
    /// repetitions, then more until this much time has passed).
    pub seconds: f64,
    pub smoke: bool,
}

/// Where reports and the trace are written: `benchmark/out/`.
pub(crate) fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

pub(crate) fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process and prints its result.
fn run_workload(
    workload: &str,
    opts: &Options,
    traced: bool,
    trace_name: &str,
) -> Result<bool, String> {
    let mut tracer = Tracer::new(traced, Instant::now());
    let mut client_tracers = Vec::new();
    let mut outcome: Outcome = if let Some(kind) = simwl::SimKind::of(workload) {
        simwl::run(kind, opts, &mut tracer)
    } else if workload == spec::SERVE_MIX {
        servewl::run(opts, &mut tracer, &mut client_tracers)
    } else if workload == spec::REPRO_PIPELINE {
        pipeline::run(opts, &mut tracer)
    } else {
        return Err(format!("unknown workload {workload:?}"));
    };
    if traced {
        probes::run(workload, opts, &mut tracer, &mut outcome);
    }
    let run = RunInfo {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced,
        smoke: opts.smoke,
    };
    let values = if traced {
        report::per_layer_values(&outcome)
    } else {
        report::end_to_end_values(workload, &outcome)
    };
    for name in ["setup_s", "wall_s"] {
        if let Some(&value) = outcome.end_to_end.get(name) {
            outcome.note(name, Json::Float(value));
        }
    }
    if traced {
        let mut recorders = vec![&tracer];
        recorders.extend(client_tracers.iter());
        let self_time = trace::self_time_by_layer(&recorders)
            .into_iter()
            .map(|(layer, secs)| (layer.to_string(), Json::Float(secs)))
            .collect();
        outcome.note("layer_self_time_s", Json::Obj(self_time));
        write_out(
            trace_name,
            &trace::to_json(workload, &recorders).to_string(),
        )?;
    }
    report::print_metrics(&run, &outcome, &values);
    let report_name = format!("{workload}.trace{}.json", u8::from(traced));
    write_out(
        &report_name,
        &report::report_json(&run, &outcome, &values).to_pretty(),
    )?;
    println!("{}", report::result_line(&outcome, &values));
    Ok(outcome.ops_failed == 0 && outcome.ops > 0)
}

/// Runs every workload, each in a child process (so `peak_rss_mib` is the
/// workload's own), and merges their reports into `out/results.json`.
fn run_all(opts: &Options, traced_too: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let passes: &[bool] = if traced_too { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut reports: Vec<(String, Json)> = Vec::new();
    let mut traces: Vec<(String, String)> = Vec::new();
    for &traced in passes {
        // A smoke run only checks that everything still works, so its six
        // processes share the host; a measuring run gives each the host alone.
        let batch = if opts.smoke { spec::WORKLOADS.len() } else { 1 };
        for group in spec::WORKLOADS.chunks(batch) {
            let mut children = Vec::new();
            for (workload, _) in group {
                let mut child = Command::new(&exe);
                child
                    .args(["run", "--workload", workload])
                    .args(["--seed", &opts.seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--trace-out", &format!("trace.{workload}.json")])
                    .stdout(Stdio::piped());
                if opts.smoke {
                    child.arg("--smoke");
                }
                let child = child
                    .spawn()
                    .map_err(|e| format!("starting the {workload} process: {e}"))?;
                children.push((*workload, child));
            }
            for (workload, child) in children {
                let output = child
                    .wait_with_output()
                    .map_err(|e| format!("waiting for the {workload} process: {e}"))?;
                print!("{}", String::from_utf8_lossy(&output.stdout));
                ok &= output.status.success();
                let pass = if traced { "traced" } else { "untraced" };
                let path = out_dir().join(format!("{workload}.trace{}.json", u8::from(traced)));
                reports.push((format!("{workload}.{pass}"), read_json(&path)?));
                if traced {
                    let path = out_dir().join(format!("trace.{workload}.json"));
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    let _ = std::fs::remove_file(&path);
                    traces.push((workload.to_string(), text));
                }
            }
        }
    }
    // Tracing overhead: the traced pass's wall_s over the untraced one's.
    let wall = |key: &str| {
        reports
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, doc)| doc.get("info"))
            .and_then(|info| info.get("wall_s"))
            .and_then(Json::as_f64)
    };
    let mut overhead = Vec::new();
    if traced_too {
        println!("trace_overhead_x (traced wall_s / untraced wall_s):");
        for (workload, _) in spec::WORKLOADS {
            if let (Some(t), Some(u)) = (
                wall(&format!("{workload}.traced")),
                wall(&format!("{workload}.untraced")),
            ) {
                println!("  {workload:<32} {:>18.6} x", t / u);
                overhead.push((workload.to_string(), Json::Float(t / u)));
            }
        }
        let merged: Vec<String> = traces
            .iter()
            .map(|(workload, text)| format!("{}:{text}", Json::str(workload.as_str())))
            .collect();
        write_out(
            "trace.json",
            &format!(
                "{{\"schema\":\"mempool-benchmark-trace-set/v1\",\"workloads\":{{{}}}}}\n",
                merged.join(",")
            ),
        )?;
    }
    let results = Json::obj([
        ("schema", Json::str("mempool-benchmark-results/v1")),
        ("seed", Json::Int(opts.seed as i64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("nproc", Json::Int(util::nproc() as i64)),
        ("trace_overhead_x", Json::Obj(overhead)),
        ("runs", Json::Obj(reports)),
    ]);
    let path = write_out("results.json", &results.to_pretty())?;
    println!("results written to {}", path.display());
    Ok(ok)
}

fn parse_run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        smoke: false,
    };
    let mut traced = false;
    let mut trace_name = "trace.json".to_string();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace-out" => trace_name = value("--trace-out")?,
            "--trace" => {
                traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.smoke {
        opts.seconds = opts.seconds.min(2.0);
    }
    let ok = match workload {
        Some(workload) => run_workload(&workload, &opts, traced, &trace_name)?,
        None => run_all(&opts, traced)?,
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            let doc = match args.get(1).map(String::as_str) {
                None => spec::benchmark_json(),
                Some("--full") => spec::metrics_json(util::nproc()),
                Some(other) => return Err(format!("unknown argument {other:?}")),
            };
            print!("{}", doc.to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected a subcommand: run, compare or spec".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
