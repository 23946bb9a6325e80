//! What one workload run hands back, and how it is printed: every metric by
//! name with its unit, the report file under `out/`, and — as the last line
//! of standard output — the driver's result object.

use std::collections::BTreeMap;

use mempool_obs::Json;

use crate::spec::{self, StandIn};
use crate::util;

/// Measurements of one workload run in one pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One op = one verified kernel run, one request, or one pipeline
    /// iteration.
    pub ops: u64,
    /// Ops that were refused or failed their check, each with the reason.
    pub failures: Vec<String>,
    /// Total failed ops (`failures` keeps only the first few reasons).
    pub ops_failed: u64,
    /// Measured end-to-end values this workload is native for, except
    /// `peak_rss_mib`, which is read at exit.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values (traced pass).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Median seconds per op — the stand-in for latency metrics this
    /// workload does not exercise.
    pub op_seconds: f64,
    /// Facts that are not numbers or not metrics: engine name, digest,
    /// sample counts, span coverage.
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn fail(&mut self, reason: String) {
        self.ops_failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(reason);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: Json) {
        self.info.push((key, value));
    }
}

/// Converts seconds into a latency metric's unit.
fn seconds_in(unit: &str, seconds: f64) -> f64 {
    match unit {
        "us" => seconds * 1e6,
        "ms" => seconds * 1e3,
        _ => seconds,
    }
}

/// All 13 end-to-end metrics of `workload`: measured where the workload is
/// native, the documented stand-in elsewhere.
///
/// # Panics
///
/// Panics if the workload left a native metric unmeasured — a harness bug.
pub fn end_to_end_values(
    workload: &str,
    outcome: &Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let wall = outcome
        .end_to_end
        .get("wall_s")
        .copied()
        .unwrap_or(f64::NAN);
    spec::END_TO_END
        .iter()
        .map(|m| {
            let value = if m.name == "peak_rss_mib" {
                util::peak_rss_mib().unwrap_or(f64::NAN)
            } else if m.is_native(workload) {
                *outcome
                    .end_to_end
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{workload} did not measure {}", m.name))
            } else {
                match m.stand_in() {
                    StandIn::OpLatency => seconds_in(m.unit, outcome.op_seconds),
                    StandIn::OpRate => outcome.ops as f64 / wall,
                    StandIn::One => 1.0,
                }
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// All per-layer metrics: measured where this workload's traced run owns
/// them, 0 elsewhere.
pub fn per_layer_values(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    spec::PER_LAYER
        .iter()
        .map(|(name, unit, _, _, _)| {
            (
                *name,
                outcome.per_layer.get(name).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect()
}

fn metrics_obj(values: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// The driver's result object for one run.
pub fn result_line(outcome: &Outcome, values: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj([
        (
            "correct",
            Json::Bool(outcome.ops_failed == 0 && outcome.ops > 0),
        ),
        ("attempted", Json::Int(outcome.ops.max(1) as i64)),
        ("failed", Json::Int(outcome.ops_failed as i64)),
        ("metrics", metrics_obj(values)),
    ])
}

/// Settings of a run, echoed into its report file.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// The report file of one run: the result plus everything that does not
/// fit the driver's schema.
pub fn report_json(
    run: &RunInfo<'_>,
    outcome: &Outcome,
    values: &[(&'static str, f64, &'static str)],
) -> Json {
    Json::obj([
        ("schema", Json::str("mempool-benchmark-report/v1")),
        ("workload", Json::str(run.workload)),
        ("seed", Json::Int(run.seed as i64)),
        ("seconds", Json::Float(run.seconds)),
        ("traced", Json::Bool(run.traced)),
        ("smoke", Json::Bool(run.smoke)),
        ("nproc", Json::Int(util::nproc() as i64)),
        ("ops", Json::Int(outcome.ops as i64)),
        ("ops_failed", Json::Int(outcome.ops_failed as i64)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_obj(values)),
        (
            "info",
            Json::Obj(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Prints every metric by name with its unit.
pub fn print_metrics(
    run: &RunInfo<'_>,
    outcome: &Outcome,
    values: &[(&'static str, f64, &'static str)],
) {
    println!(
        "workload {} seed {} pass {}: ops {} ops_failed {}",
        run.workload,
        run.seed,
        if run.traced { "traced" } else { "untraced" },
        outcome.ops,
        outcome.ops_failed
    );
    for reason in &outcome.failures {
        println!("  FAILED: {reason}");
    }
    for (name, value, unit) in values {
        let stand_in = !run.traced
            && spec::END_TO_END
                .iter()
                .any(|m| m.name == *name && !m.is_native(run.workload));
        println!(
            "  {name:<32} {value:>18.6} {unit}{}",
            if stand_in {
                "  (not exercised here: stand-in)"
            } else {
                ""
            }
        );
    }
}
