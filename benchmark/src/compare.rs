//! `compare A.json B.json`: applies the bounds of `BENCHMARK.json` to two
//! results files (`out/results.json` of two run-sets, A the parent) and
//! prints each workload in its own row as pass, regressed or unresolved.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mempool_obs::Json;

use crate::{read_json, spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Pass,
    /// The two files cannot settle it: a value is missing or not finite,
    /// a side is a smoke run, or the seeds differ.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(spec_doc: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    spec_doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| "BENCHMARK.json has no end_to_end list".to_string())?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), better == "higher", bound))
                }
                _ => Err(
                    "BENCHMARK.json: an end_to_end entry lacks name, better or bound".to_string(),
                ),
            }
        })
        .collect()
}

/// The untraced report of `workload` in a results file (or the file itself
/// when it is a single workload's report).
fn report<'a>(results: &'a Json, workload: &str) -> Option<&'a Json> {
    match results.get("runs") {
        Some(runs) => runs.get(&format!("{workload}.untraced")),
        None => (results.get("workload").and_then(Json::as_str) == Some(workload)
            && results.get("traced") == Some(&Json::Bool(false)))
        .then_some(results),
    }
}

fn metric(report: &Json, name: &str) -> Option<f64> {
    report
        .get("metrics")?
        .get(name)?
        .get("value")
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
}

/// One workload's row: its verdict and what decided it.
fn judge(workload: &str, a: &Json, b: &Json, bounds: &[(String, bool, f64)]) -> (Verdict, String) {
    let (Some(a), Some(b)) = (report(a, workload), report(b, workload)) else {
        return (
            Verdict::Unresolved,
            "no untraced run on one side".to_string(),
        );
    };
    if a.get("smoke") == Some(&Json::Bool(true)) || b.get("smoke") == Some(&Json::Bool(true)) {
        return (
            Verdict::Unresolved,
            "a smoke run measures too little to compare".to_string(),
        );
    }
    if a.get("seed") != b.get("seed") {
        return (
            Verdict::Unresolved,
            "the two runs used different seeds".to_string(),
        );
    }
    if b.get("ops_failed").and_then(Json::as_int) != Some(0) {
        return (Verdict::Regressed, "B has failed ops".to_string());
    }
    let mut verdict = Verdict::Pass;
    let mut details = Vec::new();
    let mut worst: Option<(f64, String)> = None;
    for m in spec::END_TO_END.iter().filter(|m| m.is_native(workload)) {
        let Some((_, higher_is_better, bound)) = bounds.iter().find(|(name, _, _)| name == m.name)
        else {
            verdict = verdict.max(Verdict::Unresolved);
            details.push(format!("{} has no bound in BENCHMARK.json", m.name));
            continue;
        };
        let (Some(va), Some(vb)) = (metric(a, m.name), metric(b, m.name)) else {
            verdict = verdict.max(Verdict::Unresolved);
            details.push(format!("{} is missing on one side", m.name));
            continue;
        };
        // Share of A's value by which B is worse (negative: better).
        let worse_by = if va == 0.0 {
            if vb == va {
                0.0
            } else {
                f64::INFINITY
            }
        } else if *higher_is_better {
            (va - vb) / va.abs()
        } else {
            (vb - va) / va.abs()
        };
        let text = format!(
            "{} {:+.2} % (bound {:.0} %)",
            m.name,
            worse_by * 100.0,
            bound * 100.0
        );
        if worse_by > *bound {
            verdict = Verdict::Regressed;
            details.push(text);
        } else if worst.as_ref().is_none_or(|(w, _)| worse_by > *w) {
            worst = Some((worse_by, text));
        }
    }
    if details.is_empty() {
        details.extend(worst.map(|(_, text)| format!("closest to its bound: {text}")));
    }
    (verdict, details.join("; "))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("--spec needs a path")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two results files".to_string());
    };
    let (a, b) = (read_json(a)?, read_json(b)?);
    let bounds = bounds(&read_json(&spec_path)?)?;
    println!(
        "{:<18} {:<11} detail (B against A; positive = worse)",
        "workload", "verdict"
    );
    let mut overall = Verdict::Pass;
    for (workload, _) in spec::WORKLOADS {
        let (verdict, detail) = judge(workload, &a, &b, &bounds);
        overall = overall.max(verdict);
        println!("{workload:<18} {:<11} {detail}", verdict.as_str());
    }
    Ok(if overall == Verdict::Regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
