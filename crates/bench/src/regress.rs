//! Metric-by-metric regression comparison of benchmark artifacts.
//!
//! Two JSON artifacts (typically `BENCH_repro.json` summaries or the
//! pinned [`crate::bench_summary`] baseline) are flattened to dotted-path
//! numeric leaves and compared leaf-by-leaf under per-metric tolerance
//! rules. Rules are direction-aware: more cycles is a regression while
//! fewer is an improvement, and vice versa for speedups. Wall-clock and
//! file-list entries are measurement noise and are ignored outright.
//!
//! The comparison never panics on shape drift, but shape drift fails the
//! gate in both directions: metrics present only in the baseline are
//! reported as *missing*, metrics present only in the candidate as
//! *added*, and either one is a failure — bless a new baseline after
//! intentional schema changes. Non-finite leaves (NaN or infinity) on
//! either side likewise fail with the offending path named: a NaN never
//! compares as "within tolerance" by accident.

use std::fmt;

use mempool_obs::Json;

/// Absolute difference below which two values are considered identical,
/// regardless of relative tolerance (guards `0.0 == 1e-17` noise).
const ABS_EPSILON: f64 = 1e-9;

/// Which direction of change counts against the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// A higher candidate value is a regression (cycles, overhead).
    HigherIsWorse,
    /// A lower candidate value is a regression (speedup, throughput).
    LowerIsWorse,
    /// Any change beyond tolerance is a regression (structural values
    /// that determinism pins exactly).
    Symmetric,
}

/// One tolerance rule, matched by substring against the dotted path.
/// First match wins.
struct Rule {
    needle: &'static str,
    direction: Direction,
    /// Relative tolerance (fraction of the baseline magnitude).
    tolerance: f64,
    /// Skip the metric entirely.
    ignore: bool,
}

const fn rule(needle: &'static str, direction: Direction, tolerance: f64) -> Rule {
    Rule {
        needle,
        direction,
        tolerance,
        ignore: false,
    }
}

const fn ignore(needle: &'static str) -> Rule {
    Rule {
        needle,
        direction: Direction::Symmetric,
        tolerance: 0.0,
        ignore: true,
    }
}

/// The per-metric policy. Order matters: first matching rule wins, and
/// the trailing catch-all pins everything else to exact-but-for-noise
/// symmetry (the simulator is deterministic).
const RULES: &[Rule] = &[
    ignore("wall_clock"),
    ignore("artifacts"),
    ignore("timestamp"),
    rule("speedup", Direction::LowerIsWorse, 0.02),
    rule("throughput", Direction::LowerIsWorse, 0.02),
    rule("utilization", Direction::LowerIsWorse, 0.02),
    rule("cycle", Direction::HigherIsWorse, 0.02),
    rule("overhead", Direction::HigherIsWorse, 0.05),
    rule("stall", Direction::HigherIsWorse, 0.05),
    rule("retrie", Direction::HigherIsWorse, 0.05),
    rule("", Direction::Symmetric, 0.001),
];

fn policy_for(path: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| path.contains(r.needle))
        .expect("the catch-all rule matches every path")
}

/// One compared metric whose change exceeded its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Dotted path of the metric (`resilience.degraded_phase_cycles`).
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative change versus the baseline magnitude.
    pub relative: f64,
    /// The tolerance the change was judged against.
    pub tolerance: f64,
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} ({:+.2} %, tolerance {:.1} %)",
            self.path,
            self.baseline,
            self.candidate,
            self.relative * 100.0,
            self.tolerance * 100.0
        )
    }
}

/// Result of comparing a candidate artifact against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Changes in the bad direction beyond tolerance.
    pub regressions: Vec<Delta>,
    /// Changes in the good direction beyond tolerance (informational).
    pub improvements: Vec<Delta>,
    /// Metrics in the baseline but not the candidate (fails the gate).
    pub missing: Vec<String>,
    /// Metrics in the candidate but not the baseline (also fails the
    /// gate: an unreviewed schema addition silently widens what the
    /// baseline covers — bless after intentional changes).
    pub added: Vec<String>,
    /// Leaves that are NaN or infinite on either side, labelled
    /// `baseline <path>` / `candidate <path>` (fails the gate).
    pub non_finite: Vec<String>,
    /// Metrics compared and found within tolerance.
    pub within: usize,
    /// Metrics skipped by ignore rules.
    pub ignored: usize,
}

impl Comparison {
    /// Whether the gate must fail: any regression, any one-sided metric
    /// (missing or added), or any non-finite leaf.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
            || !self.missing.is_empty()
            || !self.added.is_empty()
            || !self.non_finite.is_empty()
    }

    /// Human-readable report, one line per notable metric.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!("REGRESSION  {d}\n"));
        }
        for path in &self.missing {
            out.push_str(&format!("MISSING     {path} (present only in baseline)\n"));
        }
        for path in &self.added {
            out.push_str(&format!("ADDED       {path} (not in baseline)\n"));
        }
        for path in &self.non_finite {
            out.push_str(&format!("NON-FINITE  {path} (NaN or infinite)\n"));
        }
        for d in &self.improvements {
            out.push_str(&format!("improvement {d}\n"));
        }
        out.push_str(&format!(
            "{} regression(s), {} missing, {} added, {} non-finite, \
             {} improvement(s), {} within tolerance, {} ignored\n",
            self.regressions.len(),
            self.missing.len(),
            self.added.len(),
            self.non_finite.len(),
            self.improvements.len(),
            self.within,
            self.ignored
        ));
        out
    }
}

/// Flattens a JSON document to `(dotted.path, value)` numeric leaves.
/// Booleans count as 0/1; strings and nulls carry no comparable value and
/// are skipped. Array elements are addressed as `path[index]`.
pub fn flatten(doc: &Json) -> Vec<(String, f64)> {
    let mut leaves = Vec::new();
    walk(doc, String::new(), &mut leaves);
    leaves
}

fn walk(node: &Json, path: String, leaves: &mut Vec<(String, f64)>) {
    match node {
        Json::Int(v) => leaves.push((path, *v as f64)),
        Json::Float(v) => leaves.push((path, *v)),
        Json::Bool(v) => leaves.push((path, f64::from(*v))),
        Json::Null | Json::Str(_) => {}
        Json::Arr(items) => {
            for (index, item) in items.iter().enumerate() {
                walk(item, format!("{path}[{index}]"), leaves);
            }
        }
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(value, child, leaves);
            }
        }
    }
}

/// Compares `candidate` against `baseline` under the per-metric policy.
pub fn compare(baseline: &Json, candidate: &Json) -> Comparison {
    let base = flatten(baseline);
    let cand = flatten(candidate);
    let mut result = Comparison::default();

    for (path, base_value) in &base {
        let rule = policy_for(path);
        if rule.ignore {
            result.ignored += 1;
            continue;
        }
        if !base_value.is_finite() {
            result.non_finite.push(format!("baseline {path}"));
            continue;
        }
        let Some((_, cand_value)) = cand.iter().find(|(p, _)| p == path) else {
            result.missing.push(path.clone());
            continue;
        };
        if !cand_value.is_finite() {
            result.non_finite.push(format!("candidate {path}"));
            continue;
        }
        let diff = cand_value - base_value;
        if diff.abs() <= ABS_EPSILON {
            result.within += 1;
            continue;
        }
        let relative = diff / base_value.abs().max(ABS_EPSILON);
        let delta = Delta {
            path: path.clone(),
            baseline: *base_value,
            candidate: *cand_value,
            relative,
            tolerance: rule.tolerance,
        };
        let bucket = match rule.direction {
            Direction::Symmetric if relative.abs() > rule.tolerance => {
                Some(&mut result.regressions)
            }
            Direction::HigherIsWorse if relative > rule.tolerance => Some(&mut result.regressions),
            Direction::HigherIsWorse if relative < -rule.tolerance => {
                Some(&mut result.improvements)
            }
            Direction::LowerIsWorse if relative < -rule.tolerance => Some(&mut result.regressions),
            Direction::LowerIsWorse if relative > rule.tolerance => Some(&mut result.improvements),
            _ => None,
        };
        match bucket {
            Some(list) => list.push(delta),
            None => result.within += 1,
        }
    }
    for (path, _) in &cand {
        if policy_for(path).ignore {
            continue;
        }
        if !base.iter().any(|(p, _)| p == path) {
            result.added.push(path.clone());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: i64, speedup: f64, wall: f64) -> Json {
        Json::obj([
            (
                "resilience",
                Json::obj([
                    ("degraded_phase_cycles", Json::Int(cycles)),
                    ("clean_fig6_speedup", Json::Float(speedup)),
                ]),
            ),
            ("wall_clock_seconds", Json::Float(wall)),
            ("points", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ])
    }

    #[test]
    fn flatten_produces_dotted_and_indexed_paths() {
        let leaves = flatten(&doc(100, 2.0, 1.0));
        let paths: Vec<&str> = leaves.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"resilience.degraded_phase_cycles"));
        assert!(paths.contains(&"points[0]"));
        assert!(paths.contains(&"points[1]"));
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc(100, 2.0, 1.0);
        let cmp = compare(&a, &a);
        assert!(!cmp.is_regression());
        assert!(cmp.regressions.is_empty() && cmp.missing.is_empty());
        assert!(cmp.within > 0);
    }

    #[test]
    fn wall_clock_noise_is_ignored() {
        let cmp = compare(&doc(100, 2.0, 1.0), &doc(100, 2.0, 57.0));
        assert!(!cmp.is_regression());
        assert!(cmp.ignored >= 1);
    }

    #[test]
    fn cycle_growth_is_a_regression_and_shrink_an_improvement() {
        let base = doc(100, 2.0, 1.0);
        let slow = compare(&base, &doc(110, 2.0, 1.0));
        assert!(slow.is_regression());
        assert_eq!(slow.regressions[0].path, "resilience.degraded_phase_cycles");
        let fast = compare(&base, &doc(90, 2.0, 1.0));
        assert!(!fast.is_regression());
        assert_eq!(fast.improvements.len(), 1);
    }

    #[test]
    fn speedup_loss_is_a_regression() {
        let base = doc(100, 2.0, 1.0);
        let slower = compare(&base, &doc(100, 1.8, 1.0));
        assert!(slower.is_regression());
        let faster = compare(&base, &doc(100, 2.2, 1.0));
        assert!(!faster.is_regression());
    }

    #[test]
    fn small_changes_stay_within_tolerance() {
        let base = doc(1000, 2.0, 1.0);
        let cmp = compare(&base, &doc(1010, 2.0, 1.0)); // +1 % < 2 %
        assert!(!cmp.is_regression());
    }

    #[test]
    fn one_sided_metrics_fail_in_both_directions() {
        let base = doc(100, 2.0, 1.0);

        // Vanished metrics fail, naming the paths.
        let mut shrunk = doc(100, 2.0, 1.0);
        if let Json::Obj(pairs) = &mut shrunk {
            pairs.retain(|(k, _)| k != "points");
        }
        let cmp = compare(&base, &shrunk);
        assert!(cmp.is_regression());
        assert_eq!(cmp.missing, vec!["points[0]", "points[1]"]);
        assert!(cmp.to_text().contains("MISSING     points[0]"));

        // Unexpected additions fail too: the baseline no longer covers
        // the candidate's schema, so the gate demands a bless.
        let mut grown = doc(100, 2.0, 1.0);
        if let Json::Obj(pairs) = &mut grown {
            pairs.push(("extra".to_string(), Json::Int(7)));
        }
        let cmp = compare(&base, &grown);
        assert!(cmp.is_regression());
        assert_eq!(cmp.added, vec!["extra"]);
        assert!(cmp.to_text().contains("ADDED       extra"));
    }

    #[test]
    fn non_finite_leaves_fail_and_name_the_side() {
        let base = doc(100, 2.0, 1.0);
        let cmp = compare(&base, &doc(100, f64::NAN, 1.0));
        assert!(cmp.is_regression(), "a NaN must never pass as 'within'");
        assert_eq!(
            cmp.non_finite,
            vec!["candidate resilience.clean_fig6_speedup"]
        );
        assert!(cmp.to_text().contains("NON-FINITE"));

        let cmp = compare(&doc(100, f64::INFINITY, 1.0), &base);
        assert!(cmp.is_regression());
        assert_eq!(
            cmp.non_finite,
            vec!["baseline resilience.clean_fig6_speedup"]
        );

        // Ignored paths stay ignored even when non-finite.
        let cmp = compare(&base, &doc(100, 2.0, f64::NAN));
        assert!(!cmp.is_regression());
    }

    #[test]
    fn symmetric_default_pins_unclassified_metrics() {
        let base = Json::obj([("banks", Json::Int(64))]);
        let cand = Json::obj([("banks", Json::Int(65))]);
        assert!(compare(&base, &cand).is_regression());
    }
}
