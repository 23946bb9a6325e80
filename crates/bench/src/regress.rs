//! Exact comparison of two JSON artifacts.
//!
//! Every artifact this repository gates on is deterministic, so the only
//! comparison is equality: [`diff`] walks two documents and names every
//! leaf that differs, is missing, or was added, by dotted path
//! (`resilience.degraded_phase_cycles`, `points[1]`). Leaves of any type
//! count — a changed string or `null` is as much a difference as a cycle
//! count off by one — and a NaN equals nothing, itself included.

use mempool_obs::Json;

/// Lists the differences between `baseline` and `candidate`, one line per
/// leaf; empty when the documents are equal. Object members are matched by
/// key, array elements by index.
pub fn diff(baseline: &Json, candidate: &Json) -> Vec<String> {
    fn lookup<'a>(side: &[(String, &'a Json)], path: &str) -> Option<&'a Json> {
        side.iter().find(|(p, _)| p == path).map(|&(_, leaf)| leaf)
    }
    let (mut base, mut cand) = (Vec::new(), Vec::new());
    leaves(baseline, String::new(), &mut base);
    leaves(candidate, String::new(), &mut cand);
    let mut out = Vec::new();
    for (path, leaf) in &base {
        match lookup(&cand, path) {
            Some(other) if other == *leaf => {}
            Some(other) => out.push(format!("{path}: {} -> {}", show(leaf), show(other))),
            None => out.push(format!("{path}: {} -> (absent)", show(leaf))),
        }
    }
    for (path, leaf) in &cand {
        if lookup(&base, path).is_none() {
            out.push(format!("{path}: (absent) -> {}", show(leaf)));
        }
    }
    out
}

/// Flattens `node` to `(dotted.path, leaf)` pairs; an empty array or
/// object is a leaf of its own.
fn leaves<'a>(node: &'a Json, path: String, out: &mut Vec<(String, &'a Json)>) {
    match node {
        Json::Arr(items) if !items.is_empty() => {
            for (index, item) in items.iter().enumerate() {
                leaves(item, format!("{path}[{index}]"), out);
            }
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            for (key, value) in pairs {
                let child = match path.as_str() {
                    "" => key.clone(),
                    _ => format!("{path}.{key}"),
                };
                leaves(value, child, out);
            }
        }
        leaf => out.push((path, leaf)),
    }
}

fn show(leaf: &Json) -> String {
    match leaf {
        // `Display` renders non-finite floats as JSON `null`.
        Json::Float(v) if !v.is_finite() => v.to_string(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: i64, speedup: f64, engine: &str) -> Json {
        Json::obj([
            (
                "resilience",
                Json::obj([
                    ("degraded_phase_cycles", Json::Int(cycles)),
                    ("clean_fig6_speedup", Json::Float(speedup)),
                ]),
            ),
            ("engine", Json::str(engine)),
            ("points", Json::Arr(vec![Json::Int(1), Json::Null])),
        ])
    }

    #[test]
    fn every_changed_leaf_is_named_whatever_its_type_or_direction() {
        let base = doc(13995, 1.5, "quantum");
        assert!(diff(&base, &base.clone()).is_empty(), "equal documents");
        // Off by one, in the "improving" direction: still a difference.
        assert_eq!(
            diff(&base, &doc(13994, 1.5, "quantum")),
            ["resilience.degraded_phase_cycles: 13995 -> 13994"]
        );
        assert_eq!(
            diff(&base, &doc(13995, 1.5, "step")),
            ["engine: \"quantum\" -> \"step\""]
        );
        let nan = doc(13995, f64::NAN, "quantum");
        assert_eq!(
            diff(&base, &nan),
            ["resilience.clean_fig6_speedup: 1.5 -> NaN"]
        );
        assert_eq!(diff(&nan, &nan).len(), 1, "a NaN never compares equal");
        // Same number, different JSON type.
        assert_eq!(diff(&Json::Int(2), &Json::Float(2.0)), [": 2 -> 2.0"]);
    }

    #[test]
    fn missing_and_added_leaves_are_named_one_by_one() {
        let base = doc(13995, 1.5, "quantum");
        let mut shrunk = base.clone();
        let mut grown = base.clone();
        if let (Json::Obj(s), Json::Obj(g)) = (&mut shrunk, &mut grown) {
            s.retain(|(key, _)| key != "points");
            g.push(("extra".to_string(), Json::obj([("n", Json::Int(7))])));
        }
        assert_eq!(
            diff(&base, &shrunk),
            ["points[0]: 1 -> (absent)", "points[1]: null -> (absent)"]
        );
        assert_eq!(diff(&base, &grown), ["extra.n: (absent) -> 7"]);
        assert_eq!(diff(&shrunk, &grown).len(), 3, "both directions at once");
    }
}
