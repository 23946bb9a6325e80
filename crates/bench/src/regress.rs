//! Exact comparison of two JSON artifacts.
//!
//! Every artifact this repository gates on is deterministic, so the only
//! comparison is equality: [`diff`] walks two documents and names every
//! leaf that differs, is missing, or was added, by dotted path
//! (`resilience.degraded_phase_cycles`, `points[1]`). Leaves of any type
//! count — a changed string or `null` is as much a difference as a cycle
//! count off by one — and a NaN equals nothing, itself included.

use std::collections::{HashMap, HashSet};

use mempool_obs::Json;

/// A string leaf longer than this many characters prints as its length:
/// a checkpoint's memory image is one string of hundreds of thousands.
const LONG_STRING: usize = 80;

/// Lists the differences between `baseline` and `candidate`, one line per
/// leaf; empty when the documents are equal. Object members are matched by
/// key, array elements by index.
pub fn diff(baseline: &Json, candidate: &Json) -> Vec<String> {
    let (mut base, mut cand) = (Vec::new(), Vec::new());
    leaves(baseline, String::new(), &mut base);
    leaves(candidate, String::new(), &mut cand);
    let found: HashMap<&str, &Json> = cand.iter().map(|(p, leaf)| (p.as_str(), *leaf)).collect();
    let known: HashSet<&str> = base.iter().map(|(p, _)| p.as_str()).collect();
    let mut out = Vec::new();
    for (path, leaf) in &base {
        match found.get(path.as_str()) {
            Some(other) if other == leaf => {}
            Some(other) => out.push(format!("{path}: {}", change(leaf, other))),
            None => out.push(format!("{path}: {} -> (absent)", show(leaf))),
        }
    }
    let added = cand
        .iter()
        .filter(|(path, _)| !known.contains(path.as_str()));
    out.extend(added.map(|(path, leaf)| format!("{path}: (absent) -> {}", show(leaf))));
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

/// `old -> new`, and for two strings of which one is long, the character
/// offset where they part.
fn change(old: &Json, new: &Json) -> String {
    let line = format!("{} -> {}", show(old), show(new));
    match (old, new) {
        (Json::Str(a), Json::Str(b)) if is_long(a) || is_long(b) => {
            let same = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
            format!("{line}, first differing character at {same}")
        }
        _ => line,
    }
}

fn show(leaf: &Json) -> String {
    match leaf {
        // `Display` renders non-finite floats as JSON `null`.
        Json::Float(v) if !v.is_finite() => v.to_string(),
        Json::Str(text) if is_long(text) => format!("({} characters)", text.chars().count()),
        other => other.to_string(),
    }
}

fn is_long(text: &str) -> bool {
    text.chars().count() > LONG_STRING
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: i64, speedup: f64, label: &str) -> Json {
        Json::obj([
            (
                "resilience",
                Json::obj([
                    ("degraded_phase_cycles", Json::Int(cycles)),
                    ("clean_fig6_speedup", Json::Float(speedup)),
                ]),
            ),
            ("label", Json::str(label)),
            ("points", Json::Arr(vec![Json::Int(1), Json::Null])),
        ])
    }

    #[test]
    fn every_changed_leaf_is_named_whatever_its_type_or_direction() {
        let base = doc(13995, 1.5, "alpha");
        assert!(diff(&base, &base.clone()).is_empty(), "equal documents");
        // Off by one, in the "improving" direction: still a difference.
        assert_eq!(
            diff(&base, &doc(13994, 1.5, "alpha")),
            ["resilience.degraded_phase_cycles: 13995 -> 13994"]
        );
        assert_eq!(
            diff(&base, &doc(13995, 1.5, "beta")),
            ["label: \"alpha\" -> \"beta\""]
        );
        let nan = doc(13995, f64::NAN, "alpha");
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
        let base = doc(13995, 1.5, "alpha");
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

    #[test]
    fn a_long_string_leaf_prints_as_its_lengths_and_first_difference() {
        let image = |digit: char, at: usize, len: usize| {
            let mut text: Vec<char> = "0".repeat(len).chars().collect();
            text[at] = digit;
            Json::Str(text.into_iter().collect())
        };
        let base = Json::obj([("spm", image('0', 0, 262_144))]);
        let cand = Json::obj([("spm", image('7', 1234, 262_144))]);
        assert_eq!(
            diff(&base, &cand),
            ["spm: (262144 characters) -> (262144 characters), first differing character at 1234"]
        );
        let short = Json::obj([("spm", Json::str("00"))]);
        assert_eq!(
            diff(&short, &cand),
            ["spm: \"00\" -> (262144 characters), first differing character at 2"]
        );
        assert_eq!(
            diff(&base, &Json::obj([("spare", Json::str(""))])),
            [
                "spm: (262144 characters) -> (absent)",
                "spare: (absent) -> \"\""
            ]
        );
        // Up to the limit a string prints whole.
        let limit = Json::Str("a".repeat(80));
        assert_eq!(diff(&limit, &Json::Null), [format!(": {limit} -> null")]);
    }
}
