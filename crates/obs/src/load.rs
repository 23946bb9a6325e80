//! Quarantine-aware JSON file loading, and the atomic write that keeps
//! quarantines rare.
//!
//! Artifact stores that survive process restarts — the serve result
//! cache, its job journal, and simulator checkpoints — must never panic
//! (or silently loop) on a file a crashed writer left truncated or a
//! stray process corrupted. [`load_json_file`] centralizes the policy:
//! a file that exists but does not parse is *quarantined* by renaming it
//! with a `.corrupt` suffix and reported as such, so the caller can treat
//! it as a miss, emit a flight-recorder event, and never trip over the
//! same bytes twice.

use std::fs;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Result of loading a JSON document from disk.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The file existed and parsed.
    Loaded(Json),
    /// The file does not exist (or is unreadable) — an ordinary miss.
    Missing,
    /// The file existed but was not UTF-8 or did not parse; it was
    /// renamed out of the way (best effort) so it will not be retried.
    Quarantined {
        /// Where the corrupt bytes were moved (`<name>.corrupt`). The
        /// rename is best-effort: if it failed the original path still
        /// holds the bytes.
        renamed_to: PathBuf,
        /// The decode or parse error that condemned the file.
        error: String,
    },
}

/// The quarantine destination for a corrupt file: the same path with
/// `.corrupt` appended to the file name.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".corrupt");
    path.with_file_name(name)
}

/// Loads and parses a JSON file. A missing or unreadable file is a plain
/// [`LoadOutcome::Missing`]; a present file that is not UTF-8 or does not
/// parse is renamed to `<name>.corrupt` and reported as
/// [`LoadOutcome::Quarantined`] — never a panic, and never an entry that
/// poisons every future lookup.
pub fn load_json_file(path: &Path) -> LoadOutcome {
    let parsed = match fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == ErrorKind::InvalidData => Err(e.to_string()),
        Err(_) => return LoadOutcome::Missing,
    };
    match parsed {
        Ok(doc) => LoadOutcome::Loaded(doc),
        Err(error) => {
            let renamed_to = quarantine_path(path);
            let _ = fs::rename(path, &renamed_to);
            LoadOutcome::Quarantined { renamed_to, error }
        }
    }
}

/// Replaces `path` with `contents` atomically: the bytes go to a sibling
/// `<name>.tmp-<pid>` file that is then renamed over `path`, so a reader
/// (or a crash mid-write) sees the old file or the complete new one, never
/// a torn one.
///
/// # Errors
///
/// Propagates the write or rename failure.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}", std::process::id()));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempool-load-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_files_are_misses() {
        let dir = temp_dir("missing");
        assert!(matches!(
            load_json_file(&dir.join("nope.json")),
            LoadOutcome::Missing
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn valid_files_load() {
        let dir = temp_dir("valid");
        let path = dir.join("ok.json");
        fs::write(&path, "{\"x\": 1}").unwrap();
        let LoadOutcome::Loaded(doc) = load_json_file(&path) else {
            panic!("a valid file must load");
        };
        assert_eq!(doc.get("x").and_then(Json::as_int), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_and_not_retried() {
        let dir = temp_dir("corrupt");
        let path = dir.join("bad.json");
        fs::write(&path, "{truncated").unwrap();
        match load_json_file(&path) {
            LoadOutcome::Quarantined { renamed_to, error } => {
                assert_eq!(renamed_to, dir.join("bad.json.corrupt"));
                assert!(renamed_to.exists(), "corrupt bytes preserved");
                assert!(!error.is_empty());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "original renamed away");
        // The second load is a plain miss — the quarantine is permanent.
        assert!(matches!(load_json_file(&path), LoadOutcome::Missing));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_files_are_quarantined_not_missing() {
        let dir = temp_dir("utf8");
        let path = dir.join("flipped.json");
        fs::write(&path, b"{\"x\": \"\xff\"}").unwrap();
        match load_json_file(&path) {
            LoadOutcome::Quarantined { renamed_to, error } => {
                assert_eq!(renamed_to, dir.join("flipped.json.corrupt"));
                assert!(renamed_to.exists(), "corrupt bytes preserved");
                assert!(error.contains("UTF-8"), "{error}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "original renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_files_are_quarantined_not_a_stack_overflow() {
        let dir = temp_dir("deep");
        let path = dir.join("deep.json");
        fs::write(&path, "[".repeat(200_000)).unwrap();
        match load_json_file(&path) {
            LoadOutcome::Quarantined { renamed_to, error } => {
                assert!(renamed_to.exists(), "corrupt bytes preserved");
                assert!(error.contains("nesting deeper than"), "{error}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
