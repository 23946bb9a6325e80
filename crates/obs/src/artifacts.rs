//! Artifact-directory writer.
//!
//! The experiment pipeline (`repro --artifacts DIR`) writes its
//! machine-readable outputs — figure data, metrics snapshots, Perfetto
//! traces, the `BENCH_repro.json` summary — through this helper, which
//! creates the directory and tracks what was written so the summary can
//! list its siblings.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// A created artifact directory.
#[derive(Debug)]
pub struct ArtifactDir {
    root: PathBuf,
    written: Vec<String>,
}

impl ArtifactDir {
    /// Creates `path` (and parents) and returns a writer rooted there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(path.as_ref())?;
        Ok(ArtifactDir {
            root: path.as_ref().to_path_buf(),
            written: Vec::new(),
        })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Files written so far, in order of their first write.
    pub fn written(&self) -> &[String] {
        &self.written
    }

    /// Writes a pretty-printed JSON document to `name`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&mut self, name: &str, value: &Json) -> io::Result<PathBuf> {
        self.write_text(name, &value.to_pretty())
    }

    /// Writes plain text (CSV, tables) to `name`, replacing an earlier
    /// write of the same name (listed once).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_text(&mut self, name: &str, text: &str) -> io::Result<PathBuf> {
        let path = self.root.join(name);
        fs::write(&path, text)?;
        if !self.written.iter().any(|written| written == name) {
            self.written.push(name.to_string());
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempool-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_tracks_files() {
        let dir = temp_dir("track");
        let mut art = ArtifactDir::create(&dir).unwrap();
        art.write_json("a.json", &Json::Int(1)).unwrap();
        art.write_text("b.csv", "x,y\n").unwrap();
        art.write_json("a.json", &Json::Int(2)).unwrap();
        assert_eq!(art.written(), ["a.json", "b.csv"]);
        assert_eq!(fs::read_to_string(dir.join("a.json")).unwrap(), "2\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nested_directories_are_created() {
        let dir = temp_dir("nest").join("deep/er");
        let mut art = ArtifactDir::create(&dir).unwrap();
        art.write_text("x.txt", "hi").unwrap();
        assert!(dir.join("x.txt").exists());
        let _ = fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }
}
