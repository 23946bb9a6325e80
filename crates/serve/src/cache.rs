//! Content-addressed result cache.
//!
//! Completed experiment artifacts are stored under their canonical
//! [`crate::ExperimentRequest::cache_key`] — an FNV-1a digest of the
//! parsed config seeded with the engine version — in memory and,
//! optionally, on disk (`--cache-dir`). Disk entries are written
//! atomically (temp file + rename), so a crash or shutdown mid-write
//! never leaves a corrupt entry: a reader sees either the complete
//! artifact or nothing. Should one appear anyway (external tampering,
//! disk corruption), it is **quarantined**: renamed `<name>.corrupt`,
//! treated as a miss, and surfaced through
//! [`ResultCache::drain_quarantined`] so the service can log a flight
//! event — a corrupt entry never panics and is never re-parsed.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mempool_obs::{load_json_file, write_atomic, Json, LoadOutcome};

/// A thread-safe result cache: an in-memory map, optionally backed by an
/// on-disk directory of `cas-<key>.json` files shared across daemon
/// restarts.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<HashMap<u64, Arc<Json>>>,
    dir: Option<PathBuf>,
    quarantined: Mutex<Vec<String>>,
}

impl ResultCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        ResultCache {
            memory: Mutex::new(HashMap::new()),
            dir: None,
            quarantined: Mutex::new(Vec::new()),
        }
    }

    /// A cache persisted under `dir` (created if missing). Entries
    /// written by previous daemon runs are served as hits.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(ResultCache {
            memory: Mutex::new(HashMap::new()),
            dir: Some(dir.as_ref().to_path_buf()),
            quarantined: Mutex::new(Vec::new()),
        })
    }

    /// The on-disk file name of a key.
    pub fn entry_name(key: u64) -> String {
        format!("cas-{key:016x}.json")
    }

    /// Looks up a key: memory first, then disk (promoting a disk hit into
    /// memory). A disk entry that is not UTF-8 or fails to parse is
    /// quarantined (renamed `.corrupt`, recorded for `drain_quarantined`)
    /// and treated as a miss — the rename also guarantees the broken file
    /// is never parsed twice.
    pub fn get(&self, key: u64) -> Option<Arc<Json>> {
        let mut memory = self.memory.lock().expect("cache mutex poisoned");
        if let Some(hit) = memory.get(&key) {
            return Some(Arc::clone(hit));
        }
        let dir = self.dir.as_ref()?;
        match load_json_file(&dir.join(Self::entry_name(key))) {
            LoadOutcome::Loaded(doc) => {
                let entry = Arc::new(doc);
                memory.insert(key, Arc::clone(&entry));
                Some(entry)
            }
            LoadOutcome::Missing => None,
            LoadOutcome::Quarantined { renamed_to, error } => {
                self.quarantined
                    .lock()
                    .expect("quarantine mutex poisoned")
                    .push(format!(
                        "cache entry {} corrupt ({error}); quarantined to {}",
                        Self::entry_name(key),
                        renamed_to.display()
                    ));
                None
            }
        }
    }

    /// Takes the descriptions of entries quarantined since the last
    /// drain (the service forwards them to the flight recorder).
    pub(crate) fn drain_quarantined(&self) -> Vec<String> {
        std::mem::take(&mut self.quarantined.lock().expect("quarantine mutex poisoned"))
    }

    /// Inserts an artifact, returning the shared handle. The disk write
    /// is atomic ([`write_atomic`]); a persist failure degrades to
    /// memory-only caching rather than failing the request.
    pub fn put(&self, key: u64, value: Json) -> Arc<Json> {
        let entry = Arc::new(value);
        if let Some(dir) = &self.dir {
            let _ = write_atomic(&dir.join(Self::entry_name(key)), &entry.to_pretty());
        }
        self.memory
            .lock()
            .expect("cache mutex poisoned")
            .insert(key, Arc::clone(&entry));
        entry
    }

    /// Number of entries resident in memory.
    pub(crate) fn len(&self) -> usize {
        self.memory.lock().expect("cache mutex poisoned").len()
    }

    /// The backing directory, if persistent.
    pub(crate) fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempool-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_round_trip() {
        let cache = ResultCache::in_memory();
        assert!(cache.get(7).is_none());
        let put = cache.put(7, Json::obj([("v", Json::Int(1))]));
        let got = cache.get(7).unwrap();
        assert_eq!(*put, *got);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_entries_survive_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let doc = Json::obj([("speedup", Json::Float(1.25))]);
        {
            let cache = ResultCache::with_dir(&dir).unwrap();
            cache.put(0xdead_beef, doc.clone());
        }
        // A fresh instance (a restarted daemon) serves the same entry.
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(cache.len(), 0, "memory starts cold");
        assert_eq!(*cache.get(0xdead_beef).unwrap(), doc);
        assert_eq!(cache.len(), 1, "disk hits promote into memory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_files_are_complete_pretty_json() {
        let dir = temp_dir("atomic");
        let cache = ResultCache::with_dir(&dir).unwrap();
        let doc = Json::obj([("x", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        cache.put(42, doc.clone());
        let path = dir.join(ResultCache::entry_name(42));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, doc.to_pretty(), "byte-identical to the artifact");
        // No temp files linger after a successful rename.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_read_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::with_dir(&dir).unwrap();
        fs::write(dir.join(ResultCache::entry_name(9)), "{not json").unwrap();
        assert!(cache.get(9).is_none());
        // The broken file was renamed away and reported exactly once.
        assert!(!dir.join(ResultCache::entry_name(9)).exists());
        assert!(dir
            .join(format!("{}.corrupt", ResultCache::entry_name(9)))
            .exists());
        let events = cache.drain_quarantined();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("corrupt"), "{}", events[0]);
        assert!(cache.drain_quarantined().is_empty(), "drained once");
        // Re-reading the now-quarantined key is a clean miss.
        assert!(cache.get(9).is_none());
        assert!(cache.drain_quarantined().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
