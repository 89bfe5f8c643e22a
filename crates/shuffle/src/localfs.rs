//! Node-local storage.
//!
//! Each simulated node owns one [`MemFs`]: spills, merged segments, MOFs and
//! shuffle-stage analytics logs live here. Crashing a node is
//! [`MemFs::wipe`] — after which every fetch against its MOFs fails, which
//! is precisely the condition that triggers the paper's failure
//! amplification.
//!
//! The trait exists so tests can substitute failing/instrumented stores.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::error::{Result, ShuffleError};

/// A flat path → bytes store with whole-file reads and writes.
pub trait LocalFs: Send + Sync {
    fn write(&self, path: &str, data: Bytes) -> Result<()>;
    fn read(&self, path: &str) -> Result<Bytes>;
    /// Remove a file; `true` if it existed.
    fn delete(&self, path: &str) -> bool;
    fn exists(&self, path: &str) -> bool;
    /// Paths starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Total stored bytes (diagnostics, disk-usage assertions).
    fn total_bytes(&self) -> u64;
}

/// In-memory [`LocalFs`].
#[derive(Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<String, Bytes>>,
    /// When true, all operations fail — models a crashed node's store.
    dead: Mutex<bool>,
}

impl MemFs {
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Simulate the node crashing: drop all data and refuse future I/O.
    pub fn wipe(&self) {
        self.files.lock().clear();
        *self.dead.lock() = true;
    }

    pub fn is_dead(&self) -> bool {
        *self.dead.lock()
    }

    pub fn file_count(&self) -> usize {
        self.files.lock().len()
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_dead() {
            Err(ShuffleError::FetchFailed { source: "local".into(), reason: "node store is dead".into() })
        } else {
            Ok(())
        }
    }
}

impl LocalFs for MemFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.check_alive()?;
        self.files.lock().insert(path.to_string(), data);
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.check_alive()?;
        self.files.lock().get(path).cloned().ok_or_else(|| ShuffleError::NotFound(path.to_string()))
    }

    fn delete(&self, path: &str) -> bool {
        !self.is_dead() && self.files.lock().remove(path).is_some()
    }

    fn exists(&self, path: &str) -> bool {
        !self.is_dead() && self.files.lock().contains_key(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        if self.is_dead() {
            return Vec::new();
        }
        self.files
            .lock()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_delete() {
        let fs = MemFs::new();
        fs.write("a/b", Bytes::from_static(b"hello")).unwrap();
        assert!(fs.exists("a/b"));
        assert_eq!(fs.read("a/b").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(fs.total_bytes(), 5);
        assert!(fs.delete("a/b"));
        assert!(!fs.delete("a/b"));
        assert!(matches!(fs.read("a/b"), Err(ShuffleError::NotFound(_))));
    }

    #[test]
    fn list_is_prefix_scoped_and_sorted() {
        let fs = MemFs::new();
        for p in ["spill_2", "spill_10", "mof/x", "spill_1"] {
            fs.write(p, Bytes::new()).unwrap();
        }
        assert_eq!(fs.list("spill_"), vec!["spill_1", "spill_10", "spill_2"]);
        assert_eq!(fs.list("mof/"), vec!["mof/x"]);
        assert!(fs.list("zzz").is_empty());
    }

    #[test]
    fn wipe_models_node_crash() {
        let fs = MemFs::new();
        fs.write("mof/1", Bytes::from_static(b"data")).unwrap();
        fs.wipe();
        assert!(fs.is_dead());
        assert!(fs.read("mof/1").is_err());
        assert!(fs.write("new", Bytes::new()).is_err());
        assert!(!fs.exists("mof/1"));
        assert!(fs.list("").is_empty());
    }
}
