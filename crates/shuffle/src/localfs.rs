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
pub struct MemFs {
    /// `None` once the node has crashed: the store holds nothing and every
    /// operation fails. One lock for data and liveness, so a write can
    /// never land in a store that a concurrent [`MemFs::wipe`] emptied.
    files: Mutex<Option<BTreeMap<String, Bytes>>>,
}

impl Default for MemFs {
    fn default() -> MemFs {
        MemFs { files: Mutex::new(Some(BTreeMap::new())) }
    }
}

impl MemFs {
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Simulate the node crashing: drop all data and refuse future I/O.
    pub fn wipe(&self) {
        *self.files.lock() = None;
    }

    pub fn is_dead(&self) -> bool {
        self.files.lock().is_none()
    }

    pub fn file_count(&self) -> usize {
        self.live(|files| files.len()).unwrap_or(0)
    }

    /// Run `f` on the files of a live store; `None` once it is dead.
    fn live<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Bytes>) -> R) -> Option<R> {
        let mut files = self.files.lock();
        files.as_mut().map(f)
    }
}

fn dead() -> ShuffleError {
    ShuffleError::FetchFailed { source: "local".into(), reason: "node store is dead".into() }
}

impl LocalFs for MemFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.live(|files| {
            files.insert(path.to_string(), data);
        })
        .ok_or_else(dead)
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.live(|files| files.get(path).cloned())
            .ok_or_else(dead)?
            .ok_or_else(|| ShuffleError::NotFound(path.to_string()))
    }

    fn delete(&self, path: &str) -> bool {
        self.live(|files| files.remove(path).is_some()).unwrap_or(false)
    }

    fn exists(&self, path: &str) -> bool {
        self.live(|files| files.contains_key(path)).unwrap_or(false)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.live(|files| {
            files
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect()
        })
        .unwrap_or_default()
    }

    fn total_bytes(&self) -> u64 {
        self.live(|files| files.values().map(|b| b.len() as u64).sum()).unwrap_or(0)
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
    fn a_read_returns_the_written_allocation() {
        let fs = MemFs::new();
        let data = vec![9u8; 4096];
        let ptr = data.as_ptr();
        fs.write("spill0/part0", Bytes::from(data)).unwrap();
        assert_eq!(fs.read("spill0/part0").unwrap().as_ptr(), ptr, "neither the write nor the read copies");
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

    #[test]
    fn wipe_racing_writers_leaves_a_dead_empty_store() {
        for _ in 0..100 {
            let fs = MemFs::new();
            let writing = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for w in 0..3 {
                    let (fs, writing) = (&fs, &writing);
                    s.spawn(move || {
                        writing.wait();
                        let mut i = 0u32;
                        while fs.write(&format!("w{w}/{i}"), Bytes::from_static(b"x")).is_ok() {
                            i += 1;
                        }
                    });
                }
                writing.wait();
                fs.wipe();
            });
            assert!(fs.is_dead());
            assert_eq!((fs.file_count(), fs.total_bytes()), (0, 0), "a crashed node kept bytes");
        }
    }
}
