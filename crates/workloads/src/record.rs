//! Key/value records.

use serde::Serialize;

/// One `<k, v>` pair. Keys and values are raw bytes; ordering semantics are
/// supplied by the owning [`crate::Workload`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Record {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

impl Record {
    pub fn new(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Record {
        Record { key: key.into(), value: value.into() }
    }

    /// Serialized footprint: key + value + the two u32 length prefixes the
    /// segment format uses.
    pub fn wire_size(&self) -> u64 {
        self.key.len() as u64 + self.value.len() as u64 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_counts_prefixes() {
        let r = Record::new(b"abc".to_vec(), b"de".to_vec());
        assert_eq!(r.wire_size(), 3 + 2 + 8);
    }

    #[test]
    fn derives_order_bytewise() {
        assert!(Record::new(b"a".to_vec(), b"".to_vec()) < Record::new(b"b".to_vec(), b"".to_vec()));
    }
}
