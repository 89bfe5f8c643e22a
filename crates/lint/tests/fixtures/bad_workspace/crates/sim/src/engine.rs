//! Fixture: sim engine. The `tick()` body carries the seeded D1 violation —
//! hash-order iteration escaping into a returned Vec, unsorted.

use std::collections::HashMap;

pub struct Engine {
    pub atts: HashMap<u64, u64>,
}

impl Engine {
    pub fn tick(&self) -> Vec<u64> {
        self.atts.keys().copied().collect()
    }
}
