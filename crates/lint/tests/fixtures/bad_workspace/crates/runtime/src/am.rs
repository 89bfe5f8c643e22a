//! Fixture: runtime engine. `requeue()` and `drain()` take the two locks in
//! opposite orders — the seeded L1 cycle.

use parking_lot::Mutex;

pub struct Am {
    state: Mutex<u64>,
    queue: Mutex<Vec<u64>>,
}

impl Am {
    pub fn requeue(&self) {
        let st = self.state.lock();
        let mut q = self.queue.lock();
        q.push(*st);
    }

    pub fn drain(&self) -> u64 {
        let q = self.queue.lock();
        let st = self.state.lock();
        *st + q.len() as u64
    }
}
