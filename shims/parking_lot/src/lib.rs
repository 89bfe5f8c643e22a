//! Offline stand-in for `parking_lot`, backed by `std::sync` primitives.
//!
//! Matches the `parking_lot` API shape this workspace uses: `lock()`
//! returns a guard directly (no poisoning `Result`). A poisoned std lock is
//! recovered transparently — panicking while holding a lock is already a
//! bug the tests would surface.
//!
//! Debug builds also check the workspace's lock discipline: a thread holds
//! at most one `Mutex` at a time. A nested `lock()` panics with a named
//! message instead of risking a lock-order deadlock (or, on the same mutex,
//! a self-deadlock). Release builds compile the check out.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a shim `Mutex` guard.
    static HOLDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A mutual exclusion primitive with parking_lot's non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// The guard [`Mutex::lock`] returns; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        HOLDING.with(|holding| {
            assert!(
                !holding.replace(true),
                "nested lock: this thread already holds a parking_lot::Mutex \
                 (the workspace takes one lock at a time)"
            );
        });
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        HOLDING.with(|holding| holding.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nested lock")]
    fn nested_lock_panics_in_debug() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _held = a.lock();
        let _ = b.lock();
    }
}
