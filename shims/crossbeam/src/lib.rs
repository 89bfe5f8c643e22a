//! Offline stand-in for `crossbeam`, providing the `channel` module this
//! workspace uses: multi-producer multi-consumer channels, bounded and
//! unbounded, with crossbeam's disconnect semantics — `recv` fails once
//! all senders are gone and the queue is drained, `send` fails once all
//! receivers are gone (the FCM pipeline relies on both for teardown).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Signalled when an item arrives or the side counts change.
        recv_cv: Condvar,
        /// Signalled when space frees up in a bounded channel.
        send_cv: Condvar,
        cap: Option<usize>,
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half; cloneable (MPMC).
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The message could not be delivered because all receivers are gone.
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    fn chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let c = Arc::new(Chan {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
            cap,
        });
        (Sender(c.clone()), Receiver(c))
    }

    /// A channel of unbounded capacity: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        chan(None)
    }

    /// A channel holding at most `cap` in-flight messages; `send` blocks
    /// while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        chan(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.0.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.0.send_cv.wait(st).unwrap();
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.0.recv_cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.0.state.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.recv_cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.0.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.recv_cv.wait(st).unwrap();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().unwrap();
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.send_cv.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        #[allow(
            clippy::disallowed_methods,
            reason = "a receive deadline is host time by definition; only the threaded runtime calls this"
        )]
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.0.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self.0.recv_cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }

        /// Drain the channel as an iterator, ending at disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.send_cv.notify_all();
            }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert!(rx.recv().is_err());
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = bounded(2);
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn bounded_blocks_until_consumed() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        }
    }
}
