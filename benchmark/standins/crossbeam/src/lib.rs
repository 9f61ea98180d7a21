//! Offline stand-in for `crossbeam` 0.8: `channel::unbounded` and the
//! sender/receiver methods this repository uses, as a mutex-and-condvar
//! MPMC queue.

/// Multi-producer multi-consumer channels.
// `recv_timeout` needs the clock the repository's clippy.toml bans elsewhere.
#[allow(clippy::disallowed_methods)]
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        // Both counts are read under `queue`'s lock by the waiting side,
        // and changed under it when they reach zero, so no wake-up is lost.
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            // A panicking holder cannot leave the queue half-updated: every
            // critical section is a single push or pop.
            self.queue.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone it for more consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The message could not be sent because every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Every sender is gone and the queue is empty.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `try_recv` returned nothing.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait ran out.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// A channel with no capacity limit.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Queue `msg`; fails only when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut q = self.shared.lock();
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(msg));
            }
            q.push_back(msg);
            drop(q);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let _q = self.shared.lock();
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Take a queued message without waiting.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.lock();
            match q.pop_front() {
                Some(m) => Ok(m),
                None if self.shared.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Wait for a message until every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.lock();
            loop {
                if let Some(m) = q.pop_front() {
                    return Ok(m);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Wait for a message for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.lock();
            loop {
                if let Some(m) = q.pop_front() {
                    return Ok(m);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = self
                    .shared
                    .ready
                    .wait_timeout(q, left)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().is_empty()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let _q = self.shared.lock();
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_timeout_and_disconnect() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            let tx2 = tx.clone();
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx2.send(i).expect("receiver alive");
                }
            });
            t.join().expect("sender thread");
            for i in 0..100 {
                assert_eq!(rx.recv(), Ok(i));
            }
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }
    }
}
