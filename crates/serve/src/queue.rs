//! A bounded MPMC job queue with explicit admission control.
//!
//! Built on `Mutex<VecDeque>` + two `Condvar`s — std-only, no channels.
//! The producer side never blocks: [`BoundedQueue::try_push`] either
//! admits the job or reports [`PushError::Full`] so the connection
//! thread can send a structured shed response *immediately* instead of
//! stalling the socket behind an unbounded backlog. The consumer side
//! ([`BoundedQueue::pop`]) blocks until a job arrives or the queue is
//! closed for drain.
//!
//! Closing is one-way: after [`BoundedQueue::close`], pushes are
//! rejected with [`PushError::Closed`], pops drain what is already
//! queued, and [`BoundedQueue::drain_remaining`] hands the shutdown
//! path whatever the workers did not get to — so every admitted job is
//! either executed or explicitly answered, never dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the request.
    Full,
    /// The queue is closed for drain — the server is shutting down.
    Closed,
}

struct Inner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. `T` is the job payload.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when a job is pushed or the queue closes.
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending jobs (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // Job payloads are plain data; a panic while holding the lock
        // cannot leave them in a torn state, so poison is recoverable.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admission control: enqueue without blocking, or say why not.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] once
    /// [`Self::close`] has been called.
    pub fn try_push(&self, job: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking consume: the next job, or `None` once the queue is
    /// closed *and* empty.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Close the queue: reject new pushes, wake all blocked consumers.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Whether no jobs are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take everything still queued (drain path: the caller owes each
    /// of these jobs an explicit response).
    #[must_use]
    pub fn drain_remaining(&self) -> Vec<T> {
        self.lock().jobs.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let start = Instant::now();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "try_push must not block"
        );
        // Freeing a slot re-admits.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumers_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.try_push(9), Err(PushError::Closed));
    }

    #[test]
    fn close_drains_queued_jobs_before_returning_none() {
        let q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_remaining_takes_the_backlog() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        q.close();
        assert_eq!(q.drain_remaining(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_and_consumers_conserve_jobs() {
        let q = Arc::new(BoundedQueue::new(64));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(j) = q.pop() {
                        got.push(j);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut admitted = 0u32;
                    for i in 0..100u32 {
                        if q.try_push(p * 1000 + i).is_ok() {
                            admitted += 1;
                        }
                        // Back off briefly on shed so consumers catch up.
                        std::thread::yield_now();
                    }
                    admitted
                })
            })
            .collect();
        let admitted: u32 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        // Give consumers a moment to clear the tail, then drain.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        let consumed: usize = consumers.into_iter().map(|h| h.join().unwrap().len()).sum();
        assert_eq!(consumed as u32, admitted, "every admitted job is consumed");
    }
}
