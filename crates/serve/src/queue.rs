//! A bounded multi-producer multi-consumer job queue on `Mutex` +
//! `Condvar`, with strict-priority admission classes.
//!
//! `try_push_reclaim` never blocks — a full queue (or an exhausted class
//! quota) is reported to the caller, with the refused job, so the HTTP
//! layer can answer 429 with `Retry-After` instead of stalling the
//! connection thread.  `pop`
//! blocks until a job arrives or the queue is closed *and* drained,
//! which gives graceful shutdown for free: closing wakes every worker,
//! but queued jobs are still handed out until the queue is empty.
//!
//! Admission control: each [`Priority`] class may occupy the shared
//! capacity only up to its quota — interactive up to the full cap,
//! batch up to ¾, background up to ½.  Under overload the queue
//! therefore sheds background first, then batch, while interactive keeps
//! a reserved headroom no lower class can consume.  `pop` serves classes
//! in strict priority order (interactive > batch > background), FIFO
//! within a class, so queued background work can never delay queued
//! interactive work.

use crate::locks::{rank, RankedMutex};
use std::collections::VecDeque;
use std::sync::Condvar;

/// Request priority classes, highest first.  Parsed from the
/// `X-Priority` header; `/v1/batch` defaults to [`Priority::Batch`],
/// every other heavy endpoint to [`Priority::Interactive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    Interactive,
    Batch,
    Background,
}

impl Priority {
    /// All classes, highest priority first (the pop order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// The metrics label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }

    /// Array index (also the pop order).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// Parse an `X-Priority` header value.
    ///
    /// # Errors
    ///
    /// The unrecognised value, for a 400 message.
    pub fn parse(value: &str) -> Result<Priority, String> {
        match value.to_ascii_lowercase().as_str() {
            "interactive" => Ok(Priority::Interactive),
            "batch" => Ok(Priority::Batch),
            "background" => Ok(Priority::Background),
            other => Err(format!(
                "unknown priority {other:?} (interactive | batch | background)"
            )),
        }
    }

    /// How much of the shared capacity this class may occupy.  Lower
    /// classes saturate earlier, so they shed first under overload and
    /// interactive always finds headroom.
    #[must_use]
    pub fn quota(self, capacity: usize) -> usize {
        match self {
            Priority::Interactive => capacity,
            Priority::Batch => (capacity * 3 / 4).max(1),
            Priority::Background => (capacity / 2).max(1),
        }
    }
}

/// Why a `try_push_reclaim` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (or the class quota is exhausted) — the
    /// caller should shed load.
    Full,
    /// The queue has been closed — the server is shutting down.
    Closed,
}

struct Inner<T> {
    /// One FIFO per class, indexed by [`Priority::index`].
    classes: [VecDeque<T>; 3],
    closed: bool,
}

impl<T> Inner<T> {
    fn total(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }
}

/// Bounded MPMC priority queue.  All methods take `&self`; share via
/// `Arc`.
pub struct JobQueue<T> {
    inner: RankedMutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: RankedMutex::new(
                Inner {
                    classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    closed: false,
                },
                rank::QUEUE_INNER,
                "JobQueue.inner",
            ),
            available: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued (not yet popped) jobs across all classes.
    pub fn len(&self) -> usize {
        self.inner.lock().total()
    }

    /// Queued jobs of one class.
    pub fn class_len(&self, class: Priority) -> usize {
        self.inner.lock().classes[class.index()].len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking, subject to the class quota.  A refused
    /// job is handed back to the caller instead of dropped: admission
    /// fills a refused group's slots, and the jobs pump retries
    /// checked-out work slices on the next tick rather than losing them.
    ///
    /// # Errors
    ///
    /// The refused job together with the reason: `PushError::Full` when
    /// total occupancy has reached the class's quota (the shared cap, for
    /// interactive), `PushError::Closed` after `close`.
    pub fn try_push_reclaim(&self, job: T, class: Priority) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err((job, PushError::Closed));
        }
        if inner.total() >= class.quota(self.capacity) {
            return Err((job, PushError::Full));
        }
        inner.classes[class.index()].push_back(job);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking dequeue in strict priority order.  Returns `None` only
    /// once the queue is closed and every queued job has been handed
    /// out — accepted work is never dropped by shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.classes.iter_mut().find_map(|queue| queue.pop_front()) {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = inner.wait(&self.available);
        }
    }

    /// Close the queue: future pushes fail, blocked `pop`s wake, queued
    /// jobs still drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn push_as(q: &JobQueue<u32>, job: u32, class: Priority) -> Result<(), PushError> {
        q.try_push_reclaim(job, class).map_err(|(_, e)| e)
    }

    fn push(q: &JobQueue<u32>, job: u32) -> Result<(), PushError> {
        push_as(q, job, Priority::Interactive)
    }

    #[test]
    fn push_pop_round_trips_in_fifo_order() {
        let q = JobQueue::new(4);
        push(&q, 1).unwrap();
        push(&q, 2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        let q = JobQueue::new(1);
        push(&q, 1).unwrap();
        assert_eq!(push(&q, 2), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        push(&q, 3).unwrap();
    }

    #[test]
    fn close_drains_queued_jobs_then_returns_none() {
        let q = JobQueue::new(4);
        push(&q, 1).unwrap();
        push(&q, 2).unwrap();
        q.close();
        assert_eq!(push(&q, 3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_serves_classes_in_strict_priority_order() {
        // Capacity 16 keeps every class quota (bg 8, batch 12) clear of
        // the five pushes, so only ordering is under test here.
        let q = JobQueue::new(16);
        push_as(&q, 30, Priority::Background).unwrap();
        push_as(&q, 20, Priority::Batch).unwrap();
        push_as(&q, 10, Priority::Interactive).unwrap();
        push_as(&q, 11, Priority::Interactive).unwrap();
        push_as(&q, 31, Priority::Background).unwrap();
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
        assert_eq!(q.pop(), Some(31));
        assert_eq!(q.class_len(Priority::Background), 0);
    }

    #[test]
    fn class_quotas_shed_background_first() {
        // cap 8: background quota 4, batch quota 6, interactive 8.
        let q = JobQueue::new(8);
        for i in 0..4 {
            push_as(&q, i, Priority::Background).unwrap();
        }
        assert_eq!(
            push_as(&q, 99, Priority::Background),
            Err(PushError::Full),
            "background saturates at half the cap"
        );
        // Batch still has room up to 6 total...
        push_as(&q, 50, Priority::Batch).unwrap();
        push_as(&q, 51, Priority::Batch).unwrap();
        assert_eq!(push_as(&q, 52, Priority::Batch), Err(PushError::Full));
        // ...and interactive keeps the reserved headroom to the full cap.
        push_as(&q, 1, Priority::Interactive).unwrap();
        push_as(&q, 2, Priority::Interactive).unwrap();
        assert_eq!(push_as(&q, 3, Priority::Interactive), Err(PushError::Full));
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn quota_floors_keep_tiny_queues_usable() {
        let q = JobQueue::new(1);
        push_as(&q, 7, Priority::Background).unwrap();
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn priority_parsing_and_labels_round_trip() {
        for class in Priority::ALL {
            assert_eq!(Priority::parse(class.label()), Ok(class));
        }
        assert_eq!(Priority::parse("INTERACTIVE"), Ok(Priority::Interactive));
        assert!(Priority::parse("urgent").is_err());
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_jobs() {
        let q = Arc::new(JobQueue::new(8));
        let produced = 200u32;
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(j) = q.pop() {
                        got.push(j);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..produced / 2 {
                        let job = p * 1000 + i;
                        let class = match job % 3 {
                            0 => Priority::Interactive,
                            1 => Priority::Batch,
                            _ => Priority::Background,
                        };
                        loop {
                            match push_as(&q, job, class) {
                                Ok(()) => break,
                                Err(PushError::Full) => thread::yield_now(),
                                Err(PushError::Closed) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), produced as usize);
        all.dedup();
        assert_eq!(
            all.len(),
            produced as usize,
            "every job delivered exactly once"
        );
    }
}
