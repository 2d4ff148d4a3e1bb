//! The bounded queue both serving front doors share: a tenant's request
//! queue and the HTTP front-end's connection queue. It owns admission
//! control, the drain protocol and the hand-out of batches to a pool of
//! worker threads.
//!
//! Admission is a hard bound on queue depth checked at push time; a full
//! queue rejects instead of growing, and the tenant turns that rejection
//! into a typed [`crate::ServeError::Shed`].
//!
//! ## Drain protocol (and the stranded-waiter bug it fixes)
//!
//! The single-queue server this design replaces kept its shutdown flag
//! in an `AtomicBool` that submitters checked *before* taking the queue
//! lock. That left a hole: a submitter could pass the check, lose the
//! race with shutdown, and push onto a queue whose worker had already
//! observed "empty + shutting down" and exited — stranding the waiter
//! forever. Here the drain flag lives *inside* the queue mutex:
//!
//! 1. [`BoundedQueue::drain`] sets `draining = true` **under the lock**,
//!    then wakes every worker.
//! 2. [`BoundedQueue::push`] checks `draining` **under the same lock**;
//!    once the flag is up nothing is ever admitted.
//! 3. A worker stops only after observing `draining && empty` **under the
//!    same lock**.
//!
//! Any push that wins the race is therefore in the queue before the flag
//! is visible, and some worker takes it; any push that loses gets its
//! item back as [`Rejected::Draining`]. `drain_interleavings.rs`
//! enumerates seeded schedules over exactly this race and asserts zero
//! stranded waiters.
//!
//! ## Batches
//!
//! Workers take items in batches under a [`BatchPolicy`]. One worker at
//! a time has the turn: it takes up to `max_batch` of the oldest items.
//! Under a zero `max_delay` (the default policy, and the HTTP
//! front-end's batches of one) it takes them at once, so items pushed
//! while the other workers forward coalesce into the next batch. Under a
//! positive `max_delay` it first holds the batch open until the queue
//! holds `max_batch` items or the oldest item's `max_delay` runs out,
//! whichever comes first (a drain closes the batch at once). The other
//! workers wait for that worker to take its batch, then the next one
//! takes the turn. A push wakes at most one worker: the one holding a
//! batch open, otherwise a waiting worker. So one worker runs exactly
//! the single-queue loop, and under a positive `max_delay` a burst
//! coalesces into full batches whatever the number of workers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::server::BatchPolicy;

/// Why a push was rejected; the item is handed back.
pub(crate) enum Rejected<T> {
    /// The queue is at its bound; carries the observed depth.
    Full(T, usize),
    /// The queue is draining and admits nothing.
    Draining(T),
}

struct State<T> {
    /// Admitted items with their admission times, oldest first.
    items: VecDeque<(Instant, T)>,
    /// Set under the lock by [`BoundedQueue::drain`]; never cleared.
    draining: bool,
    /// A worker is holding a batch open.
    filling: bool,
    /// Deepest the queue has ever been (property tests assert it never
    /// exceeds the bound).
    peak_depth: usize,
}

pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Wakes a worker waiting for its turn to open a batch.
    turn: Condvar,
    /// Wakes the worker holding a batch open.
    filled: Condvar,
    bound: usize,
    policy: BatchPolicy,
}

impl<T> BoundedQueue<T> {
    pub(crate) fn new(bound: usize, policy: BatchPolicy) -> Self {
        assert!(bound > 0, "queue bound must be positive");
        assert!(policy.max_batch > 0, "max_batch must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                draining: false,
                filling: false,
                peak_depth: 0,
            }),
            turn: Condvar::new(),
            filled: Condvar::new(),
            bound,
            policy,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panicking worker must not wedge the queue for submitters.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission-controlled enqueue: the drain flag and the depth bound
    /// are both checked under the queue lock. Returns the depth after the
    /// push.
    pub(crate) fn push(&self, item: T) -> Result<usize, Rejected<T>> {
        let mut st = self.lock();
        if st.draining {
            return Err(Rejected::Draining(item));
        }
        let depth = st.items.len();
        if depth >= self.bound {
            return Err(Rejected::Full(item, depth));
        }
        st.items.push_back((Instant::now(), item));
        let depth = depth + 1;
        st.peak_depth = st.peak_depth.max(depth);
        let filling = st.filling;
        drop(st);
        if filling {
            self.filled.notify_one();
        } else {
            self.turn.notify_one();
        }
        Ok(depth)
    }

    /// Raises the drain flag (under the lock) and wakes every worker.
    /// After this returns nothing is admitted; the workers take
    /// everything already queued, then [`Self::next_batch`] returns
    /// `None`.
    pub(crate) fn drain(&self) {
        self.lock().draining = true;
        self.turn.notify_all();
        self.filled.notify_all();
    }

    /// Whether [`Self::drain`] has run.
    pub(crate) fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Deepest observed queue depth.
    pub(crate) fn peak_depth(&self) -> usize {
        self.lock().peak_depth
    }

    /// Blocks until this worker takes a batch: up to `max_batch` of the
    /// oldest items with their admission times, and the depth left
    /// behind. Returns `None` once the queue is draining and empty.
    pub(crate) fn next_batch(&self) -> Option<(Vec<(Instant, T)>, usize)> {
        let mut st = self.lock();
        while st.filling || st.items.is_empty() {
            if st.draining && st.items.is_empty() {
                return None;
            }
            st = self.turn.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.filling = true;
        let deadline = st.items[0].0 + self.policy.max_delay;
        while st.items.len() < self.policy.max_batch && !st.draining {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            st = self
                .filled
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        st.filling = false;
        let take = st.items.len().min(self.policy.max_batch);
        let batch: Vec<_> = st.items.drain(..take).collect();
        let left = st.items.len();
        // Pass the turn on: to the next batch while items remain, and to
        // every waiting worker once a drain has emptied the queue.
        if left > 0 {
            self.turn.notify_one();
        } else if st.draining {
            self.turn.notify_all();
        }
        Some((batch, left))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    fn queue(max_delay: Duration) -> BoundedQueue<u32> {
        BoundedQueue::new(
            64,
            BatchPolicy {
                max_batch: 8,
                max_delay,
            },
        )
    }

    fn items(batch: Vec<(Instant, u32)>) -> Vec<u32> {
        batch.into_iter().map(|(_, item)| item).collect()
    }

    /// An hour: a batch that waited out this deadline would hang the test.
    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn zero_delay_takes_a_lone_item_at_once() {
        let q = queue(Duration::ZERO);
        assert!(q.push(7).is_ok());
        let (batch, left) = q.next_batch().unwrap();
        assert_eq!(items(batch), [7]);
        assert_eq!(left, 0);
    }

    #[test]
    fn zero_delay_takes_everything_queued_as_one_batch() {
        let q = queue(Duration::ZERO);
        for i in 0..3 {
            assert!(q.push(i).is_ok());
        }
        let (batch, left) = q.next_batch().unwrap();
        assert_eq!(items(batch), [0, 1, 2]);
        assert_eq!(left, 0);
    }

    #[test]
    fn full_batch_closes_before_its_deadline() {
        // Queued before the call: the batch is full at once.
        let q = queue(HOUR);
        for i in 0..9 {
            assert!(q.push(i).is_ok());
        }
        let (batch, left) = q.next_batch().unwrap();
        assert_eq!(items(batch), (0..8).collect::<Vec<_>>());
        assert_eq!(left, 1);

        // Filled while the batch is held open: the push that fills it
        // closes it.
        let q = Arc::new(queue(HOUR));
        assert!(q.push(0).is_ok());
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while !q.lock().filling {
                    std::thread::yield_now();
                }
                for i in 1..8 {
                    assert!(q.push(i).is_ok());
                }
            })
        };
        let (batch, left) = q.next_batch().unwrap();
        pusher.join().unwrap();
        assert_eq!(items(batch), (0..8).collect::<Vec<_>>());
        assert_eq!(left, 0);
    }
}
