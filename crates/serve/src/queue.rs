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
//! a time holds a batch open: it waits until the queue holds `max_batch`
//! items or the oldest item's `max_delay` runs out, whichever comes
//! first (a drain closes the batch at once), and takes up to `max_batch`
//! of the oldest items. The other workers wait for that worker to take
//! its batch, then the next one opens a batch of its own. A push wakes
//! at most one worker: the one holding a batch open, otherwise a waiting
//! worker. So a burst coalesces into full batches whatever the number of
//! workers, one worker runs exactly the single-queue loop, and the HTTP
//! front-end, whose policy is batches of one, hands each connection to
//! one worker.

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
