//! A dependency-free parallel compute runtime: a persistent thread pool
//! built on `std::thread` + `mpsc` channels, exposing [`parallel_for`]
//! over index chunks.
//!
//! ## Design
//!
//! * **Persistent workers.** Worker threads are spawned once (lazily, on
//!   first use) and live for the process; each worker owns its own task
//!   channel. There is no per-call thread spawn cost.
//! * **Caller participates.** A `parallel_for` runs the first chunk (and,
//!   on an oversubscribed host, its share of the surplus) on the calling
//!   thread and sends the rest to workers, so `URCL_THREADS=1` never
//!   touches a channel.
//! * **Deterministic chunking.** Chunk boundaries are a pure function of
//!   `(n, grain, active threads)` and chunk *i* always goes to
//!   participant *i mod (workers + 1)*, participant 0 being the caller,
//!   where the worker count is capped at the host's physical parallelism
//!   (surplus chunks spread over the caller and the workers; on a
//!   single-core host everything runs inline — scheduling changes,
//!   results don't).
//!   Kernels built on this runtime parallelize only over disjoint
//!   output regions and never split a reduction axis, so results are
//!   bitwise reproducible run-to-run at a fixed thread count (and, for the
//!   kernels in this crate, across thread counts too).
//! * **Scoped borrows.** Tasks borrow the caller's closure through a raw
//!   pointer whose lifetime is erased; `parallel_for` blocks until every
//!   chunk acknowledges completion before returning, so the borrow never
//!   outlives the call. Worker panics are caught, forwarded, and re-raised
//!   on the caller.
//!
//! The active thread count defaults to the `URCL_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`]. It
//! can be changed at runtime with [`set_threads`] (the bench binary uses
//! this to measure 1-thread vs N-thread scaling in one process).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, OnceLock};

/// Upper bound on pool size; a safety valve, far above sane CPU counts
/// for this workload.
pub const MAX_THREADS: usize = 256;

/// Work item: an index range plus an erased borrow of the caller's
/// closure. The completion channel reports panics back to the caller.
struct Task {
    func: *const (dyn Fn(Range<usize>) + Sync),
    range: Range<usize>,
    done: Sender<Result<(), String>>,
}

// SAFETY: the closure behind `func` is `Sync` (shared access from many
// threads is allowed) and `parallel_for` keeps it alive until every task
// has acknowledged completion.
unsafe impl Send for Task {}

struct Pool {
    /// One task channel per spawned worker.
    workers: Mutex<Vec<Sender<Task>>>,
    /// Number of chunks `parallel_for` may use (workers + caller).
    active: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set inside pool workers so nested `parallel_for` calls degrade to
    /// inline execution instead of deadlocking on their own pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn default_threads() -> usize {
    match std::env::var("URCL_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("URCL_THREADS must be a positive integer, got {v:?}")),
        Err(_) => host_threads(),
    }
    .min(MAX_THREADS)
}

/// Physical parallelism of the host, sampled once per process. Thread
/// counts requested above this are satisfied by dealing surplus chunks
/// over the caller and the available workers (or running everything
/// inline on a single-core host): chunk boundaries still follow the
/// *requested* count, so results stay bit-identical — oversubscription only changes
/// scheduling, never math. Without this, asking a 1-core container for 4
/// threads made every kernel pay channel wakeups and time-slicing for
/// zero added parallelism (the "4-thread scaling cliff").
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Physical parallelism of the host as seen by the worker pool (see
/// `host_threads`). Benches use this to decide which thread-scaling
/// assertions are meaningful: on a 1-core container a 4-thread cell can
/// never beat the 1-thread cell, only avoid regressing it.
pub fn host_parallelism() -> usize {
    host_threads()
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        workers: Mutex::new(Vec::new()),
        active: AtomicUsize::new(default_threads()),
    })
}

fn spawn_worker(index: usize) -> Sender<Task> {
    let (tx, rx) = channel::<Task>();
    std::thread::Builder::new()
        .name(format!("urcl-worker-{index}"))
        .spawn(move || {
            IN_WORKER.with(|f| f.set(true));
            while let Ok(task) = rx.recv() {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: see `Task`; the caller blocks until we ack.
                    (unsafe { &*task.func })(task.range.clone())
                }))
                .map_err(|p| panic_message(&p));
                // The caller may itself have panicked and dropped the
                // receiver; nothing useful to do with the error then.
                let _ = task.done.send(result);
            }
        })
        .expect("failed to spawn urcl worker thread");
    tx
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker task panicked".to_string()
    }
}

// Cumulative dispatch counters, always on: relaxed atomic increments are
// far below the cost of a channel send, and `parallel_for` is called per
// kernel, not per element. `urcl-trace` scrapes these into its snapshots.
static PAR_CALLS: AtomicU64 = AtomicU64::new(0);
static INLINE_CALLS: AtomicU64 = AtomicU64::new(0);
static CHUNKS_DISPATCHED: AtomicU64 = AtomicU64::new(0);
static PAR_ITEMS: AtomicU64 = AtomicU64::new(0);
static PAR_WAIT_NS: AtomicU64 = AtomicU64::new(0);

/// Cumulative `parallel_for` dispatch statistics since process start (or
/// the last [`reset_pool_stats`]). The pool hands contiguous chunks to
/// dedicated workers rather than work-stealing, so chunk counts are the
/// utilization signal: `chunks_dispatched / par_calls` is the mean number
/// of workers engaged per parallel call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Calls that fanned out to at least one worker thread.
    pub par_calls: u64,
    /// Calls that ran entirely on the calling thread (small `n`, one
    /// active thread, or a nested call inside a worker).
    pub inline_calls: u64,
    /// Chunks sent to worker threads (excludes the caller's own chunks).
    pub chunks_dispatched: u64,
    /// Total items (`n`) handed to `parallel_for`, inline calls included.
    /// `par_items / (par_calls + inline_calls)` is the mean region size —
    /// the signal for whether per-op work is being batched into regions
    /// big enough to amortize dispatch, or shredded into tiny ones.
    pub par_items: u64,
    /// Nanoseconds the calling thread spent blocked waiting for workers
    /// to finish after completing its own chunk. High values relative to
    /// wall time mean chunk imbalance or an oversubscribed host.
    pub par_wait_ns: u64,
}

/// Reads the cumulative dispatch counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        par_calls: PAR_CALLS.load(Ordering::Relaxed),
        inline_calls: INLINE_CALLS.load(Ordering::Relaxed),
        chunks_dispatched: CHUNKS_DISPATCHED.load(Ordering::Relaxed),
        par_items: PAR_ITEMS.load(Ordering::Relaxed),
        par_wait_ns: PAR_WAIT_NS.load(Ordering::Relaxed),
    }
}

/// Zeroes the cumulative dispatch counters.
pub fn reset_pool_stats() {
    PAR_CALLS.store(0, Ordering::Relaxed);
    INLINE_CALLS.store(0, Ordering::Relaxed);
    CHUNKS_DISPATCHED.store(0, Ordering::Relaxed);
    PAR_ITEMS.store(0, Ordering::Relaxed);
    PAR_WAIT_NS.store(0, Ordering::Relaxed);
}

/// The number of threads `parallel_for` currently targets (workers plus
/// the calling thread).
pub fn num_threads() -> usize {
    pool().active.load(Ordering::Relaxed)
}

/// Sets the target thread count (clamped to `1..=MAX_THREADS`), growing
/// the worker pool if needed. Returns the previous value. Intended for
/// benches and tests; normal runs configure `URCL_THREADS` instead.
pub fn set_threads(n: usize) -> usize {
    let n = n.clamp(1, MAX_THREADS);
    pool().active.swap(n, Ordering::Relaxed)
}

/// Splits `0..n` into deterministic contiguous chunks and runs `f` on
/// each chunk, spread over the pool. Guarantees:
///
/// * every index is covered exactly once, chunks are contiguous and
///   ascending;
/// * at most [`num_threads`] chunks, each at least `grain` long (except
///   possibly the last);
/// * `f` has returned on every chunk when `parallel_for` returns.
///
/// With one active thread (or `n <= grain`) the call is inline and
/// allocation-free.
pub fn parallel_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let threads = num_threads();
    let max_chunks = n.div_ceil(grain);
    let chunks = threads.min(max_chunks).max(1);
    // Chunks beyond the host's physical parallelism buy no concurrency;
    // on a single-core host skip dispatch entirely and otherwise deal the
    // surplus round-robin over the caller and the real workers, so the
    // caller never idles while a worker runs several chunks in series.
    // Chunk boundaries are already fixed above, so this cannot change any
    // result bit.
    let send_workers = host_threads().saturating_sub(1).min(chunks - 1);
    PAR_ITEMS.fetch_add(n as u64, Ordering::Relaxed);
    if chunks == 1 || send_workers == 0 || IN_WORKER.with(|flag| flag.get()) {
        INLINE_CALLS.fetch_add(1, Ordering::Relaxed);
        f(0..n);
        return;
    }
    // Chunk i runs on participant i % participants: 0 is the caller,
    // p > 0 is worker p - 1.
    let participants = send_workers + 1;
    let sent = chunks - chunks.div_ceil(participants);
    PAR_CALLS.fetch_add(1, Ordering::Relaxed);
    CHUNKS_DISPATCHED.fetch_add(sent as u64, Ordering::Relaxed);

    // Even split: the first `rem` chunks get one extra index.
    let base = n / chunks;
    let rem = n % chunks;
    let bounds = |i: usize| -> usize { i * base + i.min(rem) };

    let erased: &(dyn Fn(Range<usize>) + Sync) = &f;
    // SAFETY: we block on `done` for every dispatched task below, so the
    // erased borrow cannot outlive `f`.
    let erased: *const (dyn Fn(Range<usize>) + Sync) =
        unsafe { std::mem::transmute(erased) };

    let (done_tx, done_rx) = channel();
    {
        let mut workers = pool().workers.lock().unwrap();
        while workers.len() < send_workers {
            let idx = workers.len();
            workers.push(spawn_worker(idx));
        }
        // Deterministic assignment: chunk i always lands on the same
        // participant, so each worker sees the same chunk sizes (and thus
        // requests the same pooled buffer lengths) every step.
        for i in (1..chunks).filter(|i| i % participants != 0) {
            workers[i % participants - 1]
                .send(Task {
                    func: erased,
                    range: bounds(i)..bounds(i + 1),
                    done: done_tx.clone(),
                })
                .expect("urcl worker thread died");
        }
    }
    drop(done_tx);

    // The caller runs its chunks while workers run the rest.
    for i in (0..chunks).step_by(participants) {
        f(bounds(i)..bounds(i + 1));
    }

    let wait_start = std::time::Instant::now();
    let mut panic: Option<String> = None;
    for _ in 0..sent {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic = Some(msg),
            Err(_) => panic = Some("worker task dropped without completing".into()),
        }
    }
    PAR_WAIT_NS.fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if let Some(msg) = panic {
        panic!("parallel_for worker panicked: {msg}");
    }
}

/// A `Send`/`Sync` raw-pointer wrapper for writing disjoint regions of one
/// output buffer from several chunks. The *caller* must guarantee chunks
/// touch non-overlapping regions — every kernel in this crate parallelizes
/// over disjoint output rows/batches, which satisfies this by construction.
#[derive(Clone, Copy)]
pub struct SendPtr(pub *mut f32);

// SAFETY: see type docs; disjointness is the caller's contract.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// A mutable subslice starting at `offset` with length `len`.
    ///
    /// # Safety
    /// The region `[offset, offset + len)` must be in bounds and not
    /// concurrently accessed by any other chunk.
    #[inline]
    pub unsafe fn slice(&self, offset: usize, len: usize) -> &'static mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// Runs `f` over disjoint mutable chunks of `out`, each paired with its
/// index range — the common "fill an output buffer in parallel" pattern.
/// Centralizes the [`SendPtr`] dance so kernels don't repeat the unsafe
/// block; chunk boundaries follow [`parallel_for`], so writes are
/// disjoint by construction and results are deterministic.
pub fn par_fill<F>(out: &mut [f32], grain: usize, f: F)
where
    F: Fn(&mut [f32], Range<usize>) + Sync,
{
    let n = out.len();
    let ptr = SendPtr(out.as_mut_ptr());
    parallel_for(n, grain, |r| {
        // SAFETY: parallel_for chunks are disjoint subranges of 0..n.
        let dst = unsafe { ptr.slice(r.start, r.len()) };
        f(dst, r);
    });
}

/// Elementwise work below this many elements is not worth dispatching.
pub const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Matmul work below this many scalar multiply-adds runs serially.
pub const PAR_MIN_FLOPS: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 1003;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(4);
        parallel_for(n, 1, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        set_threads(prev);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(1);
        let tid = std::thread::current().id();
        parallel_for(100, 1, |_r| {
            assert_eq!(std::thread::current().id(), tid);
        });
        set_threads(prev);
    }

    #[test]
    fn grain_bounds_chunk_count() {
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(8);
        let count = AtomicUsize::new(0);
        parallel_for(10, 5, |_r| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        set_threads(prev);
        assert!(count.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn zero_items_is_a_noop() {
        parallel_for(0, 1, |_r| panic!("must not run"));
    }

    #[test]
    fn worker_panic_propagates() {
        // The last chunk runs on a worker when the host has spare cores
        // and inline otherwise; the panic must surface either way.
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(4);
        let caught = std::panic::catch_unwind(|| {
            parallel_for(100, 1, |r| {
                if r.end == 100 {
                    panic!("boom in chunk");
                }
            });
        });
        set_threads(prev);
        assert!(caught.is_err());
    }

    #[test]
    fn nested_calls_degrade_inline() {
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(4);
        let total = AtomicUsize::new(0);
        parallel_for(8, 1, |outer| {
            for _ in outer {
                parallel_for(10, 1, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        set_threads(prev);
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn set_threads_clamps() {
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(0);
        assert_eq!(num_threads(), 1);
        set_threads(prev);
    }
}
