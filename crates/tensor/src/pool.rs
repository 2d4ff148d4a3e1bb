//! Tape-scoped buffer pooling: a per-thread free list of [`Buffer`]
//! storage blocks keyed by exact length, so steady-state training
//! performs zero heap allocation in the hot loop.
//!
//! ## Why
//!
//! Every autodiff op materializes its result into a fresh buffer, and a
//! training step records hundreds of nodes. Without reuse each step pays
//! malloc + page-fault + memset for every intermediate — and for buffers
//! above the allocator's mmap threshold (~128 KiB) the `mmap`/`munmap`
//! churn additionally serializes worker threads on the kernel's
//! address-space lock, which is exactly what flattened the 4-thread GEMM
//! curve. With the pool, a dropped [`crate::Tensor`] (or a GEMM packing
//! buffer) returns its storage to the current thread's free list, and the
//! next request for the same length pops it back in O(1).
//!
//! ## Alignment
//!
//! Buffers the pool allocates itself are 32-byte aligned ([`ALIGN`]) so
//! vectorized kernel loops (and the AVX2 transpose in [`crate::simd`])
//! start on a vector-register boundary. Alignment is a *performance*
//! contract, not a correctness one: storage adopted from a caller's
//! `Vec<f32>` (via [`Tensor::from_vec`](crate::Tensor::from_vec)) keeps
//! the allocator's natural alignment, and every vector load and store
//! is therefore unaligned — which is full speed on aligned data on
//! every AVX2 part. [`Buffer::is_aligned`] reports the actual state.
//!
//! ## Lifecycle
//!
//! * [`take_uninit`] / [`take_zeroed`] hand out a [`Buffer`] of exactly
//!   the requested length — recycled when a same-length buffer is free
//!   (*hit*), freshly allocated otherwise (*miss*).
//! * [`recycle`] returns a buffer to the free list. `Tensor`'s `Drop`
//!   impl calls this, so dropping a whole [`crate::autodiff::Tape`] at
//!   the end of a step refills the pool for the next step — the
//!   "tape-scoped" part of the design.
//! * Buffers handed out by [`take_uninit`] hold unspecified (but
//!   initialized) `f32` values; callers must overwrite every element.
//!
//! Free lists are thread-local (no locking; GEMM workers reuse their own
//! packing buffers), while the hit/miss/recycled/peak counters are global
//! relaxed atomics so `urcl-trace` can export one process-wide view.
//!
//! ## Determinism
//!
//! Pooling never changes numerics: pooled buffers are either zeroed on
//! hand-out or fully overwritten by the kernel that requested them, and
//! no computation order depends on whether a buffer came from the free
//! list or the allocator (alignment only shifts which *addresses* a loop
//! touches, never the arithmetic sequence). `tests/pool_determinism.rs`
//! asserts a full train step is bitwise identical whether recycled
//! buffers hold stale values or NaN poison ([`set_pool_poison`]), at 1
//! and 4 threads.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::collections::HashMap;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Byte alignment of pool-allocated buffers (one AVX2 `__m256` register).
pub const ALIGN: usize = 32;

/// Owned `f32` storage: either a 32-byte-aligned block the pool allocated
/// itself, or storage adopted from a caller's `Vec<f32>`. Dereferences to
/// `[f32]`, so existing slice-based code works unchanged.
///
/// The two-origin design lets [`crate::Tensor`] keep its zero-copy
/// `from_vec`/`into_vec` API while everything the pool hands out meets
/// the SIMD alignment contract (see the module docs).
pub struct Buffer {
    ptr: NonNull<f32>,
    len: usize,
    /// Allocation capacity in elements. For aligned blocks this equals
    /// `len`; for adopted `Vec`s it is the vector's capacity (needed to
    /// rebuild the `Vec` for deallocation).
    cap: usize,
    /// True when this block came from the aligned allocator and must be
    /// freed with the matching [`Layout`].
    aligned: bool,
}

// SAFETY: `Buffer` is an owned, uniquely-referenced allocation of `f32`
// (no interior mutability, no shared state) — exactly as `Vec<f32>`,
// which is Send + Sync.
unsafe impl Send for Buffer {}
unsafe impl Sync for Buffer {}

impl Buffer {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Buffer {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
            aligned: false,
        }
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f32>(), ALIGN)
            .expect("buffer layout overflow")
    }

    /// Allocates a zero-filled, 32-byte-aligned buffer of `len` elements.
    fn zeroed_aligned(len: usize) -> Self {
        if len == 0 {
            return Buffer::new();
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout);
        };
        Buffer {
            ptr,
            len,
            cap: len,
            aligned: true,
        }
    }

    /// Adopts a `Vec<f32>` without copying. The storage keeps the
    /// allocator's natural alignment and is freed through `Vec`'s layout
    /// on drop.
    pub fn from_vec(v: Vec<f32>) -> Self {
        let mut v = ManuallyDrop::new(v);
        let len = v.len();
        let cap = v.capacity();
        // SAFETY: Vec's pointer is non-null (dangling-but-aligned for
        // cap == 0, which Drop never frees).
        let ptr = unsafe { NonNull::new_unchecked(v.as_mut_ptr()) };
        Buffer {
            ptr,
            len,
            cap,
            aligned: false,
        }
    }

    /// Converts into a `Vec<f32>`. Zero-copy for adopted `Vec` storage;
    /// aligned pool blocks are copied (their layout is not `Vec`'s).
    pub fn into_vec(self) -> Vec<f32> {
        if self.aligned {
            return self.as_slice().to_vec(); // `self` dropped normally
        }
        let b = ManuallyDrop::new(self);
        if b.cap == 0 {
            return Vec::new();
        }
        // SAFETY: non-aligned storage was created by `Vec::from` parts
        // (ptr, len, cap) in `from_vec` and never resized since.
        unsafe { Vec::from_raw_parts(b.ptr.as_ptr(), b.len, b.cap) }
    }

    /// Number of `f32` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the storage start is 32-byte aligned (always true for
    /// pool-allocated blocks; incidental for adopted `Vec`s).
    #[inline]
    pub fn is_aligned(&self) -> bool {
        (self.ptr.as_ptr() as usize) % ALIGN == 0
    }

    #[inline]
    fn as_slice(&self) -> &[f32] {
        // SAFETY: ptr/len describe a live, initialized allocation (or a
        // dangling ptr with len 0, for which from_raw_parts is valid).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as `as_slice`, plus unique ownership for mutation.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.cap == 0 {
            return;
        }
        if self.aligned {
            // SAFETY: allocated in `zeroed_aligned` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.cap)) };
        } else {
            // SAFETY: reconstructing the Vec from `from_vec`'s parts.
            drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), self.len, self.cap) });
        }
    }
}

impl Deref for Buffer {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for Buffer {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl Default for Buffer {
    fn default() -> Self {
        Buffer::new()
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        // Clones go through the pool so a cloned Tensor's storage is
        // recyclable (and aligned) like any other.
        let mut out = take_uninit(self.len);
        out.copy_from_slice(self);
        out
    }
}

impl From<Vec<f32>> for Buffer {
    fn from(v: Vec<f32>) -> Self {
        Buffer::from_vec(v)
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f32]> for Buffer {
    fn eq(&self, other: &[f32]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<f32>> for Buffer {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Cumulative counters (process-global; free lists are thread-local).
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_RECYCLED: AtomicU64 = AtomicU64::new(0);
static LIVE_F32: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_F32: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Free buffers of this thread, keyed by exact length.
    static FREE: RefCell<HashMap<usize, Vec<Buffer>>> = RefCell::new(HashMap::new());
}

/// Poison state: 0 = off (default), 1 = on. Test-only; no env var.
static POISON: AtomicUsize = AtomicUsize::new(0);

/// Whether NaN-poisoning of pool hand-outs and returns is active.
#[inline]
pub fn pool_poison_enabled() -> bool {
    POISON.load(Ordering::Relaxed) == 1
}

/// Turns NaN-poisoning on or off, returning the previous setting.
///
/// With poisoning on, every buffer is filled with NaN at two points:
/// when it is handed out *without* a zero request ([`take_uninit`]),
/// and when it is returned via [`recycle`]. Both a kernel that reads a
/// slot of a `take_uninit` buffer before writing it and any code that
/// keeps reading a buffer after its owner released it then observe NaN
/// instead of stale-but-plausible floats, so alias/lifetime bugs in
/// buffer-reuse schedules (notably the plan compiler's precomputed drop
/// points) surface as NaN in outputs rather
/// than silently correct-looking numbers. Intended for property tests;
/// leave off in normal runs — the extra fills cost bandwidth.
pub fn set_pool_poison(on: bool) -> bool {
    let prev = pool_poison_enabled();
    POISON.store(if on { 1 } else { 0 }, Ordering::Relaxed);
    prev
}

/// Cumulative buffer-pool statistics since process start (or the last
/// [`reset_buffer_pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Requests served by popping a recycled same-length buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh heap allocation.
    pub misses: u64,
    /// Bytes returned to free lists by [`recycle`] over the pool's
    /// lifetime (a churn measure, not a resident-size measure).
    pub bytes_recycled: u64,
    /// `f32` elements currently handed out by the pool and not yet
    /// recycled (the live tensor working set, pool's-eye view).
    pub live_f32: u64,
    /// High-water mark of [`Self::live_f32`].
    pub peak_live_f32: u64,
}

/// Reads the cumulative pool counters.
pub fn buffer_pool_stats() -> BufferPoolStats {
    BufferPoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_recycled: BYTES_RECYCLED.load(Ordering::Relaxed),
        live_f32: LIVE_F32.load(Ordering::Relaxed),
        peak_live_f32: PEAK_LIVE_F32.load(Ordering::Relaxed),
    }
}

/// Zeroes the cumulative pool counters (including the live/peak gauges;
/// buffers still outstanding will saturate at zero when recycled).
pub fn reset_buffer_pool_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    BYTES_RECYCLED.store(0, Ordering::Relaxed);
    LIVE_F32.store(0, Ordering::Relaxed);
    PEAK_LIVE_F32.store(0, Ordering::Relaxed);
}

/// Drops every buffer cached by the *current thread's* free lists,
/// releasing their memory to the allocator. Other threads' caches are
/// untouched (they are thread-local by design).
pub fn trim_thread_pool() {
    FREE.with(|f| f.borrow_mut().clear());
}

/// Shrinks the current thread's free lists until at most
/// `max_resident_f32` elements remain, dropping buffers from the largest
/// length buckets first (deterministic order: length descending, newest
/// buffer in a bucket first). Free lists are keyed by exact length, so a
/// batch-polymorphic plan replaying at a new batch size strands the old
/// size's buffers; trimming at a quiesce point (the trainer does it per
/// period) bounds that residue without the full-flush alloc storm of
/// [`trim_thread_pool`]. Only hit/miss accounting is affected — never
/// values — so trimming is bitwise-neutral.
pub fn trim_excess(max_resident_f32: usize) {
    FREE.with(|f| {
        let mut map = f.borrow_mut();
        let mut resident: usize = map
            .values()
            .flat_map(|bucket| bucket.iter().map(|b| b.len()))
            .sum();
        if resident <= max_resident_f32 {
            return;
        }
        let mut lens: Vec<usize> = map.keys().copied().collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        for len in lens {
            let Some(bucket) = map.get_mut(&len) else { continue };
            while resident > max_resident_f32 {
                match bucket.pop() {
                    Some(b) => resident -= b.len(),
                    None => break,
                }
            }
            if bucket.is_empty() {
                map.remove(&len);
            }
            if resident <= max_resident_f32 {
                return;
            }
        }
    });
}

/// Number of `f32` elements resident in the current thread's free lists.
pub fn thread_pool_resident_f32() -> usize {
    FREE.with(|f| {
        f.borrow()
            .values()
            .flat_map(|bucket| bucket.iter().map(|b| b.len()))
            .sum()
    })
}

fn note_live(len: usize) {
    let live = LIVE_F32.fetch_add(len as u64, Ordering::Relaxed) + len as u64;
    PEAK_LIVE_F32.fetch_max(live, Ordering::Relaxed);
}

/// A buffer of exactly `len` elements with **unspecified contents**; the
/// caller must overwrite every element before reading any. Pops a
/// recycled buffer when one of this exact length is free, otherwise
/// allocates (32-byte aligned). `take_uninit(0)` is an empty buffer and
/// touches no counter.
pub fn take_uninit(len: usize) -> Buffer {
    take(len, false)
}

/// A buffer of exactly `len` elements, all `0.0` — the pooled equivalent
/// of `vec![0.0; len]`.
pub fn take_zeroed(len: usize) -> Buffer {
    take(len, true)
}

fn take(len: usize, zero: bool) -> Buffer {
    if len == 0 {
        return Buffer::new();
    }
    let recycled = FREE.with(|f| {
        f.borrow_mut()
            .get_mut(&len)
            .and_then(|bucket| bucket.pop())
    });
    note_live(len);
    let mut b = match recycled {
        Some(mut b) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            debug_assert_eq!(b.len(), len, "pool bucket holds wrong-length buffer");
            if zero {
                b.fill(0.0);
            }
            b
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Buffer::zeroed_aligned(len)
        }
    };
    if !zero && pool_poison_enabled() {
        b.fill(f32::NAN);
    }
    b
}

/// Returns a buffer to the current thread's free list for reuse by a
/// later same-length [`take_uninit`]/[`take_zeroed`]. Empty buffers are
/// simply dropped.
pub fn recycle(mut b: Buffer) {
    let len = b.len();
    if len == 0 {
        return;
    }
    if pool_poison_enabled() {
        // Make any read-after-release visible as NaN rather than stale
        // (often still-plausible) values.
        b.fill(f32::NAN);
    }
    BYTES_RECYCLED.fetch_add(4 * len as u64, Ordering::Relaxed);
    // Saturating: a buffer taken before a counter reset must not wrap the
    // live gauge below zero.
    let _ = LIVE_F32.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(len as u64))
    });
    FREE.with(|f| f.borrow_mut().entry(len).or_default().push(b));
}

#[cfg(test)]
mod tests {
    //! Free lists are thread-local, so these tests need no lock; the ones
    //! that assert the process-global counters live in
    //! `tests/pool_churn.rs`, a binary whose every test holds one lock.
    use super::*;

    #[test]
    fn zeroed_hand_out_is_clean() {
        trim_thread_pool();
        let mut v = take_uninit(16);
        v.fill(7.5);
        recycle(v);
        let z = take_zeroed(16);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pool_allocations_are_aligned() {
        trim_thread_pool();
        for len in [1, 7, 32, 100, 4096] {
            let b = take_uninit(len);
            assert!(b.is_aligned(), "pool block of len {len} not {ALIGN}B aligned");
            assert_eq!((b.as_ptr() as usize) % ALIGN, 0);
            recycle(b);
        }
    }

    #[test]
    fn vec_roundtrip_is_zero_copy_and_aligned_copy_preserves_data() {
        // Adopted Vec: into_vec must return the identical allocation.
        let v = vec![1.0f32, 2.0, 3.0];
        let ptr = v.as_ptr();
        let b = Buffer::from_vec(v);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0]);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "Vec-backed into_vec must not copy");
        // Aligned pool block: into_vec copies but preserves contents.
        trim_thread_pool();
        let mut a = take_uninit(4);
        a.copy_from_slice(&[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(a.into_vec(), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn trim_releases_cached_buffers() {
        trim_thread_pool();
        recycle(take_uninit(256));
        assert_eq!(thread_pool_resident_f32(), 256);
        trim_thread_pool();
        assert_eq!(thread_pool_resident_f32(), 0);
    }

    #[test]
    fn trim_excess_drops_largest_buckets_first() {
        trim_thread_pool();
        recycle(take_uninit(64));
        recycle(take_uninit(512));
        recycle(take_uninit(128));
        assert_eq!(thread_pool_resident_f32(), 704);
        // Budget big enough: nothing dropped.
        trim_excess(704);
        assert_eq!(thread_pool_resident_f32(), 704);
        // Drops the 512 bucket first, keeping the small buckets.
        trim_excess(200);
        assert_eq!(thread_pool_resident_f32(), 192);
        trim_excess(0);
        assert_eq!(thread_pool_resident_f32(), 0);
    }
}
