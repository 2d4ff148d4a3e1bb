//! Property-style churn test for the buffer pool: drive a long random
//! sequence of takes and recycles across many lengths (xoshiro-seeded,
//! like `urcl-json`'s `proptest_roundtrip`) and check the two invariants
//! the rest of the crate relies on:
//!
//! 1. **exact lengths** — a handed-out buffer always has precisely the
//!    requested length, never a stale length from another bucket;
//! 2. **no aliasing while live** — two buffers that are simultaneously
//!    outstanding never share memory. Each live buffer is filled with a
//!    unique tag and must still hold it when everything else has been
//!    churned in between.
//!
//! It also pins the pool's process-global counters (hits, misses, bytes
//! recycled, the live gauge) to exact values. Only this binary's tests
//! touch the pool, and every one of them serializes on a file-local
//! mutex, so no other thread takes or recycles a buffer while a counter
//! test runs.

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::pool::{
    recycle, take_uninit, take_zeroed, thread_pool_resident_f32, trim_thread_pool,
};
use urcl_tensor::{buffer_pool_stats, reset_buffer_pool_stats, Rng, Tensor};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Lengths deliberately collide (several repeats) so buckets see real
/// reuse, and range from tiny to larger-than-grain.
fn draw_len(rng: &mut Rng) -> usize {
    const LENS: [usize; 10] = [1, 2, 3, 7, 7, 64, 100, 100, 4096, 20_000];
    LENS[rng.below(LENS.len())]
}

fn assert_tagged(buf: &[f32], tag: f32, len: usize) {
    assert_eq!(buf.len(), len, "buffer changed length while live");
    for (i, &v) in buf.iter().enumerate() {
        assert_eq!(
            v.to_bits(),
            tag.to_bits(),
            "live buffer clobbered at index {i}: expected tag {tag}, got {v} \
             (another buffer aliased this memory)"
        );
    }
}

#[test]
fn churned_buffers_keep_exact_lengths_and_never_alias() {
    let _guard = lock();
    trim_thread_pool();

    let mut rng = Rng::seed_from_u64(0x5EED_7);
    // (buffer, tag, requested length) for every outstanding take.
    let mut live: Vec<(urcl_tensor::pool::Buffer, f32, usize)> = Vec::new();
    let mut next_tag = 1.0f32;

    for step in 0..4000 {
        if live.is_empty() || rng.bernoulli(0.55) {
            let len = draw_len(&mut rng);
            let mut buf = if rng.bernoulli(0.5) {
                let b = take_zeroed(len);
                assert!(
                    b.iter().all(|v| v.to_bits() == 0),
                    "step {step}: take_zeroed handed out dirty memory"
                );
                b
            } else {
                take_uninit(len)
            };
            assert_eq!(buf.len(), len, "step {step}: wrong length handed out");
            let tag = next_tag;
            next_tag += 1.0;
            buf.fill(tag);
            live.push((buf, tag, len));
        } else {
            let idx = rng.below(live.len());
            let (buf, tag, len) = live.swap_remove(idx);
            assert_tagged(&buf, tag, len);
            recycle(buf);
        }
    }

    for (buf, tag, len) in live.drain(..) {
        assert_tagged(&buf, tag, len);
        recycle(buf);
    }

    trim_thread_pool();
}

/// The same aliasing property one level up: pool-backed [`Tensor`] clones
/// must be independent copies, and dropped tensors must not leave their
/// old contents visible through later allocations of a different shape.
#[test]
fn tensor_clones_stay_independent_under_churn() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x5EED_8);
    for _ in 0..300 {
        let len = draw_len(&mut rng);
        let original = rng.uniform_tensor(&[len], -3.0, 3.0);
        let reference: Vec<f32> = original.data().to_vec();
        let mut copy = original.clone();
        // Mutating the clone (and dropping fresh temporaries of the same
        // length, which recycle into the same bucket) must not write
        // through to the original.
        copy.data_mut().fill(f32::NAN);
        drop(copy);
        let churn = Tensor::zeros(&[len]);
        drop(churn);
        assert_eq!(original.data(), &reference[..], "clone aliased its source");
    }
}

#[test]
fn recycled_buffer_is_reused() {
    let _guard = lock();
    trim_thread_pool();
    reset_buffer_pool_stats();
    let a = take_uninit(128);
    let ptr = a.as_ptr();
    recycle(a);
    let b = take_uninit(128);
    assert_eq!(b.as_ptr(), ptr, "same-length request must reuse the buffer");
    assert_eq!(b.len(), 128);
    let stats = buffer_pool_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.bytes_recycled, 4 * 128);
    recycle(b);
}

#[test]
fn lengths_never_cross_buckets() {
    let _guard = lock();
    trim_thread_pool();
    reset_buffer_pool_stats();
    recycle(take_uninit(64));
    let v = take_uninit(63);
    assert_eq!(v.len(), 63);
    assert_eq!(buffer_pool_stats().hits, 0, "63 must not hit the 64 bucket");
}

#[test]
fn live_gauge_tracks_outstanding_and_saturates() {
    let _guard = lock();
    trim_thread_pool();
    reset_buffer_pool_stats();
    let a = take_uninit(100);
    let b = take_uninit(50);
    assert_eq!(buffer_pool_stats().live_f32, 150);
    assert_eq!(buffer_pool_stats().peak_live_f32, 150);
    recycle(a);
    assert_eq!(buffer_pool_stats().live_f32, 50);
    reset_buffer_pool_stats();
    recycle(b); // taken before the reset: must saturate, not wrap
    assert_eq!(buffer_pool_stats().live_f32, 0);
}

/// `Tensor::from_vec` copies a caller's `Vec` into a pool block, so
/// building and dropping tensors one at a time keeps reusing one block
/// instead of parking every dropped `Vec` on the free list.
#[test]
fn from_vec_tensors_reuse_one_block() {
    let _guard = lock();
    trim_thread_pool();
    for i in 0..100 {
        let t = Tensor::from_vec(vec![i as f32; 576], &[24, 24]);
        assert_eq!(t.data()[575], i as f32);
    }
    assert!(
        thread_pool_resident_f32() <= 576,
        "free list holds {} f32 after 100 from_vec tensors of 576",
        thread_pool_resident_f32()
    );
    trim_thread_pool();
}

/// A tensor dropped on a thread other than the one that allocated it
/// goes back to the allocator, not into the dropping thread's free list,
/// and still leaves the live gauge.
#[test]
fn tensors_dropped_on_another_thread_leave_its_free_list_empty() {
    let _guard = lock();
    trim_thread_pool();
    reset_buffer_pool_stats();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for i in 0..100 {
            tx.send(Tensor::full(&[8, 8], i as f32)).unwrap();
        }
    })
    .join()
    .unwrap();
    let received: Vec<Tensor> = rx.iter().collect();
    assert_eq!(received.len(), 100);
    assert_eq!(buffer_pool_stats().live_f32, 100 * 64);
    drop(received);
    assert_eq!(thread_pool_resident_f32(), 0, "foreign blocks were pooled");
    assert_eq!(buffer_pool_stats().live_f32, 0);
    assert_eq!(buffer_pool_stats().bytes_recycled, 0);
}
