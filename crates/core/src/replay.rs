//! The replay buffer ℬ: an explicit memory holding a subset of previously
//! learned observations (Section IV-B). Organised as a bounded FIFO queue
//! of size 256 in the paper (Section V-A4) — once full, the oldest
//! observation is evicted.

use std::borrow::Borrow;
use std::collections::VecDeque;
use urcl_stdata::{stack_samples, Batch, Sample};
use urcl_tensor::Rng;

/// Bounded FIFO buffer of previously trained observations.
#[derive(Clone)]
pub struct ReplayBuffer {
    entries: VecDeque<Sample>,
    capacity: usize,
}

impl ReplayBuffer {
    /// Creates a buffer with the given capacity (the paper uses 256).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Rebuilds a buffer from checkpointed contents. `samples` are in
    /// eviction order (oldest first), exactly as produced by
    /// [`Self::iter`]. Panics if more samples than `capacity` are given —
    /// a well-formed checkpoint can never contain them.
    pub fn from_samples(capacity: usize, samples: Vec<Sample>) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        assert!(
            samples.len() <= capacity,
            "checkpoint holds {} samples but capacity is {capacity}",
            samples.len()
        );
        Self {
            entries: samples.into(),
            capacity,
        }
    }

    /// Maximum number of stored observations.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts one observation, evicting the oldest when full. Per
    /// Section IV-B the buffer stores the *original* (pre-STMixup)
    /// observations.
    pub fn push(&mut self, sample: Sample) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(sample);
    }

    /// Inserts a clone of every sample of a slice, owned or borrowed.
    pub fn extend<S: Borrow<Sample>>(&mut self, samples: &[S]) {
        for s in samples {
            self.push(s.borrow().clone());
        }
    }

    /// Observation at a stable index (0 = oldest). Panics with a clear
    /// message when the index is past the current occupancy — callers must
    /// draw indices against [`Self::len`], never [`Self::capacity`].
    pub fn get(&self, idx: usize) -> &Sample {
        assert!(
            idx < self.entries.len(),
            "replay index {idx} out of range (occupancy {}, capacity {})",
            self.entries.len(),
            self.capacity
        );
        &self.entries[idx]
    }

    /// Draws `k` distinct observations uniformly (the baseline sampler the
    /// RMIR ablation w/o_RMIR falls back to).
    ///
    /// Underfull buffers are explicit, not an error: the draw is clamped
    /// to the current occupancy, so an empty buffer yields `[]`, a buffer
    /// holding one observation yields at most that observation, and
    /// `k >= len` returns every stored observation (in random order). The
    /// RNG is only consumed when something is actually drawn, keeping
    /// fixed-seed streams reproducible across occupancy levels.
    pub fn sample_uniform(&self, k: usize, rng: &mut Rng) -> Vec<Sample> {
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        rng.sample_indices(self.len(), k)
            .into_iter()
            .map(|i| self.entries[i].clone())
            .collect()
    }

    /// Stacks the observations at `indices` into a batch. Panics (via
    /// [`Self::get`]) if any index is past the current occupancy; an empty
    /// index list panics in `stack_samples` — sample first, then gather.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        let samples: Vec<&Sample> = indices.iter().map(|&i| self.get(i)).collect();
        stack_samples(&samples)
    }

    /// Stacks the entire buffer into one batch (used by RMIR to score all
    /// candidates in a single forward pass).
    pub fn as_batch(&self) -> Option<Batch> {
        if self.is_empty() {
            return None;
        }
        let samples: Vec<&Sample> = self.entries.iter().collect();
        Some(stack_samples(&samples))
    }

    /// Iterates stored observations oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::Tensor;

    fn sample(tag: f32) -> Sample {
        Sample {
            x: Tensor::full(&[2, 3, 1], tag),
            y: Tensor::full(&[1, 3], tag),
        }
    }

    #[test]
    fn fifo_eviction() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(sample(i as f32));
        }
        assert_eq!(buf.len(), 3);
        // Oldest remaining is tag 2.
        assert_eq!(buf.get(0).x.data()[0], 2.0);
        assert_eq!(buf.get(2).x.data()[0], 4.0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut buf = ReplayBuffer::new(4);
        let samples: Vec<Sample> = (0..10).map(|i| sample(i as f32)).collect();
        buf.extend(&samples);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), 4);
    }

    #[test]
    fn uniform_sampling_bounds() {
        let mut buf = ReplayBuffer::new(8);
        buf.extend(&(0..5).map(|i| sample(i as f32)).collect::<Vec<_>>());
        let mut rng = Rng::seed_from_u64(1);
        let got = buf.sample_uniform(3, &mut rng);
        assert_eq!(got.len(), 3);
        // Asking for more than stored returns everything.
        let all = buf.sample_uniform(99, &mut rng);
        assert_eq!(all.len(), 5);
        // Empty buffer returns nothing.
        let empty = ReplayBuffer::new(4);
        assert!(empty.sample_uniform(2, &mut rng).is_empty());
    }

    #[test]
    fn gather_and_as_batch() {
        let mut buf = ReplayBuffer::new(8);
        buf.extend(&(0..4).map(|i| sample(i as f32)).collect::<Vec<_>>());
        let b = buf.gather(&[3, 0]);
        assert_eq!(b.x.shape(), &[2, 2, 3, 1]);
        assert_eq!(b.x.data()[0], 3.0);
        let full = buf.as_batch().unwrap();
        assert_eq!(full.len(), 4);
        assert!(ReplayBuffer::new(2).as_batch().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }

    /// Occupancy sweep 0, 1, capacity-1, capacity: sampling behaviour must
    /// be explicit at every fill level.
    #[test]
    fn sampling_across_occupancy_levels() {
        let cap = 4;
        let mut rng = Rng::seed_from_u64(7);
        for occupancy in [0usize, 1, cap - 1, cap] {
            let mut buf = ReplayBuffer::new(cap);
            buf.extend(&(0..occupancy).map(|i| sample(i as f32)).collect::<Vec<_>>());
            assert_eq!(buf.len(), occupancy);
            // Ask for fewer, exactly, and more than stored.
            for k in [0usize, 1, occupancy, occupancy + 3] {
                let got = buf.sample_uniform(k, &mut rng);
                assert_eq!(got.len(), k.min(occupancy), "occ {occupancy}, k {k}");
            }
            // as_batch mirrors the same rule: None when empty, else all.
            match buf.as_batch() {
                None => assert_eq!(occupancy, 0),
                Some(b) => assert_eq!(b.len(), occupancy),
            }
        }
    }

    #[test]
    fn empty_buffer_sampling_consumes_no_rng() {
        let buf = ReplayBuffer::new(4);
        let mut a = Rng::seed_from_u64(3);
        let mut b = Rng::seed_from_u64(3);
        assert!(buf.sample_uniform(5, &mut a).is_empty());
        // The stream was untouched: both generators still agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "out of range (occupancy 2, capacity 4)")]
    fn get_past_occupancy_panics_clearly() {
        let mut buf = ReplayBuffer::new(4);
        buf.extend(&[sample(0.0), sample(1.0)]);
        let _ = buf.get(2); // within capacity, past occupancy
    }

    #[test]
    fn from_samples_restores_contents_and_eviction_order() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(sample(i as f32));
        }
        let rebuilt = ReplayBuffer::from_samples(buf.capacity(), buf.iter().cloned().collect());
        assert_eq!(rebuilt.len(), buf.len());
        assert_eq!(rebuilt.capacity(), 3);
        for i in 0..buf.len() {
            assert_eq!(rebuilt.get(i).x.data(), buf.get(i).x.data());
        }
        // Eviction continues from the restored order.
        let mut rebuilt = rebuilt;
        rebuilt.push(sample(9.0));
        assert_eq!(rebuilt.get(0).x.data()[0], 3.0);
        assert_eq!(rebuilt.get(2).x.data()[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "capacity is 2")]
    fn from_samples_overflow_rejected() {
        let _ = ReplayBuffer::from_samples(2, (0..3).map(|i| sample(i as f32)).collect());
    }
}
