//! Sliding-window samples and batching.
//!
//! The SSTP problem (Eq. 1) maps `M` historical observations to `N`
//! future observations of the target channel. A [`Sample`] is one such
//! (input, target) pair; [`stack_samples`] packs samples into the
//! `[B, M, N_nodes, C]` / `[B, H, N_nodes]` batch tensors the models
//! consume.

use std::borrow::Borrow;

use urcl_tensor::Tensor;

/// One supervised window: `x` is `[M, N, C]`, `y` is `[H, N]` holding the
/// target channel over the prediction horizon.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input window `[input_steps, num_nodes, num_channels]`.
    pub x: Tensor,
    /// Target window `[output_steps, num_nodes]` (target channel only).
    pub y: Tensor,
}

/// A stacked minibatch: `x` is `[B, M, N, C]`, `y` is `[B, H, N]`.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Inputs `[batch, input_steps, num_nodes, num_channels]`.
    pub x: Tensor,
    /// Targets `[batch, output_steps, num_nodes]`.
    pub y: Tensor,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.x.shape()[0]
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Extracts all sliding windows from a `[T, N, C]` series.
pub fn sliding_windows(
    series: &Tensor,
    input_steps: usize,
    output_steps: usize,
    target_channel: usize,
) -> Vec<Sample> {
    assert_eq!(series.ndim(), 3, "series must be [T, N, C]");
    let (t, n, c) = (series.shape()[0], series.shape()[1], series.shape()[2]);
    assert!(target_channel < c, "target channel out of range");
    let span = input_steps + output_steps;
    if t < span {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(t - span + 1);
    for start in 0..=(t - span) {
        let x = series.narrow(0, start, input_steps);
        let y = series
            .narrow(0, start + input_steps, output_steps)
            .index_select(2, &[target_channel])
            .reshape(&[output_steps, n]);
        out.push(Sample { x, y });
    }
    out
}

/// Stacks samples, owned or borrowed, into one batch. All samples must
/// share shapes.
pub fn stack_samples<S: Borrow<Sample>>(samples: &[S]) -> Batch {
    assert!(!samples.is_empty(), "cannot stack an empty batch");
    // One copy per part, straight into the batch tensor's pool block.
    let stack = |part: fn(&Sample) -> &Tensor, name: &str| {
        let each = part(samples[0].borrow()).shape();
        let parts: Vec<&Tensor> = samples.iter().map(|s| part(s.borrow())).collect();
        for t in &parts {
            assert_eq!(t.shape(), each, "inconsistent sample {name} shape");
        }
        let mut shape = vec![samples.len()];
        shape.extend_from_slice(each);
        Tensor::concat(&parts, 0).reshape(&shape)
    };
    Batch {
        x: stack(|s| &s.x, "x"),
        y: stack(|s| &s.y, "y"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series where value = t * 100 + node * 10 + channel, easy to trace.
    fn traceable_series(t: usize, n: usize, c: usize) -> Tensor {
        let data: Vec<f32> = (0..t * n * c)
            .map(|i| {
                let ch = i % c;
                let node = (i / c) % n;
                let step = i / (n * c);
                (step * 100 + node * 10 + ch) as f32
            })
            .collect();
        Tensor::from_vec(data, &[t, n, c])
    }

    #[test]
    fn window_count_and_contents() {
        let series = traceable_series(10, 3, 2);
        let ws = sliding_windows(&series, 4, 1, 1);
        assert_eq!(ws.len(), 10 - 5 + 1);
        let s0 = &ws[0];
        assert_eq!(s0.x.shape(), &[4, 3, 2]);
        assert_eq!(s0.y.shape(), &[1, 3]);
        // First target = step 4, channel 1.
        assert_eq!(s0.y.data(), &[401.0, 411.0, 421.0]);
        // Input covers steps 0..4.
        assert_eq!(s0.x.at(&[3, 2, 0]), 320.0);
    }

    #[test]
    fn last_window_reaches_series_end() {
        let series = traceable_series(8, 2, 1);
        let ws = sliding_windows(&series, 3, 2, 0);
        let last = ws.last().unwrap();
        // Last target steps are 6 and 7.
        assert_eq!(last.y.at(&[1, 1]), 710.0);
    }

    #[test]
    fn too_short_series_yields_nothing() {
        let series = traceable_series(4, 2, 1);
        assert!(sliding_windows(&series, 4, 1, 0).is_empty());
    }

    #[test]
    fn stack_shapes() {
        let series = traceable_series(10, 3, 2);
        let ws = sliding_windows(&series, 4, 1, 0);
        let batch = stack_samples(&ws[..3]);
        assert_eq!(batch.x.shape(), &[3, 4, 3, 2]);
        assert_eq!(batch.y.shape(), &[3, 1, 3]);
        assert_eq!(batch.len(), 3);
        // Row 1 of the batch equals sample 1.
        assert_eq!(batch.x.narrow(0, 1, 1).reshape(&[4, 3, 2]), ws[1].x);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn stack_empty_panics() {
        let _ = stack_samples::<Sample>(&[]);
    }
}
