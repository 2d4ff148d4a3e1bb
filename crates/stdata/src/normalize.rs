//! Min-max normalisation to the unit interval (Section V-A4: "we normalize
//! the streaming data into \[0,1\] to facilitate the feature learning").
//!
//! Statistics are fit per channel, conventionally on the base set only —
//! in a streaming setting future data is unseen at fit time. Errors
//! measured in normalized space convert back to physical units by
//! multiplying with the target channel's range (min-max scaling is
//! affine, so MAE/RMSE scale linearly).

use urcl_tensor::Tensor;

/// Per-channel min-max scaler for `[T, N, C]` series.
#[derive(Debug, Clone)]
pub struct Normalizer {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

impl Normalizer {
    /// Fits per-channel minima/maxima on a `[T, N, C]` series.
    pub fn fit(series: &Tensor) -> Self {
        assert_eq!(series.ndim(), 3, "series must be [T, N, C]");
        let c = series.shape()[2];
        let mut mins = vec![f32::INFINITY; c];
        let mut maxs = vec![f32::NEG_INFINITY; c];
        for (i, &v) in series.data().iter().enumerate() {
            let ch = i % c;
            mins[ch] = mins[ch].min(v);
            maxs[ch] = maxs[ch].max(v);
        }
        for ch in 0..c {
            if !mins[ch].is_finite() || maxs[ch] - mins[ch] < 1e-9 {
                // Degenerate channel: identity mapping around its value.
                maxs[ch] = mins[ch] + 1.0;
            }
        }
        Self { mins, maxs }
    }

    /// Rebuilds a normalizer from checkpointed statistics. The vectors
    /// must be per-channel pairs with `min < max` (as [`Self::fit`]
    /// guarantees, including for degenerate channels).
    pub fn from_stats(mins: Vec<f32>, maxs: Vec<f32>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "mins/maxs must pair per channel");
        assert!(!mins.is_empty(), "normalizer needs at least one channel");
        for (ch, (lo, hi)) in mins.iter().zip(&maxs).enumerate() {
            assert!(
                lo.is_finite() && hi.is_finite() && lo < hi,
                "channel {ch} stats invalid: min {lo}, max {hi}"
            );
        }
        Self { mins, maxs }
    }

    /// Per-channel minima (checkpoint serialization).
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-channel maxima (checkpoint serialization).
    pub fn maxs(&self) -> &[f32] {
        &self.maxs
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.mins.len()
    }

    /// Scale (max − min) of a channel; multiplying a normalized MAE/RMSE
    /// by this returns it to physical units.
    pub fn scale(&self, channel: usize) -> f32 {
        self.maxs[channel] - self.mins[channel]
    }

    /// Normalises a `[T, N, C]` (or `[.., C]`-last) tensor channelwise,
    /// clamping to `[0, 1]` so drifted streams stay in range.
    pub fn transform(&self, series: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(series.shape());
        self.transform_into(series, out.data_mut());
        out
    }

    /// Writes the channelwise-normalized values of a `[.., C]`-last
    /// tensor into `out` (of the same length): the values
    /// [`Self::transform`] returns. The batched serving path uses this to
    /// normalize many windows straight into one stacked `[B, M, N, C]`
    /// tensor.
    pub fn transform_into(&self, series: &Tensor, out: &mut [f32]) {
        let c = self.num_channels();
        assert_eq!(
            series.shape().last(),
            Some(&c),
            "last axis must be the channel axis"
        );
        assert_eq!(out.len(), series.len(), "output length mismatch");
        for (i, (o, &v)) in out.iter_mut().zip(series.data()).enumerate() {
            let ch = i % c;
            *o = ((v - self.mins[ch]) / (self.maxs[ch] - self.mins[ch])).clamp(0.0, 1.0);
        }
    }

    /// Maps a normalized `[.., C]`-last tensor back to physical units on
    /// every channel — the inverse of [`Self::transform`] for data that
    /// was inside the fitted range (clamped values are not recoverable).
    pub fn inverse_transform(&self, series: &Tensor) -> Tensor {
        let c = self.num_channels();
        assert_eq!(
            series.shape().last(),
            Some(&c),
            "last axis must be the channel axis"
        );
        let mut out = series.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            let ch = i % c;
            *v = *v * (self.maxs[ch] - self.mins[ch]) + self.mins[ch];
        }
        out
    }

    /// Maps a normalized target-channel tensor back to physical units.
    pub fn inverse_target(&self, y: &Tensor, channel: usize) -> Tensor {
        let min = self.mins[channel];
        let scale = self.scale(channel);
        y.map(|v| v * scale + min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Tensor {
        // [T=2, N=2, C=2]; channel 0 in [0, 30], channel 1 in [100, 130].
        Tensor::from_vec(
            vec![0.0, 100.0, 10.0, 110.0, 20.0, 120.0, 30.0, 130.0],
            &[2, 2, 2],
        )
    }

    #[test]
    fn fit_and_transform_to_unit_interval() {
        let s = series();
        let norm = Normalizer::fit(&s);
        let t = norm.transform(&s);
        assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 1, 0]), 1.0);
        assert_eq!(norm.scale(0), 30.0);
        assert_eq!(norm.scale(1), 30.0);
    }

    #[test]
    fn out_of_range_values_clamped() {
        let s = series();
        let norm = Normalizer::fit(&s);
        let drifted = s.map(|v| v * 2.0);
        let t = norm.transform(&drifted);
        assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn inverse_target_roundtrip() {
        let s = series();
        let norm = Normalizer::fit(&s);
        let t = norm.transform(&s);
        // Extract channel 0 normalized values and invert.
        let y = t.index_select(2, &[0]).reshape(&[2, 2]);
        let back = norm.inverse_target(&y, 0);
        let orig = s.index_select(2, &[0]).reshape(&[2, 2]);
        for (a, b) in back.data().iter().zip(orig.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// ULP distance between two finite f32s (0 = bitwise identical).
    fn ulp_distance(a: f32, b: f32) -> u32 {
        // Map the sign-magnitude bit pattern onto a monotonic integer line.
        fn key(x: f32) -> i64 {
            let bits = x.to_bits() as i32;
            (if bits < 0 {
                i32::MIN.wrapping_sub(bits)
            } else {
                bits
            }) as i64
        }
        (key(a) - key(b)).unsigned_abs().min(u32::MAX as u64) as u32
    }

    #[test]
    fn inverse_transform_roundtrips_within_one_ulp() {
        // In-range data (no clamping): denormalize ∘ normalize must be the
        // identity to within one ulp per element.
        let mut rng = urcl_tensor::Rng::seed_from_u64(17);
        let mut data = Vec::new();
        for i in 0..4 * 5 * 2 {
            let base = if i % 2 == 0 { 60.0 } else { 900.0 };
            data.push(base * (0.1 + 0.9 * rng.uniform()));
        }
        let s = Tensor::from_vec(data, &[4, 5, 2]);
        let norm = Normalizer::fit(&s);
        let back = norm.inverse_transform(&norm.transform(&s));
        for (i, (a, b)) in back.data().iter().zip(s.data()).enumerate() {
            assert!(
                ulp_distance(*a, *b) <= 1,
                "element {i}: {a} vs {b} differ by more than 1 ulp"
            );
        }
    }

    #[test]
    fn stats_roundtrip_through_from_stats_is_bitwise() {
        let s = series();
        let norm = Normalizer::fit(&s);
        let rebuilt = Normalizer::from_stats(norm.mins().to_vec(), norm.maxs().to_vec());
        for ch in 0..norm.num_channels() {
            assert_eq!(norm.mins()[ch].to_bits(), rebuilt.mins()[ch].to_bits());
            assert_eq!(norm.maxs()[ch].to_bits(), rebuilt.maxs()[ch].to_bits());
        }
        // Identical statistics ⇒ identical transforms, bit for bit.
        let a = norm.transform(&s);
        let b = rebuilt.transform(&s);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transform_into_matches_transform_bitwise() {
        let mut rng = urcl_tensor::Rng::seed_from_u64(3);
        let data: Vec<f32> = (0..3 * 4 * 2).map(|_| 200.0 * rng.uniform()).collect();
        let s = Tensor::from_vec(data, &[3, 4, 2]);
        let norm = Normalizer::fit(&s);
        let via_tensor = norm.transform(&s);
        let mut via_slice = vec![0.0; s.len()];
        norm.transform_into(&s, &mut via_slice);
        assert_eq!(via_slice.len(), via_tensor.data().len());
        for (a, b) in via_slice.iter().zip(via_tensor.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "stats invalid")]
    fn from_stats_rejects_inverted_range() {
        let _ = Normalizer::from_stats(vec![1.0], vec![0.5]);
    }

    #[test]
    fn degenerate_channel_does_not_blow_up() {
        let s = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[2, 2, 1]);
        let norm = Normalizer::fit(&s);
        let t = norm.transform(&s);
        assert!(t.data().iter().all(|v| v.is_finite()));
    }
}
