//! STMixup (Section IV-B2, Eq. 4–5): interpolates current observations
//! with replayed ones, `x̃ = λ·x_M + (1−λ)·x_ℬ` with λ ~ Beta(α, α),
//! following Vicinal Risk Minimization to enlarge the training support and
//! regularise against concept drift.

use urcl_stdata::Batch;
use urcl_tensor::Rng;

/// Mixes a current batch with a replay batch (Eq. 5).
///
/// The replay batch may be smaller than the current one (early in the
/// stream the buffer is still filling); replayed rows are tiled cyclically
/// to match. One λ is drawn per call, matching the paper's formulation
/// over the whole sampled set. λ is folded to `max(λ, 1−λ)` so the
/// *current* observations always carry the larger weight — under the
/// paper's 100-epoch budget a replay-dominated batch is harmless, but at
/// our reduced epoch counts it starves adaptation to new regimes.
///
/// Returns the interpolated batch and the λ used.
pub fn st_mixup(current: &Batch, replay: &Batch, alpha: f32, rng: &mut Rng) -> (Batch, f32) {
    assert!(alpha > 0.0, "Beta concentration must be positive");
    assert!(
        !current.is_empty() && !replay.is_empty(),
        "empty batch in mixup"
    );
    assert_eq!(
        current.x.shape()[1..],
        replay.x.shape()[1..],
        "mixup sample shapes differ"
    );
    let raw = rng.beta(alpha, alpha);
    let lambda = raw.max(1.0 - raw);
    let b = current.len();
    let rb = replay.len();

    // Tile the replay batch up to the current batch size.
    let rows: Vec<usize> = (0..b).map(|i| i % rb).collect();
    let rx = replay.x.index_select(0, &rows);
    let ry = replay.y.index_select(0, &rows);

    let x = current.x.scale(lambda).add(&rx.scale(1.0 - lambda));
    let y = current.y.scale(lambda).add(&ry.scale(1.0 - lambda));
    (Batch { x, y }, lambda)
}

/// The w/o_STU ablation: instead of interpolating, concatenates the replay
/// batch onto the current one along the batch axis.
pub fn concat_replay(current: &Batch, replay: &Batch) -> Batch {
    assert_eq!(
        current.x.shape()[1..],
        replay.x.shape()[1..],
        "concat sample shapes differ"
    );
    Batch {
        x: urcl_tensor::Tensor::concat(&[&current.x, &replay.x], 0),
        y: urcl_tensor::Tensor::concat(&[&current.y, &replay.y], 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::Tensor;

    fn batch(b: usize, v: f32) -> Batch {
        Batch {
            x: Tensor::full(&[b, 2, 3, 1], v),
            y: Tensor::full(&[b, 1, 3], v),
        }
    }

    #[test]
    fn mixup_is_convex_combination() {
        let cur = batch(4, 1.0);
        let rep = batch(4, 0.0);
        let mut rng = Rng::seed_from_u64(1);
        let (mixed, lambda) = st_mixup(&cur, &rep, 0.8, &mut rng);
        assert!((0.0..=1.0).contains(&lambda));
        // Every x entry equals λ·1 + (1−λ)·0 = λ.
        assert!(mixed.x.data().iter().all(|&v| (v - lambda).abs() < 1e-6));
        assert!(mixed.y.data().iter().all(|&v| (v - lambda).abs() < 1e-6));
    }

    #[test]
    fn smaller_replay_batch_tiles() {
        let cur = batch(5, 2.0);
        let rep = batch(2, 0.0);
        let mut rng = Rng::seed_from_u64(2);
        let (mixed, _lambda) = st_mixup(&cur, &rep, 1.0, &mut rng);
        assert_eq!(mixed.x.shape()[0], 5);
        assert_eq!(mixed.y.shape()[0], 5);
    }

    #[test]
    fn identical_batches_are_fixed_point() {
        let cur = batch(3, 0.7);
        let mut rng = Rng::seed_from_u64(3);
        let (mixed, _) = st_mixup(&cur, &cur, 0.5, &mut rng);
        assert!(mixed.x.data().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn concat_replay_stacks_batches() {
        let cur = batch(3, 1.0);
        let rep = batch(2, 0.0);
        let cat = concat_replay(&cur, &rep);
        assert_eq!(cat.len(), 5);
        assert_eq!(cat.x.data()[0], 1.0);
        assert_eq!(*cat.x.data().last().unwrap(), 0.0);
    }

    #[test]
    fn lambda_folded_to_current_dominant_half() {
        let cur = batch(1, 1.0);
        let rep = batch(1, 0.0);
        let mut rng = Rng::seed_from_u64(4);
        let n = 2000;
        let lambdas: Vec<f32> = (0..n)
            .map(|_| st_mixup(&cur, &rep, 2.0, &mut rng).1)
            .collect();
        // Folding guarantees λ ∈ [0.5, 1]: current data always dominates.
        assert!(lambdas.iter().all(|&l| (0.5..=1.0).contains(&l)));
        let mean: f32 = lambdas.iter().sum::<f32>() / n as f32;
        // E[max(λ, 1−λ)] for Beta(2,2) is 11/16 = 0.6875.
        assert!((mean - 0.6875).abs() < 0.03, "λ mean {mean}");
    }
}
