//! The five spatio-temporal data augmentations of Section IV-C1
//! (Eq. 6–11): DropNodes (DN), DropEdges (DE), SubGraph (SG),
//! AddEdge (AE) and TimeShifting (TS).
//!
//! Spatial augmentations perturb the sensor graph; since every model's
//! parameter layout is tied to the node count, graph perturbations keep
//! `N` fixed: removed nodes/edges are *masked* (features and adjacency
//! entries zeroed) rather than deleted. The perturbed adjacency is turned
//! back into diffusion supports so the encoder convolves over the
//! augmented graph (`Backbone::encode_perturbed`).

use urcl_graph::{distant_pairs, random_walk_subgraph};
use urcl_graph::{SensorNetwork, SupportSet};
use urcl_tensor::{Rng, Tensor};

/// Which temporal transform TS applies (Section IV-C1, Eq. 9–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeShiftKind {
    /// Random contiguous slice, linearly re-interpolated to full length
    /// (time slicing, Eq. 9, followed by the warping of Eq. 10).
    Slice,
    /// A shorter slice upsampled more aggressively (time warping, Eq. 10).
    Warp,
    /// Reversed time order (time flipping, Eq. 11).
    Flip,
}

/// One augmentation method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Augmentation {
    /// DN: mask a proportion of nodes (features + adjacency, Eq. 6).
    DropNodes {
        /// Fraction of nodes to drop.
        ratio: f32,
    },
    /// DE: drop edges below the `ratio`-quantile weight threshold (Eq. 7).
    DropEdges {
        /// Quantile in `[0, 1)` defining the threshold θ_DE.
        ratio: f32,
    },
    /// SG: keep only a random-walk subgraph, masking everything else.
    SubGraph {
        /// Fraction of nodes the walk keeps.
        keep_ratio: f32,
    },
    /// AE: connect distant node pairs with dot-product weights (Eq. 8).
    AddEdges {
        /// Fraction of candidate distant pairs to connect.
        ratio: f32,
        /// Minimum hop distance for a pair to count as distant.
        min_hops: usize,
    },
    /// TS: temporal transform (a kind is drawn at application time).
    TimeShift,
}

/// An augmented observation: the transformed signal plus, for spatial
/// augmentations, the diffusion supports of the perturbed graph.
pub struct AugmentedView {
    /// Transformed input `[B, M, N, C]`.
    pub x: Tensor,
    /// Supports of the perturbed graph (`None` for temporal transforms —
    /// the original graph still applies — and when the caller asked for
    /// no supports).
    pub supports: Option<SupportSet>,
}

impl AugmentedView {
    /// This view as a recording at batch size `b`, like
    /// [`Tensor::at_batch`]: the view itself when its batch already is
    /// `b`, otherwise a same-structure stand-in with a zero signal and
    /// identical supports. The trainer's batch-polymorphic plan compile
    /// records the step graph a second time at `batch0 + 1` over these —
    /// only the shapes matter there; the compiler discards the values.
    pub fn at_batch(&self, b: usize) -> AugmentedView {
        AugmentedView {
            x: self.x.at_batch(b),
            supports: self.supports.clone(),
        }
    }
}

impl Augmentation {
    /// The paper's default augmentation pool with its example strengths
    /// (10% node drops, 3-hop distance for AE).
    pub fn default_set() -> [Augmentation; 5] {
        [
            Augmentation::DropNodes { ratio: 0.1 },
            Augmentation::DropEdges { ratio: 0.2 },
            Augmentation::SubGraph { keep_ratio: 0.8 },
            Augmentation::AddEdges {
                ratio: 0.05,
                min_hops: 3,
            },
            Augmentation::TimeShift,
        ]
    }

    /// Draws two *different* augmentations from the default pool
    /// (Section IV-C1: "randomly apply two different data augmentation
    /// methods").
    pub fn sample_two(rng: &mut Rng) -> (Augmentation, Augmentation) {
        let pool = Self::default_set();
        let idx = rng.sample_indices(pool.len(), 2);
        (pool[idx[0]], pool[idx[1]])
    }

    /// Applies the augmentation to a `[B, M, N, C]` batch over `net`,
    /// rebuilding `k_diffusion`-step supports when the graph changes. With
    /// `k_diffusion` `None` (a backbone without graph supports) a view
    /// carries no supports; the random draws are the same either way.
    pub fn apply(
        &self,
        x: &Tensor,
        net: &SensorNetwork,
        k_diffusion: impl Into<Option<usize>>,
        rng: &mut Rng,
    ) -> AugmentedView {
        let k_diffusion = k_diffusion.into();
        let diffusion = |net: &SensorNetwork| k_diffusion.map(|k| SupportSet::diffusion(net, k));
        assert_eq!(x.ndim(), 4, "augmentation input must be [B, M, N, C]");
        let n = net.num_nodes();
        assert_eq!(x.shape()[2], n, "node axis does not match network");
        match *self {
            Augmentation::DropNodes { ratio } => {
                let drop = ((ratio * n as f32).round() as usize).clamp(1, n.saturating_sub(1));
                let dropped = rng.sample_indices(n, drop);
                let mask: Vec<bool> = {
                    let mut m = vec![false; n];
                    for &d in &dropped {
                        m[d] = true;
                    }
                    m
                };
                AugmentedView {
                    x: mask_node_features(x, &mask),
                    supports: diffusion(&masked_net(net, &mask)),
                }
            }
            Augmentation::DropEdges { ratio } => {
                let adj = net.adjacency();
                let mut weights: Vec<f32> =
                    adj.data().iter().copied().filter(|&w| w > 0.0).collect();
                if weights.is_empty() {
                    return AugmentedView {
                        x: x.clone(),
                        supports: diffusion(net),
                    };
                }
                weights.sort_by(|a, b| a.total_cmp(b));
                let q = ((ratio.clamp(0.0, 0.99)) * weights.len() as f32) as usize;
                let theta = weights[q.min(weights.len() - 1)];
                // Eq. 7: weights strictly below θ_DE are removed.
                let pruned = adj.map(|w| if w < theta { 0.0 } else { w });
                let pruned_net = net.with_adjacency(pruned);
                AugmentedView {
                    x: x.clone(),
                    supports: diffusion(&pruned_net),
                }
            }
            Augmentation::SubGraph { keep_ratio } => {
                let keep = ((keep_ratio * n as f32).round() as usize).clamp(1, n);
                let start = rng.below(n);
                let kept = random_walk_subgraph(net, start, keep, rng);
                let mask: Vec<bool> = {
                    // Mask = NOT kept.
                    let mut m = vec![true; n];
                    for &k in &kept {
                        m[k] = false;
                    }
                    m
                };
                AugmentedView {
                    x: mask_node_features(x, &mask),
                    supports: diffusion(&masked_net(net, &mask)),
                }
            }
            Augmentation::AddEdges { ratio, min_hops } => {
                let pairs = distant_pairs(net, min_hops);
                if pairs.is_empty() {
                    return AugmentedView {
                        x: x.clone(),
                        supports: diffusion(net),
                    };
                }
                let count = ((ratio * pairs.len() as f32).round() as usize).clamp(1, pairs.len());
                let chosen = rng.sample_indices(pairs.len(), count);
                let feats = mean_node_features(x); // [N, C]
                let c = feats.shape()[1];
                let mut adj = net.adjacency().clone();
                for &pi in &chosen {
                    let (i, j) = pairs[pi];
                    // Eq. 8: weight = dot product of node feature vectors.
                    let mut w = 0.0;
                    for ch in 0..c {
                        w += feats.at(&[i, ch]) * feats.at(&[j, ch]);
                    }
                    let w = w.max(1e-3);
                    adj.data_mut()[i * n + j] = w;
                    adj.data_mut()[j * n + i] = w;
                }
                let aug_net = net.with_adjacency(adj);
                AugmentedView {
                    x: x.clone(),
                    supports: diffusion(&aug_net),
                }
            }
            Augmentation::TimeShift => {
                let kind = match rng.below(3) {
                    0 => TimeShiftKind::Slice,
                    1 => TimeShiftKind::Warp,
                    _ => TimeShiftKind::Flip,
                };
                AugmentedView {
                    x: time_shift(x, kind, rng),
                    supports: None,
                }
            }
        }
    }
}

/// Applies one temporal transform along the window axis.
pub fn time_shift(x: &Tensor, kind: TimeShiftKind, rng: &mut Rng) -> Tensor {
    let m = x.shape()[1];
    match kind {
        TimeShiftKind::Flip => x.flip(1),
        TimeShiftKind::Slice | TimeShiftKind::Warp => {
            // Warp takes a more aggressive (shorter) slice than Slice.
            let min_len = if kind == TimeShiftKind::Slice {
                (3 * m) / 4
            } else {
                m / 2
            }
            .max(2);
            let len = if min_len >= m {
                m
            } else {
                min_len + rng.below(m - min_len)
            };
            let start = rng.below(m - len + 1);
            let sliced = x.narrow(1, start, len);
            resize_time(&sliced, m)
        }
    }
}

/// Linear interpolation along the window axis to `new_m` steps (Eq. 10).
pub fn resize_time(x: &Tensor, new_m: usize) -> Tensor {
    let shape = x.shape();
    let (b, m) = (shape[0], shape[1]);
    let inner: usize = shape[2..].iter().product();
    if m == new_m {
        return x.clone();
    }
    let mut out_shape = shape.to_vec();
    out_shape[1] = new_m;
    let mut out = Tensor::zeros(&out_shape);
    let data = out.data_mut();
    for bi in 0..b {
        for t in 0..new_m {
            // Map output step to a fractional source position.
            let pos = if new_m == 1 {
                0.0
            } else {
                t as f32 * (m - 1) as f32 / (new_m - 1) as f32
            };
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(m - 1);
            let frac = pos - lo as f32;
            for k in 0..inner {
                let vlo = x.data()[(bi * m + lo) * inner + k];
                let vhi = x.data()[(bi * m + hi) * inner + k];
                data[(bi * new_m + t) * inner + k] = vlo * (1.0 - frac) + vhi * frac;
            }
        }
    }
    out
}

/// Zeroes the features of masked nodes in a `[B, M, N, C]` batch.
fn mask_node_features(x: &Tensor, dropped: &[bool]) -> Tensor {
    let shape = x.shape();
    let (n, c) = (shape[2], shape[3]);
    let mut out = x.clone();
    let data = out.data_mut();
    let rows = data.len() / (n * c);
    for r in 0..rows {
        for (node, &is_dropped) in dropped.iter().enumerate() {
            if is_dropped {
                let base = (r * n + node) * c;
                data[base..base + c].fill(0.0);
            }
        }
    }
    out
}

/// The graph with masked nodes' rows/columns zeroed (Eq. 6).
fn masked_net(net: &SensorNetwork, dropped: &[bool]) -> SensorNetwork {
    let n = net.num_nodes();
    let mut adj = net.adjacency().clone();
    for i in 0..n {
        for j in 0..n {
            if dropped[i] || dropped[j] {
                adj.data_mut()[i * n + j] = 0.0;
            }
        }
    }
    net.with_adjacency(adj)
}

/// Mean node features over batch and time: `[B, M, N, C] -> [N, C]`.
fn mean_node_features(x: &Tensor) -> Tensor {
    x.sum_axes(&[0, 1], false)
        .scale(1.0 / (x.shape()[0] * x.shape()[1]) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;

    fn setup() -> (Tensor, SensorNetwork, Rng) {
        let mut rng = Rng::seed_from_u64(42);
        let net = random_geometric(10, 0.4, &mut rng);
        let x = rng.uniform_tensor(&[2, 6, 10, 2], 0.1, 1.0);
        (x, net, rng)
    }

    #[test]
    fn drop_nodes_zeroes_features_and_graph() {
        let (x, net, mut rng) = setup();
        let aug = Augmentation::DropNodes { ratio: 0.3 };
        let view = aug.apply(&x, &net, 2, &mut rng);
        assert_eq!(view.x.shape(), x.shape());
        let supports = view.supports.expect("spatial augmentation has supports");
        assert_eq!(supports.len(), SupportSet::diffusion(&net, 2).len());
        // Some node column is fully zero in the features.
        let mut any_zero_node = false;
        'outer: for node in 0..10 {
            let mut all_zero = true;
            for b in 0..2 {
                for t in 0..6 {
                    for c in 0..2 {
                        if view.x.at(&[b, t, node, c]) != 0.0 {
                            all_zero = false;
                        }
                    }
                }
            }
            if all_zero {
                any_zero_node = true;
                break 'outer;
            }
        }
        assert!(any_zero_node, "no node was masked");
    }

    #[test]
    fn drop_edges_removes_light_edges_only() {
        let (x, net, mut rng) = setup();
        let before = SupportSet::diffusion(&net, 1);
        let view = Augmentation::DropEdges { ratio: 0.4 }.apply(&x, &net, 1, &mut rng);
        let after = view.supports.unwrap();
        // Signal untouched.
        assert_eq!(view.x, x);
        // Support count unchanged; the matrices differ.
        assert_eq!(before.len(), after.len());
        assert_ne!(before.forward[0], after.forward[0]);
    }

    #[test]
    fn subgraph_keeps_a_connected_fraction() {
        let (x, net, mut rng) = setup();
        let view = Augmentation::SubGraph { keep_ratio: 0.5 }.apply(&x, &net, 1, &mut rng);
        // Roughly half the nodes should be zeroed.
        let mut zero_nodes = 0;
        for node in 0..10 {
            let all_zero =
                (0..2).all(|b| (0..6).all(|t| (0..2).all(|c| view.x.at(&[b, t, node, c]) == 0.0)));
            if all_zero {
                zero_nodes += 1;
            }
        }
        assert!((3..=7).contains(&zero_nodes), "{zero_nodes} masked");
    }

    #[test]
    fn add_edges_preserves_signal_and_changes_graph() {
        let (x, net, mut rng) = setup();
        let before = SupportSet::diffusion(&net, 1);
        let view = Augmentation::AddEdges {
            ratio: 0.2,
            min_hops: 2,
        }
        .apply(&x, &net, 1, &mut rng);
        assert_eq!(view.x, x);
        let after = view.supports.unwrap();
        assert_ne!(before.forward[0], after.forward[0]);
    }

    #[test]
    fn time_flip_reverses_window() {
        let x = Tensor::from_vec(
            (0..12).map(|v| v as f32).collect::<Vec<f32>>(),
            &[1, 3, 2, 2],
        );
        let mut rng = Rng::seed_from_u64(1);
        let flipped = time_shift(&x, TimeShiftKind::Flip, &mut rng);
        assert_eq!(flipped.at(&[0, 0, 0, 0]), x.at(&[0, 2, 0, 0]));
        assert_eq!(flipped.at(&[0, 2, 1, 1]), x.at(&[0, 0, 1, 1]));
    }

    #[test]
    fn time_slice_keeps_shape_and_range() {
        let (x, _, mut rng) = setup();
        for kind in [TimeShiftKind::Slice, TimeShiftKind::Warp] {
            let shifted = time_shift(&x, kind, &mut rng);
            assert_eq!(shifted.shape(), x.shape());
            // Linear interpolation cannot exceed the original value range.
            assert!(shifted.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn resize_time_endpoints_exact() {
        let x = Tensor::from_vec(vec![0.0, 10.0, 20.0], &[1, 3, 1, 1]);
        let up = resize_time(&x, 5);
        assert_eq!(up.shape(), &[1, 5, 1, 1]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(up.at(&[0, 4, 0, 0]), 20.0);
        assert!((up.at(&[0, 2, 0, 0]) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn sample_two_returns_distinct() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..50 {
            let (a, b) = Augmentation::sample_two(&mut rng);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn all_augmentations_preserve_batch_shape() {
        let (x, net, mut rng) = setup();
        for aug in Augmentation::default_set() {
            let view = aug.apply(&x, &net, 2, &mut rng);
            assert_eq!(view.x.shape(), x.shape(), "{aug:?} changed the shape");
            assert!(view.x.data().iter().all(|v| v.is_finite()));
        }
    }
}
